"""Slow reference for the displacement profile of a tree isometry.

edge_pieces recomputes the displacement at both ends of every arc of an
edge's image path, locating each breakpoint's image by walking the path
from its start.  TreeIsometry._edge_pieces reads the vertex
displacements instead and carries each piece's end value into the next
piece; the two must give the same tuples.
"""

from lambdatrees.errors import NotAnIsometry


def edge_pieces(phi, eid):
    """The pieces (lo, hi, f_lo, f_hi, bottom2) of phi's displacement along eid."""
    tree = phi.tree
    edge = tree.edges[eid]
    walk = tree.path_walk(phi._vertex_image(edge.a), phi._vertex_image(edge.b))
    if not walk.arcs:
        raise NotAnIsometry("edge endpoints share an image")
    pieces = []
    c = tree.group.zero()
    for aid, o1, o2 in walk.arcs:
        c2 = c + (o2 - o1).abs()
        if aid == eid and o2 < o1:
            # image moves backward along the edge itself
            bottom2 = o1 + c
            f_lo = (c - o1).abs()
            f_hi = (c2 - o2).abs()
            if 2 * c < bottom2 < 2 * c2:
                pieces.append((c, c2, f_lo, f_hi, bottom2))
            else:
                pieces.append((c, c2, f_lo, f_hi, None))
        elif aid == eid:
            # image moves forward along the edge: constant offset
            f = (c - o1).abs()
            pieces.append((c, c2, f, f, None))
        else:
            x1 = tree.edge_point(eid, c)
            x2 = tree.edge_point(eid, c2)
            f_lo = tree.distance(x1, walk.point_at(c))
            f_hi = tree.distance(x2, walk.point_at(c2))
            pieces.append((c, c2, f_lo, f_hi, None))
        c = c2
    return pieces
