"""The tree metric by exit search, kept as the oracle for ``LambdaTree``.

This is how ``LambdaTree.distance`` and ``path_walk`` worked before they
read distances off rooted heights: try every (exit of p, entry of q)
pair of edge endpoints and keep the cheapest route through vertices.
Vertex routes come from a breadth-first search over the adjacency
lists, so nothing here uses the tree's rooted bookkeeping.
"""

from collections import deque

from lambdatrees.errors import InvalidPoint
from lambdatrees.ordered import half_in_group
from lambdatrees.tree import PathWalk, TreePoint


def point(tree, p):
    """The canonical form of p: a fresh vertex or edge point, or InvalidPoint."""
    if not isinstance(p, TreePoint):
        raise InvalidPoint(f"not a tree point: {p!r}")
    if p.is_vertex():
        return tree.vertex_point(p.vertex)
    return tree.edge_point(p.edge, p.offset)


def vertex_route(tree, u, v):
    """The steps (edge id, from, to) of the path from vertex u to vertex v."""
    back = {u: None}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for eid, y in tree.adjacency[x]:
            if y not in back:
                back[y] = (x, eid)
                queue.append(y)
    steps = []
    x = v
    while back[x] is not None:
        prev, eid = back[x]
        steps.append((eid, prev, x))
        x = prev
    return steps[::-1]


def vertex_distance(tree, u, v):
    total = tree.group.zero()
    for eid, _, _ in vertex_route(tree, u, v):
        total = total + tree.edges[eid].length
    return total


def exit_costs(tree, p):
    """Vertices through which paths leave p, with the cost of reaching them."""
    if p.is_vertex():
        return [(p.vertex, tree.group.zero())]
    edge = tree.edges[p.edge]
    return [(edge.a, p.offset), (edge.b, edge.length - p.offset)]


def exit_pair(tree, p, q):
    """The shortest route from p to q through vertices: (length, exit of p, entry of q)."""
    best = None
    for ep, cp in exit_costs(tree, p):
        for eq, cq in exit_costs(tree, q):
            cand = cp + vertex_distance(tree, ep, eq) + cq
            if best is None or cand < best[0]:
                best = (cand, ep, eq)
    return best


def _same_edge(p, q):
    return not p.is_vertex() and not q.is_vertex() and p.edge == q.edge


def distance(tree, p, q):
    p, q = point(tree, p), point(tree, q)
    if _same_edge(p, q):
        return (p.offset - q.offset).abs()
    return exit_pair(tree, p, q)[0]


def path_walk(tree, p, q):
    p, q = point(tree, p), point(tree, q)
    zero = tree.group.zero()
    if p == q:
        return PathWalk(tree, p, q, [], zero)
    if _same_edge(p, q):
        return PathWalk(tree, p, q, [(p.edge, p.offset, q.offset)], (p.offset - q.offset).abs())
    total, ep, eq = exit_pair(tree, p, q)
    arcs = []
    if not p.is_vertex():
        edge = tree.edges[p.edge]
        arcs.append((p.edge, p.offset, zero if ep == edge.a else edge.length))
    for eid, u, _ in vertex_route(tree, ep, eq):
        edge = tree.edges[eid]
        arcs.append((eid, zero, edge.length) if edge.a == u else (eid, edge.length, zero))
    if not q.is_vertex():
        edge = tree.edges[q.edge]
        arcs.append((q.edge, zero if eq == edge.a else edge.length, q.offset))
    return PathWalk(tree, p, q, arcs, total)


def median(tree, p, q, r):
    p, q, r = point(tree, p), point(tree, q), point(tree, r)
    spread = distance(tree, p, q) + distance(tree, p, r) - distance(tree, q, r)
    return path_walk(tree, p, q).point_at(half_in_group(spread))
