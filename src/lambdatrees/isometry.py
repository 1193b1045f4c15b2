"""Self-isometries of finite trees, given by images of vertices.

An isometry here is the restriction of an isometry of an ambient tree:
it maps each vertex of its domain to a tree point, preserving all
pairwise distances.  The domain may omit vertices (a translation of a
finite path cannot map the last vertex anywhere), and applying the map
to a point outside the spanned subtree raises OrbitEscapesTree.

Displacement along any edge is a convex piecewise-linear function whose
slopes are -2, 0 or 2 and whose kinks sit at parameters where the image
path crosses a vertex, plus possibly one unattained dip toward zero.
All classification work (fixed sets, translation lengths, axes) reduces
to exact linear algebra on these profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    DomainError,
    InvalidPoint,
    NotAnIsometry,
    OrbitEscapesTree,
    TreeMismatch,
)
from .ordered import LambdaElement, half_in_group, in_two_lambda
from .tree import LambdaTree, PathWalk, TreePoint


class Subtree:
    """A closed subtree given by member vertices and closed edge arcs.

    Arcs are (lo, hi) offset intervals in edge coordinates, lo <= hi,
    possibly degenerate (a single interior point).
    """

    def __init__(self, tree: LambdaTree, vertices=(), arcs: Optional[Dict[str, list]] = None):
        self.tree = tree
        self.vertices = frozenset(vertices)
        merged: Dict[str, list] = {}
        for eid, spans in (arcs or {}).items():
            spans = sorted(spans, key=lambda ab: (ab[0].coords, ab[1].coords))
            out = []
            for lo, hi in spans:
                if out and lo <= out[-1][1]:
                    if hi > out[-1][1]:
                        out[-1] = (out[-1][0], hi)
                else:
                    out.append((lo, hi))
            if out:
                merged[eid] = out
        self.arcs = merged

    def is_empty(self) -> bool:
        return not self.vertices and not self.arcs

    def contains(self, p: TreePoint) -> bool:
        p = self.tree.validate_point(p)
        if p.is_vertex():
            if p.vertex in self.vertices:
                return True
            for eid, _ in self.tree.adjacency[p.vertex]:
                edge = self.tree.edges[eid]
                offset = self.tree.group.zero() if edge.a == p.vertex else edge.length
                for lo, hi in self.arcs.get(eid, []):
                    if lo <= offset <= hi:
                        return True
            return False
        for lo, hi in self.arcs.get(p.edge, []):
            if lo <= p.offset <= hi:
                return True
        return False

    def boundary_points(self) -> List[TreePoint]:
        """Member vertices plus arc endpoints; includes every extreme point."""
        out = [self.tree.vertex_point(v) for v in sorted(self.vertices)]
        for eid in sorted(self.arcs):
            for lo, hi in self.arcs[eid]:
                out.append(self.tree.edge_point(eid, lo))
                if hi != lo:
                    out.append(self.tree.edge_point(eid, hi))
        return list(dict.fromkeys(out))

    def canonical_point(self) -> TreePoint:
        if self.vertices:
            return self.tree.vertex_point(min(self.vertices))
        if self.arcs:
            eid = min(self.arcs)
            lo, hi = self.arcs[eid][0]
            return self.tree.edge_point(eid, lo)
        raise DomainError("empty subtree has no points")

    def distance_to(self, p: TreePoint) -> LambdaElement:
        """The least distance from p to a member vertex or an arc.

        An arc [a, b] lies d(p, [a, b]) = (d(p, a) + d(p, b) - d(a, b))/2
        from p, so no projection is built; _nearest also finds the point.
        """
        p = self.tree.validate_point(p)
        if self.is_empty():
            raise DomainError("distance to an empty subtree")
        dist = self.tree.distance
        found = [dist(p, self.tree.vertex_point(v)) for v in self.vertices]
        for eid, spans in self.arcs.items():
            for lo, hi in spans:
                a = self.tree.edge_point(eid, lo)
                b = self.tree.edge_point(eid, hi)
                found.append(half_in_group(dist(p, a) + dist(p, b) - (hi - lo)))
        return min(found)

    def _nearest(self, p: TreePoint) -> Tuple[LambdaElement, TreePoint]:
        """The distance from p and the first point realizing it.

        For a convex subtree, such as a fixed set, that point is the unique
        projection of p.
        """
        if self.is_empty():
            raise DomainError("distance to an empty subtree")
        candidates = [self.tree.vertex_point(v) for v in self.vertices]
        for eid, spans in self.arcs.items():
            for lo, hi in spans:
                a = self.tree.edge_point(eid, lo)
                b = self.tree.edge_point(eid, hi)
                candidates.append(self.tree.median(a, b, p) if a != b else a)
        best = None
        for z in candidates:
            d = self.tree.distance(p, z)
            if best is None or d < best[0]:
                best = (d, z)
        return best

    def intersection(self, other: "Subtree") -> "Subtree":
        if other.tree is not self.tree:
            raise TreeMismatch("subtrees over different trees")
        vertices = set()
        for v in set(self.vertices) | set(other.vertices):
            p = self.tree.vertex_point(v)
            if self.contains(p) and other.contains(p):
                vertices.add(v)
        arcs: Dict[str, list] = {}
        for eid in set(self.arcs) & set(other.arcs):
            spans = []
            for lo1, hi1 in self.arcs[eid]:
                for lo2, hi2 in other.arcs[eid]:
                    lo = max(lo1, lo2)
                    hi = min(hi1, hi2)
                    if lo <= hi:
                        spans.append((lo, hi))
            if spans:
                arcs[eid] = spans
        return Subtree(self.tree, vertices, arcs)

    def to_json(self) -> dict:
        return {
            "vertices": sorted(self.vertices),
            "arcs": [
                {"edge": eid, "from": lo.to_json(), "to": hi.to_json()}
                for eid in sorted(self.arcs)
                for lo, hi in self.arcs[eid]
            ],
        }

    def __str__(self):
        if self.is_empty():
            return "Subtree(empty)"
        return f"Subtree({sorted(self.vertices)}, {len(self.arcs)} arc-bearing edges)"


@dataclass(frozen=True)
class IsometryClass:
    """Classification outcome: kind, invariant data, and the length value."""

    kind: str  # "elliptic" | "inversion" | "hyperbolic"
    length: LambdaElement
    fixed_set: Optional[Subtree] = None
    flipped_segment: Optional[PathWalk] = None
    flipped_length: Optional[LambdaElement] = None
    tau: Optional[LambdaElement] = None
    axis: Optional[Subtree] = None

    def to_json(self) -> dict:
        out = {"kind": self.kind, "length": self.length.to_json()}
        if self.kind == "elliptic":
            out["fixed_set"] = self.fixed_set.to_json()
        elif self.kind == "inversion":
            out["flipped_length"] = self.flipped_length.to_json()
            out["flipped_segment"] = {
                "from": self.flipped_segment.start.to_json(),
                "to": self.flipped_segment.end.to_json(),
            }
        else:
            out["tau"] = self.tau.to_json()
            out["axis"] = self.axis.to_json()
        return out


@dataclass(frozen=True)
class NoCommonFixedPoint:
    """Witness that two elliptic isometries share no fixed point.

    The bridge runs from the first fixed set to the second.  The product
    translates along a line through the bridge by twice the bridge length,
    and the witness point realizes that minimum displacement.
    """

    bridge_start: TreePoint
    bridge_end: TreePoint
    bridge_length: LambdaElement
    composite_displacement: LambdaElement
    witness_point: TreePoint


class TreeIsometry:
    """A distance-preserving vertex map into the same tree.

    vertex_images maps a nonempty subset of vertices to tree points; the
    map extends uniquely over the subtree those vertices span.  _trusted
    images are canonical points the package built, taken unchecked.
    """

    def __init__(self, tree: LambdaTree, vertex_images: Dict[str, TreePoint], _trusted=False):
        if not isinstance(tree, LambdaTree):
            raise TreeMismatch("first argument must be a LambdaTree")
        self.tree = tree
        images = {}
        for v, p in vertex_images.items():
            if v not in tree.adjacency:
                raise InvalidPoint(f"unknown domain vertex {v!r}")
            images[v] = p if _trusted else tree.validate_point(p)
        if not images:
            raise OrbitEscapesTree("isometry with empty domain")
        self.vertex_images = images
        self._hull_cache: Optional[Tuple[set, Dict[str, Tuple[str, str]]]] = None
        self._profile_cache: Optional[Tuple[list, list]] = None
        self._image_cache: Dict[str, TreePoint] = {}
        self._inverse_cache: Optional[TreeIsometry] = None
        if not _trusted and not self._is_local_isometry():
            # the scan names the first pair of domain vertices at fault
            self._image_cache.clear()
            self._validate()

    def _is_local_isometry(self) -> bool:
        """Whether the images of the hull vertices keep each hull edge's
        length and fold no two hull neighbours of a vertex together.

        Segments [w, v] and [v, w'] that meet only at v join into the
        segment [w, w'] (Chiswell, Introduction to Lambda-trees, ch. 2), so
        such a map is an isometric embedding of the hull, as a locally
        injective map of trees is injective (Stallings 1983).  It costs one
        distance per hull edge and one per pair of hull edges at a vertex.
        """
        members, _ = self._hull()
        try:
            image = {v: self._vertex_image(v) for v in members}
        except InvalidPoint:
            return False
        dist = self.tree.distance
        for v in members:
            around = [
                (w, image[w], self.tree.edges[eid].length)
                for eid, w in self.tree.adjacency[v]
                if w in members
            ]
            for i, (w, fw, lw) in enumerate(around):
                if v < w and dist(image[v], fw) != lw:
                    return False
                for _, fx, lx in around[i + 1 :]:
                    if dist(fw, fx) != lw + lx:
                        return False
        return True

    def _validate(self) -> None:
        """Compare the distance of every pair of domain vertices with that
        of their images, and name the first pair that differs."""
        dom = sorted(self.vertex_images)
        for i, u in enumerate(dom):
            pu = self.tree.vertex_point(u)
            for v in dom[i + 1 :]:
                pv = self.tree.vertex_point(v)
                want = self.tree.distance(pu, pv)
                got = self.tree.distance(self.vertex_images[u], self.vertex_images[v])
                if want != got:
                    raise NotAnIsometry(
                        f"distance {u}..{v} is {want} but the images are {got} apart"
                    )

    # -- domain geometry ---------------------------------------------------

    def _hull(self) -> Tuple[set, Dict[str, Tuple[str, str]]]:
        """Vertices spanned by the domain, each with a bracketing witness pair."""
        if self._hull_cache is not None:
            return self._hull_cache
        dom = sorted(self.vertex_images)
        root = dom[0]
        members = {root}
        witness: Dict[str, Tuple[str, str]] = {root: (root, root)}
        for d in dom:
            path = self.tree.vertex_path(d, root)
            for v in path:
                if v in members and v != d:
                    continue
                members.add(v)
                witness[v] = (d, root)
        self._hull_cache = (members, witness)
        return self._hull_cache

    def domain_contains(self, p: TreePoint) -> bool:
        return self._spans(self.tree.validate_point(p))

    def _spans(self, p: TreePoint) -> bool:
        """Whether the already-checked point p lies in the mapped subtree."""
        members, _ = self._hull()
        if p.is_vertex():
            return p.vertex in members
        edge = self.tree.edges[p.edge]
        return edge.a in members and edge.b in members

    def hull_edges(self) -> List[str]:
        members, _ = self._hull()
        return [
            eid for eid, e in self.tree.edges.items() if e.a in members and e.b in members
        ]

    # -- application ---------------------------------------------------------

    def _vertex_image(self, v: str) -> TreePoint:
        got = self.vertex_images.get(v)
        if got is not None:
            return got
        cached = self._image_cache.get(v)
        if cached is not None:
            return cached
        members, witness = self._hull()
        if v not in members:
            raise OrbitEscapesTree(f"vertex {v} is outside the mapped subtree")
        d, r = witness[v]
        walk = self.tree.path_walk(self.vertex_images[d], self.vertex_images[r])
        s = self.tree.vertex_distance(d, v)
        image = walk.point_at(s)
        self._image_cache[v] = image
        return image

    def apply(self, p: TreePoint) -> TreePoint:
        p = self.tree.validate_point(p)
        if p.is_vertex():
            return self._vertex_image(p.vertex)
        if not self._spans(p):
            raise OrbitEscapesTree(f"point {p} is outside the mapped subtree")
        edge = self.tree.edges[p.edge]
        ia = self._vertex_image(edge.a)
        ib = self._vertex_image(edge.b)
        walk = self.tree.path_walk(ia, ib)
        return walk.point_at(p.offset)

    def displacement(self, p: TreePoint) -> LambdaElement:
        return self.tree.distance(p, self.apply(p))

    # -- algebra ---------------------------------------------------------------

    def compose(self, other: "TreeIsometry") -> "TreeIsometry":
        """self after other: x maps to self(other(x)).

        The composite lists, in tree order, each vertex of other's mapped
        subtree whose image self's mapped subtree holds.  A point of the
        letter-by-letter domain that those vertices do not span, such as
        half an edge, stays outside the composite.
        """
        if other.tree is not self.tree:
            raise TreeMismatch("isometries act on different trees")
        members, _ = other._hull()
        images = {}
        for v in self.tree.vertices:
            if v in members:
                mid = other._vertex_image(v)
                if self._spans(mid):
                    images[v] = self.apply(mid)
        if not images:
            raise OrbitEscapesTree("composite has empty domain")
        return TreeIsometry(self.tree, images, _trusted=True)

    def inverse(self) -> "TreeIsometry":
        """The inverse map, built once: its hull and images are then kept too."""
        if self._inverse_cache is None:
            self._inverse_cache = TreeIsometry(self.tree, self._preimages(), _trusted=True)
        return self._inverse_cache

    def _preimages(self) -> Dict[str, TreePoint]:
        if all(img.is_vertex() for img in self.vertex_images.values()):
            # vertex-to-vertex maps invert by swapping the pairs
            return {img.vertex: self.tree.vertex_point(v) for v, img in self.vertex_images.items()}
        # every tree vertex in the image is the image of a hull vertex or
        # lies on the image path of a hull edge, at its preimage's offset
        members, _ = self._hull()
        preimages = {}
        for v in members:
            img = self._vertex_image(v)
            if img.is_vertex():
                preimages[img.vertex] = self.tree.vertex_point(v)
        for eid in self.hull_edges():
            edge = self.tree.edges[eid]
            walk = self.tree.path_walk(self._vertex_image(edge.a), self._vertex_image(edge.b))
            s = self.tree.group.zero()
            for (_, o1, o2), w in zip(walk.arcs, walk.interior_vertices()):
                s = s + (o2 - o1).abs()
                preimages[w] = self.tree.edge_point(eid, s)
        images = {w: preimages[w] for w in self.tree.vertices if w in preimages}
        if not images:
            raise OrbitEscapesTree("inverse has empty domain")
        return images

    def __eq__(self, other):
        return (
            isinstance(other, TreeIsometry)
            and other.tree is self.tree
            and other.vertex_images == self.vertex_images
        )

    # -- displacement profiles ---------------------------------------------------

    def _edge_pieces(self, eid: str, shift: Dict[str, LambdaElement]):
        """Exact simple pieces of the displacement along a hull edge.

        The edge is parametrized by the offset s from its first endpoint.
        Each piece is (lo, hi, f_lo, f_hi, bottom2): on [lo, hi] the
        displacement is affine with slope -2, 0 or +2 between the endpoint
        values, unless bottom2 is set, in which case the image runs back
        along this very edge and f(s) = |2s - bottom2| exactly (the zero at
        bottom2/2 may or may not be a group point).  shift holds the
        displacement of each hull vertex, which gives f at both ends; each
        piece starts at the value the one before it ends with.
        """
        edge = self.tree.edges[eid]
        walk = self.tree.path_walk(self._vertex_image(edge.a), self._vertex_image(edge.b))
        if not walk.arcs:
            raise NotAnIsometry("edge endpoints share an image")
        pieces = []
        c = self.tree.group.zero()
        f_lo = shift[edge.a]
        for aid, o1, o2 in walk.arcs:
            c2 = c + (o2 - o1).abs()
            bottom2 = None
            if aid == eid and o2 < o1:
                # image moves backward along the edge itself
                f_hi = (c2 - o2).abs()
                if 2 * c < o1 + c < 2 * c2:
                    bottom2 = o1 + c
            elif aid == eid:
                # image moves forward along the edge: constant offset
                f_hi = f_lo
            elif c2 == edge.length:
                f_hi = shift[edge.b]
            else:
                # the breakpoint's image ends this arc of the image path
                x2 = self.tree.edge_point(eid, c2)
                f_hi = self.tree.distance(x2, self.tree.edge_point(aid, o2))
            pieces.append((c, c2, f_lo, f_hi, bottom2))
            c, f_lo = c2, f_hi
        return pieces

    def _profile(self) -> Tuple[list, list]:
        """The displacement function, computed once per map.

        Holds (vertex, displacement) for each hull vertex in sorted order,
        and (edge id, pieces) for each hull edge, pieces as _edge_pieces
        gives them.
        """
        if self._profile_cache is None:
            members, _ = self._hull()
            shift = {v: self.displacement(self.tree.vertex_point(v)) for v in sorted(members)}
            edges = [(eid, self._edge_pieces(eid, shift)) for eid in self.hull_edges()]
            self._profile_cache = (list(shift.items()), edges)
        return self._profile_cache

    def minimum_displacement(self) -> Tuple[LambdaElement, TreePoint]:
        """Exact minimum of d(x, phi x) over the mapped subtree, with witness."""
        vertices, edges = self._profile()
        witness, best = min(vertices, key=lambda vd: vd[1])
        for eid, pieces in edges:
            for lo, hi, f_lo, f_hi, bottom2 in pieces:
                if bottom2 is None:
                    continue  # affine: endpoints already cover the minimum
                if in_two_lambda(bottom2):
                    s = half_in_group(bottom2)
                    return (self.tree.group.zero(), self.tree.edge_point(eid, s))
                # zero approached but unattained: no group point realizes
                # the infimum here, so a blanket minimum claim would lie
                raise DomainError(
                    "displacement minimum is not attained at group points"
                )
        return (best, self.tree.vertex_point(witness))

    def level_set(self, target: LambdaElement) -> Subtree:
        """All points of the mapped subtree displaced by exactly target."""
        displaced, edges = self._profile()
        vertices = {v for v, d in displaced if d == target}
        arcs: Dict[str, list] = {}
        for eid, pieces in edges:
            spans = []
            for lo, hi, f_lo, f_hi, bottom2 in pieces:
                if bottom2 is not None:
                    # f(s) = |2s - bottom2|: candidates 2s = bottom2 -+ target
                    for num in (bottom2 - target, bottom2 + target):
                        if in_two_lambda(num):
                            s = half_in_group(num)
                            if lo <= s <= hi:
                                spans.append((s, s))
                    continue
                if f_lo == f_hi:
                    if f_lo == target:
                        spans.append((lo, hi))
                    continue
                # slope +-2: f meets target |f_lo - target|/2 past lo
                num = f_lo - target if f_lo > target else target - f_lo
                matches = (f_lo > target) == (f_hi < f_lo) or f_lo == target
                if matches and in_two_lambda(num):
                    s = lo + half_in_group(num)
                    if s <= hi:
                        spans.append((s, s))
            if spans:
                arcs[eid] = spans
        sub = Subtree(self.tree, vertices, arcs)
        return _absorb_arc_endpoints(sub)

    def fixed_set(self) -> Subtree:
        return self.level_set(self.tree.group.zero())

    # -- classification --------------------------------------------------------------

    def classify(self) -> IsometryClass:
        """Elliptic when g fixes a point of its mapped subtree, else
        hyperbolic when two_point_length certifies a value, else an inversion
        read off Fix(g^2).

        Once Fix(g) is empty a certified value is positive, since elliptic
        and inversion extensions have d(x, g^2x) <= d(x, gx).  With no
        certificate g^2 has an empty domain, and compose raises, or g swaps
        the ends of the tree edge holding the midpoint of some [x, gx], an
        edge Fix(g^2) then holds.
        """
        zero = self.tree.group.zero()
        fixed = self.fixed_set()
        if not fixed.is_empty():
            return IsometryClass("elliptic", zero, fixed_set=fixed)
        tau = two_point_length([self])
        if tau is not None:
            return IsometryClass("hyperbolic", tau, tau=tau, axis=self.level_set(tau))
        fixed2 = self.compose(self).fixed_set()
        # the longest segment g flips: from the first extreme point of
        # Fix(g^2) that g moves farthest, to its image
        moved = [(self.displacement(x), x) for x in fixed2.boundary_points()]
        lam, start = max(moved, key=lambda dx: dx[0])
        return IsometryClass(
            "inversion",
            zero,
            flipped_segment=self.tree.path_walk(start, self.apply(start)),
            flipped_length=lam,
        )

    # -- serialization ------------------------------------------------------------------

    @staticmethod
    def from_json(tree: LambdaTree, obj: dict) -> "TreeIsometry":
        mapping = obj["map"]
        if not isinstance(mapping, dict):
            raise TypeError("isometry map must be an object from vertices to points")
        images = {v: tree.point_from_json(target) for v, target in mapping.items()}
        return TreeIsometry(tree, images)

    def __str__(self):
        return f"TreeIsometry({len(self.vertex_images)} mapped vertices)"


def _absorb_arc_endpoints(sub: Subtree) -> Subtree:
    """Move arc endpoints that sit on vertices into the vertex set."""
    vertices = set(sub.vertices)
    arcs: Dict[str, list] = {}
    zero = sub.tree.group.zero()
    for eid, spans in sub.arcs.items():
        edge = sub.tree.edges[eid]
        keep = []
        for lo, hi in spans:
            if lo == zero:
                vertices.add(edge.a)
            if hi == edge.length:
                vertices.add(edge.b)
            if lo == hi and (lo == zero or lo == edge.length):
                continue
            keep.append((lo, hi))
        if keep:
            arcs[eid] = keep
    return Subtree(sub.tree, vertices, arcs)


def compose(phi: TreeIsometry, psi: TreeIsometry) -> TreeIsometry:
    """The isometry sending x to phi(psi(x))."""
    return phi.compose(psi)


def classify(phi: TreeIsometry) -> IsometryClass:
    return phi.classify()


def _word_image(letters: Sequence[TreeIsometry], p: TreePoint) -> Optional[TreePoint]:
    """p under letters[0] o ... o letters[-1], applied letter by letter, or
    None once a letter's mapped subtree does not hold the point."""
    for letter in reversed(letters):
        if not letter._spans(p):
            return None
        p = letter.apply(p)
    return p


def two_point_length(letters: Sequence[TreeIsometry]) -> Optional[LambdaElement]:
    """Translation length of letters[0] o ... o letters[-1], certified, or None.

    Takes the first vertex x of the tree whose images gx and g^2x are
    defined letter by letter and reads l = max(0, d(x, g^2x) - d(x, gx)).
    Each letter is the restriction of an isometry of a larger tree, and
    the word then extends to an isometry G of that tree which agrees with
    every letter-by-letter image; by Culler-Morgan, l(G) is this value at
    any point x, whatever extension is taken.  The point y at
    (d(x, gx) - l)/2 along [x, gx] projects x onto the axis, or onto the
    fixed set when l = 0, and the length is returned only when y
    certifies that this set meets the tree: gy = y for l = 0; for l > 0,
    d(y, gy) = l with g^2y also defined.  None means no certificate: no
    such x, a y outside the group (an inversion over a non-dyadic group),
    or a y that escapes or fails its check; the caller then composes and
    classifies.
    """
    tree = letters[0].tree
    for v in tree.vertices:
        x = TreePoint.at_vertex(v)
        gx = _word_image(letters, x)
        if gx is not None:
            g2x = _word_image(letters, gx)
            if g2x is not None:
                break
    else:
        return None
    moved = tree.distance(x, gx)
    length = max(tree.group.zero(), tree.distance(x, g2x) - moved)
    if not in_two_lambda(moved - length):
        return None
    y = tree.path_walk(x, gx).point_at(half_in_group(moved - length))
    gy = _word_image(letters, y)
    if gy is None:
        return None
    if length.is_zero():
        return length if gy == y else None
    if _word_image(letters, gy) is None or tree.distance(y, gy) != length:
        return None
    return length


def common_fixed_point(phi: TreeIsometry, psi: TreeIsometry):
    """A point fixed by both, or a NoCommonFixedPoint bridge witness."""
    if psi.tree is not phi.tree:
        raise TreeMismatch("isometries act on different trees")
    f_phi = phi.fixed_set()
    f_psi = psi.fixed_set()
    if f_phi.is_empty() or f_psi.is_empty():
        raise DomainError("common_fixed_point needs two elliptic isometries")
    common = f_phi.intersection(f_psi)
    if not common.is_empty():
        return common.canonical_point()
    # bridge from F_phi to F_psi: project each boundary point of F_phi
    # onto the convex set F_psi and keep the closest pair
    best = None
    for p in f_phi.boundary_points():
        d, q = f_psi._nearest(p)
        if best is None or d < best[0]:
            best = (d, p, q)
    gap, start, end = best
    composite = phi.compose(psi)
    disp, at = composite.minimum_displacement()
    return NoCommonFixedPoint(
        bridge_start=start,
        bridge_end=end,
        bridge_length=gap,
        composite_displacement=disp,
        witness_point=at,
    )
