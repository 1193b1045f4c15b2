"""Finite trees with edge lengths drawn from an ordered abelian group.

Points are vertices or interior positions on an edge, addressed by an
exact offset from the edge's first endpoint.  All geometry (distances,
segments, medians) is computed exactly; the realized tree is never
discretized.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ._walk import _breadth_first, _components
from .errors import DomainError, GroupMismatch, InvalidEdge, InvalidPoint, _not_text
from .ordered import (
    ConvexSubgroup,
    LambdaElement,
    LambdaGroup,
    convex_quotient,
    embedding,
    half_in_group,
    in_two_lambda,
)


@dataclass(frozen=True)
class TreePoint:
    """A vertex or an interior edge point with an exact offset."""

    kind: str  # "vertex" | "interior"
    vertex: Optional[str] = None
    edge: Optional[str] = None
    offset: Optional[LambdaElement] = None

    @staticmethod
    def at_vertex(v: str) -> "TreePoint":
        return TreePoint("vertex", vertex=v)

    @staticmethod
    def on_edge(edge: str, offset: LambdaElement) -> "TreePoint":
        return TreePoint("interior", edge=edge, offset=offset)

    def is_vertex(self) -> bool:
        return self.kind == "vertex"

    def to_json(self):
        if self.is_vertex():
            return self.vertex
        return {"edge": self.edge, "offset": self.offset.to_json()}

    def __str__(self):
        if self.is_vertex():
            return self.vertex
        return f"{self.edge}@{self.offset}"


@dataclass(frozen=True)
class Edge:
    id: str
    a: str
    b: str
    length: LambdaElement


class LambdaTree:
    """Immutable finite tree over an ordered abelian group."""

    def __init__(self, group: LambdaGroup, vertices: Iterable[str], edges, edge_ids=None):
        self.group = group
        self.vertices = tuple(str(v) for v in vertices)
        vertex_set = set(self.vertices)
        if len(vertex_set) != len(self.vertices):
            raise DomainError("duplicate vertex identifiers")
        if not self.vertices:
            raise DomainError("a tree needs at least one vertex")
        self.edges: Dict[str, Edge] = {}
        self.adjacency: Dict[str, List[Tuple[str, str]]] = {v: [] for v in self.vertices}
        edges = list(edges)
        if edge_ids is None:
            edge_ids = [f"e{i}" for i in range(len(edges))]
        for eid, (a, b, length) in zip(edge_ids, edges):
            a, b = str(a), str(b)
            if eid in self.edges:
                raise InvalidEdge(f"duplicate edge id {eid}")
            if a not in vertex_set or b not in vertex_set:
                raise InvalidEdge(f"edge {eid} touches unknown vertex")
            if a == b:
                raise InvalidEdge(f"edge {eid} is a self-loop")
            if not isinstance(length, LambdaElement) or (
                length.group is not group and length.group != group
            ):
                raise GroupMismatch(f"edge {eid} length is not in the tree's group")
            if not length.is_positive():
                raise InvalidEdge(f"edge {eid} has nonpositive length")
            edge = Edge(eid, a, b, length)
            self.edges[eid] = edge
            self.adjacency[a].append((eid, b))
            self.adjacency[b].append((eid, a))
        if len(self.edges) != len(self.vertices) - 1:
            raise DomainError("edge count does not match a tree")
        # rooted at vertices[0]: (parent, edge to it), edge count and height
        root = self.vertices[0]
        self._parent = _breadth_first(root, self.adjacency.__getitem__)
        if len(self._parent) != len(self.vertices):
            raise DomainError("graph is not connected")
        self._depth = {root: 0}
        self._wdepth = {root: group.zero()}
        for v, (up, eid) in list(self._parent.items())[1:]:
            self._depth[v] = self._depth[up] + 1
            self._wdepth[v] = self._wdepth[up] + self.edges[eid].length

    # -- point handling ------------------------------------------------

    def vertex_point(self, v: str) -> TreePoint:
        if v not in self.adjacency:
            raise InvalidPoint(f"unknown vertex {v!r}")
        return TreePoint.at_vertex(v)

    def edge_point(self, eid: str, offset) -> TreePoint:
        edge = self.edges.get(eid)
        if edge is None:
            raise InvalidPoint(f"unknown edge {eid!r}")
        if not isinstance(offset, LambdaElement):
            try:
                coords = offset if isinstance(offset, (list, tuple)) else [offset]
                offset = self.group.element(*coords)
            except DomainError as exc:
                raise InvalidPoint(f"offset {offset} is not representable") from exc
        if offset.group != self.group:
            raise InvalidPoint("offset is not in the tree's group")
        zero = self.group.zero()
        if offset < zero or offset > edge.length:
            raise InvalidPoint(f"offset {offset} outside edge {eid}")
        if offset == zero:
            return TreePoint.at_vertex(edge.a)
        if offset == edge.length:
            return TreePoint.at_vertex(edge.b)
        return TreePoint.on_edge(eid, offset)

    def validate_point(self, p: TreePoint) -> TreePoint:
        """p itself when it is canonical, else its canonical form.

        Canonical is a known vertex, or an offset of the tree's group strictly
        inside a known edge.  Anything else goes through vertex_point or
        edge_point, which normalize it or raise InvalidPoint.
        """
        if not isinstance(p, TreePoint):
            raise InvalidPoint(f"not a tree point: {p!r}")
        if p.kind == "vertex":
            if p.vertex in self.adjacency and p.edge is None and p.offset is None:
                return p
            return self.vertex_point(p.vertex)
        edge, offset, group = self.edges.get(p.edge), p.offset, self.group
        if (
            p.kind == "interior"
            and p.vertex is None
            and edge is not None
            and isinstance(offset, LambdaElement)
            and (offset.group is group or offset.group == group)
            and offset.is_positive()
            and offset < edge.length
        ):
            return p
        return self.edge_point(p.edge, offset)

    def point_from_json(self, obj) -> TreePoint:
        if isinstance(obj, str):
            return self.vertex_point(obj)
        if isinstance(obj, dict) and "edge" in obj and "offset" in obj:
            offset = LambdaElement.from_json(obj["offset"], self.group)
            return self.edge_point(str(obj["edge"]), offset)
        raise InvalidPoint(f"unrecognized point description {obj!r}")

    # -- rooted bookkeeping ---------------------------------------------

    def lowest_common_ancestor(self, u: str, v: str) -> str:
        depth = self._depth
        parent = self._parent
        while depth[u] > depth[v]:
            u = parent[u][0]
        while depth[v] > depth[u]:
            v = parent[v][0]
        while u != v:
            u = parent[u][0]
            v = parent[v][0]
        return u

    def vertex_distance(self, u: str, v: str) -> LambdaElement:
        if u == v:
            return self.group.zero()
        return self._meet(TreePoint.at_vertex(u), TreePoint.at_vertex(v))[0]

    def vertex_path(self, u: str, v: str) -> List[str]:
        """Vertices along the unique path, endpoints included."""
        w = self.lowest_common_ancestor(u, v)
        down = [x for x, _ in reversed(self._climb(v, w))]
        return [x for x, _ in self._climb(u, w)] + [w] + down

    # -- metric ----------------------------------------------------------

    def _anchor(self, p: TreePoint) -> Tuple[str, LambdaElement]:
        """The lower end of p's edge (p itself for a vertex), and p's height above the root."""
        if p.kind == "vertex":
            return p.vertex, self._wdepth[p.vertex]
        edge = self.edges[p.edge]
        if self._depth[edge.b] > self._depth[edge.a]:
            return edge.b, self._wdepth[edge.a] + p.offset
        return edge.a, self._wdepth[edge.a] - p.offset

    def _meet(self, p: TreePoint, q: TreePoint) -> Tuple[LambdaElement, str, str, str]:
        """d(p, q) = h(p) + h(q) - 2 h(p^q), with both anchors and their lowest common ancestor w.

        p^q is where the paths from p and q to the root meet: the higher
        of p and q when w is one of the anchors, and w otherwise.
        """
        cp, hp = self._anchor(p)
        cq, hq = self._anchor(q)
        w = self.lowest_common_ancestor(cp, cq)
        if w == cp or w == cq:
            return (hp - hq).abs(), cp, cq, w
        top = self._wdepth[w]
        return (hp - top) + (hq - top), cp, cq, w

    def _climb(self, x: str, top: str) -> List[Tuple[str, str]]:
        """(vertex, edge to its parent) for each step from x up to its ancestor top."""
        steps = []
        while x != top:
            up, eid = self._parent[x]
            steps.append((x, eid))
            x = up
        return steps

    def distance(self, p: TreePoint, q: TreePoint) -> LambdaElement:
        return self._meet(self.validate_point(p), self.validate_point(q))[0]

    def path_walk(self, p: TreePoint, q: TreePoint) -> "PathWalk":
        p = self.validate_point(p)
        q = self.validate_point(q)
        zero = self.group.zero()
        if p == q:
            return PathWalk(self, p, q, [], zero)
        length, cp, cq, w = self._meet(p, q)
        if cp == cq and not p.is_vertex() and not q.is_vertex():
            return PathWalk(self, p, q, [(p.edge, p.offset, q.offset)], length)
        # an interior point leaves its edge downward when its anchor is w, else upward
        ep = cp if p.is_vertex() or cp == w else self._parent[cp][0]
        eq = cq if q.is_vertex() or cq == w else self._parent[cq][0]
        arcs: List[Tuple[str, LambdaElement, LambdaElement]] = []
        if not p.is_vertex():
            edge = self.edges[p.edge]
            arcs.append((p.edge, p.offset, zero if ep == edge.a else edge.length))
        for x, eid in self._climb(ep, w):
            edge = self.edges[eid]
            arcs.append((eid, zero, edge.length) if edge.a == x else (eid, edge.length, zero))
        for x, eid in reversed(self._climb(eq, w)):
            edge = self.edges[eid]
            arcs.append((eid, edge.length, zero) if edge.a == x else (eid, zero, edge.length))
        if not q.is_vertex():
            edge = self.edges[q.edge]
            arcs.append((q.edge, zero if eq == edge.a else edge.length, q.offset))
        return PathWalk(self, p, q, arcs, length)

    def median(self, p: TreePoint, q: TreePoint, r: TreePoint) -> TreePoint:
        spread = self.distance(p, q) + self.distance(p, r) - self.distance(q, r)
        alpha = half_in_group(spread)
        return self.path_walk(p, q).point_at(alpha)

    # -- structural transforms --------------------------------------------

    def base_change(self, target: LambdaGroup) -> "LambdaTree":
        embed = embedding(self.group, target)
        edges = [(e.a, e.b, embed(e.length)) for e in self.edges.values()]
        return LambdaTree(target, self.vertices, edges, list(self.edges))

    def convex_quotient_tree(self, subgroup: ConvexSubgroup) -> "QuotientResult":
        if subgroup.group != self.group:
            raise GroupMismatch("subgroup is over a different group")
        inside = {eid: subgroup.contains(e.length) for eid, e in self.edges.items()}

        def step(v: str):
            return ((eid, w) for eid, w in self.adjacency[v] if inside[eid])

        # each fiber is named by its least vertex
        component = {min(fiber): fiber for fiber in _components(self.vertices, step)}
        name = {v: least for least, fiber in component.items() for v in fiber}
        vertex_map = {v: name[v] for v in self.vertices}
        new_edges = []
        new_ids = []
        fiber_edges: Dict[str, list] = {root: [] for root in component}
        fiber_ids: Dict[str, List[str]] = {root: [] for root in component}
        for edge in self.edges.values():
            if inside[edge.id]:
                root = vertex_map[edge.a]
                fiber_edges[root].append((edge.a, edge.b, edge.length))
                fiber_ids[root].append(edge.id)
            else:
                ends = (vertex_map[edge.a], vertex_map[edge.b])
                new_edges.append(ends + (convex_quotient(edge.length, subgroup),))
                new_ids.append(edge.id)
        quotient = LambdaTree(subgroup.quotient_group(), sorted(component), new_edges, new_ids)
        fibers = {
            root: LambdaTree(self.group, sorted(members), fiber_edges[root], fiber_ids[root])
            for root, members in component.items()
        }
        return QuotientResult(quotient, fibers, vertex_map)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "vertices": list(self.vertices),
            "edges": [
                {"a": e.a, "b": e.b, "len": e.length.to_json()} for e in self.edges.values()
            ],
        }

    @staticmethod
    def from_json(obj: dict) -> "LambdaTree":
        return LambdaTree(*_graph_from_json(obj))

    def __str__(self):
        return f"LambdaTree({len(self.vertices)} vertices, {len(self.edges)} edges)"


class PathWalk:
    """The unique reduced path between two points, as traversable arcs.

    Each arc is (edge id, start offset, end offset); offsets are measured
    from the edge's first endpoint, and the traversal runs monotonically
    from start to end within each arc.
    """

    def __init__(self, tree: LambdaTree, start: TreePoint, end: TreePoint, arcs, length):
        self.tree = tree
        self.start = start
        self.end = end
        self.arcs = arcs
        self.length = length

    def point_at(self, s: LambdaElement) -> TreePoint:
        zero = self.tree.group.zero()
        if s < zero or s > self.length:
            raise InvalidPoint(f"arc position {s} outside [0, {self.length}]")
        if s == zero:
            return self.start
        acc = zero
        for eid, a, b in self.arcs:
            arc_len = (b - a).abs()
            nxt = acc + arc_len
            if s <= nxt:
                rem = s - acc
                offset = a + rem if b > a else a - rem
                return self.tree.edge_point(eid, offset)
            acc = nxt
        return self.end

    def contains(self, x: TreePoint) -> bool:
        return self.tree.distance(self.start, x) + self.tree.distance(x, self.end) == self.length

    def interior_vertices(self) -> List[str]:
        """Vertices strictly between the endpoints, in traversal order."""
        out: List[str] = []
        zero = self.tree.group.zero()
        for i in range(len(self.arcs) - 1):
            eid, a, b = self.arcs[i]
            edge = self.tree.edges[eid]
            out.append(edge.a if b == zero else edge.b)
        return out


@dataclass
class QuotientResult:
    """A quotient tree, its fibers keyed by quotient vertex, and the vertex map."""

    tree: LambdaTree
    fibers: Dict[str, LambdaTree]
    vertex_map: Dict[str, str]


def _graph_from_json(obj) -> Tuple[LambdaGroup, List[str], list]:
    """The group, vertex names and (a, b, length) edges a tree's JSON describes.

    A string where a list belongs is refused rather than read by character.
    """
    group = LambdaGroup.from_json(obj["group"])
    vertices = [str(v) for v in _not_text(obj["vertices"], "tree vertices")]
    edges = []
    for i, rec in enumerate(_not_text(obj["edges"], "tree edges")):
        length = LambdaElement.from_json(_not_text(rec["len"], f"edge e{i} len"), group)
        edges.append((str(rec["a"]), str(rec["b"]), length))
    return group, vertices, edges


def _structural_report(group, vertices, edges) -> Optional[dict]:
    """Connectivity/acyclicity/positivity screening for raw graph data."""
    ids = [str(v) for v in vertices]
    if len(set(ids)) != len(ids):
        return {"valid": False, "axiom": "b", "witness": "duplicate vertex identifiers"}
    if not ids:
        return {"valid": False, "axiom": "a", "witness": "empty vertex set"}
    vertex_set = set(ids)
    zero = group.zero()
    adjacency = {v: [] for v in ids}
    for i, (a, b, length) in enumerate(edges):
        a, b = str(a), str(b)
        if a not in vertex_set or b not in vertex_set:
            return {
                "valid": False,
                "axiom": "a",
                "witness": f"edge {i} touches a vertex outside the tree",
            }
        if not length.is_positive():
            return {
                "valid": False,
                "axiom": "metric",
                "witness": f"edge {i} has nonpositive length {length}",
            }
        if a == b:
            return {
                "valid": False,
                "axiom": "b",
                "witness": f"self-loop at {a}: two distinct segments from {a} to itself",
            }
        adjacency[a].append((i, b))
        adjacency[b].append((i, a))
    # connectivity
    seen = _breadth_first(ids[0], adjacency.__getitem__)
    if len(seen) != len(ids):
        inside = ids[0]
        outside = next(v for v in ids if v not in seen)
        return {
            "valid": False,
            "axiom": "a",
            "witness": f"no segment joins {inside} and {outside}: graph is disconnected",
        }
    # acyclicity: a connected graph with more than n-1 edges has a cycle
    if len(edges) >= len(ids):
        cycle = _find_cycle(ids, adjacency)
        u, v = cycle
        return {
            "valid": False,
            "axiom": "b",
            "witness": f"two distinct segments join {u} and {v}: cycle detected",
        }
    return None


def _find_cycle(ids, adjacency) -> Tuple[str, str]:
    """Two vertices joined by distinct arcs in a connected non-forest."""
    parent = {ids[0]: (None, None)}
    stack = [ids[0]]
    while stack:
        v = stack.pop()
        for eid, w in adjacency[v]:
            if w not in parent:
                parent[w] = (v, eid)
                stack.append(w)
            elif parent[v][1] != eid:
                return (v, w)
    raise AssertionError("cycle expected but not found")


def random_point(tree: LambdaTree, rng: random.Random) -> TreePoint:
    """A random vertex or representable interior point, for sampling."""
    choices = list(tree.vertices)
    if tree.edges and rng.random() < 0.5:
        eid = rng.choice(sorted(tree.edges))
        edge = tree.edges[eid]
        if in_two_lambda(edge.length):
            return tree.edge_point(eid, half_in_group(edge.length))
        unit = tree.group.element(
            *([0] * (tree.group.rank - 1) + [1])
        )
        if tree.group.zero() < unit < edge.length:
            return tree.edge_point(eid, unit)
    return tree.vertex_point(rng.choice(choices))


def check_axioms(candidate, sample_size: int = 50, seed: int = 0) -> dict:
    """Validate tree axioms on a raw graph description or a LambdaTree.

    The structural screen (connectivity, acyclicity, positive lengths) is
    complete; segment axioms are then spot-checked on sampled points.
    Returns a report dict with keys valid, axiom, witness, samples.
    """
    if isinstance(candidate, LambdaTree):
        group = candidate.group
        vertices = candidate.vertices
        edges = [(e.a, e.b, e.length) for e in candidate.edges.values()]
    elif isinstance(candidate, dict):
        group, vertices, edges = _graph_from_json(candidate)
    else:
        group, vertices, edges = candidate

    bad = _structural_report(group, vertices, edges)
    if bad is not None:
        bad["samples"] = 0
        return bad

    tree = LambdaTree(group, vertices, edges)
    rng = random.Random(seed)
    performed = 0
    for _ in range(sample_size):
        p = random_point(tree, rng)
        q = random_point(tree, rng)
        r = random_point(tree, rng)
        # axiom (a): a segment exists and realizes the distance
        seg = tree.path_walk(p, q)
        if seg.length != tree.distance(p, q):
            return {
                "valid": False,
                "axiom": "a",
                "witness": f"segment {p}..{q} does not realize the distance",
                "samples": performed,
            }
        # axiom (b): segments from a common endpoint meet in a segment
        m = tree.median(p, q, r)
        sr = tree.path_walk(p, r)
        if not (seg.contains(m) and sr.contains(m)):
            return {
                "valid": False,
                "axiom": "b",
                "witness": f"median of {p},{q},{r} escapes a defining segment",
                "samples": performed,
            }
        # axiom (c): segments overlapping in exactly one point concatenate
        if tree.distance(q, m) + tree.distance(m, r) != tree.distance(q, r):
            return {
                "valid": False,
                "axiom": "c",
                "witness": f"segments {q}..{m} and {m}..{r} do not concatenate",
                "samples": performed,
            }
        performed += 1
    return {"valid": True, "axiom": None, "witness": None, "samples": performed}
