"""The hand-written graph walks, kept as the oracle for the shared walk.

Before every traversal went through one breadth-first helper, each chore
had its own loop: a union-find that named each convex-quotient fiber by
linking the higher root under the lower, a lazy depth-first rooting of
``LambdaTree``, four queue loops in ``graph_of_groups`` (the spanning
tree, the components left by cutting one edge, the transitivity test of
a coset action and the Schreier generators), and a union-find that
checked a chosen spanning tree edge by edge.  They are reproduced here
as they were, so nothing in this module calls the shared walk.  The
union-find also draws the shuffled spanning trees that some tests pass
in.
"""

from collections import deque
from typing import Dict, List

from lambdatrees.errors import (
    DomainError,
    GroupMismatch,
    InvalidEdge,
    NotConnected,
    NotTransitive,
)
from lambdatrees.graph_of_groups import CosetAction, SchreierRecord, _adjacency
from lambdatrees.ordered import convex_quotient
from lambdatrees.tree import LambdaTree, QuotientResult
from lambdatrees.words import check_symbol, free_reduce, invert_word


def rooting(tree):
    """(parent, depth, height) tables by depth-first search from vertices[0]."""
    root = tree.vertices[0]
    parent = {root: None}
    depth = {root: 0}
    wdepth = {root: tree.group.zero()}
    stack = [root]
    while stack:
        v = stack.pop()
        for eid, w in tree.adjacency[v]:
            if w not in parent:
                parent[w] = (v, eid)
                depth[w] = depth[v] + 1
                wdepth[w] = wdepth[v] + tree.edges[eid].length
                stack.append(w)
    return parent, depth, wdepth


def convex_quotient_tree(tree, subgroup):
    """The quotient, its fibers and the vertex map, fibers named by union-find."""
    if subgroup.group != tree.group:
        raise GroupMismatch("subgroup is over a different group")
    rep = {v: v for v in tree.vertices}

    def find(v):
        while rep[v] != v:
            rep[v] = rep[rep[v]]
            v = rep[v]
        return v

    inside = {eid: subgroup.contains(e.length) for eid, e in tree.edges.items()}
    for edge in tree.edges.values():
        if inside[edge.id]:
            ra, rb = find(edge.a), find(edge.b)
            if ra != rb:
                high, low = (ra, rb) if ra > rb else (rb, ra)
                rep[high] = low
    vertex_map = {v: find(v) for v in tree.vertices}
    component: Dict[str, List[str]] = {}
    for v in tree.vertices:
        component.setdefault(vertex_map[v], []).append(v)
    new_edges, new_ids = [], []
    fiber_edges = {root: [] for root in component}
    fiber_ids = {root: [] for root in component}
    for edge in tree.edges.values():
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
        root: LambdaTree(tree.group, sorted(members), fiber_edges[root], fiber_ids[root])
        for root, members in component.items()
    }
    return QuotientResult(quotient, fibers, vertex_map)


def spanning_tree_edges(gog):
    """Breadth first from the least vertex; tree edges in discovery order."""
    root = min(gog.vertex_groups)
    adj = _adjacency(gog)
    seen = {root}
    tree = []
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for eid, w in adj[u]:
            if w not in seen:
                seen.add(w)
                tree.append(eid)
                queue.append(w)
    if len(seen) != len(gog.vertex_groups):
        missing = sorted(set(gog.vertex_groups) - seen)
        raise NotConnected(f"vertices unreachable from {root!r}: {missing}")
    return tree


def _union(parent, a, b) -> bool:
    """Join the classes of a and b in a union-find forest; False if already joined."""
    roots = []
    for v in (a, b):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        roots.append(v)
    if roots[0] == roots[1]:
        return False
    parent[roots[0]] = roots[1]
    return True


def random_spanning_tree(gog, rng):
    """A spanning tree from a shuffled edge scan."""
    order = list(gog.edges)
    rng.shuffle(order)
    parent = {v: v for v in gog.vertex_groups}
    tree = [e.id for e in order if _union(parent, e.tail, e.head)]
    if len(tree) != len(gog.vertex_groups) - 1:
        raise NotConnected("graph is not connected")
    return tree


def check_spanning_tree(gog, tree):
    """Refuse unknown ids, then join the chosen edges one by one."""
    ids = {e.id for e in gog.edges}
    for eid in tree:
        if eid not in ids:
            raise InvalidEdge(f"no edge {eid!r}")
    parent = {v: v for v in gog.vertex_groups}
    count = 0
    chosen = set(tree)
    for e in gog.edges:
        if e.id in chosen:
            if not _union(parent, e.tail, e.head):
                raise DomainError("chosen edges contain a cycle")
            count += 1
    if count != len(gog.vertex_groups) - 1:
        raise DomainError("chosen edges do not span the graph")


def components_without(gog, edge_id):
    """Vertex lists of the components left when edge_id is cut, by its own adjacency."""
    adj = {v: [] for v in gog.vertex_groups}
    for e in gog.edges:
        if e.id == edge_id:
            continue
        adj[e.tail].append(e.head)
        adj[e.head].append(e.tail)
    comps = []
    seen = set()
    for start in gog.vertex_groups:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    queue.append(w)
        comps.append(comp)
    return comps


def coset_action(degree, perms):
    """CosetAction.make with its own queue loop for transitivity."""
    if degree < 1:
        raise DomainError("degree must be at least 1")
    norm = {}
    for sym, images in perms.items():
        check_symbol(sym)
        images = tuple(int(i) for i in images)
        if sorted(images) != list(range(1, degree + 1)):
            raise DomainError(f"images of {sym!r} are not a permutation of 1..{degree}")
        norm[sym] = images
    seen = {1}
    queue = deque([1])
    while queue:
        i = queue.popleft()
        for images in norm.values():
            j = images[i - 1]
            if j not in seen:
                seen.add(j)
                queue.append(j)
    return CosetAction(degree, norm, len(seen) == degree)


def schreier_rank(r, action):
    """Schreier generators over a breadth-first spanning tree of the coset graph."""
    if r != len(action.perms):
        raise DomainError(f"rank {r} does not match {len(action.perms)} permutations")
    if not action.transitive:
        raise NotTransitive("the coset action is not transitive")
    coset_word = {1: ()}
    order = [1]
    queue = deque([1])
    tree_edges = set()
    while queue:
        i = queue.popleft()
        for sym, images in action.perms.items():
            j = images[i - 1]
            if j not in coset_word:
                coset_word[j] = coset_word[i] + ((sym, 1),)
                tree_edges.add((i, sym))
                order.append(j)
                queue.append(j)
    gens = []
    for i in order:
        for sym, images in action.perms.items():
            if (i, sym) in tree_edges:
                continue
            j = images[i - 1]
            gens.append(free_reduce(coset_word[i] + ((sym, 1),) + invert_word(coset_word[j])))
    return SchreierRecord(len(gens), tuple(gens))
