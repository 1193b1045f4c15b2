"""The tree metric from rooted heights against the exit-search oracle.

``tree_reference`` finds each route by trying every (exit, entry) pair
of edge endpoints.  ``LambdaTree`` reads d(p, q) = h(p) + h(q) - 2 h(p^q)
off one lowest-common-ancestor walk.  Both must give the same distances,
path arcs and medians, normalize the same raw points and refuse the same
invalid ones with the same message, on rank-1, rank-2 and dyadic trees
whose root and edge orientations vary.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import tree_reference as ref
from lambdatrees.errors import LambdaTreeError
from lambdatrees.isometry import Subtree, TreeIsometry
from lambdatrees.ordered import LambdaGroup
from lambdatrees.tree import LambdaTree, TreePoint

EXACT = settings.get_profile("derandomized")

Z1 = LambdaGroup(1)
Z2 = LambdaGroup(2)
D1 = LambdaGroup(1, dyadic=True)
Z3 = LambdaGroup(3)  # offsets from a group no tree here uses


def lengths(group):
    if group is Z1:
        return st.builds(Z1.element, st.integers(1, 6))
    if group is D1:
        return st.builds(lambda k: D1.element(Fraction(k, 4)), st.integers(1, 24))
    return st.one_of(
        st.builds(Z2.element, st.just(0), st.integers(1, 5)),
        st.builds(Z2.element, st.integers(1, 2), st.integers(-3, 5)),
    )


def inside(group, length):
    """Every offset of a small grid strictly inside (0, length)."""
    if group is D1:
        grid = [D1.element(Fraction(k, 8)) for k in range(1, 8 * int(length.coords[0]) + 8)]
    elif group is Z1:
        grid = [Z1.element(k) for k in range(1, 7)]
    else:
        grid = [Z2.element(x, y) for x in range(0, 3) for y in range(-3, 6)]
    zero = group.zero()
    return [o for o in grid if zero < o < length]


@st.composite
def trees(draw):
    """A tree on 1 to 10 vertices whose root and edge directions are drawn too."""
    group = draw(st.sampled_from([Z1, Z2, D1]))
    n = draw(st.integers(1, 10))
    edges = []
    for i in range(1, n):
        a, b = f"v{draw(st.integers(0, i - 1))}", f"v{i}"
        if draw(st.booleans()):
            a, b = b, a
        edges.append((a, b, draw(lengths(group))))
    edges = draw(st.permutations(edges))
    vertices = draw(st.permutations([f"v{i}" for i in range(n)]))
    return LambdaTree(group, vertices, edges)


@st.composite
def points(draw, tree):
    """A vertex point, or an edge point whose offset may be 0 or the edge length."""
    vertex = TreePoint.at_vertex(draw(st.sampled_from(tree.vertices)))
    if not tree.edges:
        return vertex
    eid = draw(st.sampled_from(sorted(tree.edges)))
    edge = tree.edges[eid]
    offsets = [tree.group.zero(), edge.length] + inside(tree.group, edge.length)
    raw = TreePoint("interior", edge=eid, offset=draw(st.sampled_from(offsets)))
    return draw(st.sampled_from([vertex, raw]))


@st.composite
def cases(draw, count):
    tree = draw(trees())
    return tree, [draw(points(tree)) for _ in range(count)]


def outcome(fn):
    try:
        return fn()
    except LambdaTreeError as exc:
        return (type(exc), str(exc))


def walk_of(walk):
    return walk.start, walk.end, walk.arcs, walk.length


@EXACT
@given(cases(2))
def test_distance_matches_exit_search(case):
    tree, (p, q) = case
    assert tree.distance(p, q) == ref.distance(tree, p, q)
    assert tree.distance(q, p) == ref.distance(tree, p, q)


@EXACT
@given(cases(2))
def test_path_walk_arcs_match_exit_search(case):
    tree, (p, q) = case
    assert walk_of(tree.path_walk(p, q)) == walk_of(ref.path_walk(tree, p, q))
    assert walk_of(tree.path_walk(q, p)) == walk_of(ref.path_walk(tree, q, p))


@EXACT
@given(cases(3))
def test_median_matches_exit_search(case):
    tree, (p, q, r) = case
    assert outcome(lambda: tree.median(p, q, r)) == outcome(lambda: ref.median(tree, p, q, r))


@EXACT
@given(cases(1), st.data())
def test_raw_endpoints_normalize_to_vertices(case, data):
    tree, (p,) = case
    canonical = ref.point(tree, p)
    assert tree.validate_point(p) == canonical
    if p == canonical:
        assert tree.validate_point(p) is p
    walk = tree.path_walk(p, p)
    assert (walk.start, walk.end, walk.arcs) == (canonical, canonical, [])
    assert tree.distance(p, canonical).is_zero()
    partial = data.draw(st.sets(st.sampled_from(tree.vertices), min_size=1))
    restriction = TreeIsometry(tree, {v: tree.vertex_point(v) for v in partial})
    assert outcome(lambda: restriction.apply(p)) == outcome(lambda: restriction.apply(canonical))
    assert restriction.domain_contains(p) == restriction.domain_contains(canonical)
    arcs = {}
    if tree.edges:
        eid = data.draw(st.sampled_from(sorted(tree.edges)))
        ends = [tree.group.zero(), tree.edges[eid].length]
        span = data.draw(st.lists(st.sampled_from(ends), min_size=2, max_size=2))
        arcs[eid] = [tuple(sorted(span))]
    sub = Subtree(tree, data.draw(st.sets(st.sampled_from(tree.vertices))), arcs)
    assert sub.contains(p) == sub.contains(canonical)


def invalid_points(tree):
    out = [
        TreePoint.at_vertex("nowhere"),
        TreePoint("interior", edge="nowhere", offset=tree.group.zero()),
    ]
    for eid, edge in tree.edges.items():
        out.append(TreePoint("interior", edge=eid, offset=edge.length + edge.length))
        out.append(TreePoint("interior", edge=eid, offset=-edge.length))
        out.append(TreePoint("interior", edge=eid, offset=Z3.element(0, 0, 1)))
    return out


@EXACT
@given(cases(1))
def test_invalid_points_raise_the_oracle_message(case):
    tree, (p,) = case
    identity = TreeIsometry(tree, {v: tree.vertex_point(v) for v in tree.vertices})
    whole = Subtree(tree, tree.vertices)
    for bad in invalid_points(tree):
        want = outcome(lambda: ref.point(tree, bad))
        assert isinstance(want, tuple)
        assert outcome(lambda: tree.validate_point(bad)) == want
        assert outcome(lambda: tree.distance(p, bad)) == want
        assert outcome(lambda: tree.distance(bad, p)) == want
        assert outcome(lambda: tree.path_walk(p, bad)) == want
        assert outcome(lambda: tree.median(p, p, bad)) == want
        assert outcome(lambda: identity.apply(bad)) == want
        assert outcome(lambda: whole.contains(bad)) == want


@EXACT
@given(cases(2))
def test_distance_walks_to_one_common_ancestor(case):
    tree, (p, q) = case
    tree.distance(p, q)  # roots the tree
    calls = []

    def lca(u, v):
        calls.append("lowest_common_ancestor")
        return LambdaTree.lowest_common_ancestor(tree, u, v)

    tree.lowest_common_ancestor = lca
    tree.vertex_distance = lambda u, v: calls.append("vertex_distance")
    tree.distance(p, q)
    assert calls == ["lowest_common_ancestor"]
