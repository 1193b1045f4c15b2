"""The shared breadth-first walk against the hand-written walks it replaced.

``graph_reference`` keeps the union-find that named quotient fibers, the
lazy depth-first rooting of ``LambdaTree``, the four queue loops of
``graph_of_groups`` and the union-find that checked a chosen spanning
tree.  On generated graphs of groups, chosen edge sets, coset actions and
trees, every output that went through those loops must be the same,
errors included (compared by class and message), and in the same order.
A last property ties ``check_axioms`` to the constructor: a raw graph is
reported valid exactly when ``LambdaTree`` accepts it.
"""

import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graph_reference as ref
from lambdatrees import graph_of_groups as gg
from lambdatrees.errors import LambdaTreeError
from lambdatrees.graph_of_groups import (
    CosetAction,
    GraphOfGroups,
    GroupEdge,
    Presentation,
    schreier_graph_dot,
    schreier_rank,
)
from lambdatrees.ordered import ConvexSubgroup, LambdaGroup, half_in_group, in_two_lambda
from lambdatrees.tree import LambdaTree, TreePoint, check_axioms

EXACT = settings.get_profile("derandomized")

# string order differs from list order ("v10" < "v2"), so least-vertex
# choices and discovery order can disagree
NAMES = ["v2", "v10", "b", "a", "v1", "x", "c", "w", "v3", "z"]
GROUPS = [
    LambdaGroup(1),
    LambdaGroup(2),
    LambdaGroup(3),
    LambdaGroup(1, dyadic=True),
    LambdaGroup(2, dyadic=True),
]


def outcome(fn):
    try:
        return fn()
    except LambdaTreeError as exc:
        return (type(exc), str(exc))


# -- graphs of groups ----------------------------------------------------


@st.composite
def words(draw, symbols):
    letters = draw(st.lists(st.sampled_from(symbols), max_size=3)) if symbols else []
    return " ".join(s + draw(st.sampled_from(["", "-"])) for s in letters)


@st.composite
def graphs_of_groups(draw):
    """1 to 6 vertices and 0 to 8 edges: loops, parallel edges and gaps included."""
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=6, unique=True))
    groups = {}
    for i, v in enumerate(names):
        gens = [f"g{i}", f"h{i}"][: draw(st.integers(0, 2))]
        if gens and draw(st.integers(0, 9)) == 0:
            gens[0] = "g0"  # shared with another vertex: a symbol clash
        relators = []
        if len(gens) == 2 and draw(st.booleans()):
            relators.append(f"{gens[0]} {gens[1]} {gens[0]}- {gens[1]}-")  # free abelian
        groups[v] = Presentation.make(gens, relators)
    edges = []
    for j in range(draw(st.integers(0, 8))):
        tail, head = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        gens = [f"c{j}"][: draw(st.integers(0, 1))]
        maps = []
        for end in (tail, head):
            symbols = list(groups[end].generators)
            if draw(st.integers(0, 9)) == 0:
                symbols.append("stray")  # an undeclared symbol in the image
            maps.append({g: draw(words(symbols)) for g in gens})
        edges.append(GroupEdge.make(f"e{j}", tail, head, Presentation.make(gens), *maps))
    return GraphOfGroups.make(groups, edges)


def graph_outputs(gog):
    """Everything the module computes over its spanning tree and edge cuts."""
    tree = outcome(lambda: gg.spanning_tree_edges(gog))
    out = {
        "tree": tree,
        "presentation": outcome(lambda: gg.fundamental_group_presentation(gog)),
        "report": gg.validate_graph_of_groups(gog),
        "cuts": [outcome(lambda e=e: gg.decompose_along_edge(gog, e.id)) for e in gog.edges],
    }
    if isinstance(tree, list):
        out["chosen"] = outcome(lambda: gg.fundamental_group_presentation(gog, tree[::-1]))
    return out


@EXACT
@given(graphs_of_groups())
def test_spanning_trees_and_cuts_match_the_queue_loops(gog):
    assert outcome(lambda: gg.spanning_tree_edges(gog)) == outcome(
        lambda: ref.spanning_tree_edges(gog))
    for e in gog.edges:
        assert gg._components_without(gog, e.id) == ref.components_without(gog, e.id)


@EXACT
@given(graphs_of_groups(), st.data())
def test_spanning_tree_check_matches_the_union_find(gog, data):
    """Chosen ids may repeat, and now and then one names no edge."""
    known = [e.id for e in gog.edges]
    chosen = data.draw(st.lists(st.sampled_from(known), max_size=10)) if known else []
    if data.draw(st.integers(0, 9)) == 0:
        chosen.insert(data.draw(st.integers(0, len(chosen))), "nope")
    assert outcome(lambda: gg._check_spanning_tree(gog, chosen)) == outcome(
        lambda: ref.check_spanning_tree(gog, chosen))


@EXACT
@given(graphs_of_groups())
def test_presentations_and_decompositions_match_the_queue_loops(gog):
    new = graph_outputs(gog)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gg, "spanning_tree_edges", ref.spanning_tree_edges)
        patch.setattr(gg, "_components_without", ref.components_without)
        old = graph_outputs(gog)
    assert new == old


# -- coset actions ---------------------------------------------------------


@st.composite
def coset_actions(draw):
    """(degree, perms, rank): permutations of 1..degree, now and then a broken one."""
    degree = draw(st.integers(1, 7))
    symbols = draw(st.lists(st.sampled_from(["a", "b", "c"]), max_size=3, unique=True))
    perms = {s: draw(st.permutations(range(1, degree + 1))) for s in symbols}
    if symbols and draw(st.integers(0, 9)) == 0:
        perms[symbols[0]] = perms[symbols[0]][:-1]
    return degree, perms, draw(st.integers(0, 3))


@EXACT
@given(coset_actions())
def test_coset_actions_match_the_queue_loops(case):
    degree, perms, r = case
    action = outcome(lambda: CosetAction.make(degree, perms))
    assert action == outcome(lambda: ref.coset_action(degree, perms))
    if not isinstance(action, CosetAction):
        return
    for rank in (r, len(perms)):
        assert outcome(lambda: schreier_rank(rank, action)) == outcome(
            lambda: ref.schreier_rank(rank, action))
    assert schreier_graph_dot(action) == schreier_graph_dot(ref.coset_action(degree, perms))


# -- trees -----------------------------------------------------------------


@st.composite
def lengths(draw, group):
    """A positive length whose leading zeros put it inside the deeper convex subgroups."""
    lead = draw(st.integers(0, group.rank - 1))
    scale = 2 if group.dyadic else 1
    first = Fraction(draw(st.integers(1, 3 * scale)), scale)
    rest = [Fraction(draw(st.integers(-2 * scale, 2 * scale)), scale)
            for _ in range(group.rank - lead - 1)]
    return group.element(*([0] * lead + [first] + rest))


@st.composite
def trees(draw):
    """A tree on 1 to 10 vertices with drawn names, root, edge order and directions."""
    group = draw(st.sampled_from(GROUPS))
    names = draw(st.permutations(NAMES))[: draw(st.integers(1, len(NAMES)))]
    edges = []
    for i in range(1, len(names)):
        a, b = names[draw(st.integers(0, i - 1))], names[i]
        if draw(st.booleans()):
            a, b = b, a
        edges.append((a, b, draw(lengths(group))))
    edges = draw(st.permutations(edges))
    return LambdaTree(group, draw(st.permutations(names)), edges)


def tree_of(t):
    return t.to_json(), list(t.edges), list(t.vertices)


@EXACT
@given(trees())
def test_convex_quotients_match_union_find(tree):
    for depth in range(tree.group.rank + 1):
        sub = ConvexSubgroup(tree.group, depth)
        new, old = tree.convex_quotient_tree(sub), ref.convex_quotient_tree(tree, sub)
        assert list(new.vertex_map.items()) == list(old.vertex_map.items())
        assert tree_of(new.tree) == tree_of(old.tree)
        assert list(new.fibers) == list(old.fibers)
        for root, fiber in new.fibers.items():
            assert tree_of(fiber) == tree_of(old.fibers[root])


def points(tree):
    """Every vertex, and the midpoint of every edge whose half lies in the group."""
    out = [TreePoint.at_vertex(v) for v in tree.vertices]
    for eid, edge in tree.edges.items():
        if in_two_lambda(edge.length):
            out.append(tree.edge_point(eid, half_in_group(edge.length)))
    return out


@EXACT
@given(trees(), st.data())
def test_distances_and_walks_match_the_depth_first_rooting(tree, data):
    parent, depth, wdepth = ref.rooting(tree)
    assert (tree._parent, tree._depth, tree._wdepth) == (parent, depth, wdepth)
    twin = copy.copy(tree)
    twin._parent, twin._depth, twin._wdepth = parent, depth, wdepth
    pts = points(tree)
    for _ in range(6):
        p, q = data.draw(st.sampled_from(pts)), data.draw(st.sampled_from(pts))
        assert tree.distance(p, q) == twin.distance(p, q)
        walk, want = tree.path_walk(p, q), twin.path_walk(p, q)
        assert (walk.start, walk.end, walk.arcs, walk.length) == (
            want.start, want.end, want.arcs, want.length)


# -- raw graphs: check_axioms against the constructor ---------------------


@st.composite
def raw_graphs(draw):
    """A tree's vertices and edges, then some of: a duplicate id, an unknown end,
    a self-loop, a nonpositive length, an extra edge, a missing edge."""
    group = LambdaGroup(1)
    names = draw(st.permutations(NAMES))[: draw(st.integers(0, 7))]
    edges = [
        (names[draw(st.integers(0, i - 1))], names[i], group.element(draw(st.integers(1, 4))))
        for i in range(1, len(names))
    ]
    vertices = list(names)
    flaws = draw(st.sets(st.sampled_from(
        ["duplicate", "unknown", "loop", "nonpositive", "extra", "missing"]), max_size=2))
    if names and "duplicate" in flaws:
        vertices.insert(draw(st.integers(0, len(vertices))), draw(st.sampled_from(names)))
    if names and "unknown" in flaws:
        edges.append((draw(st.sampled_from(names)), "nowhere", group.element(1)))
    if names and "loop" in flaws:
        v = draw(st.sampled_from(names))
        edges.append((v, v, group.element(1)))
    if edges and "nonpositive" in flaws:
        k = draw(st.integers(0, len(edges) - 1))
        edges[k] = edges[k][:2] + (group.element(draw(st.integers(-2, 0))),)
    if len(names) > 1 and "extra" in flaws:
        a, b = draw(st.permutations(names))[:2]
        edges.append((a, b, group.element(1)))
    if edges and "missing" in flaws:
        del edges[draw(st.integers(0, len(edges) - 1))]
    return group, vertices, draw(st.permutations(edges))


@EXACT
@given(raw_graphs())
def test_check_axioms_accepts_exactly_what_the_constructor_builds(raw):
    builds = isinstance(outcome(lambda: LambdaTree(*raw)), LambdaTree)
    assert check_axioms(raw, sample_size=3)["valid"] == builds
