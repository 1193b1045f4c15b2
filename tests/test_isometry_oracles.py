"""The isometry fast paths against the slow paths they replaced.

An untrusted vertex map is accepted after a local check (each hull edge
keeps its length, no hull vertex folds two neighbours together) and
falls back to the all-pairs scan ``TreeIsometry._validate`` only when
that fails.  The displacement profile reads vertex displacements instead
of walking each image path again (``isometry_reference.edge_pieces``),
and ``Subtree.distance_to`` measures arcs by a formula instead of
building the projection ``Subtree._nearest`` builds.

The maps are true isometries and corrupted copies of them: a tree
automorphism that permutes identical branches, restricted to the subtree
spanned by a random set of vertices, and shifts or mirrors of a path by
whole and half edges, which send vertices to edge points.  A corrupted
copy moves one image elsewhere, often onto another image.

``classify`` is checked against the automorphism a map was cut from: a
translation of a periodic tree, or a map that permutes identical branches,
restricted to a few vertices on the tree those vertices and their images
span, with the vertices of degree two among neither merged away, so a
branch point of the axis can fall inside an edge.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

import isometry_reference as ref
from lambdatrees.errors import LambdaTreeError, OrbitEscapesTree
from lambdatrees.isometry import TreeIsometry
from lambdatrees.ordered import LambdaGroup, half_in_group, in_two_lambda
from lambdatrees.tree import LambdaTree, TreePoint

EXACT = settings.get_profile("derandomized")

GROUPS = [LambdaGroup(1), LambdaGroup(2), LambdaGroup(1, dyadic=True), LambdaGroup(2, dyadic=True)]


def outcome(fn):
    try:
        return fn()
    except LambdaTreeError as exc:
        return (type(exc), str(exc))


@st.composite
def lengths(draw, group):
    if group.rank == 1:
        return group.element(draw(st.integers(1, 4)))
    return group.element(draw(st.integers(0, 1)), draw(st.integers(1, 4)))


@st.composite
def shuffled_tree(draw, group, vertices, edges):
    """The tree with its vertices and edges listed in a drawn order, each
    edge drawn in either direction; the ids are those of the listed order."""
    order = draw(st.permutations(range(len(edges))))
    listed = []
    for k in order:
        a, b, length = edges[k]
        listed.append((b, a, length) if draw(st.booleans()) else (a, b, length))
    tree = LambdaTree(group, draw(st.permutations(vertices)), listed)
    return tree, {k: f"e{pos}" for pos, k in enumerate(order)}


@st.composite
def automorphisms(draw):
    """Copies of a rooted tree hung from a centre vertex, or two copies whose
    roots are joined by an edge; the map permutes the copies."""
    group = draw(st.sampled_from(GROUPS))
    size = draw(st.integers(1, 4))
    parents = [None] + [draw(st.integers(0, i - 1)) for i in range(1, size)]
    legs = [draw(lengths(group)) for _ in range(size)]
    copies = draw(st.integers(2, 3))
    joined = copies == 2 and draw(st.booleans())
    vertices = [] if joined else ["c"]
    edges = [("x0n0", "x1n0", legs[0])] if joined else []
    for k in range(copies):
        for i in range(size):
            vertices.append(f"x{k}n{i}")
            if parents[i] is not None:
                edges.append((f"x{k}n{parents[i]}", f"x{k}n{i}", legs[i]))
            elif not joined:
                edges.append(("c", f"x{k}n0", legs[0]))
    tree, _ = draw(shuffled_tree(group, vertices, edges))
    perm = draw(st.permutations(range(copies)))

    def image(v):
        return v if v == "c" else f"x{perm[int(v[1])]}n{v[3:]}"

    return tree, {v: tree.vertex_point(image(v)) for v in tree.vertices}


@st.composite
def path_moves(draw):
    """A path of edges one to three half units long, moved by x -> x + k/2
    or mirrored by x -> total - x - k/2; images mix vertices and edge points."""
    group = draw(st.sampled_from(GROUPS))
    half = draw(lengths(group))
    n = draw(st.integers(2, 6))
    steps = [draw(st.integers(1, 3)) * half for _ in range(n)]
    ends = list(itertools.accumulate(steps, initial=group.zero()))
    names = [f"p{i}" for i in range(n + 1)]
    edges = [(names[i], names[i + 1], steps[i]) for i in range(n)]
    tree, ids = draw(shuffled_tree(group, names, edges))
    k = draw(st.integers(-3, 3)) * half
    mirror = draw(st.booleans())
    images = {}
    for v, x in zip(names, ends):
        y = ends[-1] - x - k if mirror else x + k
        for i in range(n):
            if ends[i] <= y <= ends[i + 1]:
                edge = tree.edges[ids[i]]
                offset = y - ends[i] if edge.a == names[i] else ends[i + 1] - y
                images[v] = tree.edge_point(ids[i], offset)
                break
    return tree, images


def points(tree):
    """Every vertex, and the midpoint of every edge whose half lies in the group."""
    out = [TreePoint.at_vertex(v) for v in tree.vertices]
    for eid, edge in tree.edges.items():
        if in_two_lambda(edge.length):
            out.append(tree.edge_point(eid, half_in_group(edge.length)))
    return out


@st.composite
def vertex_maps(draw):
    """A true isometry restricted to a drawn set of vertices, or a copy of
    one with a single image moved to a tree point or onto another image."""
    tree, images = draw(st.one_of(automorphisms(), path_moves()))
    domain = draw(st.lists(st.sampled_from(sorted(images)), min_size=1, unique=True))
    images = {v: images[v] for v in domain}
    if draw(st.booleans()):
        moved = draw(st.sampled_from(domain))
        images[moved] = draw(st.sampled_from(points(tree) + list(images.values())))
    return tree, images


@EXACT
@given(vertex_maps())
def test_local_check_profile_and_distance_match_the_slow_paths(case):
    tree, images = case
    got = outcome(lambda: TreeIsometry(tree, images))
    scan = outcome(lambda: TreeIsometry(tree, images, _trusted=True)._validate())
    assert (None if isinstance(got, TreeIsometry) else got) == scan
    if scan is not None:
        return
    phi = got
    displaced, edges = phi._profile()
    assert edges == [(eid, ref.edge_pieces(phi, eid)) for eid in phi.hull_edges()]
    levels = dict.fromkeys(d for _, d in displaced)
    subtrees = [phi.fixed_set()] + [phi.level_set(d) for d in levels]
    for sub in subtrees:
        if sub.is_empty():
            continue
        for p in points(tree):
            assert sub.distance_to(p) == sub._nearest(p)[0]


@st.composite
def periodic_translations(draw):
    """A path of whole periods of drawn edge lengths, with a thorn at each
    vertex whose place in the period drew one, and its shift by whole
    periods: (tree, image names, kind, translation length)."""
    group = draw(st.sampled_from(GROUPS))
    period = draw(st.integers(1, 3))
    steps = [draw(lengths(group)) for _ in range(period)]
    thorns = [draw(st.none() | lengths(group)) for _ in range(period)]
    periods = draw(st.integers(2, 4))
    n = period * periods
    vertices = [f"a{i}" for i in range(n + 1)]
    edges = [(f"a{i}", f"a{i + 1}", steps[i % period]) for i in range(n)]
    for i in range(n + 1):
        if thorns[i % period] is not None:
            vertices.append(f"t{i}")
            edges.append((f"a{i}", f"t{i}", thorns[i % period]))
    moved = draw(st.integers(1, periods - 1))
    k = period * moved * draw(st.sampled_from([1, -1]))
    images = {v: f"{v[0]}{int(v[1:]) + k}" for v in vertices}
    images = {v: w for v, w in images.items() if w in vertices}
    return LambdaTree(group, vertices, edges), images, "hyperbolic", moved * sum(steps, group.zero())


@st.composite
def branch_permutations(draw):
    """automorphisms() with its kind: it fixes the centre, or swaps the two
    roots and so fixes the joining edge's midpoint or inverts that edge."""
    tree, images = draw(automorphisms())
    images = {v: p.vertex for v, p in images.items()}
    kind = "elliptic"
    if "c" not in tree.vertices and images["x0n0"] == "x1n0":
        if not in_two_lambda(tree.vertex_distance("x0n0", "x1n0")):
            kind = "inversion"
    return tree, images, kind, tree.group.zero()


def spanned(tree, named):
    """The subtree spanned by the named vertices, with every other vertex of
    degree two merged into the edge through it."""
    root = min(named)
    keep = {v for u in named for v in tree.vertex_path(u, root)}
    around = {
        v: [(w, tree.edges[eid].length) for eid, w in tree.adjacency[v] if w in keep]
        for v in keep
    }
    nodes = {v for v in keep if v in named or len(around[v]) != 2}
    edges = []
    for v in sorted(nodes):
        for w, length in around[v]:
            prev = v
            while w not in nodes:
                (nxt, step), = [(u, d) for u, d in around[w] if u != prev]
                prev, w, length = w, nxt, length + step
            if v < w:
                edges.append((v, w, length))
    return LambdaTree(tree.group, sorted(nodes), edges)


@st.composite
def cut_automorphisms(draw):
    tree, images, kind, length = draw(st.one_of(periodic_translations(), branch_permutations()))
    domain = draw(st.lists(st.sampled_from(sorted(images)), min_size=1, max_size=4, unique=True))
    small = spanned(tree, set(domain) | {images[v] for v in domain})
    return TreeIsometry(small, {v: small.vertex_point(images[v]) for v in domain}), kind, length


@EXACT
@given(cut_automorphisms())
def test_classify_matches_the_automorphism_a_map_was_cut_from(case):
    phi, kind, length = case
    try:
        cls = phi.classify()
    except OrbitEscapesTree as exc:
        assert str(exc) == "composite has empty domain"
        return
    assert (cls.kind, cls.length) == (kind, length)
    if kind == "hyperbolic":
        assert not cls.axis.is_empty()
        assert all(phi.displacement(p) == length for p in cls.axis.boundary_points())
