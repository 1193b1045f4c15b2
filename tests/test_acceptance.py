"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single pass or fail line with its headline numbers.
Randomized parts are seeded so every run sees the same instances.  A
criterion that cannot be met is left failing with the measured values
in its message rather than loosened; README.md documents the one such
case (criterion 10).
"""

import collections
import json
import random
import time

from lambdatrees.errors import OrbitEscapesTree
from lambdatrees.graph_of_groups import (
    CosetAction,
    GraphOfGroups,
    GroupEdge,
    Presentation,
    fundamental_group_presentation,
    schreier_rank,
)
from lambdatrees.isometry import NoCommonFixedPoint, TreeIsometry, common_fixed_point
from lambdatrees.lengths import (
    enumerate_classes,
    free_group_action,
    length_function,
    mu,
    projective_distance,
    theta,
)
from lambdatrees.ordered import LambdaGroup
from lambdatrees.sl2 import (
    Mat2,
    act,
    ball,
    base_vertex,
    find_fixed_vertex,
    lattice_distance,
    sl2_translation_length,
)
from lambdatrees.tree import LambdaTree, check_axioms, random_point
from lambdatrees.valuation import ValuedField


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def random_length(rng, group):
    if group.rank == 1:
        return group.element(rng.randint(1, 9))
    return group.element(rng.randint(0, 3), rng.randint(1, 6))


def random_tree_data(rng, max_edges=20):
    rank = rng.choice([1, 2])
    group = LambdaGroup(rank, dyadic=rng.random() < 0.3)
    n_edges = rng.randint(2, max_edges)
    vertices = [f"v{i}" for i in range(n_edges + 1)]
    edges = []
    for i in range(1, n_edges + 1):
        parent = vertices[rng.randrange(i)]
        edges.append((parent, f"v{i}", random_length(rng, group)))
    return group, vertices, edges


def test_criterion_1_axiom_suite():
    rng = random.Random(101)
    start = time.perf_counter()
    for _ in range(1000):
        group, vertices, edges = random_tree_data(rng)
        outcome = check_axioms((group, vertices, edges), sample_size=6,
                               seed=rng.randrange(10 ** 6))
        assert outcome["valid"], outcome
    for _ in range(1000):
        group, vertices, edges = random_tree_data(rng)
        adjacent = {frozenset((a, b)) for a, b, _ in edges}
        while True:
            u, v = rng.sample(vertices, 2)
            if frozenset((u, v)) not in adjacent:
                break
        extra = edges + [(u, v, group.element(*([1] * group.rank)))]
        outcome = check_axioms((group, vertices, extra))
        assert not outcome["valid"], (u, v)
        assert outcome["axiom"] == "b", outcome
        assert "cycle" in outcome["witness"]
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    report(1, ok, f"1000 trees accepted, 1000 cycle graphs rejected "
                  f"with axiom-(b) witnesses, {elapsed:.1f}s")
    assert ok, f"runtime {elapsed:.1f}s exceeds 10s"


def test_criterion_2_four_point_condition():
    rng = random.Random(202)
    checked = 0
    for _ in range(100):
        group, vertices, edges = random_tree_data(rng, max_edges=12)
        tree = LambdaTree(group, vertices, edges)
        for _ in range(100):
            x, y, z, w = (random_point(tree, rng) for _ in range(4))
            pairings = [
                tree.distance(x, y) + tree.distance(z, w),
                tree.distance(x, z) + tree.distance(y, w),
                tree.distance(x, w) + tree.distance(y, z),
            ]
            top = max(pairings)
            # tree metrics: the largest pairing is attained at least twice
            assert pairings.count(top) >= 2, [str(s) for s in pairings]
            checked += 1
    report(2, True, f"four-point condition exact on {checked} quadruples")


def periodic_path_translation(rng):
    """A partial translation along a path, optionally carrying a thorn."""
    group = LambdaGroup(rng.choice([1, 2]))
    shift = rng.randint(1, 3)
    span = shift + rng.randint(2, 6)
    total = span + shift
    pattern = [random_length(rng, group) for _ in range(shift)]
    vertices = [f"v{i}" for i in range(total + 1)]
    edges = [(f"v{i}", f"v{i+1}", pattern[i % shift]) for i in range(total)]
    images = {f"v{i}": f"v{i + shift}" for i in range(span + 1)}
    if rng.random() < 0.6 and span >= 2:
        base = rng.randint(1, span - 1)
        thorn = random_length(rng, group)
        vertices += ["S", "T"]
        edges += [(f"v{base}", "S", thorn), (f"v{base + shift}", "T", thorn)]
        images["S"] = "T"
    tree = LambdaTree(group, vertices, edges)
    phi = TreeIsometry(tree, {v: tree.vertex_point(w) for v, w in images.items()})
    return tree, phi


def spider_with_arm_permutation(rng):
    """A spider with identical arms and a nontrivial arm permutation."""
    group = LambdaGroup(rng.choice([1, 2]))
    arms = rng.randint(2, 5)
    segs = rng.randint(1, 3)
    profile = [random_length(rng, group) for _ in range(segs)]
    vertices = ["c"]
    edges = []
    for a in range(arms):
        prev = "c"
        for j in range(segs):
            name = f"a{a}x{j}"
            vertices.append(name)
            edges.append((prev, name, profile[j]))
            prev = name
    tree = LambdaTree(group, vertices, edges)
    perm = list(range(arms))
    while all(perm[i] == i for i in range(arms)):
        rng.shuffle(perm)
    images = {"c": tree.vertex_point("c")}
    for a in range(arms):
        for j in range(segs):
            images[f"a{a}x{j}"] = tree.vertex_point(f"a{perm[a]}x{j}")
    return tree, TreeIsometry(tree, images)


def test_criterion_3_displacement_formula():
    rng = random.Random(303)
    checked = 0
    kinds = collections.Counter()
    while checked < 500:
        if checked % 2:
            tree, phi = periodic_path_translation(rng)
        else:
            tree, phi = spider_with_arm_permutation(rng)
        cls = phi.classify()
        assert cls.kind in ("elliptic", "hyperbolic"), cls.kind
        char_set = cls.fixed_set if cls.kind == "elliptic" else cls.axis
        sampled = 0
        tries = 0
        while sampled < 3 and tries < 25 and checked < 500:
            tries += 1
            p = random_point(tree, rng)
            try:
                moved = phi.displacement(p)
            except OrbitEscapesTree:
                continue
            assert moved == 2 * char_set.distance_to(p) + cls.length, str(p)
            sampled += 1
            checked += 1
            kinds[cls.kind] += 1
    report(3, True, f"displacement identity exact on {checked} triples "
                    f"({kinds['elliptic']} elliptic, {kinds['hyperbolic']} hyperbolic)")


def mirrored_odd_path(rng, rank):
    """A path of odd total length whose reflection is a vertex bijection."""
    group = LambdaGroup(rank)
    total = 2 * rng.randint(2, 10) + 1
    interior = range(1, (total + 1) // 2)
    chosen = rng.sample(interior, rng.randint(0, min(3, len(interior) - 1)))
    positions = sorted({0, total} | {x for h in chosen for x in (h, total - h)})
    vertices = [f"p{x}" for x in positions]
    edges = []
    for lo, hi in zip(positions, positions[1:]):
        diff = hi - lo
        length = group.element(diff) if rank == 1 else group.element(0, diff)
        edges.append((f"p{lo}", f"p{hi}", length))
    tree = LambdaTree(group, vertices, edges)
    images = {f"p{x}": f"p{total - x}" for x in positions}
    return tree, images


def test_criterion_4_inversion_elimination():
    rng = random.Random(404)
    for case in range(200):
        rank = 2 if case % 4 == 0 else 1
        tree, images = mirrored_odd_path(rng, rank)
        phi = TreeIsometry(
            tree, {v: tree.vertex_point(w) for v, w in images.items()}
        )
        assert phi.classify().kind == "inversion"
        halved = tree.base_change(LambdaGroup(rank, dyadic=True))
        phi2 = TreeIsometry(
            halved, {v: halved.vertex_point(w) for v, w in images.items()}
        )
        cls = phi2.classify()
        assert cls.kind == "elliptic", cls.kind
        assert cls.length.to_json() == ["0"] * rank
    report(4, True, "200 inversions classify elliptic after dyadic base change")


def double_spider(rng):
    """Two arm clusters joined by a two-edge bridge with a middle vertex."""
    group = LambdaGroup(1)
    arms = rng.randint(2, 3)
    profile = [random_length(rng, group) for _ in range(rng.randint(1, 2))]
    bridge = random_length(rng, group)
    vertices = ["c0", "m", "c1"]
    edges = [("c0", "m", bridge), ("m", "c1", bridge)]
    for side in range(2):
        for a in range(arms):
            prev = f"c{side}"
            for j, step in enumerate(profile):
                name = f"s{side}a{a}x{j}"
                vertices.append(name)
                edges.append((prev, name, step))
                prev = name
    tree = LambdaTree(group, vertices, edges)
    return tree, arms, len(profile)


def spider_move(tree, rng, arms, segs, kind):
    """An elliptic automorphism: arm permutations, or the bridge flip."""
    perms = [list(range(arms)), list(range(arms))]
    for side in range(2):
        rng.shuffle(perms[side])
    images = {}
    if kind == "perm":
        images["c0"], images["m"], images["c1"] = "c0", "m", "c1"
        for side in range(2):
            for a in range(arms):
                for j in range(segs):
                    images[f"s{side}a{a}x{j}"] = f"s{side}a{perms[side][a]}x{j}"
    else:
        images["c0"], images["m"], images["c1"] = "c1", "m", "c0"
        for side in range(2):
            for a in range(arms):
                for j in range(segs):
                    images[f"s{side}a{a}x{j}"] = f"s{1 - side}a{perms[side][a]}x{j}"
    return TreeIsometry(tree, {v: tree.vertex_point(w) for v, w in images.items()})


def test_criterion_5_elliptic_pairs():
    rng = random.Random(505)
    for _ in range(500):
        tree, arms, segs = double_spider(rng)
        g = spider_move(tree, rng, arms, segs, rng.choice(["perm", "flip"]))
        h = spider_move(tree, rng, arms, segs, rng.choice(["perm", "flip"]))
        assert g.classify().kind == "elliptic"
        assert h.classify().kind == "elliptic"
        assert g.compose(h).classify().kind == "elliptic"
        shared = common_fixed_point(g, h)
        assert not isinstance(shared, NoCommonFixedPoint)
        assert g.apply(shared) == shared
        assert h.apply(shared) == shared

    group = LambdaGroup(1)
    for _ in range(100):
        delta = rng.randint(1, 3)
        a = delta + rng.randint(0, 2)
        b = a + delta
        # keep both centers in the left half so the product of the two
        # partial reflections spans at least twice its translation length
        total = 2 * b + rng.randint(0, 4)
        vertices = [f"p{x}" for x in range(total + 1)]
        edges = [(f"p{x}", f"p{x+1}", group.element(1)) for x in range(total)]
        tree = LambdaTree(group, vertices, edges)

        def reflection(center):
            lo = max(0, 2 * center - total)
            hi = min(total, 2 * center)
            return TreeIsometry(tree, {
                f"p{x}": tree.vertex_point(f"p{2 * center - x}")
                for x in range(lo, hi + 1)
            })

        g, h = reflection(a), reflection(b)
        assert g.fixed_set().intersection(h.fixed_set()).is_empty()
        witness = common_fixed_point(g, h)
        assert isinstance(witness, NoCommonFixedPoint)
        assert witness.bridge_length == group.element(b - a)
        assert witness.composite_displacement == 2 * witness.bridge_length
        product = g.compose(h).classify()
        assert product.kind == "hyperbolic"
        assert product.length == group.element(2 * (b - a))
    report(5, True, "500 elliptic pairs share a verified fixed point, "
                    "100 disjoint pairs give hyperbolic-product witnesses")


def test_criterion_6_lattice_metric_vs_bfs():
    start = time.perf_counter()
    sizes = {}
    for p in (2, 3):
        field = ValuedField.from_json({"field": "Q", "p": p})
        around = ball(base_vertex(field), 3)
        sizes[p] = len(around.vertices)
        adjacency = collections.defaultdict(list)
        for u, v in around.edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        for src in around.vertices:
            hops = {src: 0}
            queue = collections.deque([src])
            while queue:
                x = queue.popleft()
                for y in adjacency[x]:
                    if y not in hops:
                        hops[y] = hops[x] + 1
                        queue.append(y)
            for dst in around.vertices:
                assert lattice_distance(src, dst).to_json() == [str(hops[dst])]
    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0
    report(6, ok, f"lattice metric equals BFS on all pairs "
                  f"(p=2: {sizes[2]} vertices, p=3: {sizes[3]}), {elapsed:.1f}s")
    assert ok, f"runtime {elapsed:.1f}s exceeds 30s"


def test_criterion_7_trace_criterion():
    rng = random.Random(707)
    elliptic = hyperbolic = 0
    for _ in range(300):
        p = rng.choice([2, 3])
        field = ValuedField.from_json({"field": "Q", "p": p})
        gens = [
            Mat2.from_json(field, [str(p), "0", "0", f"1/{p}"]),
            Mat2.from_json(field, ["1", "1", "0", "1"]),
            Mat2.from_json(field, ["1", "0", "1", "1"]),
        ]
        g = Mat2.identity(field)
        for _ in range(rng.randint(1, 4)):
            step = rng.choice(gens)
            g = g * (step if rng.random() < 0.5 else step.inverse())
        tau = sl2_translation_length(g)
        fixed = find_fixed_vertex(g)
        if tau.to_json() == ["0"]:
            elliptic += 1
            assert fixed is not None, str(g)
            assert act(g, fixed) == fixed
        else:
            hyperbolic += 1
            assert fixed is None, str(g)
    report(7, True, f"trace criterion on 300 words "
                    f"({elliptic} with a fixed vertex, {hyperbolic} without)")


def test_criterion_8_schreier_rank_formula():
    rng = random.Random(808)
    for _ in range(200):
        degree = rng.randint(2, 6)
        free_rank = rng.randint(1, 3)
        symbols = ["a", "b", "c"][:free_rank]
        while True:
            perms = {
                s: rng.sample(range(1, degree + 1), degree) for s in symbols
            }
            reached = {1}
            frontier = [1]
            while frontier:
                x = frontier.pop()
                for perm in perms.values():
                    for y in (perm[x - 1], perm.index(x) + 1):
                        if y not in reached:
                            reached.add(y)
                            frontier.append(y)
            if len(reached) == degree:
                break
        record = schreier_rank(free_rank, CosetAction.make(degree, perms))
        expected = degree * (free_rank - 1) + 1
        assert record.rank == expected, (degree, free_rank, record.rank)
        assert len(record.generators) == expected
    report(8, True, "200 transitive actions give rank n(r-1)+1 exactly")


def test_criterion_9_presentation_synthesis():
    conjugating_loop = GraphOfGroups.make(
        {"v": Presentation.free("a")},
        [GroupEdge.make("e", "v", "v", Presentation.free("c"),
                        {"c": "a"}, {"c": "a"})],
    )
    square_cube = GraphOfGroups.make(
        {"u": Presentation.free("a"), "v": Presentation.free("b")},
        [GroupEdge.make("e", "u", "v", Presentation.free("c"),
                        {"c": "a a"}, {"c": "b b b"})],
    )
    free_loop = GraphOfGroups.make(
        {"v": Presentation.trivial()},
        [GroupEdge.make("e", "v", "v", Presentation.trivial(), {}, {})],
    )
    got = [
        json.dumps(fundamental_group_presentation(g).to_json(), sort_keys=True)
        for g in (conjugating_loop, square_cube, free_loop)
    ]
    want = [
        '{"gens": ["a", "s"], "rels": ["s- a s a-"]}',
        '{"gens": ["a", "b"], "rels": ["a a b- b- b-"]}',
        '{"gens": ["s"], "rels": []}',
    ]
    ok = got == want
    report(9, ok, "three worked presentations byte-exact")
    assert ok, got


def test_criterion_10_projective_degeneration():
    classes = ["a", "b", "a b", "a b-", "a a", "a b a- b-"]
    field = ValuedField.from_json({"field": "Q(t)", "at": "inf"})
    diag = Mat2.from_json(field, ["t", "0", "0", "1/t"])
    shear = Mat2.from_json(field, ["1", "1", "0", "1"])
    rep = {"a": diag, "b": shear * diag * shear.inverse()}
    limit, _ = mu(rep, classes)

    start = time.perf_counter()
    distances = []
    for k in range(1, 7):
        t = 10.0 ** k
        numeric = {
            "a": [[t, 0.0], [0.0, 1.0 / t]],
            "b": [[t, 1.0 / t - t], [0.0, 1.0 / t]],
        }
        distances.append(projective_distance(theta(numeric, classes), limit))
    elapsed = time.perf_counter() - start

    monotone = all(distances[i] > distances[i + 1] for i in range(1, 5))
    close = distances[-1] <= 1e-3
    timely = elapsed < 5.0
    ok = close and monotone and timely
    report(10, ok, f"sup distance at t=1e6 is {distances[-1]:.3e} "
                   f"(tolerance 1e-3), monotone from k=2: {monotone}, {elapsed:.2f}s")
    assert ok, f"distances over t=10^1..10^6: {distances}"


def test_criterion_11_cayley_length_function():
    classes = enumerate_classes(["a", "b"], 5)
    count = len(classes)
    # Burnside count of cyclic words of length 1..5 up to rotation
    assert count == 102, count
    tree, gens = free_group_action(["a", "b"], 7)
    values = length_function(gens, classes).values
    for cls, value in zip(classes, values):
        assert value.to_json() == [str(len(cls.word))], cls.text
    report(11, True, f"length function equals cyclic length "
                     f"on all {count} classes of cyclic length <= 5")
