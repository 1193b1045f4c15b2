"""The two-point length formula against compose-then-classify.

two_point_length reads max(0, d(x, g^2x) - d(x, gx)) at the first vertex x
the word maps twice letter by letter, and length_function takes that value
as the class's length.  The oracle here is the path it replaced: composing
the word and classifying it.  On every generated word where that path gives
a length the two-point value must equal it; where the word maps no vertex
twice the composite must fail as well.  Where the composite fails although
the word maps a vertex twice, because it keeps only part of the word's
domain, and on one-letter words, whose classification reads this same
value, the value is checked against the Culler-Morgan formula at every
vertex the word maps twice letter by letter.
"""

import collections
import itertools
import random

import pytest

from lambdatrees.errors import LambdaTreeError, OrbitEscapesTree
from lambdatrees.isometry import TreeIsometry, two_point_length
from lambdatrees.lengths import enumerate_classes, free_group_action, length_function
from lambdatrees.ordered import LambdaGroup, half_in_group, in_two_lambda
from lambdatrees.tree import LambdaTree

GROUPS = [LambdaGroup(1), LambdaGroup(2), LambdaGroup(1, dyadic=True), LambdaGroup(2, dyadic=True)]


def random_length(rng, group):
    if group.rank == 1:
        return group.element(rng.randint(1, 6))
    return group.element(rng.randint(0, 2), rng.randint(1, 5))


def vertex_map(tree, images):
    return TreeIsometry(tree, {v: tree.vertex_point(w) for v, w in images.items()})


def spider_pair(rng, group):
    """Two clusters of identical arms joined by a bridge; arm permutations and flips."""
    arms = rng.randint(2, 3)
    profile = [random_length(rng, group) for _ in range(rng.randint(1, 2))]
    bridge = random_length(rng, group)
    vertices = ["c0", "m", "c1"]
    edges = [("c0", "m", bridge), ("m", "c1", bridge)]
    for side in range(2):
        for a in range(arms):
            prev = f"c{side}"
            for j, step in enumerate(profile):
                vertices.append(f"s{side}a{a}x{j}")
                edges.append((prev, f"s{side}a{a}x{j}", step))
                prev = f"s{side}a{a}x{j}"
    tree = LambdaTree(group, vertices, edges)

    def move():
        flip = rng.random() < 0.5
        images = {"c0": "c1", "m": "m", "c1": "c0"} if flip else {v: v for v in ("c0", "m", "c1")}
        for side in range(2):
            perm = list(range(arms))
            rng.shuffle(perm)
            for a in range(arms):
                for j in range(len(profile)):
                    images[f"s{side}a{a}x{j}"] = f"s{side ^ flip}a{perm[a]}x{j}"
        return vertex_map(tree, images)

    return tree, move(), move()


def path_tree(group, n, length, thorns=()):
    """Vertices p0..pn at equal spacing, plus thorns (name, at, length)."""
    vertices = [f"p{i}" for i in range(n + 1)] + [name for name, _, _ in thorns]
    edges = [(f"p{i}", f"p{i + 1}", length) for i in range(n)]
    edges += [(f"p{at}", name, thorn) for name, at, thorn in thorns]
    return LambdaTree(group, vertices, edges)


def reflection_pair(rng, group):
    """Partial reflections of a path about two vertices, each with its own thorn.

    Both letters are elliptic; with distinct centres their product
    translates by twice the distance between the centres.
    """
    n = rng.randint(4, 12)
    a, b = sorted(rng.sample(range(1, n), 2))
    thorns = [("A", a, random_length(rng, group)), ("B", b, random_length(rng, group))]
    tree = path_tree(group, n, random_length(rng, group), thorns)

    def reflection(c, thorn):
        images = {f"p{x}": f"p{2 * c - x}" for x in range(n + 1) if 0 <= 2 * c - x <= n}
        images[thorn] = thorn
        return vertex_map(tree, images)

    return tree, reflection(a, "A"), reflection(b, "B")


def translation_pair(rng, group):
    """Partial translations along a periodic path, one carrying a thorn to a thorn."""
    period = rng.randint(1, 3)
    pattern = [random_length(rng, group) for _ in range(period)]
    n = period * rng.randint(3, 6)
    vertices = [f"p{i}" for i in range(n + 1)]
    edges = [(f"p{i}", f"p{i + 1}", pattern[i % period]) for i in range(n)]
    base = rng.randint(0, n - period)
    thorn = random_length(rng, group)
    vertices += ["S", "T"]
    edges += [(f"p{base}", "S", thorn), (f"p{base + period}", "T", thorn)]
    tree = LambdaTree(group, vertices, edges)

    def shift(k):
        images = {f"p{i}": f"p{i + k}" for i in range(n + 1) if 0 <= i + k <= n}
        if k == period:
            images["S"] = "T"
        return vertex_map(tree, images)

    return tree, shift(period), shift(rng.choice([-period, 2 * period, -2 * period]))


def half_edge_pair(rng, group):
    """Translations of an even-spaced path by half an edge (edge-point images) and by one edge."""
    half = random_length(rng, group)
    n = rng.randint(3, 8)
    tree = path_tree(group, n, 2 * half)
    # path_tree's edge e{i} joins p{i} and p{i+1}
    g = TreeIsometry(tree, {f"p{i}": tree.edge_point(f"e{i}", half) for i in range(n)})
    k = rng.choice([1, -1, 2])
    h = vertex_map(tree, {f"p{i}": f"p{i + k}" for i in range(n + 1) if 0 <= i + k <= n})
    return tree, g, h


def mirror_pair(rng, group):
    """The reflection of a path of odd total length, and a partial shift.

    Over a non-dyadic group the reflection is an inversion.  The shift
    lists only vertices whose image is a vertex, so its mapped subtree
    holds vertices it does not list.
    """
    total = 2 * rng.randint(2, 8) + 1
    interior = range(1, (total + 1) // 2)
    chosen = rng.sample(interior, rng.randint(0, min(3, len(interior) - 1)))
    positions = sorted({0, total} | {x for h in chosen for x in (h, total - h)})
    unit = random_length(rng, group)
    vertices = [f"q{x}" for x in positions]
    edges = [(f"q{lo}", f"q{hi}", (hi - lo) * unit) for lo, hi in zip(positions, positions[1:])]
    tree = LambdaTree(group, vertices, edges)
    mirror = vertex_map(tree, {f"q{x}": f"q{total - x}" for x in positions})
    t = rng.choice([d for d in range(-total + 1, total) if d])
    images = {f"q{x}": f"q{x + t}" for x in positions if x + t in positions}
    if not images:
        images = {f"q{x}": f"q{x}" for x in positions}
    return tree, mirror, vertex_map(tree, images)


BUILDERS = [spider_pair, reflection_pair, translation_pair, half_edge_pair, mirror_pair]


def inverse_or_none(phi):
    try:
        return phi.inverse()
    except OrbitEscapesTree:
        return None


def all_pairs_inverse(phi):
    """The inverse by search: for each tree vertex, the first pair of hull
    images whose segment holds it gives its preimage on the matching
    segment of the domain.  Quadratic in the hull per tree vertex.
    """
    tree = phi.tree
    hull = [tree.vertex_point(v) for v in sorted(phi._hull()[0])]
    images = [phi.apply(p) for p in hull]
    found = {}
    for w in tree.vertices:
        target = tree.vertex_point(w)
        for (a, pa), (b, pb) in itertools.product(zip(images, hull), repeat=2):
            da = tree.distance(a, target)
            if tree.distance(a, b) == da + tree.distance(target, b):
                found[w] = tree.path_walk(pa, pb).point_at(da)
                break
    return found


def compose_then_classify(letters):
    """The word composed and classified: its length, or the class of the error it raises."""
    try:
        acc = letters[0]
        for step in letters[1:]:
            acc = acc.compose(step)
        return acc.classify().length
    except LambdaTreeError as exc:
        return type(exc)


def letter_by_letter(letters, p):
    """p under letters[0] o ... o letters[-1] by apply, or None where one escapes."""
    for letter in reversed(letters):
        try:
            p = letter.apply(p)
        except OrbitEscapesTree:
            return None
    return p


def culler_morgan_values(tree, letters):
    """max(0, d(x, g^2 x) - d(x, g x)) at every vertex x where g^2 x is defined."""
    values = []
    for v in tree.vertices:
        x = tree.vertex_point(v)
        gx = letter_by_letter(letters, x)
        g2x = None if gx is None else letter_by_letter(letters, gx)
        if g2x is not None:
            values.append(max(tree.group.zero(), tree.distance(x, g2x) - tree.distance(x, gx)))
    return values


def test_two_point_length_matches_classify_on_generated_words():
    rng = random.Random(2024)
    outcomes = collections.Counter()
    beyond_the_composite = 0
    for case in range(200):
        group = GROUPS[case % len(GROUPS)]
        builder = BUILDERS[(case // len(GROUPS)) % len(BUILDERS)]
        tree, g, h = builder(rng, group)
        letter = {("g", 1): g, ("g", -1): inverse_or_none(g),
                  ("h", 1): h, ("h", -1): inverse_or_none(h)}
        for _ in range(6):
            word = [rng.choice(sorted(letter)) for _ in range(rng.randint(1, 4))]
            letters = [letter[key] for key in word]
            if None in letters:
                continue
            fast = two_point_length(letters)
            slow = compose_then_classify(letters)
            if fast is None:
                # no vertex is mapped twice, so the composite's square maps none
                assert slow is OrbitEscapesTree, (builder.__name__, group, word, slow)
                outcomes["no vertex mapped twice"] += 1
                continue
            if len(letters) == 1 or isinstance(slow, type):
                # classify reads a single letter's length off this very
                # value; and the composite keeps only the vertex-spanned
                # part of the word's domain.  Either way the value is the
                # length every extension of the letters has
                values = culler_morgan_values(tree, letters)
                assert values and set(values) == {fast}, (builder.__name__, group, word, fast, values)
                if len(letters) == 1:
                    outcomes["one letter"] += 1
                else:
                    beyond_the_composite += 1
                continue
            assert fast == slow, (builder.__name__, group, word, fast, slow)
            outcomes["zero" if fast.is_zero() else "positive"] += 1
    # every kind of outcome is exercised
    assert min(outcomes.values()) >= 50, outcomes
    assert beyond_the_composite > 0


def test_compose_lists_each_inner_hull_vertex_the_outer_map_holds():
    rng = random.Random(11)
    checked = collections.Counter()
    for case in range(40):
        group = GROUPS[case % len(GROUPS)]
        builder = BUILDERS[case % len(BUILDERS)]
        tree, g, h = builder(rng, group)
        maps = [m for m in (g, h, inverse_or_none(g), inverse_or_none(h)) if m is not None]
        for outer, inner in itertools.product(maps, repeat=2):
            hull, inner_hull = outer._hull()[0], inner._hull()[0]

            def held(p):
                if p.is_vertex():
                    return p.vertex in hull
                edge = tree.edges[p.edge]
                return edge.a in hull and edge.b in hull

            want = {}
            for v in tree.vertices:
                if v in inner_hull:
                    mid = inner.apply(tree.vertex_point(v))
                    if held(mid):
                        want[v] = outer.apply(mid)
            if not want:
                with pytest.raises(OrbitEscapesTree, match="^composite has empty domain$"):
                    outer.compose(inner)
                checked["empty"] += 1
                continue
            composite = outer.compose(inner)
            assert list(composite.vertex_images.items()) == list(want.items())
            for eid in composite.hull_edges():
                length = tree.edges[eid].length
                if in_two_lambda(length):
                    mid = tree.edge_point(eid, half_in_group(length))
                    assert composite.apply(mid) == letter_by_letter([outer, inner], mid)
                    checked["midpoints"] += 1
            checked[builder.__name__] += 1
    assert len(checked) == len(BUILDERS) + 2 and min(checked.values()) >= 10, checked


@pytest.mark.parametrize("radius", [3, 4, 5, 6])
def test_cayley_classes_within_radius_never_fall_back(radius):
    tree, action = free_group_action(["a", "b"], radius)
    inverses = {s: action[s].inverse() for s in action}
    unmapped = 0
    classes = enumerate_classes(["a", "b"], radius)
    for c in classes:
        letters = [action[s] if e == 1 else inverses[s] for s, e in c.word]
        length = two_point_length(letters)
        if length is None:
            unmapped += 1
        else:
            assert length == tree.group.element(len(c)), c.text
    assert unmapped == 0, f"{unmapped} of {len(classes)} classes map no vertex twice"


def test_inversion_over_non_dyadic_group_has_length_zero():
    # the midpoint of the flipped path is no group point, and the value
    # needs none
    group = LambdaGroup(1)
    tree = path_tree(group, 3, group.element(1))
    flip = vertex_map(tree, {f"p{i}": f"p{3 - i}" for i in range(4)})
    assert two_point_length([flip]) == group.zero()
    assert flip.classify().kind == "inversion"
    assert length_function({"g": flip}, ["g"]).values == (group.zero(),)


def test_inversion_whose_composite_loses_its_domain_has_length_zero():
    # g reverses the path q0..q5 and h moves q1 to q0 and q5 to q4, so
    # g h h is the reflection x -> 35 - x of [10, 25], an inversion about
    # 17.5.  The vertex-only composite keeps q4 and q5 and maps both off
    # [q4, q5], so its square has an empty domain; letter by letter the
    # word maps q4 and q5 twice
    group = LambdaGroup(1)
    tree = LambdaTree(group, ["q0", "q1", "q4", "q5"], [
        ("q0", "q1", group.element(5)), ("q1", "q4", group.element(15)),
        ("q4", "q5", group.element(5)),
    ])
    g = vertex_map(tree, {"q0": "q5", "q1": "q4", "q4": "q1", "q5": "q0"})
    h = vertex_map(tree, {"q1": "q0", "q5": "q4"})
    assert compose_then_classify([g, h, h]) is OrbitEscapesTree
    assert length_function({"g": g, "h": h}, ["g", "h", "g h h"]).values == (
        group.zero(), group.element(5), group.zero())


def test_class_lengths_are_the_culler_morgan_value_at_every_vertex():
    # wherever length_function gives a class its length, the word's
    # extensions agree on it at every vertex it maps twice; wherever it
    # raises, a letter has no inverse or the word maps no vertex twice
    rng = random.Random(7)
    classes = enumerate_classes(["g", "h"], 3)
    outcomes = collections.Counter()
    for case in range(60):
        group = GROUPS[case % 2]
        builder = BUILDERS[(case // 2) % len(BUILDERS)]
        tree, g, h = builder(rng, group)
        action = {"g": g, "h": h}
        letter = {("g", 1): g, ("g", -1): inverse_or_none(g),
                  ("h", 1): h, ("h", -1): inverse_or_none(h)}
        for c in classes:
            letters = [letter[key] for key in c.word]
            try:
                (length,) = length_function(action, [c]).values
            except OrbitEscapesTree:
                assert None in letters or culler_morgan_values(tree, letters) == [], c.text
                outcomes["raises"] += 1
                continue
            values = culler_morgan_values(tree, letters)
            assert values and set(values) == {length}, (builder.__name__, group, c.text)
            if compose_then_classify(letters) is OrbitEscapesTree:
                outcomes["beyond the composite"] += 1
            else:
                outcomes["zero" if length.is_zero() else "positive"] += 1
    assert min(outcomes.values()) >= 5, outcomes


def test_short_ball_still_raises_for_a_long_class():
    tree, action = free_group_action(["a", "b"], 2)
    letters = [action["a"], action["b"], action["a"], action["b"]]
    assert two_point_length(letters) is None
    with pytest.raises(OrbitEscapesTree, match='^class "a b a b": '):
        length_function(action, ["a b a b"])


def test_hyperbolic_letter_with_axis_outside_its_domain_still_raises():
    # s1-s2 hangs off p0 and t1-t2 off p2; the map s1 -> t1, s2 -> t2
    # translates along the path by two, whose axis the thorn never meets
    group = LambdaGroup(1)
    unit = group.element(1)
    tree = LambdaTree(group, ["p0", "p1", "p2", "p3", "s1", "s2", "t1", "t2"], [
        ("p0", "p1", unit), ("p1", "p2", unit), ("p2", "p3", unit),
        ("p0", "s1", unit), ("s1", "s2", unit), ("p2", "t1", unit), ("t1", "t2", unit),
    ])
    g = vertex_map(tree, {"s1": "t1", "s2": "t2"})
    assert two_point_length([g]) is None
    with pytest.raises(OrbitEscapesTree):
        length_function({"g": g}, ["g"])


def test_points_the_composed_map_drops_are_not_used():
    # g moves the path p0..p3 (edges of length 2) by 1, h by 2.  Letter by
    # letter h o g is defined on [p0, p1] and half the edge p1-p2, and
    # g^2 p0 = p3, so the certified length is 3; but a composite stored
    # as vertex images keeps only the span of mapped vertices, [p0, p1],
    # and does not use the half edge, so its square has an empty domain.
    group = LambdaGroup(1)
    tree = path_tree(group, 3, group.element(2))
    g = TreeIsometry(tree, {f"p{i}": tree.edge_point(f"e{i}", group.element(1)) for i in range(3)})
    h = vertex_map(tree, {"p0": "p1", "p1": "p2", "p2": "p3"})
    p = tree.vertex_point("p0")
    for _ in range(2):
        p = h.apply(g.apply(p))
    assert p == tree.vertex_point("p3")
    assert two_point_length([h, g]) == group.element(3)
    assert compose_then_classify([h, g]) is OrbitEscapesTree


def test_long_words_of_edge_point_letters_take_polynomial_work(monkeypatch):
    # every other image is an edge point; applying the word letter by
    # letter costs one application per letter for each point evaluated
    group = LambdaGroup(1)
    n, m = 40, 12
    tree = path_tree(group, n, group.element(2))
    g = TreeIsometry(tree, {f"p{i}": tree.edge_point(f"e{i}", group.element(1)) for i in range(n)})
    budget = [4 * m * (n + 1)]
    apply = TreeIsometry.apply

    def counted(self, p):
        budget[0] -= 1
        assert budget[0] >= 0, "more than 4 m (n + 1) applications"
        return apply(self, p)

    monkeypatch.setattr(TreeIsometry, "apply", counted)
    assert two_point_length([g] * m) == group.element(m)


def half_edge_glides(rng, group):
    """Maps by multiples of a half unit on a path listed in random vertex order.

    Edges are 1 to 3 half units long, so images mix vertices and edge
    points.  Two glides translate by one and two half units; the mirror
    reverses the path, so its edge images run backward.
    """
    half = random_length(rng, group)
    n = rng.randint(3, 8)
    names = [f"p{i}" for i in range(n + 1)]
    lengths = [rng.randint(1, 3) * half for _ in range(n)]
    tree = LambdaTree(group, rng.sample(names, len(names)),
                      [(names[i], names[i + 1], lengths[i]) for i in range(n)])
    ends = list(itertools.accumulate(lengths, initial=group.zero()))

    def move(f):
        images = {}
        for v, x in zip(names, ends):
            for i in range(n):
                if ends[i] <= f(x) <= ends[i + 1]:
                    images[v] = tree.edge_point(f"e{i}", f(x) - ends[i])
                    break
        return TreeIsometry(tree, images)

    return move(lambda x: x + half), move(lambda x: x + 2 * half), move(lambda x: ends[-1] - half - x)


def test_inverse_matches_the_all_pairs_preimage_search():
    # only maps with an edge-point image reach the edge-by-edge inversion;
    # vertex-to-vertex maps invert by swapping pairs
    rng = random.Random(6)
    compared = 0
    for case in range(12):
        group = GROUPS[case % len(GROUPS)]
        _, g, h = half_edge_pair(rng, group)
        glide, glide2, mirror = half_edge_glides(rng, group)
        maps = [g, glide, glide2, mirror]
        for outer, inner in ((g, h), (h, g), (glide, glide2), (glide2, mirror), (mirror, glide)):
            try:
                maps.append(outer.compose(inner))
            except OrbitEscapesTree:
                pass
        for phi in maps:
            if all(img.is_vertex() for img in phi.vertex_images.values()):
                continue
            want = all_pairs_inverse(phi)
            if not want:
                with pytest.raises(OrbitEscapesTree, match="^inverse has empty domain$"):
                    phi.inverse()
                continue
            assert list(phi.inverse().vertex_images.items()) == list(want.items())
            compared += 1
    assert compared >= 80, compared
