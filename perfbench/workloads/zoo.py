"""isometry-zoo: seeded random trees and isometries through every invariant.

Six kinds of instance take turns, each generated from the seed by the
benchmark's own code:

- ``axioms``: a random tree over a rank-1, rank-2 or dyadic group (in
  turn).  ``check_axioms`` must accept it and reject the same graph with
  one extra edge (a cycle, axiom (b)); sampled quadruples must satisfy
  the four-point condition; vertex distances must equal path sums the
  benchmark adds up itself.
- ``translation``: a partial translation along a periodic path, maybe
  with a thorn.  ``classify`` must say hyperbolic with length equal to one
  period, and d(x, gx) = 2 d(x, axis) + l at sampled points.
- ``spider``: a permutation of identical spider arms.  Elliptic, the
  centre is fixed, and d(x, gx) = 2 d(x, Fix g) at sampled points.
- ``inversion``: the reflection of a path of odd length.  An inversion
  whose flipped segment (the set g^2 fixes) is the whole path; after base
  change to the dyadic group, elliptic.
- ``elliptic-pair``: two automorphisms of a double spider.  Both elliptic,
  and ``common_fixed_point`` returns a point that both fix.
- ``disjoint-pair``: two reflections of a path about centres a < b.  No
  common fixed point; the bridge has length b - a, and the product is
  hyperbolic with length 2 (b - a), twice the bridge.

The sizes of the instance in each slot of a round (vertex counts, arm
counts, path lengths) follow the slot's index, so every seed builds the
same mix of sizes; the seed chooses edge lengths, tree shapes and
permutations.  One operation is one instance.
"""

from __future__ import annotations

import random
from fractions import Fraction

from common import Op, coords, expect
from lambdatrees import isometry, ordered, tree
from lambdatrees.errors import OrbitEscapesTree

NAME = "isometry-zoo"
# size -> instances of each kind per round
SIZES = {"full": 25, "tiny": 1}
QUADRUPLES = 25
SAMPLES = 3


def _zero(rank):
    return (Fraction(0),) * rank


def _add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def _length(rng, rank, dyadic=False):
    """Edge length coordinates: positive in the lexicographic order."""
    if rank == 1:
        c = (Fraction(rng.randint(1, 9)),)
    else:
        c = (Fraction(rng.randint(0, 3)), Fraction(rng.randint(1, 6)))
    if dyadic and rng.random() < 0.5:
        c = tuple(x / 2 for x in c)
    return c


def _strs(c):
    return [str(x) for x in c]


def path_sums(vertices, edges, rank):
    """A function from a source vertex to every vertex's distance from it,
    found by the benchmark's own graph search over the edge list."""
    adjacency = {v: [] for v in vertices}
    for a, b, c in edges:
        adjacency[a].append((b, c))
        adjacency[b].append((a, c))

    def from_source(src):
        dist = {src: _zero(rank)}
        stack = [src]
        while stack:
            u = stack.pop()
            for w, c in adjacency[u]:
                if w not in dist:
                    dist[w] = _add(dist[u], c)
                    stack.append(w)
        return dist

    return from_source


def four_point_holds(pairings) -> bool:
    values = [coords(p) for p in pairings]
    return values.count(max(values)) >= 2


# -- instance makers (the program is called only inside ``run``) --------------


def axioms_instance(rng, index):
    rank, dyadic = [(1, False), (2, False), (2, True)][index % 3]
    n = 6 + index % 11
    vertices = [f"v{i}" for i in range(n + 1)]
    edges = [(vertices[rng.randrange(i)], f"v{i}", _length(rng, rank, dyadic))
             for i in range(1, n + 1)]
    adjacent = {frozenset((a, b)) for a, b, _ in edges}
    while True:
        u, v = rng.sample(vertices, 2)
        if frozenset((u, v)) not in adjacent:
            break
    extra = (u, v, (Fraction(1),) * rank)
    pairs = [tuple(rng.sample(vertices, 2)) for _ in range(6)]
    dist = path_sums(vertices, edges, rank)
    expected = [_strs(dist(a)[b]) for a, b in pairs]
    sample_seed = rng.randrange(10 ** 6)

    def run():
        group = ordered.LambdaGroup(rank, dyadic)
        real = [(a, b, group.element(*c)) for a, b, c in edges]
        accept = tree.check_axioms((group, vertices, real), sample_size=6, seed=sample_seed)
        cyclic = real + [(extra[0], extra[1], group.element(*extra[2]))]
        reject = tree.check_axioms((group, vertices, cyclic), sample_size=6, seed=sample_seed)
        t = tree.LambdaTree(group, vertices, real)
        prng = random.Random(sample_seed)
        pairings = []
        for _ in range(QUADRUPLES):
            x, y, z, w = (tree.random_point(t, prng) for _ in range(4))
            d = t.distance
            pairings.append([
                (d(x, y) + d(z, w)).to_json(),
                (d(x, z) + d(y, w)).to_json(),
                (d(x, w) + d(y, z)).to_json(),
            ])
        dists = [t.distance(t.vertex_point(a), t.vertex_point(b)).to_json() for a, b in pairs]
        return {
            "valid": accept["valid"],
            "cycle": [reject["valid"], reject["axiom"], "cycle" in (reject["witness"] or "")],
            "pairings": pairings,
            "dists": dists,
        }

    def check(answer):
        expect(answer["valid"] is True, "a tree was rejected by check_axioms")
        expect(answer["cycle"] == [False, "b", True],
               f"cycle graph not rejected under axiom (b): {answer['cycle']}")
        for triple in answer["pairings"]:
            expect(four_point_holds(triple), f"four-point condition fails: {triple}")
        expect(answer["dists"] == expected,
               f"vertex distances {answer['dists']} differ from path sums {expected}")

    return run, check


def _displacement_samples(t, phi, char_set, sample_seed):
    """(d(x, gx), d(x, C)) at up to SAMPLES points where g is defined."""
    prng = random.Random(sample_seed)
    out = []
    for _ in range(25):
        if len(out) == SAMPLES:
            break
        p = tree.random_point(t, prng)
        try:
            moved = phi.displacement(p)
        except OrbitEscapesTree:
            continue
        out.append([moved.to_json(), char_set.distance_to(p).to_json()])
    return out


def _check_displacements(samples, length_json):
    expect(len(samples) > 0, "no sample point lies in the isometry's domain")
    tau = coords(length_json)
    for moved, gap in samples:
        want = tuple(2 * g + t for g, t in zip(coords(gap), tau))
        expect(coords(moved) == want,
               f"d(x, gx) = {moved} but 2 d(x, C) + l = {[str(c) for c in want]}")


def translation_instance(rng, index):
    rank = 1 + index % 2
    shift = 1 + index % 3
    span = shift + 2 + (index // 3) % 5
    total = span + shift
    pattern = [_length(rng, rank) for _ in range(shift)]
    vertices = [f"v{i}" for i in range(total + 1)]
    edges = [(f"v{i}", f"v{i + 1}", pattern[i % shift]) for i in range(total)]
    images = {f"v{i}": f"v{i + shift}" for i in range(span + 1)}
    if index % 5 < 3:
        base = rng.randint(1, span - 1)
        thorn = _length(rng, rank)
        vertices += ["S", "T"]
        edges += [(f"v{base}", "S", thorn), (f"v{base + shift}", "T", thorn)]
        images["S"] = "T"
    period = _zero(rank)
    for c in pattern:
        period = _add(period, c)
    sample_seed = rng.randrange(10 ** 6)

    def run():
        group = ordered.LambdaGroup(rank)
        t = tree.LambdaTree(group, vertices, [(a, b, group.element(*c)) for a, b, c in edges])
        phi = isometry.TreeIsometry(t, {v: t.vertex_point(w) for v, w in images.items()})
        cls = isometry.classify(phi)
        return {
            "kind": cls.kind,
            "length": cls.length.to_json(),
            "samples": _displacement_samples(t, phi, cls.axis, sample_seed)
            if cls.kind == "hyperbolic" else [],
        }

    def check(answer):
        expect(answer["kind"] == "hyperbolic", f"translation classified {answer['kind']}")
        expect(answer["length"] == _strs(period),
               f"translation length {answer['length']} is not the period {_strs(period)}")
        _check_displacements(answer["samples"], answer["length"])

    return run, check


def spider_instance(rng, index):
    rank = 1 + index % 2
    arms = 2 + index % 4
    segs = 1 + (index // 4) % 3
    profile = [_length(rng, rank) for _ in range(segs)]
    vertices = ["c"]
    edges = []
    for a in range(arms):
        prev = "c"
        for j in range(segs):
            vertices.append(f"a{a}x{j}")
            edges.append((prev, f"a{a}x{j}", profile[j]))
            prev = f"a{a}x{j}"
    perm = list(range(arms))
    while all(perm[i] == i for i in range(arms)):
        rng.shuffle(perm)
    images = {"c": "c"}
    for a in range(arms):
        for j in range(segs):
            images[f"a{a}x{j}"] = f"a{perm[a]}x{j}"
    sample_seed = rng.randrange(10 ** 6)

    def run():
        group = ordered.LambdaGroup(rank)
        t = tree.LambdaTree(group, vertices, [(a, b, group.element(*c)) for a, b, c in edges])
        phi = isometry.TreeIsometry(t, {v: t.vertex_point(w) for v, w in images.items()})
        cls = isometry.classify(phi)
        elliptic = cls.kind == "elliptic"
        return {
            "kind": cls.kind,
            "length": cls.length.to_json(),
            "centre_fixed": elliptic and "c" in cls.fixed_set.vertices,
            "samples": _displacement_samples(t, phi, cls.fixed_set, sample_seed)
            if elliptic else [],
        }

    def check(answer):
        expect(answer["kind"] == "elliptic", f"arm permutation classified {answer['kind']}")
        expect(answer["length"] == ["0"] * rank, f"elliptic length {answer['length']}")
        expect(answer["centre_fixed"], "the spider's centre is missing from the fixed set")
        _check_displacements(answer["samples"], answer["length"])

    return run, check


def inversion_instance(rng, index):
    rank = 2 if index % 4 == 0 else 1
    total = 2 * (2 + index % 9) + 1
    interior = range(1, (total + 1) // 2)
    chosen = rng.sample(interior, min(index % 4, len(interior) - 1))
    positions = sorted({0, total} | {x for h in chosen for x in (h, total - h)})
    vertices = [f"p{x}" for x in positions]
    edges = [(f"p{lo}", f"p{hi}", (hi - lo,) if rank == 1 else (0, hi - lo))
             for lo, hi in zip(positions, positions[1:])]
    images = {f"p{x}": f"p{total - x}" for x in positions}
    # the reflection is an involution, so g^2 fixes the whole path: the
    # flipped segment is the path itself, of odd length ``total``
    flipped = [str(total)] if rank == 1 else ["0", str(total)]

    def run():
        group = ordered.LambdaGroup(rank)
        t = tree.LambdaTree(group, vertices, [(a, b, group.element(*c)) for a, b, c in edges])
        phi = isometry.TreeIsometry(t, {v: t.vertex_point(w) for v, w in images.items()})
        before = isometry.classify(phi)
        halved = t.base_change(ordered.LambdaGroup(rank, dyadic=True))
        phi2 = isometry.TreeIsometry(
            halved, {v: halved.vertex_point(w) for v, w in images.items()})
        after = isometry.classify(phi2)
        return {
            "before": before.kind,
            "flipped": before.flipped_length.to_json() if before.kind == "inversion" else None,
            "after": after.kind,
            "after_length": after.length.to_json(),
        }

    def check(answer):
        expect(answer["before"] == "inversion", f"reflection classified {answer['before']}")
        expect(answer["flipped"] == flipped,
               f"flipped length {answer['flipped']}, the path has length {flipped}")
        expect(answer["after"] == "elliptic",
               f"after dyadic base change classified {answer['after']}")
        expect(answer["after_length"] == ["0"] * rank, "elliptic length is not zero")

    return run, check


def _spider_move(rng, arms, segs, kind):
    perms = [list(range(arms)), list(range(arms))]
    for side in range(2):
        rng.shuffle(perms[side])
    images = {}
    flip = kind == "flip"
    images["c0"], images["m"], images["c1"] = ("c1", "m", "c0") if flip else ("c0", "m", "c1")
    for side in range(2):
        for a in range(arms):
            for j in range(segs):
                target = 1 - side if flip else side
                images[f"s{side}a{a}x{j}"] = f"s{target}a{perms[side][a]}x{j}"
    return images


def elliptic_pair_instance(rng, index):
    arms = 2 + index % 2
    profile = [_length(rng, 1) for _ in range(1 + (index // 2) % 2)]
    bridge = _length(rng, 1)
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
    g_images = _spider_move(rng, arms, len(profile), ("perm", "flip")[(index // 4) % 2])
    h_images = _spider_move(rng, arms, len(profile), ("perm", "flip")[(index // 8) % 2])

    def run():
        group = ordered.LambdaGroup(1)
        t = tree.LambdaTree(group, vertices, [(a, b, group.element(*c)) for a, b, c in edges])
        g = isometry.TreeIsometry(t, {v: t.vertex_point(w) for v, w in g_images.items()})
        h = isometry.TreeIsometry(t, {v: t.vertex_point(w) for v, w in h_images.items()})
        kinds = [isometry.classify(x).kind for x in (g, h, isometry.compose(g, h))]
        shared = isometry.common_fixed_point(g, h)
        if isinstance(shared, isometry.NoCommonFixedPoint):
            return {"kinds": kinds, "point": None}
        return {
            "kinds": kinds,
            "point": str(shared),
            "images": [str(g.apply(shared)), str(h.apply(shared))],
        }

    def check(answer):
        expect(answer["kinds"] == ["elliptic"] * 3, f"kinds {answer['kinds']}")
        expect(answer["point"] is not None, "no common fixed point for a double spider")
        expect(answer["images"] == [answer["point"]] * 2,
               f"common fixed point {answer['point']} moves to {answer['images']}")

    return run, check


def disjoint_pair_instance(rng, index):
    delta = 1 + index % 3
    a = delta + (index // 3) % 3
    b = a + delta
    total = 2 * b + index % 5
    vertices = [f"p{x}" for x in range(total + 1)]

    def reflection(center):
        lo, hi = max(0, 2 * center - total), min(total, 2 * center)
        return {f"p{x}": f"p{2 * center - x}" for x in range(lo, hi + 1)}

    g_images, h_images = reflection(a), reflection(b)

    def run():
        group = ordered.LambdaGroup(1)
        edges = [(f"p{x}", f"p{x + 1}", group.element(1)) for x in range(total)]
        t = tree.LambdaTree(group, vertices, edges)
        g = isometry.TreeIsometry(t, {v: t.vertex_point(w) for v, w in g_images.items()})
        h = isometry.TreeIsometry(t, {v: t.vertex_point(w) for v, w in h_images.items()})
        witness = isometry.common_fixed_point(g, h)
        product = isometry.classify(isometry.compose(g, h))
        if not isinstance(witness, isometry.NoCommonFixedPoint):
            return {"bridge": None, "product": product.kind}
        return {
            "bridge": witness.bridge_length.to_json(),
            "displacement": witness.composite_displacement.to_json(),
            "product": product.kind,
            "product_length": product.length.to_json(),
        }

    def check(answer):
        expect(answer["bridge"] == [str(b - a)],
               f"bridge {answer['bridge']} between centres {a} and {b}")
        expect(answer["displacement"] == [str(2 * (b - a))],
               f"composite displacement {answer['displacement']} is not twice the bridge")
        expect(answer["product"] == "hyperbolic", f"product classified {answer['product']}")
        expect(answer["product_length"] == [str(2 * (b - a))],
               f"product length {answer['product_length']}, want {2 * (b - a)}")

    return run, check


MAKERS = {
    "axioms": axioms_instance,
    "translation": translation_instance,
    "spider": spider_instance,
    "inversion": inversion_instance,
    "elliptic-pair": elliptic_pair_instance,
    "disjoint-pair": disjoint_pair_instance,
}


def setup(seed: int, size: str = "full"):
    rng = random.Random(seed)
    ops = []
    for index in range(SIZES[size]):
        for kind, make in MAKERS.items():
            run, check = make(rng, index)
            ops.append(Op(f"{kind} #{index}", run, check))
    return ops
