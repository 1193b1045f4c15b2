"""lattice-trace: SL2 words acting on the lattice tree, and lattice balls.

Words are seeded random products of diag(pi, 1/pi) and the two
unipotents [[1, 1], [0, 1]], [[1, 0], [1, 1]] and their inverses, with pi
the uniformizer.  Over Q with p = 2, 3, 5 each round holds a fixed quota
of words of fixed letter count per value of v(trace), the quantity that
sets the radius ``find_fixed_vertex`` scans (|2 v(trace)| + 2), so every
seed does the same amount of scanning.  Over Q(t) at t = 0, at t = 1 and
at infinity, words of three letters are drawn without quotas.

A word operation computes the translation length, acts on the base
vertex x0 twice, measures d(x0, g x0) and d(x0, g^2 x0) and, over Q,
searches for a fixed vertex and applies g to it.  The checks:

- l(g) = max(0, d(x0, g^2 x0) - d(x0, g x0)), for every field;
- over Q, l(g) = max(0, -2 v_p(trace)) with v_p computed by the benchmark;
- over Q, a fixed vertex is found exactly when l = 0, and g fixes it.

A ball operation builds the ball of radius r about a seeded vertex and
checks its size against 1 + (p+1)(p^r - 1)/(p - 1), its edge count, and
``lattice_distance`` from three sources against BFS hops over its edges.
"""

from __future__ import annotations

import collections
import random
from fractions import Fraction

from common import Op, expect
from lambdatrees import sl2, valuation

NAME = "lattice-trace"

# (p, v(trace), words per round, letters per word).  The counts put the
# median inside the p = 2, v = -1 words (a full scan of 46 vertices) and
# the 90th percentile inside the p = 3, v = -1 words (161 vertices).
STRATA = {
    "full": [(2, 0, 4, 4), (3, 0, 3, 3), (5, 0, 3, 3), (2, -1, 12, 3),
             (3, 1, 2, 4), (3, -1, 8, 3), (5, -1, 1, 4)],
    "tiny": [(2, 0, 1, 4), (2, -1, 1, 3), (3, -1, 1, 3)],
}
# Q(t) places (a point, or None for infinity) and words per place per round
PLACES = ["0", "1", None]
FUNCTION_FIELD_WORDS = {"full": 3, "tiny": 1}
FUNCTION_FIELD_LETTERS = 3
# (p, radius) of the balls checked per round
BALLS = {"full": [(2, 4), (3, 3), (5, 2)], "tiny": [(2, 2)]}
MAX_DRAWS = 100_000


def p_adic_valuation(x: Fraction, p: int):
    """v_p of a rational, or None for zero."""
    if x == 0:
        return None
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def ball_size(p: int, r: int) -> int:
    return 1 + (p + 1) * (p ** r - 1) // (p - 1)


def bfs_hops(edges, src):
    adjacency = collections.defaultdict(list)
    for u, w in edges:
        adjacency[u].append(w)
        adjacency[w].append(u)
    hops = {src: 0}
    queue = collections.deque([src])
    while queue:
        u = queue.popleft()
        for w in adjacency[u]:
            if w not in hops:
                hops[w] = hops[u] + 1
                queue.append(w)
    return hops


def generators(field, pi: str, pi_inv: str):
    mats = [
        sl2.Mat2.from_json(field, [pi, "0", "0", pi_inv]),
        sl2.Mat2.from_json(field, ["1", "1", "0", "1"]),
        sl2.Mat2.from_json(field, ["1", "0", "1", "1"]),
    ]
    return mats + [m.inverse() for m in mats]


def random_word(rng, gens, identity, length):
    g = identity
    letters = []
    for _ in range(length):
        i = rng.randrange(len(gens))
        letters.append(i)
        g = g * gens[i]
    return g, letters


def word_op(field, g, label, p=None):
    trace_v = None if p is None else p_adic_valuation(g.a + g.d, p)

    def run():
        x0 = sl2.base_vertex(field)
        gx = sl2.act(g, x0)
        g2x = sl2.act(g, gx)
        answer = {
            "tau": int(sl2.sl2_translation_length(g).to_json()[0]),
            "d1": int(sl2.lattice_distance(x0, gx).to_json()[0]),
            "d2": int(sl2.lattice_distance(x0, g2x).to_json()[0]),
        }
        if p is not None:
            fixed = sl2.find_fixed_vertex(g)
            answer["fixed"] = None if fixed is None else fixed.label()
            answer["fixed_image"] = None if fixed is None else sl2.act(g, fixed).label()
        return answer

    def check(answer):
        tau = answer["tau"]
        expect(tau == max(0, answer["d2"] - answer["d1"]),
               f"l = {tau} but d(x0, g2x0) - d(x0, gx0) = {answer['d2']} - {answer['d1']}")
        if p is None:
            return
        want = 0 if trace_v is None else max(0, -2 * trace_v)
        expect(tau == want, f"l = {tau} but -2 v_{p}(trace) gives {want}")
        expect((answer["fixed"] is not None) == (tau == 0),
               f"fixed vertex {answer['fixed']} with translation length {tau}")
        expect(answer["fixed_image"] == answer["fixed"],
               f"g moves its fixed vertex {answer['fixed']} to {answer['fixed_image']}")

    return Op(label, run, check)


def ball_op(field, p, radius, center, sources_seed):
    size = ball_size(p, radius)

    def run():
        b = sl2.ball(center, radius)
        prng = random.Random(sources_seed)
        sources = [b.center] + prng.sample(b.vertices, 2)
        return {
            "size": len(b.vertices),
            "edges": list(b.edges),
            "rows": [(src, {v: int(sl2.lattice_distance(src, v).to_json()[0])
                            for v in b.vertices}) for src in sources],
        }

    def check(answer):
        expect(answer["size"] == size,
               f"ball of radius {radius} at p={p} has {answer['size']} vertices, want {size}")
        expect(len(answer["edges"]) == size - 1,
               f"ball has {len(answer['edges'])} edges, want {size - 1}")
        for src, dist in answer["rows"]:
            expect(dist == bfs_hops(answer["edges"], src),
                   f"lattice_distance from {src} differs from BFS hops")

    return Op(f"ball p={p} r={radius}", run, check)


def setup(seed: int, size: str = "full"):
    rng = random.Random(seed)
    ops = []
    for p, v, count, length in STRATA[size]:
        field = valuation.ValuedField.rationals(p)
        gens = generators(field, str(p), f"1/{p}")
        identity = sl2.Mat2.identity(field)
        found = 0
        for _ in range(MAX_DRAWS):
            g, letters = random_word(rng, gens, identity, length)
            if p_adic_valuation(g.a + g.d, p) == v:
                ops.append(word_op(field, g, f"Q_{p} v={v} word {letters}", p))
                found += 1
                if found == count:
                    break
        else:
            raise RuntimeError(f"found {found} of {count} words with v_{p}(trace) = {v}")
    for point in PLACES:
        if point is None:
            field, pi, pi_inv = valuation.ValuedField.function_field_at_infinity(), "1/t", "t"
        else:
            field = valuation.ValuedField.function_field_at(Fraction(point))
            pi, pi_inv = f"t - ({point})", f"1/(t - ({point}))"
        gens = generators(field, pi, pi_inv)
        identity = sl2.Mat2.identity(field)
        for _ in range(FUNCTION_FIELD_WORDS[size]):
            g, letters = random_word(rng, gens, identity, FUNCTION_FIELD_LETTERS)
            ops.append(word_op(field, g, f"{field} word {letters}"))
    for p, radius in BALLS[size]:
        field = valuation.ValuedField.rationals(p)
        gens = generators(field, str(p), f"1/{p}")
        h, _ = random_word(rng, gens, sl2.Mat2.identity(field), 3)
        center = sl2.act(h, sl2.base_vertex(field))
        ops.append(ball_op(field, p, radius, center, rng.randrange(10 ** 6)))
    rng.shuffle(ops)
    return ops
