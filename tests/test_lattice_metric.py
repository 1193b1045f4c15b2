"""The lattice tree from the ball picture against the matrix-and-search oracle.

``lattice_reference`` computes distances from elementary divisors,
neighbors from matrix products and the fixed vertex by a breadth-first
search.  ``sl2`` reads L(n; u) as the ball of center u and radius
|pi|^n: d = n + m - 2 min(n, m, v(w - u)), neighbors are the p sub-balls
and the parent ball, and the fixed vertex is the midpoint of [x0, g x0].
Both must give the same vertices in the same order, the same distances,
and the same errors, by class and message.
"""

import random
from fractions import Fraction

import lattice_reference as ref
from lambdatrees.errors import LambdaTreeError
from lambdatrees.sl2 import (
    Mat2,
    act,
    ball,
    ball_to_dot,
    base_vertex,
    find_fixed_vertex,
    lattice_distance,
    neighbors,
)
from lambdatrees.valuation import ValuedField

P_ADIC = [ValuedField.rationals(p) for p in (2, 3, 5)]
FUNCTION_FIELDS = [
    ValuedField.function_field_at(0),
    ValuedField.function_field_at(Fraction(1, 2)),
    ValuedField.function_field_at_infinity(),
]
RADII = [None, 0, 1, 2, 3, -1]
# a larger radius per p; at it the reference scans up to 485 vertices
FAR = {2: 6, 3: 5, 5: 3}


def outcome(fn, *args):
    """fn's value, or its error as (class name, message)."""
    try:
        return fn(*args)
    except LambdaTreeError as exc:
        return type(exc).__name__, str(exc)


def generators(field):
    """diag(pi, 1/pi), the two unipotents and [[0, 1], [-1, 0]], with inverses."""
    pi = field.uniformizer()
    gens = [
        Mat2.of(field, pi, 0, 0, 1 / pi),
        Mat2.of(field, 1, 1, 0, 1),
        Mat2.of(field, 1, 0, 1, 1),
        Mat2.of(field, 0, 1, -1, 0),
    ]
    return gens + [g.inverse() for g in gens]


def word(rng, gens, length):
    g = Mat2.identity(gens[0].field)
    for _ in range(length):
        g = g * rng.choice(gens)
    return g


def conjugate(rng, field):
    """b u b^-1 with u in SL2 of the valuation ring, so that its fixed set
    b Fix(u) holds b x0."""
    gens = generators(field)
    u = word(rng, gens[1:4], rng.randint(1, 4))
    shift = Mat2.of(field, 1, Fraction(1, field.p), 0, 1)
    b = word(rng, [gens[0], gens[4], shift], rng.randint(2, 6))
    return b * u * b.inverse()


def test_fixed_vertex_matches_breadth_first_search():
    rng = random.Random(909)
    trace_valuations, found_at = set(), set()
    count = 0
    for field in P_ADIC:
        gens = generators(field)
        x0 = base_vertex(field)
        words = [word(rng, gens, rng.randint(1, 6)) for _ in range(80)]
        words += [conjugate(rng, field) for _ in range(30)]
        for g in words:
            trace_valuations.add(field.valuation_int(g.trace()))
            for radius in RADII + [FAR[field.p]]:
                got = outcome(find_fixed_vertex, g, radius)
                assert got == outcome(ref.find_fixed_vertex, g, radius), (str(g), radius)
            fixed = find_fixed_vertex(g, FAR[field.p])
            if fixed is not None:
                assert act(g, fixed) == fixed
                found_at.add(int(lattice_distance(x0, fixed).coords[0]))
            count += 1
    assert count >= 300
    assert {-2, -1, 0, 1} <= trace_valuations
    assert {0, 2, 3, 4, 5, 6} <= found_at


def test_errors_match_by_class_and_message():
    rng = random.Random(17)
    fields = FUNCTION_FIELDS + [ValuedField.rationals(17)]
    for field in fields:
        gens = generators(field)
        x0 = base_vertex(field)
        matrices = [Mat2.identity(field), gens[0], gens[1], gens[3],
                    Mat2.of(field, 2, 0, 0, 1), Mat2.of(field, 1, 1, 1, 1)]
        matrices += [word(rng, gens, rng.randint(1, 4)) for _ in range(6)]
        for g in matrices:
            for radius in RADII:
                got = outcome(find_fixed_vertex, g, radius)
                assert got == outcome(ref.find_fixed_vertex, g, radius), (str(g), radius)
        assert outcome(neighbors, x0) == outcome(ref.neighbors, x0)
        for radius in (-1, 0, 1):
            assert outcome(ball, x0, radius) == outcome(ref.ball, x0, radius)
    x0 = base_vertex(P_ADIC[0])
    assert outcome(ball, x0, -1) == outcome(ref.ball, x0, -1)
    other = base_vertex(P_ADIC[1])
    assert outcome(lattice_distance, x0, other) == outcome(ref.lattice_distance, x0, other)


def test_distances_and_neighbors_match_the_matrix_forms():
    rng = random.Random(41)
    for field in P_ADIC + FUNCTION_FIELDS:
        gens = generators(field)
        x0 = base_vertex(field)
        vertices = [act(word(rng, gens, rng.randint(0, 5)), x0) for _ in range(25)]
        for x in vertices:
            for y in vertices:
                assert lattice_distance(x, y) == ref.lattice_distance(x, y), (str(x), str(y))
            if field.kind == "p_adic":
                assert neighbors(x) == ref.neighbors(x), str(x)


def test_balls_match_breadth_first_search():
    rng = random.Random(73)
    for field, radius in ((P_ADIC[0], 4), (P_ADIC[1], 3), (P_ADIC[2], 2)):
        gens = generators(field)
        for _ in range(4):
            center = act(word(rng, gens, rng.randint(0, 5)), base_vertex(field))
            for r in range(radius + 1):
                got, want = ball(center, r), ref.ball(center, r)
                assert got.vertices == want.vertices
                assert got.edges == want.edges
                assert got.distance == want.distance
                assert ball_to_dot(got) == ball_to_dot(want)
