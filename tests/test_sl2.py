"""Lattice-class tree over discretely valued fields.

The metric oracle is breadth-first search over the neighbor relation,
computed independently of the elementary-divisor formula.  Ball sizes
are checked against the regular-tree count 1 + (p+1)(p^r - 1)/(p - 1).
"""

import random
import time
from collections import deque
from fractions import Fraction

import pytest

from lambdatrees.errors import (
    DeterminantNotOne,
    DomainError,
    FieldMismatch,
    InfiniteResidueField,
    SingularLattice,
)
from lambdatrees.sl2 import (
    MAX_BALL_VERTICES,
    LatticeVertex,
    Mat2,
    act,
    ball,
    ball_to_dot,
    base_vertex,
    canonical_vertex,
    find_fixed_vertex,
    lattice_distance,
    neighbors,
    sl2_translation_length,
)
from lambdatrees.valuation import ValuedField

Q2 = ValuedField.rationals(2)
Q3 = ValuedField.rationals(3)


def mat(field, a, b, c, d):
    return Mat2.of(field, Fraction(a), Fraction(b), Fraction(c), Fraction(d))


def dist_int(x, y):
    return int(lattice_distance(x, y).coords[0])


def bfs_distances(b, start):
    adj = {}
    for u, v in b.edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in adj.get(u, []):
            if w not in seen:
                seen[w] = seen[u] + 1
                queue.append(w)
    return seen


def random_sl2(field, rng, steps=4):
    """Product of elementary matrices, so the determinant is one."""
    g = Mat2.identity(field)
    p = field.p
    for _ in range(steps):
        kind = rng.randrange(3)
        if kind == 0:
            x = Fraction(rng.randrange(-4, 5), p ** rng.randrange(0, 3))
            g = g * mat(field, 1, x, 0, 1)
        elif kind == 1:
            x = Fraction(rng.randrange(-4, 5), p ** rng.randrange(0, 3))
            g = g * mat(field, 1, 0, x, 1)
        else:
            k = rng.randrange(-2, 3)
            g = g * Mat2.of(field, Fraction(p) ** k, 0, 0, Fraction(p) ** -k)
    return g


def test_canonical_form_of_identity_and_homotheties():
    v0 = base_vertex(Q2)
    assert canonical_vertex(Mat2.identity(Q2)) == v0
    assert canonical_vertex(mat(Q2, 3, 0, 0, 3)) == v0
    assert canonical_vertex(mat(Q2, 0, 3, 3, 0)) == v0
    # scaling by 3 is a unit, swapping columns is unimodular
    assert canonical_vertex(mat(Q2, 0, 6, 3, 0)) == LatticeVertex(Q2, 1, Fraction(0))
    assert v0.to_json() == ["1", "0", "0", "1"]


def test_canonical_form_examples():
    assert canonical_vertex(mat(Q2, 2, 0, 0, Fraction(1, 2))) == LatticeVertex(Q2, 2, Fraction(0))
    got = canonical_vertex(mat(Q2, 2, 1, 0, 1))
    assert got == LatticeVertex(Q2, 1, Fraction(1))
    # column operations do not change the class: b' = 3 = 1 mod 2
    assert canonical_vertex(mat(Q2, 4, 6, 0, 2)) == got
    # shift already inside pi^n O collapses to zero
    assert canonical_vertex(mat(Q2, Fraction(1, 4), Fraction(1, 2), 0, 1)) == LatticeVertex(
        Q2, -2, Fraction(0)
    )
    with pytest.raises(SingularLattice):
        canonical_vertex(mat(Q2, 1, 2, 2, 4))


def test_canonical_form_is_idempotent_and_basis_independent():
    rng = random.Random(7)
    verts = ball(base_vertex(Q2), 3).vertices
    for v in verts:
        assert canonical_vertex(v.matrix()) == v
    for v in verts[:8]:
        m = v.matrix()
        x = Fraction(rng.randrange(0, 8))
        assert canonical_vertex(m * mat(Q2, 1, x, 0, 1)) == v
        assert canonical_vertex(m * mat(Q2, 1, 0, x, 1)) == v
        assert canonical_vertex(m * mat(Q2, 0, 1, 1, 0)) == v
        s = Fraction(2) ** rng.randrange(-2, 3)
        assert canonical_vertex(m * mat(Q2, s, 0, 0, s)) == v


def test_distance_examples():
    v0 = base_vertex(Q2)
    l10 = canonical_vertex(mat(Q2, 2, 0, 0, 1))
    l20 = canonical_vertex(mat(Q2, 4, 0, 0, 1))
    l21 = canonical_vertex(mat(Q2, 4, 1, 0, 1))
    l23 = canonical_vertex(mat(Q2, 4, 3, 0, 1))
    assert dist_int(v0, v0) == 0
    assert dist_int(v0, l10) == 1
    assert dist_int(v0, l20) == 2
    assert dist_int(l10, l20) == 1
    assert dist_int(v0, l21) == 2
    # both hang under L(1; 1), so the path climbs one level and back
    assert dist_int(l21, l23) == 2
    assert dist_int(l21, v0) == dist_int(v0, l21)
    deep = canonical_vertex(mat(Q2, Fraction(1, 4), Fraction(1, 8), 0, 1))
    assert dist_int(v0, deep) == 4
    with pytest.raises(FieldMismatch):
        lattice_distance(v0, base_vertex(Q3))


def test_ball_size_is_bounded_before_enumeration():
    # 1 + 3 (2^15 - 1) = 98,302 vertices fit; radius 16 would have 196,606
    assert 1 + 3 * (2**15 - 1) <= MAX_BALL_VERTICES < 1 + 3 * (2**16 - 1)
    with pytest.raises(DomainError, match="^a radius-16 ball in the tree of Q_2 has more than"):
        ball(base_vertex(Q2), 16)
    with pytest.raises(DomainError, match="^a radius-1000000000 ball in the tree of Q_13 "):
        ball(base_vertex(ValuedField.rationals(13)), 10**9)
    assert len(ball(base_vertex(ValuedField.function_field_at(0)), 0).vertices) == 1


def test_distance_matches_breadth_first_search():
    for field, radius in ((Q2, 3), (Q3, 2)):
        b = ball(base_vertex(field), radius)
        for start in b.vertices:
            oracle = bfs_distances(b, start)
            for other in b.vertices:
                assert dist_int(start, other) == oracle[other]


def test_four_point_condition():
    rng = random.Random(23)
    verts = ball(base_vertex(Q2), 3).vertices
    for _ in range(150):
        x, y, z, w = (rng.choice(verts) for _ in range(4))
        a = dist_int(x, y) + dist_int(z, w)
        b = dist_int(x, z) + dist_int(y, w)
        c = dist_int(x, w) + dist_int(y, z)
        assert a <= max(b, c)


def test_neighbor_counts_and_membership():
    for field, count in ((Q2, 3), (Q3, 4), (ValuedField.rationals(5), 6)):
        v0 = base_vertex(field)
        ns = neighbors(v0)
        assert len(ns) == count
        assert len(set(ns)) == count
        for n in ns:
            assert dist_int(v0, n) == 1
            assert v0 in neighbors(n)
    with pytest.raises(InfiniteResidueField):
        neighbors(base_vertex(ValuedField.function_field_at(0)))
    with pytest.raises(DomainError):
        neighbors(base_vertex(ValuedField.rationals(17)))


def test_ball_sizes_match_regular_tree_count():
    for field, p in ((Q2, 2), (Q3, 3)):
        for radius in range(4):
            expected = 1 + (p + 1) * (p**radius - 1) // (p - 1)
            b = ball(base_vertex(field), radius)
            assert len(b.vertices) == expected
            assert len(b.edges) == expected - 1
            for v in b.vertices:
                assert b.distance[v] == dist_int(b.center, v)


def test_ball_dot_export():
    b = ball(base_vertex(Q2), 1)
    dot = ball_to_dot(b)
    assert dot.startswith("graph lattice_ball {")
    assert dot.count(" -- ") == 3
    assert 'label="L(0; 0)"' in dot
    assert dot == ball_to_dot(ball(base_vertex(Q2), 1))


def test_act_examples_and_errors():
    v0 = base_vertex(Q2)
    assert act(mat(Q2, 2, 0, 0, Fraction(1, 2)), v0) == LatticeVertex(Q2, 2, Fraction(0))
    assert act(mat(Q2, 1, 1, 0, 1), v0) == v0
    assert act(mat(Q2, 1, Fraction(1, 2), 0, 1), v0) == LatticeVertex(Q2, 0, Fraction(1, 2))
    with pytest.raises(DeterminantNotOne):
        act(mat(Q2, 2, 0, 0, 1), v0)
    with pytest.raises(FieldMismatch):
        act(mat(Q3, 1, 0, 0, 1), v0)


def test_action_is_isometric_and_compatible():
    rng = random.Random(11)
    v0 = base_vertex(Q2)
    verts = ball(v0, 2).vertices
    for _ in range(25):
        g = random_sl2(Q2, rng)
        h = random_sl2(Q2, rng)
        x = rng.choice(verts)
        y = rng.choice(verts)
        assert dist_int(act(g, x), act(g, y)) == dist_int(x, y)
        assert act(g * h, x) == act(g, act(h, x))
    assert all(act(Mat2.identity(Q2), x) == x for x in verts[:5])


def test_translation_length_examples():
    zero = Q2.value_group.zero()
    assert sl2_translation_length(mat(Q2, 1, 1, 0, 1)) == zero
    assert sl2_translation_length(mat(Q2, 0, 1, -1, 0)) == zero
    assert sl2_translation_length(mat(Q2, 2, 0, 0, Fraction(1, 2))) == Q2.value_group.element(2)
    assert sl2_translation_length(mat(Q2, 4, 0, 0, Fraction(1, 4))) == Q2.value_group.element(4)
    # trace 3 is a 2-adic unit, so the element is elliptic
    assert sl2_translation_length(mat(Q2, 2, 1, 1, 1)) == zero
    with pytest.raises(DeterminantNotOne):
        sl2_translation_length(mat(Q2, 1, 1, 1, 1))


def test_translation_length_is_ball_displacement_minimum():
    verts = ball(base_vertex(Q2), 4).vertices
    for g in (
        mat(Q2, 2, 0, 0, Fraction(1, 2)),
        mat(Q2, 1, 1, 0, 1),
        mat(Q2, 1, Fraction(1, 4), 0, 1),
        mat(Q2, 2, 1, 1, 1) * mat(Q2, 1, 0, 2, 1),
    ):
        tau = int(sl2_translation_length(g).coords[0])
        best = min(dist_int(x, act(g, x)) for x in verts)
        assert best == tau


def test_fixed_vertex_found_exactly_for_elliptic_elements():
    v0 = base_vertex(Q2)
    assert find_fixed_vertex(mat(Q2, 1, 1, 0, 1)) == v0
    assert find_fixed_vertex(mat(Q2, 0, 1, -1, 0)) == v0
    off_center = find_fixed_vertex(mat(Q2, 1, Fraction(1, 4), 0, 1))
    assert off_center == LatticeVertex(Q2, -2, Fraction(0))
    assert find_fixed_vertex(mat(Q2, 2, 0, 0, Fraction(1, 2))) is None
    assert find_fixed_vertex(mat(Q2, 4, 0, 0, Fraction(1, 4)), radius=3) is None


def test_fixed_vertex_search_needs_no_whole_ball():
    # v(trace) = 7 sets radius 16, a ball past MAX_BALL_VERTICES; the base
    # vertex is fixed and is the first one the search tries.
    start = time.perf_counter()
    assert find_fixed_vertex(mat(Q2, 128, 1, -1, 0)) == base_vertex(Q2)
    # hyperbolic: no vertex is fixed, so nothing is enumerated
    assert find_fixed_vertex(mat(Q2, Fraction(1, 128), 0, 0, 128)) is None
    assert time.perf_counter() - start < 5.0
    with pytest.raises(DomainError, match="^radius must be nonnegative$"):
        find_fixed_vertex(mat(Q2, Fraction(1, 128), 0, 0, 128), radius=-1)
    with pytest.raises(InfiniteResidueField):
        find_fixed_vertex(Mat2.identity(ValuedField.function_field_at(0)))


def test_zero_translation_length_iff_fixed_vertex():
    gens = {
        "A": mat(Q2, 2, 0, 0, Fraction(1, 2)),
        "B": mat(Q2, 1, 1, 0, 1),
        "C": mat(Q2, 1, 0, 1, 1),
        "a": mat(Q2, Fraction(1, 2), 0, 0, 2),
        "b": mat(Q2, 1, -1, 0, 1),
        "c": mat(Q2, 1, 0, -1, 1),
    }
    letters = sorted(gens)
    words = [(x,) for x in letters]
    words += [(x, y) for x in letters for y in letters]
    words += [(x, y, z) for x in letters for y in letters for z in letters[:3]]
    for word in words:
        g = Mat2.identity(Q2)
        for letter in word:
            g = g * gens[letter]
        tau = int(sl2_translation_length(g).coords[0])
        fixed = find_fixed_vertex(g)
        if tau == 0:
            assert fixed is not None, word
            assert act(g, fixed) == fixed
        else:
            assert fixed is None, word


def test_powers_scale_translation_length():
    rng = random.Random(5)
    samples = [mat(Q2, 2, 0, 0, Fraction(1, 2)), mat(Q2, 1, 1, 0, 1)]
    samples += [random_sl2(Q2, rng) for _ in range(10)]
    for g in samples:
        tau = sl2_translation_length(g)
        gk = g
        for k in (2, 3):
            gk = gk * g
            assert sl2_translation_length(gk) == tau * k


def test_stabilizer_examples():
    # the base vertex and its neighbour diag(1, 2): SL2(O) fixes the first,
    # its conjugate by diag(1, 2) the second, their intersection the edge
    v0 = base_vertex(Q2)
    other = canonical_vertex(mat(Q2, 1, 0, 0, 2))

    def fixes(g):
        return act(g, v0) == v0, act(g, other) == other

    assert fixes(mat(Q2, 1, 0, 2, 1)) == (True, True)
    assert fixes(mat(Q2, 1, 0, 1, 1)) == (True, False)
    assert fixes(mat(Q2, 1, Fraction(1, 2), 0, 1)) == (False, True)
    with pytest.raises(DeterminantNotOne):
        act(mat(Q2, 2, 0, 0, 2), v0)


def test_stabilizers_are_exactly_vertex_and_edge_fixers():
    # g fixes the base vertex exactly when its entries lie in the valuation
    # ring, and the neighbour diag(1, 2) exactly when v(a), v(d) >= 0,
    # v(b) >= -1 and v(c) >= 1
    rng = random.Random(31)
    v0 = base_vertex(Q2)
    other = canonical_vertex(mat(Q2, 1, 0, 0, 2))
    assert dist_int(v0, other) == 1
    for _ in range(60):
        g = random_sl2(Q2, rng)
        va, vb, vc, vd = (Q2.valuation_int(x) for x in g.entries())
        assert (act(g, v0) == v0) == (min(va, vb, vc, vd) >= 0)
        assert (act(g, other) == other) == (va >= 0 and vd >= 0 and vb >= -1 and vc >= 1)


def test_entry_valuation_reference_displacement():
    # on a diagonal element the displacement is twice |least entry valuation|
    g = mat(Q2, 4, 0, 0, Fraction(1, 4))
    assert min(Q2.valuation_int(x) for x in g.entries()) == -2
    v0 = base_vertex(Q2)
    assert dist_int(v0, act(g, v0)) == 4
    assert act(mat(Q2, 1, 1, 0, 1), v0) == v0


def test_function_field_lattice_tree():
    field = ValuedField.function_field_at(0)
    u0 = base_vertex(field)
    g = Mat2.from_json(field, ["t", "0", "0", "1/t"])
    assert sl2_translation_length(g) == field.value_group.element(2)
    x1 = act(g, u0)
    assert x1 == LatticeVertex(field, 2, field.zero())
    x2 = act(g, x1)
    assert x2 == LatticeVertex(field, 4, field.zero())
    assert int(lattice_distance(u0, x1).coords[0]) == 2
    assert int(lattice_distance(x1, x2).coords[0]) == 2
    h = Mat2.from_json(field, ["1", "t", "0", "1"])
    assert act(h, u0) == u0
    # h also fixes the neighbour diag(1, t), so it fixes the edge between them
    neighbour = canonical_vertex(Mat2.from_json(field, ["1", "0", "0", "t"]))
    assert act(h, neighbour) == neighbour


def test_matrix_json_round_trip_and_errors():
    g = Mat2.from_json(Q2, ["1", "1/2", "-4", "3"])
    assert Mat2.from_json(Q2, g.to_json()) == g
    assert g.to_json() == ["1", "1/2", "-4", "3"]
    v = canonical_vertex(mat(Q2, 2, 0, 0, Fraction(1, 2)))
    assert v.to_json() == ["4", "0", "0", "1"]
    with pytest.raises(DomainError):
        Mat2.from_json(Q2, ["1", "0", "0"])
    with pytest.raises(DomainError):
        Mat2.from_json(Q2, ["1", "zero", "0", "1"])
