"""Tests for tree self-isometries: application, composition, classification."""

import random
from fractions import Fraction

import pytest

from lambdatrees.errors import DomainError, NotAnIsometry, OrbitEscapesTree
from lambdatrees.isometry import (
    NoCommonFixedPoint,
    TreeIsometry,
    common_fixed_point,
    compose,
)
from lambdatrees.ordered import LambdaGroup
from lambdatrees.tree import LambdaTree, random_point

from helpers import arc_length, diameter

Z1 = LambdaGroup(1)
D1 = LambdaGroup(1, dyadic=True)


def unit_path(n, group=Z1):
    verts = [f"v{i}" for i in range(n + 1)]
    edges = [(f"v{i}", f"v{i+1}", group.element(1)) for i in range(n)]
    return LambdaTree(group, verts, edges)


def tripod(leg=2, group=Z1):
    """Center c with three legs of equal length ending at t1, t2, t3."""
    verts = ["c", "t1", "t2", "t3"]
    edges = [("c", f"t{i}", group.element(leg)) for i in (1, 2, 3)]
    return LambdaTree(group, verts, edges)


def vertex_map(tree, pairs):
    return TreeIsometry(tree, {u: tree.vertex_point(v) for u, v in pairs.items()})


def leg_swap(tree, i, j):
    """Tripod isometry exchanging legs i and j, fixing the third leg."""
    k = ({1, 2, 3} - {i, j}).pop()
    return vertex_map(
        tree, {"c": "c", f"t{i}": f"t{j}", f"t{j}": f"t{i}", f"t{k}": f"t{k}"}
    )


def is_identity(phi):
    """Whether phi sends every vertex it maps to that vertex itself."""
    return all(img.is_vertex() and img.vertex == v for v, img in phi.vertex_images.items())


def identity(tree):
    return TreeIsometry(tree, {v: tree.vertex_point(v) for v in tree.vertices})


def test_identity_fixes_everything():
    t = tripod()
    ident = identity(t)
    for v in t.vertices:
        assert ident.apply(t.vertex_point(v)) == t.vertex_point(v)
    p = t.edge_point("e0", 1)
    assert ident.apply(p) == p
    cls = ident.classify()
    assert cls.kind == "elliptic"
    assert cls.length.is_zero()
    # the whole tree is fixed
    assert arc_length(cls.fixed_set) == t.group.element(6)
    assert is_identity(ident)


def test_unit_edge_flip_is_inversion():
    t = LambdaTree(Z1, ["v0", "v1"], [("v0", "v1", Z1.element(1))])
    flip = vertex_map(t, {"v0": "v1", "v1": "v0"})
    assert flip.fixed_set().is_empty()
    cls = flip.classify()
    assert cls.kind == "inversion"
    assert cls.length.is_zero()
    # the flipped segment is the whole edge, length 1, and 1 is odd in Z
    assert cls.flipped_length == Z1.element(1)
    ends = {cls.flipped_segment.start, cls.flipped_segment.end}
    assert ends == {t.vertex_point("v0"), t.vertex_point("v1")}


def test_inversion_whose_square_fixes_a_non_segment():
    # a1, a2 - b - c - d1, d2 with unit edges; swapping the halves squares
    # to the identity, so Fix(g^2) is the whole tree, not a segment
    t = LambdaTree(Z1, ["a1", "a2", "b", "c", "d1", "d2"], [
        ("a1", "b", Z1.element(1)), ("a2", "b", Z1.element(1)), ("b", "c", Z1.element(1)),
        ("c", "d1", Z1.element(1)), ("c", "d2", Z1.element(1)),
    ])
    swap = vertex_map(t, {"a1": "d1", "a2": "d2", "b": "c", "c": "b", "d1": "a1", "d2": "a2"})
    cls = swap.classify()
    assert cls.kind == "inversion"
    assert cls.length.is_zero()
    assert cls.flipped_segment.start == t.vertex_point("a1")
    assert cls.flipped_segment.end == t.vertex_point("d1")
    assert cls.flipped_length == Z1.element(3)


def test_flip_becomes_elliptic_over_dyadics():
    t = LambdaTree(Z1, ["v0", "v1"], [("v0", "v1", Z1.element(1))])
    t2 = t.base_change(D1)
    flip = vertex_map(t2, {"v0": "v1", "v1": "v0"})
    cls = flip.classify()
    assert cls.kind == "elliptic"
    mid = t2.edge_point("e0", Fraction(1, 2))
    assert cls.fixed_set.contains(mid)
    # the midpoint is the only fixed point
    assert arc_length(cls.fixed_set).is_zero()
    assert cls.fixed_set.boundary_points() == [mid]


def test_minimum_displacement_of_an_edge_flip_sits_at_its_midpoint():
    # the image runs back along the edge, so the minimum lies inside it:
    # 0 at the midpoint when that is a group point, and unattained otherwise
    t = LambdaTree(Z1, ["v0", "v1"], [("v0", "v1", Z1.element(2))])
    flip = vertex_map(t, {"v0": "v1", "v1": "v0"})
    assert flip.minimum_displacement() == (Z1.zero(), t.edge_point("e0", 1))
    t = LambdaTree(Z1, ["v0", "v1"], [("v0", "v1", Z1.element(1))])
    flip = vertex_map(t, {"v0": "v1", "v1": "v0"})
    with pytest.raises(DomainError, match="^displacement minimum is not attained at group points$"):
        flip.minimum_displacement()


def test_flip_reflects_quarter_point():
    t = LambdaTree(D1, ["v0", "v1"], [("v0", "v1", D1.element(1))])
    flip = vertex_map(t, {"v0": "v1", "v1": "v0"})
    p = t.edge_point("e0", Fraction(1, 4))
    assert flip.apply(p) == t.edge_point("e0", Fraction(3, 4))


def test_translation_on_five_edge_path():
    t = unit_path(5)
    shift = vertex_map(t, {f"v{i}": f"v{i+1}" for i in range(5)})
    for i in range(5):
        assert shift.apply(t.vertex_point(f"v{i}")) == t.vertex_point(f"v{i+1}")
    with pytest.raises(OrbitEscapesTree):
        shift.apply(t.vertex_point("v5"))


def test_translation_on_line_is_hyperbolic():
    t = unit_path(10)
    shift = vertex_map(t, {f"v{i}": f"v{i+1}" for i in range(10)})
    cls = shift.classify()
    assert cls.kind == "hyperbolic"
    assert cls.tau == Z1.element(1)
    assert cls.length == Z1.element(1)
    # the axis is the spanned part of the line
    assert diameter(cls.axis) == arc_length(cls.axis) == Z1.element(9)


def test_restricted_translation_whose_square_keeps_one_vertex_is_hyperbolic():
    # a translation by 2 along c3-c5; g o g maps only x, which lies 1 off
    # the axis, so its displacement there is 6 rather than twice 2
    t = LambdaTree(Z1, ["x", "c3", "x3", "c5", "x5"], [
        ("x", "c3", Z1.element(3)), ("c3", "x3", Z1.element(1)),
        ("c3", "c5", Z1.element(2)), ("c5", "x5", Z1.element(1)),
    ])
    g = vertex_map(t, {"x": "x3", "c3": "c5", "x3": "x5"})
    assert list(compose(g, g).vertex_images) == ["x"]
    cls = g.classify()
    assert cls.kind == "hyperbolic"
    assert cls.length == cls.tau == Z1.element(2)
    assert cls.axis.vertices == {"c3"}
    assert cls.axis.arcs == {"e0": [(Z1.element(1), Z1.element(3))]}


def test_double_translation_doubles_length():
    t = unit_path(10)
    shift = vertex_map(t, {f"v{i}": f"v{i+1}" for i in range(10)})
    double = compose(shift, shift)
    cls = double.classify()
    assert cls.kind == "hyperbolic"
    assert cls.length == Z1.element(2)


def test_leg_swaps_compose_to_three_cycle():
    t = tripod()
    s12 = leg_swap(t, 1, 2)
    s23 = leg_swap(t, 2, 3)
    composite = compose(s12, s23)
    # permutation oracle: applying the right map first,
    # t1 -> s12(t1) = t2, t2 -> s12(t3) = t3, t3 -> s12(t2) = t1
    want = {"t1": "t2", "t2": "t3", "t3": "t1", "c": "c"}
    for src, dst in want.items():
        assert composite.apply(t.vertex_point(src)) == t.vertex_point(dst)
    cls = composite.classify()
    assert cls.kind == "elliptic"
    assert cls.fixed_set.contains(t.vertex_point("c"))


def test_swap_fixes_untouched_leg():
    t = tripod()
    s12 = leg_swap(t, 1, 2)
    cls = s12.classify()
    assert cls.kind == "elliptic"
    fixed = cls.fixed_set
    assert fixed.contains(t.vertex_point("c"))
    assert fixed.contains(t.vertex_point("t3"))
    # exactly the third leg is fixed
    assert arc_length(fixed) == Z1.element(2)


def test_compose_with_inverse_is_identity():
    t = tripod()
    s12 = leg_swap(t, 1, 2)
    assert is_identity(compose(s12, s12.inverse()))
    shift = vertex_map(unit_path(6), {f"v{i}": f"v{i+1}" for i in range(6)})
    back = shift.inverse()
    assert is_identity(compose(shift, back))


def test_compose_is_associative():
    t = tripod()
    s12, s23, s13 = leg_swap(t, 1, 2), leg_swap(t, 2, 3), leg_swap(t, 1, 3)
    left = compose(compose(s12, s23), s13)
    right = compose(s12, compose(s23, s13))
    assert left.vertex_images == right.vertex_images


def test_elliptic_displacement_is_twice_distance_to_fixed_set():
    t = tripod()
    s12 = leg_swap(t, 1, 2)
    p = t.edge_point("e0", 1)  # on leg 1, distance 1 from the center
    assert s12.displacement(p) == Z1.element(2)
    fixed = s12.fixed_set()
    for point in [t.vertex_point("t1"), t.edge_point("e1", 1), t.vertex_point("c")]:
        assert s12.displacement(point) == 2 * fixed.distance_to(point)


def test_thorn_tip_displacement():
    # line v0..v7 shifted by 2, with length-3 thorns at v3 and at its image v5
    group = Z1
    verts = [f"v{i}" for i in range(8)] + ["T3", "T5"]
    edges = [(f"v{i}", f"v{i+1}", group.element(1)) for i in range(7)]
    edges += [("v3", "T3", group.element(3)), ("v5", "T5", group.element(3))]
    t = LambdaTree(group, verts, edges)
    images = {f"v{i}": f"v{i+2}" for i in range(6)}
    images["T3"] = "T5"
    phi = vertex_map(t, images)
    # path oracle: tip to base 3, base shift 2, base to image tip 3
    assert phi.displacement(t.vertex_point("T3")) == group.element(3 + 2 + 3)
    cls = phi.classify()
    assert cls.kind == "hyperbolic"
    assert cls.tau == group.element(2)
    # displacement formula at sampled points
    rng = random.Random(7)
    for _ in range(20):
        p = random_point(t, rng)
        try:
            d = phi.displacement(p)
        except OrbitEscapesTree:
            continue
        assert d == cls.tau + 2 * cls.axis.distance_to(p)


def test_common_fixed_point_of_leg_swaps():
    t = tripod()
    s12 = leg_swap(t, 1, 2)
    s23 = leg_swap(t, 2, 3)
    got = common_fixed_point(s12, s23)
    assert got == t.vertex_point("c")
    assert s12.apply(got) == got and s23.apply(got) == got


def test_common_fixed_point_of_identities():
    t = tripod()
    ident = identity(t)
    got = common_fixed_point(ident, ident)
    assert got == t.vertex_point("c")  # canonical choice: least vertex name


def test_disjoint_fixed_sets_give_bridge_witness():
    t = unit_path(8)
    refl2 = vertex_map(t, {f"v{i}": f"v{4-i}" for i in range(5)})
    refl6 = vertex_map(t, {f"v{i+4}": f"v{12-(i+4)}" for i in range(5)})
    assert refl2.fixed_set().boundary_points() == [t.vertex_point("v2")]
    assert refl6.fixed_set().boundary_points() == [t.vertex_point("v6")]
    got = common_fixed_point(refl2, refl6)
    assert isinstance(got, NoCommonFixedPoint)
    assert got.bridge_start == t.vertex_point("v2")
    assert got.bridge_end == t.vertex_point("v6")
    assert got.bridge_length == Z1.element(4)
    # the product translates by twice the bridge length
    assert got.composite_displacement == Z1.element(8)


def test_elliptic_triple_shares_a_fixed_point():
    t = tripod()
    swaps = [leg_swap(t, 1, 2), leg_swap(t, 2, 3), leg_swap(t, 1, 3)]
    rng = random.Random(11)
    for _ in range(10):
        a, b, c = rng.choice(swaps), rng.choice(swaps), rng.choice(swaps)
        if compose(a, b).fixed_set().is_empty():
            continue
        p = common_fixed_point(a, b)
        assert c.apply(p) == p


def test_conjugation_preserves_length():
    t = unit_path(10)
    mirror = vertex_map(t, {f"v{i}": f"v{10-i}" for i in range(11)})
    for k in (1, 2, 3):
        shift = vertex_map(t, {f"v{i}": f"v{i+k}" for i in range(11 - k)})
        conj = compose(mirror, compose(shift, mirror.inverse()))
        assert conj.classify().length == Z1.element(k)
    trip = tripod()
    cycle = vertex_map(trip, {"c": "c", "t1": "t2", "t2": "t3", "t3": "t1"})
    conj = compose(cycle, compose(leg_swap(trip, 1, 2), cycle.inverse()))
    assert conj.classify().length.is_zero()


def test_no_inversions_over_dyadic_group():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(2, 7)
        lens = [
            D1.element(Fraction(rng.randint(1, 8), rng.choice((1, 2, 4))))
            for _ in range(n)
        ]
        verts = [f"v{i}" for i in range(n + 1)]
        edges = [(f"v{i}", f"v{i+1}", lens[i]) for i in range(n)]
        t = LambdaTree(D1, verts, edges)
        # reflect about the middle of a random edge: vertex i at position
        # d_i maps to a vertex at position (d_e + d_{e+1}) - d_i if one exists
        e = rng.randrange(n)
        pos = [sum(lens[:i], D1.zero()) for i in range(n + 1)]
        center2 = pos[e] + pos[e + 1]
        pairs = {}
        for i in range(n + 1):
            for j in range(n + 1):
                if pos[i] + pos[j] == center2:
                    pairs[f"v{i}"] = f"v{j}"
        assert len(pairs) >= 2  # the chosen edge's ends always swap
        phi = vertex_map(t, pairs)
        assert phi.classify().kind != "inversion"


def test_odd_flip_turns_elliptic_after_dyadic_extension():
    t = LambdaTree(Z1, ["v0", "v1"], [("v0", "v1", Z1.element(3))])
    assert vertex_map(t, {"v0": "v1", "v1": "v0"}).classify().kind == "inversion"
    t2 = t.base_change(D1)
    cls = vertex_map(t2, {"v0": "v1", "v1": "v0"}).classify()
    assert cls.kind == "elliptic"
    assert cls.fixed_set.contains(t2.edge_point("e0", Fraction(3, 2)))


def test_rejects_distance_breaking_map():
    t = tripod()
    with pytest.raises(NotAnIsometry):
        vertex_map(t, {"c": "t1", "t1": "c", "t2": "t2", "t3": "t3"})


def test_fractional_translation_round_trips_json():
    t = unit_path(2, D1)
    phi = TreeIsometry(
        t,
        {
            "v0": t.edge_point("e0", Fraction(1, 2)),
            "v1": t.edge_point("e1", Fraction(1, 2)),
        },
    )
    back = TreeIsometry.from_json(t, {
        "map": {
            "v0": {"edge": "e0", "offset": ["1/2"]},
            "v1": {"edge": "e1", "offset": ["1/2"]},
        }
    })
    assert back.vertex_images == phi.vertex_images
    assert {v: img.to_json() for v, img in back.vertex_images.items()} == {
        "v0": {"edge": "e0", "offset": ["1/2"]},
        "v1": {"edge": "e1", "offset": ["1/2"]},
    }
    cls = phi.classify()
    assert cls.kind == "hyperbolic"
    assert cls.tau == D1.element(Fraction(1, 2))
