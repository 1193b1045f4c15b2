import random
import re
from fractions import Fraction

import pytest

from lambdatrees.errors import (
    DomainError,
    EmbeddingError,
    InvalidEdge,
    InvalidPoint,
)
from lambdatrees.ordered import ConvexSubgroup, LambdaGroup
from lambdatrees.tree import LambdaTree, check_axioms, random_point

Z1 = LambdaGroup(1)
Z2 = LambdaGroup(2)
D1 = LambdaGroup(1, dyadic=True)


def unit_tripod():
    one = Z1.element(1)
    return LambdaTree(
        Z1,
        ["c", "a", "b", "x"],
        [("c", "a", one), ("c", "b", one), ("c", "x", one)],
    )


def unit_path(n, group=Z1):
    one = group.element(*([0] * (group.rank - 1) + [1]))
    return LambdaTree(
        group,
        [f"v{i}" for i in range(n + 1)],
        [(f"v{i}", f"v{i+1}", one) for i in range(n)],
    )


def random_tree(rng, group, max_edges=20):
    n = rng.randint(1, max_edges)
    vertices = [f"v{i}" for i in range(n + 1)]
    edges = []
    for i in range(1, n + 1):
        parent = rng.randrange(i)
        coords = [rng.randint(0, 3) for _ in range(group.rank)]
        if all(c == 0 for c in coords):
            coords[-1] = 1
        if coords[0] < 0:
            coords[0] = -coords[0]
        length = group.element(*coords)
        if not length.is_positive():
            length = -length
        edges.append((f"v{parent}", f"v{i}", length))
    return LambdaTree(group, vertices, edges)


def test_distance_examples():
    T = unit_tripod()
    la, lb = T.vertex_point("a"), T.vertex_point("b")
    assert T.distance(la, lb) == Z1.element(2)
    assert T.distance(la, la) == Z1.element(0)

    P = LambdaTree(
        Z2,
        ["u0", "u1", "u2"],
        [("u0", "u1", Z2.element(1, 0)), ("u1", "u2", Z2.element(0, 5))],
    )
    assert P.distance(P.vertex_point("u0"), P.vertex_point("u2")) == Z2.element(1, 5)


def test_interior_point_distances():
    T = unit_path(4, D1)
    half = D1.element(Fraction(1, 2))
    p = T.edge_point("e0", half)
    q = T.edge_point("e3", half)
    assert T.distance(p, q) == D1.element(3)
    r = T.edge_point("e0", Fraction(1, 4))
    assert T.distance(p, r) == D1.element(Fraction(1, 4))


def test_point_normalization_and_validation():
    T = unit_tripod()
    assert T.edge_point("e0", Z1.element(0)) == T.vertex_point("c")
    assert T.edge_point("e0", Z1.element(1)) == T.vertex_point("a")
    with pytest.raises(InvalidPoint):
        T.edge_point("e0", Z1.element(2))
    with pytest.raises(InvalidPoint):
        T.vertex_point("nope")
    with pytest.raises(InvalidPoint):
        T.edge_point("missing", Z1.element(0))


def test_segment_examples():
    T = unit_tripod()
    seg = T.path_walk(T.vertex_point("a"), T.vertex_point("b"))
    assert seg.length == Z1.element(2)
    assert seg.interior_vertices() == ["c"]
    degenerate = T.path_walk(T.vertex_point("a"), T.vertex_point("a"))
    assert degenerate.length == Z1.element(0)
    assert degenerate.interior_vertices() == []


def test_segment_intersection_is_segment():
    # two segments from a shared endpoint meet exactly up to the median
    T = unit_tripod()
    p, q, r = (T.vertex_point(v) for v in ("a", "b", "x"))
    m = T.median(p, q, r)
    sq = T.path_walk(p, q)
    sr = T.path_walk(p, r)
    assert sq.contains(m) and sr.contains(m)
    # beyond the median the segments separate
    beyond = sq.point_at(T.distance(p, m) + Z1.element(1))
    assert not sr.contains(beyond)


def test_median_examples():
    T = unit_tripod()
    a, b, x = (T.vertex_point(v) for v in ("a", "b", "x"))
    assert T.median(a, b, x) == T.vertex_point("c")
    assert T.median(a, b, a) == a

    L = unit_path(10)
    p2, p5, p9 = (L.vertex_point(f"v{i}") for i in (2, 5, 9))
    assert L.median(p2, p5, p9) == p5


def test_median_is_symmetric_and_on_all_segments():
    rng = random.Random(5)
    for _ in range(30):
        T = random_tree(rng, Z1, max_edges=12)
        p, q, r = (random_point(T, rng) for _ in range(3))
        m = T.median(p, q, r)
        for pair in ((p, q, r), (q, r, p), (r, p, q), (q, p, r)):
            assert T.median(*pair) == m
        for x, y in ((p, q), (q, r), (p, r)):
            assert T.path_walk(x, y).contains(m)


def test_base_change_examples():
    T = unit_path(1)
    # over the integers the unit edge has no representable midpoint
    with pytest.raises(InvalidPoint):
        T.edge_point("e0", Fraction(1, 2))
    assert T.edge_point("e0", 1) == T.vertex_point("v1")
    U = T.base_change(D1)
    mid = U.edge_point("e0", Fraction(1, 2))
    assert not mid.is_vertex()

    same = T.base_change(Z1)
    assert same.to_json() == T.to_json()

    with pytest.raises(EmbeddingError):
        unit_path(1, D1).base_change(Z1)
    with pytest.raises(EmbeddingError):
        LambdaTree(Z2, ["a", "b"], [("a", "b", Z2.element(1, 0))]).base_change(Z1)


def test_base_change_preserves_distances():
    rng = random.Random(9)
    for _ in range(20):
        T = random_tree(rng, Z1, max_edges=10)
        U = T.base_change(Z2)
        for _ in range(10):
            u = rng.choice(T.vertices)
            v = rng.choice(T.vertices)
            d = T.vertex_distance(u, v)
            assert U.vertex_distance(u, v).coords == d.coords + (Fraction(0),)


def test_convex_quotient_tree_example():
    P = LambdaTree(
        Z2,
        ["u0", "u1", "u2"],
        [("u0", "u1", Z2.element(0, 5)), ("u1", "u2", Z2.element(1, 0))],
    )
    S = ConvexSubgroup(Z2, 1)
    result = P.convex_quotient_tree(S)
    assert len(result.tree.vertices) == 2
    assert len(result.tree.edges) == 1
    edge = next(iter(result.tree.edges.values()))
    assert edge.length == LambdaGroup(1).element(1)
    fused = result.vertex_map["u0"]
    assert result.vertex_map["u1"] == fused
    fiber = result.fibers[fused]
    assert set(fiber.vertices) == {"u0", "u1"}
    assert next(iter(fiber.edges.values())).length == Z2.element(0, 5)


def test_convex_quotient_tree_edge_cases():
    P = LambdaTree(
        Z2,
        ["u0", "u1", "u2"],
        [("u0", "u1", Z2.element(0, 5)), ("u1", "u2", Z2.element(1, 0))],
    )
    trivial = ConvexSubgroup(Z2, 2)
    res = P.convex_quotient_tree(trivial)
    assert len(res.tree.vertices) == 3 and len(res.tree.edges) == 2
    whole = ConvexSubgroup(Z2, 0)
    res = P.convex_quotient_tree(whole)
    assert len(res.tree.vertices) == 1 and len(res.tree.edges) == 0
    only = next(iter(res.fibers.values()))
    assert set(only.vertices) == {"u0", "u1", "u2"}


def test_convex_quotient_distances_commute():
    rng = random.Random(13)
    S = ConvexSubgroup(Z2, 1)
    from lambdatrees.ordered import convex_quotient

    for _ in range(20):
        T = random_tree(rng, Z2, max_edges=10)
        res = T.convex_quotient_tree(S)
        for _ in range(10):
            u = rng.choice(T.vertices)
            v = rng.choice(T.vertices)
            d = T.vertex_distance(u, v)
            qd = res.tree.vertex_distance(res.vertex_map[u], res.vertex_map[v])
            assert qd == convex_quotient(d, S)


def test_four_point_condition():
    rng = random.Random(17)
    for _ in range(40):
        T = random_tree(rng, rng.choice([Z1, Z2]), max_edges=14)
        pts = [random_point(T, rng) for _ in range(4)]
        p, q, r, s = pts
        sums = sorted(
            [
                T.distance(p, q) + T.distance(r, s),
                T.distance(p, r) + T.distance(q, s),
                T.distance(p, s) + T.distance(q, r),
            ]
        )
        assert sums[1] == sums[2]


def test_triangle_inequality_and_symmetry():
    rng = random.Random(21)
    for _ in range(30):
        T = random_tree(rng, Z1, max_edges=12)
        p, q, r = (random_point(T, rng) for _ in range(3))
        assert T.distance(p, q) == T.distance(q, p)
        assert T.distance(p, q) + T.distance(q, r) >= T.distance(p, r)
        assert (T.distance(p, q) == Z1.element(0)) == (p == q)


def test_check_axioms_accepts_valid_trees():
    rng = random.Random(25)
    for _ in range(10):
        T = random_tree(rng, Z1)
        report = check_axioms(T, sample_size=10, seed=1)
        assert report["valid"], report


def test_check_axioms_names_each_sampled_witness_of_a_corrupted_metric(monkeypatch):
    # the structural screen passes a tripod; each corruption of its metric
    # then fails one sampled axiom
    assert check_axioms(unit_tripod(), sample_size=30, seed=3) == {
        "valid": True, "axiom": None, "witness": None, "samples": 30}
    one = Z1.element(1)
    distance = LambdaTree.distance
    corruptions = {
        # every distance one too long: no segment realizes it
        "a": ("distance", lambda self, p, q: distance(self, p, q) + one,
              r"^segment .+\.\..+ does not realize the distance$", 0),
        # the median of p, q, r reported as r, off the segment [p, q]
        "b": ("median", lambda self, p, q, r: r,
              r"^median of .+,.+,.+ escapes a defining segment$", 3),
        # the median reported as p, on both segments from p but off [q, r]
        "c": ("median", lambda self, p, q, r: p,
              r"^segments .+\.\..+ and .+\.\..+ do not concatenate$", 0),
    }
    # samples counts the sampled triples that passed before the witness
    for axiom, (name, corrupt, witness, passed) in corruptions.items():
        with monkeypatch.context() as patched:
            patched.setattr(LambdaTree, name, corrupt)
            report = check_axioms(unit_tripod(), sample_size=30, seed=3)
        assert (report["valid"], report["axiom"]) == (False, axiom)
        assert re.match(witness, report["witness"]), report
        assert report["samples"] == passed


def test_check_axioms_rejects_cycle():
    one = Z1.element(1)
    graph = (
        Z1,
        ["a", "b", "c"],
        [("a", "b", one), ("b", "c", one), ("c", "a", one)],
    )
    report = check_axioms(graph)
    assert not report["valid"]
    assert report["axiom"] == "b"
    assert "distinct segments" in report["witness"] or "cycle" in report["witness"]


def test_check_axioms_rejects_disconnected():
    one = Z1.element(1)
    graph = (Z1, ["a", "b", "c", "d"], [("a", "b", one), ("c", "d", one)])
    report = check_axioms(graph)
    assert not report["valid"]
    assert report["axiom"] == "a"


def test_check_axioms_rejects_bad_lengths():
    graph = (Z1, ["a", "b"], [("a", "b", Z1.element(0))])
    report = check_axioms(graph)
    assert not report["valid"]
    assert report["axiom"] == "metric"


def test_tree_construction_guards():
    one = Z1.element(1)
    with pytest.raises(DomainError):
        LambdaTree(Z1, ["a", "b", "c"], [("a", "b", one), ("b", "c", one), ("c", "a", one)])
    with pytest.raises(InvalidEdge):
        LambdaTree(Z1, ["a"], [("a", "a", one)])
    with pytest.raises(InvalidEdge):
        LambdaTree(Z1, ["a", "b"], [("a", "b", Z1.element(-1))])


def test_json_round_trip():
    T = unit_tripod()
    again = LambdaTree.from_json(T.to_json())
    assert again.to_json() == T.to_json()
    assert T.point_from_json("a") == T.vertex_point("a")
    L = unit_path(2, D1)
    p = L.edge_point("e1", Fraction(1, 2))
    assert L.point_from_json(p.to_json()) == p
