import random
import time

import pytest

from lambdatrees.errors import (
    BoundedCharacter,
    ClassListMismatch,
    DeterminantNotOne,
    DomainError,
    FieldMismatch,
    GroupMismatch,
    NotSupportedAtInfinity,
    OrbitEscapesTree,
    SymbolError,
    TrivialAction,
)
from lambdatrees import lengths as lengths_module
from lambdatrees.isometry import TreeIsometry
from lambdatrees.lengths import (
    MAX_CAYLEY_VERTICES,
    ClassFunction,
    ConjClass,
    ProjectivePoint,
    canonical_class,
    converge_check,
    converge_csv,
    enumerate_classes,
    free_group_action,
    length_function,
    mu,
    projective_distance,
    projectivize,
    theta,
)
from lambdatrees.ordered import LambdaGroup
from lambdatrees.sl2 import Mat2, sl2_translation_length
from lambdatrees.valuation import ValuedField
from lambdatrees.words import format_word, free_reduce, invert_word, parse_word


def mat(field, *entries):
    return Mat2.from_json(field, [str(e) for e in entries])


def random_reduced(rng, syms, n):
    word = []
    letters = [(s, e) for s in syms for e in (1, -1)]
    while len(word) < n:
        let = rng.choice(letters)
        if word and word[-1] == (let[0], -let[1]):
            continue
        word.append(let)
    return tuple(word)


def random_sl2_rf(field, rng, steps=4):
    # product of elementary matrices, entries are small rational functions
    g = Mat2.identity(field)
    picks = ["t", "1/t", "2", "t+1", "3/2"]
    for _ in range(steps):
        q = field.element_from_string(rng.choice(picks))
        if rng.random() < 0.5:
            g = g * Mat2.of(field, 1, q, 0, 1)
        else:
            g = g * Mat2.of(field, 1, 0, q, 1)
    return g


def test_canonical_class_examples():
    assert canonical_class("a b a-").text == "b"
    assert canonical_class("a- a b a a-").text == "b"
    assert canonical_class("b a").text == "a b"
    assert canonical_class("a a-").text == ""
    assert str(canonical_class("a a-")) == "1"
    assert canonical_class((("a", 1), ("b", 1), ("a", -1))).text == "b"
    with pytest.raises(SymbolError):
        canonical_class("a c", generators=["a", "b"])
    assert canonical_class("a b", generators=["a", "b"]).text == "a b"


def test_canonical_class_idempotent_and_conjugation_invariant():
    rng = random.Random(2024)
    syms = ("a", "b", "c")
    for _ in range(120):
        w = random_reduced(rng, syms, rng.randint(1, 6))
        u = random_reduced(rng, syms, rng.randint(0, 6))
        conj = free_reduce(invert_word(u) + w + u)
        assert canonical_class(conj) == canonical_class(w)
        c = canonical_class(w)
        assert canonical_class(c.word) == c


def test_enumerate_classes_counts_and_canonicality():
    classes = enumerate_classes(["a", "b"], 5)
    by_len = {}
    for c in classes:
        by_len[len(c)] = by_len.get(len(c), 0) + 1
    assert by_len == {1: 4, 2: 8, 3: 12, 4: 26, 5: 52}
    assert len(set(classes)) == len(classes) == 102
    for c in classes[:40]:
        assert canonical_class(c.word) == c
    lengths = [len(c) for c in classes]
    assert lengths == sorted(lengths)
    with pytest.raises(SymbolError):
        enumerate_classes(["a", "a"], 2)
    with pytest.raises(DomainError):
        enumerate_classes(["a"], 0)


def test_class_function_validation():
    Z = LambdaGroup(1)
    classes = [canonical_class("a"), canonical_class("b")]
    f = ClassFunction.make(classes, [Z.element(1), Z.element(2)])
    assert f.to_json() == {"classes": ["a", "b"], "values": [["1"], ["2"]]}
    with pytest.raises(DomainError):
        ClassFunction.make(classes, [Z.element(1)])
    with pytest.raises(DomainError):
        ClassFunction.make(classes, [Z.element(1), Z.element(-1)])
    with pytest.raises(GroupMismatch):
        ClassFunction.make(classes, [Z.element(1), LambdaGroup(2).element(1, 0)])
    with pytest.raises(DomainError):
        ClassFunction.make([], [])


def test_projective_point_validation_and_json():
    classes = [canonical_class("a"), canonical_class("b")]
    from fractions import Fraction

    p = ProjectivePoint.make(classes, [Fraction(1, 2), Fraction(1)], exact=True)
    assert p.to_json() == {"classes": ["a", "b"], "coords": ["1/2", "1"], "exact": True}
    q = ProjectivePoint.make(classes, [0.5, 1.0], exact=False)
    assert q.to_json() == {"classes": ["a", "b"], "coords": [0.5, 1.0], "exact": False}
    with pytest.raises(DomainError):
        ProjectivePoint.make(classes, [Fraction(1, 2), Fraction(2)], exact=True)
    with pytest.raises(DomainError):
        ProjectivePoint.make(classes, [Fraction(-1), Fraction(1)], exact=True)


def test_projectivize_examples():
    Z = LambdaGroup(1)
    classes = [canonical_class("a"), canonical_class("b")]
    f = ClassFunction.make(classes, [Z.element(1), Z.element(2)])
    p = projectivize(f)
    assert p.to_json()["coords"] == ["1/2", "1"]

    # infinitesimal against dominant projects to zero
    L2 = LambdaGroup(2)
    g = ClassFunction.make(classes, [L2.element(0, 3), L2.element(1, 0)])
    assert projectivize(g).to_json()["coords"] == ["0", "1"]

    zero = ClassFunction.make(classes, [Z.zero(), Z.zero()])
    with pytest.raises(TrivialAction):
        projectivize(zero)


def test_projectivize_homothety_invariance():
    rng = random.Random(77)
    classes = [canonical_class(t) for t in ("a", "b", "a b")]
    for rank in (1, 2):
        G = LambdaGroup(rank)
        for _ in range(40):
            vals = []
            for _ in classes:
                coords = [rng.randint(0, 5) for _ in range(rank)]
                vals.append(G.element(*coords))
            if max(vals).is_zero():
                continue
            k = rng.randint(1, 9)
            scaled = [v * k for v in vals]
            f = ClassFunction.make(classes, vals)
            g = ClassFunction.make(classes, scaled)
            assert projectivize(f).coords == projectivize(g).coords


def test_cayley_lengths_small_ball_exhaustive():
    tree, action = free_group_action(["a", "b"], 5)
    classes = enumerate_classes(["a", "b"], 3)
    f = length_function(action, classes)
    for c, v in zip(f.classes, f.values):
        assert v == tree.group.element(len(c)), c.text


def test_cayley_commutator_on_radius_six_ball():
    tree, action = free_group_action(["a", "b"], 6)
    f = length_function(action, ["a b a- b-", "", "a b a-"])
    assert [v.to_json() for v in f.values] == [["4"], ["0"], ["1"]]


def test_cayley_lengths_rank_one_full_range():
    tree, action = free_group_action(["a"], 8)
    classes = enumerate_classes(["a"], 8)
    f = length_function(action, classes)
    for c, v in zip(f.classes, f.values):
        assert v == tree.group.element(len(c))


def test_cayley_lengths_sampled_longer_words():
    rng = random.Random(451)
    tree, action = free_group_action(["a", "b"], 7)
    pool = [c for c in enumerate_classes(["a", "b"], 5) if len(c) >= 4]
    sample = rng.sample(pool, 4)
    f = length_function(action, sample)
    for c, v in zip(f.classes, f.values):
        assert v == tree.group.element(len(c)), c.text


def test_tree_length_is_a_class_function():
    rng = random.Random(99)
    tree, action = free_group_action(["a", "b"], 5)
    inverses = {s: action[s].inverse() for s in action}

    def iso_of(word):
        acc = None
        for sym, sign in word:
            step = action[sym] if sign == 1 else inverses[sym]
            acc = step if acc is None else acc.compose(step)
        return acc

    for _ in range(10):
        w = random_reduced(rng, ("a", "b"), rng.randint(1, 2))
        u = random_reduced(rng, ("a", "b"), 1)
        conj = free_reduce(invert_word(u) + w + u)
        if not conj:
            continue
        assert iso_of(conj).classify().length == iso_of(w).classify().length


def test_inverse_generators_act_correctly():
    tree, action = free_group_action(["a", "b"], 3)
    inv = action["a"].inverse()
    for w in ("1", "b", "a a"):
        target = free_reduce(((("a", -1),)) + (parse_word(w) if w != "1" else ()))
        assert inv.apply(tree.vertex_point(w)).vertex == (format_word(target) or "1")
    both = action["a"].compose(inv)
    assert both.classify().kind == "elliptic"
    assert both.classify().length.is_zero()


def test_free_group_action_matches_validating_constructor():
    tree, action = free_group_action(["a", "b"], 4)
    for sym in ("a", "b"):
        phi = action[sym]
        checked = TreeIsometry(tree, phi.vertex_images)
        assert checked.vertex_images == phi.vertex_images
    with pytest.raises(SymbolError):
        free_group_action(["a", "a"], 2)
    with pytest.raises(DomainError):
        free_group_action(["a"], 0)


def test_free_group_action_refuses_an_oversized_ball_before_building(monkeypatch):
    def no_tree(*args, **kwargs):
        raise AssertionError("the ball was built")

    monkeypatch.setattr(lengths_module, "LambdaTree", no_tree)
    start = time.perf_counter()
    with pytest.raises(DomainError, match="vertices"):
        free_group_action(["a", "b"], 40)
    with pytest.raises(DomainError, match="vertices"):
        free_group_action(["a"], MAX_CAYLEY_VERTICES)
    assert time.perf_counter() - start < 1.0


def test_enumerate_classes_refuses_an_oversized_count_before_recursing():
    # length 9 over two generators is 39,365 reduced words; length 10 is 118,097
    start = time.perf_counter()
    with pytest.raises(DomainError, match="^classes up to length 40 over generators a, b span "
                                          "24315330918113857601 reduced words, more than 100000$"):
        enumerate_classes(["a", "b"], 40)
    with pytest.raises(DomainError, match="^classes up to length 10 over generators a, b span 118097 "):
        enumerate_classes(["a", "b"], 10)
    with pytest.raises(DomainError, match="^classes up to length 100000 over generators a span "):
        enumerate_classes(["a"], MAX_CAYLEY_VERTICES)
    assert time.perf_counter() - start < 1.0


def test_length_function_errors_name_the_class():
    tree, action = free_group_action(["a", "b"], 2)
    with pytest.raises(OrbitEscapesTree, match='^class "a b a b": composite has empty domain$'):
        length_function(action, ["a", "b a b a"])
    K = ValuedField.function_field_at(0)
    with pytest.raises(DeterminantNotOne, match='^class "a": determinant is t\\^2$'):
        length_function({"a": mat(K, "t", 0, 0, "t")}, ["", "a"])


def test_length_function_matrix_examples():
    K = ValuedField.function_field_at(0)
    a = mat(K, "t", 0, 0, "1/t")
    f = length_function({"a": a}, ["a", "a a", ""])
    assert [v.to_json() for v in f.values] == [["2"], ["4"], ["0"]]
    with pytest.raises(DeterminantNotOne):
        length_function({"a": mat(K, "t", 0, 0, "t")}, ["a"])
    with pytest.raises(FieldMismatch):
        b = mat(ValuedField.rationals(2), 1, 1, 0, 1)
        length_function({"a": a, "b": b}, ["a b"])
    with pytest.raises(DomainError):
        length_function({}, ["a"])
    with pytest.raises(DomainError):
        length_function({"a": a, "b": object()}, ["a"])
    with pytest.raises(SymbolError):
        length_function({"a": a}, ["c"])


def test_matrix_length_is_a_class_function():
    K = ValuedField.function_field_at(0)
    rng = random.Random(31)
    a = mat(K, "t", 0, 0, "1/t")
    for _ in range(15):
        u = random_sl2_rf(K, rng, steps=3)
        conj = u.inverse() * a * u
        assert sl2_translation_length(conj) == sl2_translation_length(a)


def test_mu_diagonal_family_at_infinity_and_at_zero():
    for K in (ValuedField.function_field_at_infinity(), ValuedField.function_field_at(0)):
        a = mat(K, "t", 0, 0, "1/t")
        point, raw = mu({"a": a}, ["a", "a a"])
        assert raw.to_json() == {"classes": ["a", "a a"], "values": [["1"], ["2"]]}
        assert point.to_json() == {
            "classes": ["a", "a a"],
            "coords": ["1/2", "1"],
            "exact": True,
        }


def test_mu_requires_a_negative_trace_valuation():
    K = ValuedField.function_field_at_infinity()
    unipotent = mat(K, 1, "t", 0, 1)
    with pytest.raises(NotSupportedAtInfinity):
        mu({"a": unipotent}, ["a"])
    with pytest.raises(FieldMismatch):
        other = mat(ValuedField.rationals(2), 1, 0, 0, 1)
        mu({"a": mat(K, "t", 0, 0, "1/t"), "b": other}, ["a"])


def test_mu_raw_values_are_half_the_tree_length():
    K = ValuedField.function_field_at_infinity()
    rng = random.Random(8)
    rep = {
        "a": mat(K, "t", 0, 0, "1/t"),
        "b": mat(K, 1, 1, 0, 1) * mat(K, "t", 0, 0, "1/t") * mat(K, 1, -1, 0, 1),
    }
    classes = ["a", "b", "a b", "a a", "b a-"]
    point, raw = mu(rep, classes)
    for c, value in zip(raw.classes, raw.values):
        g = Mat2.identity(K)
        for sym, sign in c.word:
            g = g * (rep[sym] if sign == 1 else rep[sym].inverse())
        assert value * 2 == sl2_translation_length(g), c.text
    for _ in range(20):
        w = random_reduced(rng, ("a", "b"), rng.randint(1, 4))
        cls = ConjClass(w)
        g = Mat2.identity(K)
        for sym, sign in w:
            g = g * (rep[sym] if sign == 1 else rep[sym].inverse())
        try:
            _, raw_one = mu(rep, [cls])
            assert raw_one.values[0] * 2 == sl2_translation_length(g)
        except NotSupportedAtInfinity:
            assert sl2_translation_length(g).is_zero()


def test_theta_diagonal_example():
    point = theta({"a": [[100.0, 0.0], [0.0, 0.01]]}, ["a", "a a"])
    assert point.coords[1] == 1.0
    assert point.coords[0] == pytest.approx(0.5000108562763358, rel=1e-12)
    assert abs(point.coords[0] - 0.5) < 1e-4


def test_theta_single_class_and_bounded_errors():
    for m in (2.0, 10.0, 1e6):
        point = theta({"a": [[m, 0.0], [0.0, 1.0 / m]]}, ["a"])
        assert point.coords == (1.0,)
    rotation = [[0.0, 1.0], [-1.0, 0.0]]
    with pytest.raises(BoundedCharacter):
        theta({"a": rotation}, ["a", "a a a"])
    with pytest.raises(DomainError):
        theta({"a": [[1.0, 0.0], [0.0, 0.0]]}, ["a-"])
    with pytest.raises(DomainError):
        theta({"a": [1.0, 2.0]}, ["a"])
    with pytest.raises(DomainError):
        theta({}, ["a"])


def test_projective_distance_examples():
    classes = ["a", "b"]
    cl = [canonical_class(c) for c in classes]
    p = ProjectivePoint.make(cl, [0.5, 1.0], exact=False)
    assert projective_distance(p, p) == 0.0
    q = ProjectivePoint.make(cl, [0.6, 1.0], exact=False)
    assert projective_distance(p, q) == pytest.approx(0.1)
    r = ProjectivePoint.make(cl, [1.0, 0.5], exact=False)
    s = ProjectivePoint.make(cl, [1.0, 1.0], exact=False)
    assert projective_distance(r, s) == pytest.approx(0.5)
    from fractions import Fraction

    exact = ProjectivePoint.make(cl, [Fraction(1, 2), Fraction(1)], exact=True)
    assert projective_distance(p, exact) == 0.0
    other = ProjectivePoint.make([canonical_class("a"), canonical_class("a b")], [1.0, 0.5], exact=False)
    with pytest.raises(ClassListMismatch):
        projective_distance(p, other)


def test_converge_diagonal_family():
    K = ValuedField.function_field_at_infinity()
    family = {"a": mat(K, "t", 0, 0, "1/t")}
    report = converge_check(family, [10**k for k in range(1, 7)], ["a", "a a"])
    assert set(report) == {"k", "distance", "converged", "tolerance"}
    assert report["k"] == [10.0, 100.0, 1000.0, 10000.0, 100000.0, 1000000.0]
    assert report["converged"] is True
    assert report["tolerance"] == 1e-6
    expected = [
        0.002149783392486282,
        1.0856276335791115e-05,
        7.238234123185805e-08,
        5.428680838193145e-10,
        4.342970427728687e-12,
        3.6193270602780103e-14,
    ]
    for got, want in zip(report["distance"], expected):
        assert got == pytest.approx(want, rel=1e-9)
    # distances decrease monotonically from the second parameter on
    tail = report["distance"][1:]
    assert all(x > y for x, y in zip(tail, tail[1:]))
    csv = converge_csv(report)
    assert csv.startswith("k,distance\n10.0,")
    assert csv.count("\n") == 7


def test_converge_with_supplied_limit_and_validation():
    K = ValuedField.function_field_at_infinity()
    family = {"a": mat(K, "t", 0, 0, "1/t")}
    limit, _ = mu(family, ["a", "a a"])
    report = converge_check(family, [10, 100], ["a", "a a"], limit=limit)
    assert len(report["distance"]) == 2
    with pytest.raises(DomainError):
        converge_check(family, [100, 10], ["a"])
    with pytest.raises(DomainError):
        converge_check(family, [], ["a"])


def test_converge_constant_family_reports_no_degeneration():
    K = ValuedField.function_field_at_infinity()
    family = {"a": mat(K, 2, 0, 0, "1/2")}
    report = converge_check(family, [10, 100], ["a"])
    assert report["converged"] is False
    assert report["distance"] == []
    assert "no degeneration" in report["note"]


def test_converge_pole_detection():
    K = ValuedField.function_field_at(0)
    family = {"a": mat(K, "1/t", 0, 0, "t")}
    with pytest.raises(DomainError):
        converge_check(family, [0], ["a"])


def test_mu_theta_agree_in_the_limit_for_two_generator_family():
    K = ValuedField.function_field_at_infinity()
    u = mat(K, 1, 1, 0, 1)
    d = mat(K, "t", 0, 0, "1/t")
    family = {"a": d, "b": u * d * u.inverse()}
    classes = ["a", "b", "a b"]
    limit, raw = mu(family, classes)
    assert raw.to_json()["values"] == [["1"], ["1"], ["2"]]
    report = converge_check(family, [10**k for k in range(1, 7)], classes)
    assert report["converged"] is True
    assert report["distance"][-1] < 1e-6


def test_theta_rejects_non_finite_entries_and_traces():
    diag = [[2.0, 0.0], [0.0, 0.5]]
    for bad in (float("nan"), float("inf"), "-inf"):
        with pytest.raises(DomainError, match=r'generator "b": entry \[0\]\[0\]'):
            theta({"a": diag, "b": [[bad, 1.0], [0.0, 1.0]]}, ["a", "b", "a b"])
    huge = {"a": [[1e200, 0.0], [0.0, 1e-200]]}
    assert theta(huge, ["a"]).coords == (1.0,)
    with pytest.raises(DomainError, match='class "a a": the trace of the word product'):
        theta(huge, ["a", "a a"])
