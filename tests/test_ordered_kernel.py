"""The integer-coded kernel of ``lambdatrees.ordered`` against its reference.

``ordered_reference`` is the frozen-dataclass model of the same groups,
with ``Fraction`` coordinates validated on every construction.  Every
operation here must give the same values, strings, JSON, hashes and
errors (class and message) as the reference, for ranks 1 to 3, integer
and dyadic, and no result coordinate may be a float.
"""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordered_reference as ref
from lambdatrees.errors import DomainError, GroupMismatch, LambdaTreeError
from lambdatrees.ordered import (
    ConvexSubgroup,
    LambdaElement,
    LambdaGroup,
    convex_quotient,
    embedding,
    half_in_group,
    in_two_lambda,
    ratio,
)
from lambdatrees.valuation import ValuedField

KERNEL = settings.get_profile("derandomized")

Z1 = LambdaGroup(1)
Z2 = LambdaGroup(2)
D1 = LambdaGroup(1, dyadic=True)

GROUPS = st.builds(LambdaGroup, st.integers(1, 3), st.booleans())
NUMERATORS = st.one_of(st.integers(-12, 12), st.integers(-(10**30), 10**30))


def coordinates(group: LambdaGroup):
    dens = [1, 2, 4, 8, 1024] if group.dyadic else [1]
    coordinate = st.builds(Fraction, NUMERATORS, st.sampled_from(dens))
    return st.tuples(*[coordinate] * group.rank)


@st.composite
def samples(draw, count=2):
    """A group and ``count`` pairs (library element, reference element)."""
    group = draw(GROUPS)
    out = []
    for _ in range(count):
        coords = draw(coordinates(group))
        out.append((group.element(*coords), ref.ReferenceElement(coords, group)))
    return group, out


def same(x: LambdaElement, r: ref.ReferenceElement) -> None:
    assert isinstance(x, LambdaElement)
    assert x.group == r.group
    assert not any(isinstance(c, float) for c in x.coords)
    assert all(type(c) in (int, Fraction) for c in x.coords)
    if not x.group.dyadic:
        assert all(type(c) is int for c in x.coords)
    assert x.coords == r.coords
    assert str(x) == str(r)
    assert x.to_json() == r.to_json()
    assert hash(x) == hash(r)
    assert LambdaElement.from_json(x.to_json(), x.group) == x


def outcome(fn):
    """The value fn returns, or the class and message of the library error."""
    try:
        return fn()
    except LambdaTreeError as exc:
        return (type(exc), str(exc))


@KERNEL
@given(samples(), st.integers(-6, 6))
def test_arithmetic_and_order_match_the_reference(sample, k):
    _, [(x, rx), (y, ry)] = sample
    same(x, rx)
    same(x + y, rx + ry)
    same(x - y, rx - ry)
    same(-x, -rx)
    same(x * k, rx * k)
    same(k * x, k * rx)
    same(x.abs(), rx.abs())
    same((x + y) - y, rx)
    assert (x < y, x <= y, x > y, x >= y) == (rx < ry, rx <= ry, rx > ry, rx >= ry)
    assert (x == y) == (rx == ry) and (x != y) == (rx != ry)
    assert (x > y) - (x < y) == ref.compare(rx, ry)
    assert (x.sign(), x.is_zero(), x.is_positive()) == (rx.sign(), rx.is_zero(), rx.is_positive())
    assert outcome(lambda: x * Fraction(1, 2)) == outcome(lambda: rx * Fraction(1, 2))


@KERNEL
@given(samples(count=1))
def test_halving_matches_the_reference(sample):
    _, [(x, rx)] = sample
    assert in_two_lambda(x) == ref.in_two_lambda(rx)
    got = outcome(lambda: half_in_group(x))
    want = outcome(lambda: ref.half_in_group(rx))
    if isinstance(want, tuple):
        assert got == want
    else:
        same(got, want)
        same(got + got, rx)


@KERNEL
@given(samples())
def test_ratio_matches_the_reference(sample):
    _, [(x, rx), (y, ry)] = sample
    for a, b, ra, rb in ((x, y, rx, ry), (x.abs(), y.abs(), rx.abs(), ry.abs())):
        got = outcome(lambda: ratio(a, b))
        assert got == outcome(lambda: ref.ratio(ra, rb))
        assert isinstance(got, (Fraction, tuple)) or got == math.inf


@KERNEL
@given(samples(), st.integers(0, 3))
def test_convex_subgroup_maps_match_the_reference(sample, depth):
    group, [(x, rx), (y, ry)] = sample
    depth = min(depth, group.rank)
    sub = ConvexSubgroup(group, depth)
    same(convex_quotient(x, sub), ref.convex_quotient(group, depth, rx))
    same(convex_quotient(x - y, sub), ref.convex_quotient(group, depth, rx - ry))
    assert sub.contains(x) == ref.contains(group, depth, rx)


@KERNEL
@given(samples(count=1), st.integers(0, 2), st.booleans())
def test_embedding_pads_with_zeros(sample, extra, to_dyadic):
    group, [(x, rx)] = sample
    target = LambdaGroup(group.rank + extra, group.dyadic or to_dyadic)
    padded = ref.ReferenceElement(rx.coords + (Fraction(0),) * extra, target)
    same(embedding(group, target)(x), padded)


# -- the public boundary ------------------------------------------------------------


def test_direct_construction_checks_like_the_reference():
    cases = [
        ((1,), Z1),  # an int is not a Fraction
        ((0.5,), D1),
        ((Fraction(1),), Z2),  # wrong number of coordinates
        ((Fraction(1), Fraction(2)), Z1),
        ((Fraction(1, 3),), Z1),
        ((Fraction(1, 3),), D1),
        ((Fraction(1, 2),), Z1),
    ]
    for coords, group in cases:
        got = outcome(lambda: LambdaElement(coords, group))
        assert got == outcome(lambda: ref.ReferenceElement(coords, group))
        assert got[0] is DomainError
    assert outcome(lambda: LambdaElement((1,), Z1)) == (DomainError, "coordinates must be Fractions")
    assert outcome(lambda: LambdaElement((Fraction(1),), Z2)) == (
        DomainError, "expected 2 coordinates, got 1")
    assert outcome(lambda: Z1.element(Fraction(1, 3))) == (
        DomainError, "coordinate 1/3 is not allowed; expected integers")
    assert outcome(lambda: D1.element(Fraction(1, 3))) == (
        DomainError, "coordinate 1/3 is not allowed; expected dyadic rationals")


def test_from_json_checks_like_the_reference():
    for obj, group in ((["1/2"], Z1), (["1/3"], D1), (["1", "2"], Z1), (["-7/8"], D1)):
        got = outcome(lambda: LambdaElement.from_json(obj, group))
        want = outcome(lambda: ref.ReferenceElement.from_json(obj, group))
        if isinstance(want, tuple):
            assert got == want
        else:
            same(got, want)
    with pytest.raises(ValueError):
        LambdaElement.from_json(["x"], Z1)
    assert outcome(lambda: LambdaElement.from_json(["1/2"], Z1)) == (
        DomainError, "coordinate 1/2 is not allowed; expected integers")
    assert LambdaElement.from_json(["3/2", "-1"], LambdaGroup(2, True)).coords == (
        Fraction(3, 2), -1)


def test_mixing_integer_and_dyadic_groups_raises_group_mismatch():
    x, y = Z1.element(1), D1.element(1)
    rx, ry = ref.ReferenceElement.of(Z1, 1), ref.ReferenceElement.of(D1, 1)
    message = f"group mismatch: {Z1} vs {D1}"
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a < b,
               lambda a, b: a >= b, ratio):
        assert outcome(lambda: op(x, y)) == (GroupMismatch, message)
        assert outcome(lambda: op(rx, ry)) == (GroupMismatch, message)
    assert x != y and rx != ry
    assert outcome(lambda: x + 1) == outcome(lambda: rx + 1)
    with pytest.raises(TypeError):
        x < 1


def test_elements_are_immutable():
    x = Z2.element(1, 2)
    with pytest.raises(AttributeError):
        x.coords = (Fraction(3), Fraction(4))
    with pytest.raises(AttributeError):
        x.group = D1
    with pytest.raises(AttributeError):
        del x.coords
    with pytest.raises(AttributeError):
        x.extra = 1
    assert x == Z2.element(1, 2)
    y = LambdaGroup(2, True).element(Fraction(3, 4), 5)
    assert copy.deepcopy(y) == y and pickle.loads(pickle.dumps(y)) == y


# -- shared objects -----------------------------------------------------------------


def test_zero_is_shared_per_group():
    assert Z2.zero() is Z2.zero()
    assert Z2.zero() == LambdaGroup(2).zero()


def test_value_group_is_shared_across_fields():
    fields = [ValuedField.rationals(2), ValuedField.rationals(5),
              ValuedField.function_field_at_infinity(), ValuedField.function_field_at(0)]
    assert all(f.value_group is fields[0].value_group for f in fields)
    v = fields[0].valuation(Fraction(12))
    assert v == LambdaGroup(1).element(2) and v.group is fields[0].value_group
    assert type(v.coords[0]) is int
