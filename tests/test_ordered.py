import math
import random
from fractions import Fraction

import pytest

from lambdatrees.errors import DomainError, GroupMismatch, UndefinedRatio
from lambdatrees.ordered import (
    MAX_DIGITS,
    MAX_EXPONENT,
    ConvexSubgroup,
    LambdaElement,
    LambdaGroup,
    compare,
    convex_quotient,
    group_rank,
    half_in_group,
    halve,
    in_two_lambda,
    ratio,
)

from helpers import ratio_by_counting

Z1 = LambdaGroup(1)
Z2 = LambdaGroup(2)
D1 = LambdaGroup(1, dyadic=True)
D2 = LambdaGroup(2, dyadic=True)


def test_compare_examples():
    assert compare(Z2.element(1, -3), Z2.element(1, 2)) == -1
    assert compare(Z2.element(2, 0), Z2.element(1, 99)) == 1
    assert compare(Z2.element(0, 0), Z2.element(0, 0)) == 0


def test_compare_is_total_order():
    rng = random.Random(7)
    elems = [Z2.element(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(40)]
    for x in elems:
        for y in elems:
            c = compare(x, y)
            assert c == -compare(y, x)
            # order respects addition
            z = Z2.element(rng.randint(-5, 5), rng.randint(-5, 5))
            assert compare(x + z, y + z) == c


def test_addition_examples():
    assert Z2.element(1, 2) + Z2.element(0, -5) == Z2.element(1, -3)
    x = Z2.element(4, -9)
    assert (x + (-x)).is_zero()
    assert Z2.element(0, 1) + Z2.element(0, 1) == Z2.element(0, 2)


def test_integer_scaling():
    x = Z2.element(2, -3)
    assert 3 * x == Z2.element(6, -9)
    assert x * (-1) == -x
    with pytest.raises(DomainError):
        x * Fraction(1, 2)


def test_group_mismatch_rejected():
    with pytest.raises(GroupMismatch):
        Z1.element(1) + Z2.element(1, 0)
    with pytest.raises(GroupMismatch):
        compare(Z1.element(0), D1.element(0))


def test_coordinate_validation():
    with pytest.raises(DomainError):
        Z1.element(Fraction(1, 2))
    # dyadic groups accept halves but not thirds
    D1.element(Fraction(1, 2))
    with pytest.raises(DomainError):
        D1.element(Fraction(1, 3))


def test_rank_examples():
    assert group_rank(Z1) == 1
    assert group_rank(Z2) == 2
    # trivial group modelled as the subgroup generated by nothing
    assert group_rank(Z1, generators=[]) == 0
    assert group_rank(Z1, generators=[Z1.zero()]) == 0


def test_rank_of_generated_subgroups():
    # second-coordinate copy inside lex pairs has rank 1
    assert group_rank(Z2, generators=[Z2.element(0, 1)]) == 1
    assert group_rank(Z2, generators=[Z2.element(0, 2), Z2.element(0, 3)]) == 1
    assert group_rank(Z2, generators=[Z2.element(1, 0), Z2.element(0, 1)]) == 2
    # dependent generators do not inflate the count
    assert group_rank(Z2, generators=[Z2.element(1, 1), Z2.element(2, 2)]) == 1


def test_convex_subgroup_membership():
    S = ConvexSubgroup(Z2, 1)
    assert S.contains(Z2.element(0, 7))
    assert not S.contains(Z2.element(1, 0))
    whole = ConvexSubgroup(Z2, 0)
    assert whole.contains(Z2.element(3, -2))
    trivial = ConvexSubgroup(Z2, 2)
    assert trivial.contains(Z2.zero())
    assert not trivial.contains(Z2.element(0, 1))


def test_convex_subgroup_is_convex():
    # if 0 <= x <= s with s in S then x in S
    S = ConvexSubgroup(Z2, 1)
    rng = random.Random(3)
    for _ in range(200):
        s = Z2.element(0, rng.randint(0, 9))
        x = Z2.element(rng.randint(0, 2), rng.randint(-9, 9))
        if Z2.zero() <= x <= s:
            assert S.contains(x)


def test_quotient_examples():
    S = ConvexSubgroup(Z2, 1)
    assert convex_quotient(Z2.element(3, 7), S) == LambdaGroup(1).element(3)
    assert convex_quotient(Z2.element(0, 7), S) == LambdaGroup(1).element(0)
    trivial = ConvexSubgroup(Z2, 2)
    assert convex_quotient(Z2.element(-2, 1), trivial) == Z2.element(-2, 1)


def test_quotient_is_homomorphism():
    S = ConvexSubgroup(Z2, 1)
    rng = random.Random(11)
    for _ in range(100):
        x = Z2.element(rng.randint(-5, 5), rng.randint(-5, 5))
        y = Z2.element(rng.randint(-5, 5), rng.randint(-5, 5))
        assert convex_quotient(x + y, S) == convex_quotient(x, S) + convex_quotient(y, S)
        # kernel is exactly the subgroup
        assert convex_quotient(x, S).is_zero() == S.contains(x)


def test_fiber_part():
    S = ConvexSubgroup(Z2, 1)
    assert S.fiber_part(Z2.element(0, 7)) == LambdaGroup(1).element(7)
    with pytest.raises(DomainError):
        S.fiber_part(Z2.element(1, 0))


def test_halving_examples():
    x = Z1.element(4)
    assert in_two_lambda(x)
    assert halve(x) == D1.element(2)
    assert half_in_group(x) == Z1.element(2)

    y = Z1.element(3)
    assert not in_two_lambda(y)
    assert halve(y) == D1.element(Fraction(3, 2))
    with pytest.raises(DomainError):
        half_in_group(y)

    z = D1.element(3)
    assert in_two_lambda(z)


def test_ratio_examples():
    # expected values frozen from the counting oracle below
    assert ratio(Z2.element(2, 5), Z2.element(1, 0)) == Fraction(2)
    assert ratio(Z2.element(0, 3), Z2.element(1, 0)) == Fraction(0)
    assert ratio(Z2.element(1, 0), Z2.element(0, 2)) == math.inf


def test_ratio_matches_counting_oracle():
    cases = [((2, 5), (1, 0)), ((0, 3), (1, 0)), ((1, 0), (0, 2))]
    frozen = [Fraction(2), Fraction(0), "inf"]
    for (xc, yc), expected in zip(cases, frozen):
        assert ratio_by_counting(xc, yc) == expected
    rng = random.Random(19)
    for _ in range(25):
        xc = (rng.randint(0, 3), rng.randint(0, 4))
        yc = (rng.randint(0, 3), rng.randint(0, 4))
        if xc == (0, 0) and yc == (0, 0):
            continue
        got = ratio(Z2.element(*xc), Z2.element(*yc))
        want = ratio_by_counting(xc, yc, bound=400)
        if want == "inf":
            assert got == math.inf
        else:
            # the finite scan reports a lower bound for the supremum and
            # is short by at most max(x)/bound when the sup is unattained
            assert want <= got <= want + Fraction(4, 400)


def test_ratio_errors():
    with pytest.raises(UndefinedRatio):
        ratio(Z2.zero(), Z2.zero())
    with pytest.raises(DomainError):
        ratio(Z2.element(-1, 0), Z2.element(1, 0))


def test_json_round_trip():
    g = LambdaGroup.from_json(Z2.to_json())
    assert g == Z2
    x = D2.element(Fraction(3, 2), -1)
    back = LambdaElement.from_json(x.to_json(), D2)
    assert back == x
    assert x.to_json() == ["3/2", "-1"]


def test_numbers_read_as_text_are_bounded():
    widest = "7" * MAX_DIGITS
    assert Z1.element(widest).coords == (int(widest),)
    assert LambdaElement.from_json([f"1e{MAX_EXPONENT}"], Z1).coords == (10**MAX_EXPONENT,)
    with pytest.raises(DomainError, match=f"^{MAX_DIGITS + 1} digits in '7{{20}}...' exceed "
                                          f"the digit bound {MAX_DIGITS}$"):
        Z1.element("7" + widest)
    with pytest.raises(DomainError, match="^exponent 308 in '1e\\+308' exceeds the exponent "
                                          f"bound {MAX_EXPONENT}$"):
        LambdaElement.from_json([1e308], Z1)
    # values that are not text are not bounded, and unparsable text still
    # raises what Fraction raises
    assert Z1.element(10**(MAX_DIGITS + 1)).coords == (10**(MAX_DIGITS + 1),)
    with pytest.raises(ValueError):
        LambdaElement.from_json(["one"], Z1)
