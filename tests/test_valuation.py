import random
import re
import time
from fractions import Fraction

import pytest

from lambdatrees.errors import DomainError, NotInValuationRing
from lambdatrees.ordered import MAX_DIGITS, MAX_EXPONENT, LambdaGroup
from lambdatrees.valuation import (
    MAX_DEGREE,
    MAX_NESTING,
    Polynomial,
    RationalFunction,
    ValuedField,
    _is_prime,
    is_infinite,
    parse_rational_function,
)

Q2 = ValuedField.rationals(2)
Q3 = ValuedField.rationals(3)
FT0 = ValuedField.function_field_at(0)
FT1 = ValuedField.function_field_at(1)
FTINF = ValuedField.function_field_at_infinity()
Z = LambdaGroup(1)


def rf(text):
    return parse_rational_function(text)


def rand_rational(rng, zero_ok=True):
    num = rng.randint(-60, 60)
    if not zero_ok:
        while num == 0:
            num = rng.randint(-60, 60)
    return Fraction(num, rng.randint(1, 40))


def rand_rf(rng, zero_ok=True):
    def poly():
        return Polynomial([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))])

    num = poly()
    if not zero_ok:
        while num.is_zero():
            num = poly()
    den = poly()
    while den.is_zero():
        den = poly()
    return RationalFunction(num, den)


def test_valuation_examples():
    assert Q2.valuation(Fraction(12)) == Z.element(2)
    assert Q2.valuation(Fraction(3, 4)) == Z.element(-2)
    assert FT0.valuation(rf("t^3 - t^4")) == Z.element(3)
    assert FTINF.valuation(rf("(t^2+1)/t^5")) == Z.element(3)
    assert is_infinite(Q2.valuation(Fraction(0)))
    assert is_infinite(FT0.valuation(rf("0")))


def test_valuation_homomorphism_rationals():
    rng = random.Random(23)
    zero = Z.zero()
    for _ in range(10_000):
        x = rand_rational(rng, zero_ok=False)
        y = rand_rational(rng, zero_ok=False)
        assert Q2.valuation(x * y) == Q2.valuation(x) + Q2.valuation(y)
        vx, vy = Q3.valuation(x), Q3.valuation(y)
        s = x + y
        vs = Q3.valuation(s)
        low = min(vx, vy)
        assert vs >= low
        if vx != vy:
            assert vs == low


def test_valuation_homomorphism_function_field():
    rng = random.Random(29)
    for field in (FT0, FT1, FTINF):
        for _ in range(150):
            x = rand_rf(rng, zero_ok=False)
            y = rand_rf(rng, zero_ok=False)
            assert field.valuation(x * y) == field.valuation(x) + field.valuation(y)
            s = x + y
            vs = field.valuation(s)
            low = min(field.valuation(x), field.valuation(y))
            assert vs >= low
            if field.valuation(x) != field.valuation(y):
                assert vs == low


def test_uniformizer_has_valuation_one():
    for field in (Q2, Q3, FT0, FT1, FTINF):
        assert field.valuation(field.uniformizer()) == Z.element(1)


def test_residue_examples():
    # 5 inverse mod 2 is 1 and 3*1 is odd, frozen from direct modular check
    assert Q2.residue(Fraction(3, 5)) == 1
    assert FT0.residue(rf("(t+2)/(t-1)")) == Fraction(-2)
    assert Q2.residue(Fraction(0)) == 0
    assert FT0.residue(rf("0")) == Fraction(0)
    assert FTINF.residue(rf("(3*t^2+1)/(2*t^2+t)")) == Fraction(3, 2)


def test_residue_rejects_negative_valuation():
    with pytest.raises(NotInValuationRing):
        Q2.residue(Fraction(1, 2))
    with pytest.raises(NotInValuationRing):
        FT0.residue(rf("1/t"))


def test_residue_is_ring_homomorphism():
    rng = random.Random(31)
    zero = Z.zero()
    seen = 0
    while seen < 400:
        x = rand_rational(rng)
        y = rand_rational(rng)
        vals = [Q3.valuation(v) for v in (x, y, x + y, x * y)]
        if any(not is_infinite(v) and v < zero for v in vals):
            continue
        seen += 1
        assert Q3.residue(x + y) == (Q3.residue(x) + Q3.residue(y)) % 3
        assert Q3.residue(x * y) == (Q3.residue(x) * Q3.residue(y)) % 3
    seen = 0
    while seen < 100:
        x = rand_rf(rng)
        y = rand_rf(rng)
        vals = [FT1.valuation(v) for v in (x, y, x + y, x * y)]
        if any(not is_infinite(v) and v < zero for v in vals):
            continue
        seen += 1
        assert FT1.residue(x + y) == FT1.residue(x) + FT1.residue(y)
        assert FT1.residue(x * y) == FT1.residue(x) * FT1.residue(y)


def test_parser_round_trips():
    cases = [
        "3/4",
        "-3/4",
        "t",
        "t^3 - 1",
        "(t^3-1)/(2*t+5)",
        "3/2*t^2",
        "(t+2)/(t-1)",
        "-t^2 + t - 1/3",
    ]
    for text in cases:
        value = rf(text)
        again = rf(str(value))
        assert again == value


def test_parser_coefficient_binding():
    # division binds left to right, so 3/2*t^2 is (3/2) t^2
    assert rf("3/2*t^2") == RationalFunction(Polynomial([0, 0, Fraction(3, 2)]))
    assert rf("6/2") == RationalFunction.constant(3)


def test_parser_rejects_garbage():
    for text in ("", "t +", "(t", "t^", "x+1", "1//2"):
        with pytest.raises(DomainError):
            rf(text)


def test_parser_bounds_nesting_and_degree():
    assert rf("(" * MAX_NESTING + "t" + ")" * MAX_NESTING) == rf("t")
    assert rf("(t)^-2 + " * 3 + "(" * MAX_NESTING + "1" + ")" * MAX_NESTING) == rf("3/t^2 + 1")
    deeper = "(" * (MAX_NESTING + 1) + "t" + ")" * (MAX_NESTING + 1)
    message = f"^parentheses nest deeper than {MAX_NESTING} at position {MAX_NESTING}$"
    with pytest.raises(DomainError, match=message):
        rf(deeper)
    assert rf(f"t^{MAX_DEGREE}") * rf(f"t^-{MAX_DEGREE}") == rf("1")
    assert rf(f"(t^2)^{MAX_DEGREE // 2} / t^{MAX_DEGREE}") == rf("1")
    with pytest.raises(DomainError, match=f"^exponent -{MAX_DEGREE + 1} at position 6 exceeds "
                                          f"the degree bound {MAX_DEGREE}$"):
        rf(f"1 + t^-{MAX_DEGREE + 1}")
    with pytest.raises(DomainError, match="^exponent 101 at position 2 exceeds"):
        rf("2^101")  # a constant counts as degree 1, so its size is bounded too
    # a power of a power is refused before the outer power is computed
    start = time.perf_counter()
    with pytest.raises(DomainError, match="^exponent 100 at position 12 exceeds"):
        rf("((1+t)^100)^100")
    assert time.perf_counter() - start < 2.0
    # so is a product whose degree passes the bound
    with pytest.raises(DomainError, match=f"^degree 110 at position 5 exceeds the degree bound"):
        rf("t^50 * t^60")


def test_rational_field_element_parse():
    assert Q2.element_from_string("3/4") == Fraction(3, 4)
    with pytest.raises(DomainError):
        Q2.element_from_string("t+1")


def test_canonical_mod_is_canonical():
    rng = random.Random(37)
    for field in (Q2, Q3):
        pi = field.uniformizer()
        for _ in range(120):
            x = rand_rational(rng)
            n = rng.randint(-2, 4)
            rep = field.canonical_mod(x, n)
            # representative is congruent to x
            diff = x - rep
            v = field.valuation(diff)
            assert is_infinite(v) or v >= Z.element(n)
            # congruent inputs share a representative
            bump = rand_rational(rng, zero_ok=False) * pi ** (n + rng.randint(0, 2))
            vb = field.valuation(bump)
            if not is_infinite(vb) and vb >= Z.element(n):
                assert field.canonical_mod(x + bump, n) == rep
            # representative is a fixed point
            assert field.canonical_mod(rep, n) == rep


def test_canonical_mod_function_field():
    rng = random.Random(41)
    for field in (FT0, FT1, FTINF):
        pi = field.uniformizer()
        for _ in range(40):
            x = rand_rf(rng)
            n = rng.randint(-1, 3)
            rep = field.canonical_mod(x, n)
            diff = x - rep
            v = field.valuation(diff)
            assert is_infinite(v) or v >= Z.element(n)
            bump = rand_rf(rng, zero_ok=False) * pi**n
            vb = field.valuation(bump)
            if not is_infinite(vb) and vb >= Z.element(n):
                assert field.canonical_mod(x + bump, n) == rep
            assert field.canonical_mod(rep, n) == rep


def test_canonical_mod_digit_values():
    # 2-adic digits of 3/2 mod 8: 1/2 + 1 (digits at exponents -1 and 0)
    assert Q2.canonical_mod(Fraction(3, 2), 3) == Fraction(3, 2)
    # 19/2 - 3/2 = 8, so both collapse to the same representative
    assert Q2.canonical_mod(Fraction(19, 2), 3) == Fraction(3, 2)
    assert Q2.canonical_mod(Fraction(11, 2), 3) == Fraction(11, 2)
    assert Q2.canonical_mod(Fraction(8), 3) == Fraction(0)
    # function-field representative keeps the principal part
    assert FT0.canonical_mod(rf("1/t + 5 + t^3"), 2) == rf("1/t + 5")


def test_field_json_round_trip():
    for blob, field in (
        ({"field": "Q", "p": 2}, Q2),
        ({"field": "Q(t)", "at": "0"}, FT0),
        ({"field": "Q(t)", "at": "1"}, FT1),
        ({"field": "Q(t)", "at": "inf"}, FTINF),
    ):
        assert ValuedField.from_json(blob) == field


def test_element_strings_round_trip_through_field():
    rng = random.Random(43)
    for _ in range(40):
        x = rand_rational(rng)
        assert Q2.element_from_string(str(x)) == x
        y = rand_rf(rng)
        assert FT0.element_from_string(FT0.element_to_string(y)) == y


def test_numbers_are_bounded_before_they_are_converted():
    widest = "7" * MAX_DIGITS
    assert Q2.element_from_string(widest) == int(widest)
    assert Q2.element_from_string(f"-1/{widest[1:]}") == Fraction(-1, int(widest[1:]))
    assert Q2.element_from_string(f"1e{MAX_EXPONENT}") == 10**MAX_EXPONENT
    assert Q2.element_from_string(f"2.5E-{MAX_EXPONENT}") == Fraction(5, 2 * 10**MAX_EXPONENT)
    assert FT0.element_from_string(f"{widest} * t") == rf("t") * int(widest)
    shown = re.escape("'1/" + "7" * 18 + "...'")
    with pytest.raises(DomainError, match=f"^{MAX_DIGITS + 1} digits in {shown} exceed "
                                          f"the digit bound {MAX_DIGITS}$"):
        Q2.element_from_string(f"1/{widest}")
    with pytest.raises(DomainError, match=f"^exponent -{MAX_EXPONENT + 1} in '1e-{MAX_EXPONENT + 1}'"
                                          f" exceeds the exponent bound {MAX_EXPONENT}$"):
        Q2.element_from_string(f"1e-{MAX_EXPONENT + 1}")
    with pytest.raises(DomainError, match=f"^{MAX_DIGITS + 1} digits at position 4 exceed "
                                          f"the digit bound {MAX_DIGITS}$"):
        FT0.element_from_string(f"t + 1{widest}")
    # text that is not a number still gets the parse error
    with pytest.raises(DomainError, match="^cannot parse rational '1e'$"):
        Q2.element_from_string("1e")


def _prime_by_trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division_below_1e5():
    mismatches = [n for n in range(10**5) if _is_prime(n) != _prime_by_trial_division(n)]
    assert mismatches == []


def test_is_prime_on_large_p_is_fast_and_bounded():
    for p, prime in ((2**61 - 1, True), (2**61 + 1, False), (10**18 + 3, True),
                     (3215031751, False), (3825123056546413051, False)):
        start = time.perf_counter()
        assert _is_prime(p) is prime, p
        assert time.perf_counter() - start < 1.0
    assert ValuedField.rationals(2**61 - 1).p == 2**61 - 1
    with pytest.raises(DomainError, match="is not prime"):
        ValuedField.rationals(2**61 + 1)
    with pytest.raises(DomainError, match="p = 43.0 is not an integer"):
        ValuedField.rationals(43.0)
    big = 10**25 + 13
    with pytest.raises(DomainError, match=f"p = {big} is too large"):
        ValuedField.rationals(big)
