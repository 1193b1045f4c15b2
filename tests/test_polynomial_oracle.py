"""Integer-coefficient polynomials against the Fraction-coefficient oracle.

``polynomial_reference`` keeps ``Polynomial`` and ``RationalFunction`` as
they were before a polynomial became integer numerators over one common
denominator.  On generated expressions and coefficient lists, both must
give the same parse results and strings, the same ``==``, hash, gcd,
divmod and values, and over Q(t) the same valuations, residues and
canonical representatives, errors included (compared by class and
message).
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import polynomial_reference as ref
from lambdatrees.errors import LambdaTreeError
from lambdatrees.valuation import Polynomial, ValuedField, parse_rational_function

EXACT = settings.get_profile("derandomized")
# the oracle's canonical forms cost tens of milliseconds per expression
FEWER = settings(EXACT, max_examples=80)

# (library field, oracle point); None is the place at infinity
PLACES = [
    (ValuedField.function_field_at(0), Fraction(0)),
    (ValuedField.function_field_at(1), Fraction(1)),
    (ValuedField.function_field_at(Fraction(1, 2)), Fraction(1, 2)),
    (ValuedField.function_field_at_infinity(), None),
]
POINTS = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-3, 7), 2]


def outcome(fn):
    try:
        return fn()
    except LambdaTreeError as exc:
        return (type(exc), str(exc))


def shown(value):
    """A rational function or polynomial as its string and coefficients."""
    if hasattr(value, "num"):
        return str(value), value.num.coeffs, value.den.coeffs
    if hasattr(value, "coeffs"):
        return str(value), value.coeffs
    return value


def _combine(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children).map(
            lambda p: f"({p[0]}) {p[1]} ({p[2]})"),
        st.tuples(children, st.integers(-4, 4)).map(lambda p: f"({p[0]})^{p[1]}"),
        children.map(lambda e: f"-({e})"),
    )


def expressions(max_leaves):
    atoms = st.one_of(st.just("t"), st.integers(0, 12).map(str))
    return st.recursive(atoms, _combine, max_leaves=max_leaves)


coefficient_lists = st.lists(
    st.fractions(min_value=-6, max_value=6, max_denominator=4), max_size=5)


@EXACT
@given(expressions(10))
def test_parsed_values_and_strings_match_the_oracle(text):
    assert outcome(lambda: shown(parse_rational_function(text))) == outcome(
        lambda: shown(ref.parse(text)))


@EXACT
@given(coefficient_lists, coefficient_lists, coefficient_lists)
def test_polynomial_arithmetic_matches_the_oracle(a, b, c):
    def results(poly):
        p, q, common = poly(a), poly(b), poly(c)
        pc, qc = p * common, q * common  # so that gcds are not all 1
        return [
            shown(pc), shown(pc - qc), hash(pc), pc == qc, p + q == q + p, p == poly(b),
            shown(outcome(lambda: pc.gcd(qc))), shown(outcome(lambda: qc.gcd(p))),
            [shown(x) for x in outcome(lambda: pc.divmod(q))],
            [shown(x) for x in outcome(lambda: p.divmod(qc))],
            [p.evaluate(x) for x in POINTS], [type(p.evaluate(x)) for x in POINTS],
        ]

    assert results(Polynomial) == results(ref.Polynomial)


@FEWER
@given(expressions(5))
def test_valuations_residues_and_canonical_forms_match_the_oracle(text):
    x, y = outcome(lambda: parse_rational_function(text)), outcome(lambda: ref.parse(text))
    if isinstance(x, tuple):
        return
    for field, point in PLACES:
        assert field.valuation_int(x) == ref.valuation_int(y, point)
        assert outcome(lambda: field.residue(x)) == outcome(lambda: ref.residue(y, point))
        for level in range(-3, 5):
            assert shown(field.canonical_mod(x, level)) == shown(
                ref.canonical_mod(y, level, point))
