"""Exact valued fields: the rationals with p-adic valuations and the
rational function field in one variable with valuations at a point or
at infinity.

Field elements are Fractions (over Q) or RationalFunction values (over
Q(t)); both are immutable and support exact arithmetic.  A Polynomial
keeps integer coefficients over one denominator, so division and gcds
run over Z (pseudo-division, primitive remainder sequences).  Valuations
return rank-1 LambdaElements, with a shared INFINITY sentinel for the
value at zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Optional, Union

from .errors import DomainError, FieldMismatch, NotInValuationRing
from .ordered import MAX_DIGITS, LambdaElement, LambdaGroup, bounded_fraction


class _Infinity:
    """Sentinel for the valuation of zero; larger than every group element."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __gt__(self, other):
        return not isinstance(other, _Infinity)

    def __ge__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _Infinity)

    def __eq__(self, other):
        return isinstance(other, _Infinity)

    def __hash__(self):
        return hash("infinity-sentinel")

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __neg__(self):
        raise DomainError("negated infinity is not a valuation value")

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()

# The value group of every built-in valuation, shared so that group checks
# succeed on identity.
_VALUE_GROUP = LambdaGroup(1)


def is_infinite(value) -> bool:
    return isinstance(value, _Infinity)


class Polynomial:
    """Polynomial in one variable with exact rational coefficients.

    Stored as integer numerators over one positive common denominator, in
    lowest terms: ``_num`` ascending with no trailing zeros (empty for the
    zero polynomial, of degree -1), and ``_den`` coprime to their gcd.
    ``coeffs`` gives the Fraction coefficients.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        _store(self, [c.numerator * (den // c.denominator) for c in cs], den)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @staticmethod
    def constant(c) -> "Polynomial":
        return Polynomial([Fraction(c)])

    @staticmethod
    def x() -> "Polynomial":
        return Polynomial([0, 1])

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(c, self._den) for c in self._num)

    @property
    def degree(self) -> int:
        return len(self._num) - 1

    def is_zero(self) -> bool:
        return not self._num

    def leading(self) -> Fraction:
        if self.is_zero():
            raise DomainError("zero polynomial has no leading coefficient")
        return Fraction(self._num[-1], self._den)

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self._num == other._num
                and self._den == other._den)

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        other = _as_poly(other)
        g = gcd(self._den, other._den)
        ma, mb = other._den // g, self._den // g
        out = [x * ma + y * mb for x, y in zip_longest(self._num, other._num, fillvalue=0)]
        return _poly(out, self._den * ma)

    __radd__ = __add__

    def __neg__(self):
        return _poly([-c for c in self._num], self._den)

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        other = _as_poly(other)
        out = [0] * (len(self._num) + len(other._num) - 1)
        for i, a in enumerate(self._num):
            if a:
                for j, b in enumerate(other._num):
                    out[i + j] += a * b
        return _poly(out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise DomainError("negative polynomial power")
        result = Polynomial.constant(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def divmod(self, other: "Polynomial"):
        """(q, r) with self = q*other + r and deg r < deg other, by integer
        pseudo-division of the numerators."""
        if other.is_zero():
            raise DomainError("polynomial division by zero")
        q, r, s = _pseudo_divmod(self._num, other._num)
        den = s * self._den
        return _poly([c * other._den for c in q], den), _poly(r, den)

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """The monic gcd, from the primitive remainder sequence over Z
        (Knuth, TAOCP vol. 2, 4.6.1): each pseudo-remainder is divided by
        the gcd of its coefficients, so none grows past what it needs."""
        a, b = _primitive(self._num), _primitive(other._num)
        while len(b) > 1:
            a, b = b, _primitive(_pseudo_divmod(a, b)[1])
        if b:  # a nonzero constant: the gcd is 1
            a = b
        return _poly(list(a), a[-1] if a else 1)

    def evaluate(self, point: Fraction) -> Fraction:
        p, q = point.numerator, point.denominator
        acc, scale = 0, 1
        for c in reversed(self._num):
            acc = acc * p + c * scale
            scale *= q
        return Fraction(acc * q, scale * self._den)

    def __str__(self):
        terms = []
        for i, c in reversed(list(enumerate(self.coeffs))):
            if c:
                mag, power = abs(c), "" if i == 0 else "t" if i == 1 else f"t^{i}"
                body = str(mag) if not power else power if mag == 1 else f"{mag}*{power}"
                terms.append(("-" if c < 0 else "+", body))
        if not terms:
            return "0"
        text = ("-" if terms[0][0] == "-" else "") + terms[0][1]
        return text + "".join(f" {sign} {body}" for sign, body in terms[1:])

    def __repr__(self):
        return f"Polynomial({self})"


def _store(poly: Polynomial, num: list, den: int) -> Polynomial:
    """Set poly to num/den (ascending integers, den != 0) in lowest terms."""
    while num and not num[-1]:
        num.pop()
    g = gcd(den, *num) if den > 0 else -gcd(den, *num)
    if g != 1:
        num = [c // g for c in num]
        den //= g
    object.__setattr__(poly, "_num", tuple(num))
    object.__setattr__(poly, "_den", den)
    return poly


def _poly(num: list, den: int) -> Polynomial:
    return _store(object.__new__(Polynomial), num, den)


def _primitive(num) -> tuple:
    g = gcd(*num)
    return tuple(c // g for c in num) if g > 1 else tuple(num)


def _pseudo_divmod(u, v):
    """(q, r, s) with s*u = q*v + r and deg r < deg v, for integer
    coefficient sequences.  s is a power of v's leading coefficient, raised
    only at the steps where that coefficient does not divide the remainder's
    leading one; so s = 1 when v divides u in Z[t]."""
    n, lead = len(v) - 1, v[-1]
    r = list(u)
    q = [0] * max(len(u) - n, 0)
    s = 1
    for k in range(len(q) - 1, -1, -1):
        c = r[n + k]
        if c % lead:
            r = [lead * x for x in r]
            q = [lead * x for x in q]
            s *= lead
        else:
            c //= lead
        q[k] = c
        if c:
            for j in range(n + 1):
                r[j + k] -= c * v[j]
    del r[n:]
    while r and not r[-1]:
        r.pop()
    return q, r, s


def _as_poly(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial.constant(value)
    raise DomainError(f"cannot coerce {type(value).__name__} to Polynomial")


class RationalFunction:
    """Quotient of two Polynomials, reduced, with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _as_poly(num)
        den = Polynomial.constant(1) if den is None else _as_poly(den)
        if den.is_zero():
            raise DomainError("rational function with zero denominator")
        if num.is_zero():
            den = Polynomial.constant(1)
        else:
            g = num.gcd(den)
            if g.degree > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
            lead = den._num[-1]
            if lead != den._den:  # divide both by den's leading coefficient
                num = _poly([c * den._den for c in num._num], num._den * lead)
                den = _poly(list(den._num), lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @staticmethod
    def constant(c) -> "RationalFunction":
        return RationalFunction(Polynomial.constant(c))

    @staticmethod
    def t() -> "RationalFunction":
        return RationalFunction(Polynomial.x())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise DomainError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if k < 0:
            if self.is_zero():
                raise DomainError("zero to a negative power")
            return RationalFunction(self.den, self.num) ** (-k)
        return RationalFunction(self.num**k, self.den**k)

    def __str__(self):
        num_text = str(self.num)
        if self.den == Polynomial.constant(1):
            return num_text
        return f"({num_text})/({self.den})"

    def __repr__(self):
        return f"RationalFunction({self})"


def _as_rf(value) -> Optional[RationalFunction]:
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, (int, Fraction)):
        return RationalFunction.constant(value)
    if isinstance(value, Polynomial):
        return RationalFunction(value)
    return None


# Parsing refuses parentheses nested deeper than MAX_NESTING (each costs four
# Python frames), and a product, quotient or power whose numerator or
# denominator has degree above MAX_DEGREE.  A power is refused before it is
# computed, so ((1+t)^100)^100 costs nothing; a constant counts as degree 1.
MAX_NESTING = 100
MAX_DEGREE = 100


class _ExpressionParser:
    """Recursive-descent parser for field-element expressions.

    Grammar:  expr := ['-'] term (('+'|'-') term)*
              term := factor (('*'|'/') factor)*
              factor := atom ['^' ['-'] integer]
              atom := '(' expr ')' | 't' | integer
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def parse(self) -> RationalFunction:
        value = self.expr()
        self.skip_space()
        if self.pos != len(self.text):
            raise DomainError(f"unexpected character at position {self.pos}: {self.text!r}")
        return value

    def skip_space(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_space()
        if self.pos < len(self.text):
            return self.text[self.pos]
        return ""

    def expr(self) -> RationalFunction:
        negate = False
        if self.peek() == "-":
            self.pos += 1
            negate = True
        elif self.peek() == "+":
            self.pos += 1
        value = self.term()
        if negate:
            value = -value
        while self.peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> RationalFunction:
        value = self.factor()
        while self.peek() in ("*", "/"):
            op, start = self.text[self.pos], self.pos
            self.pos += 1
            rhs = self.factor()
            value = value * rhs if op == "*" else value / rhs
            degree = max(value.num.degree, value.den.degree)
            if degree > MAX_DEGREE:
                raise DomainError(f"degree {degree} at position {start} exceeds "
                                  f"the degree bound {MAX_DEGREE}")
        return value

    def factor(self) -> RationalFunction:
        value = self.atom()
        if self.peek() == "^":
            self.pos += 1
            start = self.pos
            sign = 1
            if self.peek() == "-":
                self.pos += 1
                sign = -1
            k = self.integer()
            if k * max(value.num.degree, value.den.degree, 1) > MAX_DEGREE:
                raise DomainError(f"exponent {sign * k} at position {start} exceeds "
                                  f"the degree bound {MAX_DEGREE}")
            value = value ** (sign * k)
        return value

    def atom(self) -> RationalFunction:
        ch = self.peek()
        if ch == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise DomainError(f"parentheses nest deeper than {MAX_NESTING} "
                                  f"at position {self.pos}")
            self.pos += 1
            value = self.expr()
            if self.peek() != ")":
                raise DomainError(f"missing closing parenthesis: {self.text!r}")
            self.pos += 1
            self.depth -= 1
            return value
        if ch == "t":
            self.pos += 1
            return RationalFunction.t()
        if ch.isdigit():
            return RationalFunction.constant(self.integer())
        raise DomainError(f"unexpected character at position {self.pos}: {self.text!r}")

    def integer(self) -> int:
        self.skip_space()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise DomainError(f"expected a number at position {start}: {self.text!r}")
        if self.pos - start > MAX_DIGITS:
            raise DomainError(f"{self.pos - start} digits at position {start} exceed "
                              f"the digit bound {MAX_DIGITS}")
        return int(self.text[start : self.pos])


def parse_rational_function(text: str) -> RationalFunction:
    return _ExpressionParser(text).parse()


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below this bound (Sorenson and Webster, "Strong pseudoprimes to twelve
# prime bases", Math. Comp. 2017); the first 12 alone stop at 3.2e23.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    if isinstance(n, bool) or not isinstance(n, int):
        raise DomainError(f"p = {n!r} is not an integer")
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    if n >= _PRIME_TEST_LIMIT:
        raise DomainError(f"p = {n} is too large to test; p must be below {_PRIME_TEST_LIMIT}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _int_valuation(n: int, p: int) -> int:
    if n == 0:
        raise DomainError("valuation of integer zero")
    e = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        e += 1
    return e


FieldElement = Union[Fraction, RationalFunction]


@dataclass(frozen=True)
class ValuedField:
    """A base field together with a discrete valuation.

    base: "Q" or "Q(t)".  kind: "p_adic", "at_point" or "at_infinity".
    The value group is the rank-1 integer group in every built-in case.
    """

    base: str
    kind: str
    p: Optional[int] = None
    point: Optional[Fraction] = None

    def __post_init__(self):
        if self.base not in ("Q", "Q(t)"):
            raise DomainError(f"unsupported base field {self.base!r}")
        if self.base == "Q":
            if self.kind != "p_adic" or self.p is None:
                raise DomainError("rational base takes a p_adic valuation")
            if not _is_prime(self.p):
                raise DomainError(f"{self.p} is not prime")
        else:
            if self.kind == "at_point":
                if self.point is None:
                    raise DomainError("at_point valuation needs a base point")
            elif self.kind != "at_infinity":
                raise DomainError(f"unsupported valuation kind {self.kind!r}")

    @staticmethod
    def rationals(p: int) -> "ValuedField":
        return ValuedField("Q", "p_adic", p=p)

    @staticmethod
    def function_field_at(c) -> "ValuedField":
        return ValuedField("Q(t)", "at_point", point=Fraction(c))

    @staticmethod
    def function_field_at_infinity() -> "ValuedField":
        return ValuedField("Q(t)", "at_infinity")

    @property
    def value_group(self) -> LambdaGroup:
        return _VALUE_GROUP

    def zero(self) -> FieldElement:
        return Fraction(0) if self.base == "Q" else RationalFunction.constant(0)

    def one(self) -> FieldElement:
        return Fraction(1) if self.base == "Q" else RationalFunction.constant(1)

    def coerce(self, x) -> FieldElement:
        if self.base == "Q":
            if isinstance(x, Fraction):
                return x
            if isinstance(x, int):
                return Fraction(x)
        else:
            got = _as_rf(x)
            if got is not None:
                return got
        raise FieldMismatch(f"{x!r} is not an element of {self}")

    def uniformizer(self) -> FieldElement:
        if self.kind == "p_adic":
            return Fraction(self.p)
        if self.kind == "at_point":
            return RationalFunction(Polynomial([-self.point, Fraction(1)]))
        return RationalFunction(Polynomial.constant(1), Polynomial.x())

    def valuation(self, x) -> Union[LambdaElement, _Infinity]:
        v = self.valuation_int(x)
        # v is an int computed here, so the element skips validation
        return v if is_infinite(v) else LambdaElement((v,), _VALUE_GROUP, 0)

    def _order_at_point(self, poly: Polynomial) -> int:
        c = self.point
        if poly.is_zero():
            raise DomainError("order of zero polynomial")
        order = 0
        linear = Polynomial([-c, Fraction(1)])
        while True:
            q, r = poly.divmod(linear)
            if not r.is_zero():
                return order
            poly = q
            order += 1

    def valuation_int(self, x) -> Union[int, _Infinity]:
        """v(x) as an int, or INFINITY at zero."""
        x = self.coerce(x)
        if self.base == "Q":
            if x == 0:
                return INFINITY
            return _int_valuation(x.numerator, self.p) - _int_valuation(x.denominator, self.p)
        if x.is_zero():
            return INFINITY
        if self.kind == "at_point":
            return self._order_at_point(x.num) - self._order_at_point(x.den)
        return x.den.degree - x.num.degree

    def residue(self, x):
        """Image in the residue field: an integer mod p, or a Fraction."""
        x = self.coerce(x)
        v = self.valuation_int(x)
        if v < 0:
            raise NotInValuationRing(f"valuation of {x} is negative")
        if v > 0:  # INFINITY included
            return 0 if self.kind == "p_adic" else Fraction(0)
        if self.kind == "p_adic":
            num = x.numerator % self.p
            den = x.denominator % self.p
            return (num * pow(den, -1, self.p)) % self.p
        if self.kind == "at_point":
            return x.num.evaluate(self.point) / x.den.evaluate(self.point)
        return x.num.leading() / x.den.leading()

    def canonical_mod(self, x, n: int) -> FieldElement:
        """Canonical representative of x modulo pi^n * O(v).

        Computed as the truncated digit expansion sum a_i pi^i over
        v(x) <= i < n with each digit the canonical residue lift, that is
        x minus the rest of valuation at least n; two elements are
        congruent mod pi^n O(v) iff their representatives are equal.
        """
        x = self.coerce(x)
        pi = self.uniformizer()
        rest = x
        i = self.valuation_int(rest)
        while i < n:  # False at INFINITY
            rest = rest - self.coerce(self.residue(rest * pi ** (-i))) * pi**i
            i = self.valuation_int(rest)
        return x - rest

    def element_from_string(self, text: str) -> FieldElement:
        if self.base == "Q":
            return _rational(text)
        value = parse_rational_function(text)
        return value

    def element_to_string(self, x) -> str:
        x = self.coerce(x)
        return str(x)

    @staticmethod
    def from_json(obj: dict) -> "ValuedField":
        field = obj.get("field")
        if field == "Q":
            return ValuedField.rationals(obj["p"])
        if field == "Q(t)":
            at = str(obj.get("at"))
            if at == "inf":
                return ValuedField.function_field_at_infinity()
            return ValuedField.function_field_at(_rational(at))
        raise DomainError(f"unsupported field description {obj!r}")

    def __str__(self):
        if self.base == "Q":
            return f"(Q, v_{self.p})"
        if self.kind == "at_infinity":
            return "(Q(t), v_inf)"
        return f"(Q(t), v at t={self.point})"


def _rational(text: str) -> Fraction:
    try:
        return bounded_fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse rational {text!r}") from exc
