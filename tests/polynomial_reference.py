"""Polynomials and rational functions over Fraction coefficients, kept as
the oracle for ``valuation``.

This is how ``Polynomial`` and ``RationalFunction`` worked before a
polynomial became integer numerators over one common denominator: each
coefficient a ``Fraction``, division term by term over Q, and the gcd by
Euclid's algorithm with monic remainders.  ``parse`` runs the library's
expression parser over these classes, and ``valuation_int``, ``residue``
and ``canonical_mod`` are the Q(t) branches of ``ValuedField`` written
over them, with ``point`` a Fraction or ``None`` for the place at
infinity.  Errors keep the library's classes and messages.
"""

from fractions import Fraction
from typing import Optional

from lambdatrees.errors import DomainError, NotInValuationRing
from lambdatrees.valuation import INFINITY, _ExpressionParser


class Polynomial:
    """Polynomial in one variable with exact rational coefficients.

    Coefficients are stored ascending with no trailing zeros; the zero
    polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @staticmethod
    def constant(c) -> "Polynomial":
        return Polynomial([Fraction(c)])

    @staticmethod
    def x() -> "Polynomial":
        return Polynomial([0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if self.is_zero():
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return Polynomial([x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return Polynomial([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

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
        if other.is_zero():
            raise DomainError("polynomial division by zero")
        q = Polynomial([])
        r = self
        d = other.degree
        lead = other.leading()
        while not r.is_zero() and r.degree >= d:
            shift = r.degree - d
            coef = r.leading() / lead
            term = Polynomial([Fraction(0)] * shift + [coef])
            q = q + term
            r = r - term * other
        return q, r

    def monic(self) -> "Polynomial":
        lead = self.leading()
        return self if lead == 1 else self * (1 / lead)

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """The monic gcd.  Each remainder is made monic, which keeps the
        coefficients of Euclid's remainder sequence small."""
        a, b = self, other
        while not b.is_zero():
            b = b.monic()
            a, b = b, a.divmod(b)[1]
        return a if a.is_zero() else a.monic()

    def evaluate(self, point: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = str(mag)
            elif i == 1:
                body = "t" if mag == 1 else f"{mag}*t"
            else:
                body = f"t^{i}" if mag == 1 else f"{mag}*t^{i}"
            parts.append((sign, body))
        sign0, body0 = parts[0]
        text = ("-" if sign0 == "-" else "") + body0
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"Polynomial({self})"


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
            lead = den.leading()
            if lead != 1:
                inv = 1 / lead
                num = num * inv
                den = den * inv
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


class _ReferenceParser(_ExpressionParser):
    """The library's parser, with atoms built from the reference classes."""

    def atom(self) -> RationalFunction:
        ch = self.peek()
        if ch == "t":
            self.pos += 1
            return RationalFunction.t()
        if ch.isdigit():
            return RationalFunction.constant(self.integer())
        return super().atom()


def parse(text: str) -> RationalFunction:
    return _ReferenceParser(text).parse()


def _order_at(poly: Polynomial, point: Fraction) -> int:
    order, linear = 0, Polynomial([-point, Fraction(1)])
    while True:
        q, r = poly.divmod(linear)
        if not r.is_zero():
            return order
        poly, order = q, order + 1


def valuation_int(x: RationalFunction, point: Optional[Fraction]):
    if x.is_zero():
        return INFINITY
    if point is None:
        return x.den.degree - x.num.degree
    return _order_at(x.num, point) - _order_at(x.den, point)


def residue(x: RationalFunction, point: Optional[Fraction]) -> Fraction:
    v = valuation_int(x, point)
    if v < 0:
        raise NotInValuationRing(f"valuation of {x} is negative")
    if v > 0:  # INFINITY included
        return Fraction(0)
    if point is None:
        return x.num.leading() / x.den.leading()
    return x.num.evaluate(point) / x.den.evaluate(point)


def canonical_mod(x: RationalFunction, n: int, point: Optional[Fraction]) -> RationalFunction:
    if point is None:
        pi = RationalFunction(Polynomial.constant(1), Polynomial.x())
    else:
        pi = RationalFunction(Polynomial([-point, Fraction(1)]))
    rest = x
    i = valuation_int(rest, point)
    while i < n:  # False at INFINITY
        rest = rest - RationalFunction.constant(residue(rest * pi ** (-i), point)) * pi**i
        i = valuation_int(rest, point)
    return x - rest
