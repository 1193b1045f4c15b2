"""Exact arithmetic in finite-rank ordered abelian groups.

Elements are k-tuples of rationals compared lexicographically.  A group
with ``dyadic=False`` restricts coordinates to integers; ``dyadic=True``
allows power-of-two denominators, the group obtained by adjoining halves.
The trivial group is modelled as a subgroup (no generators) rather than
as a group object of its own.

An element stores integer numerators over one power of two, the least
one that makes them integers (always 1 in an integer group); ``coords``
gives the values, as ``int`` where the exponent is 0 and as
``fractions.Fraction`` otherwise.  Coordinates are checked once, where
values come in: ``LambdaGroup.element``, ``LambdaElement.from_json`` and a
direct ``LambdaElement(coords, group)``.  Results computed inside the
package pass the exponent as a third argument,
``LambdaElement(numerators, group, exp)``, which skips the checks.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import cached_property
from operator import add, neg, sub
from typing import Sequence, Union

from .errors import DomainError, EmbeddingError, GroupMismatch, UndefinedRatio

Rational = Union[int, str, Fraction]

MAX_RANK = 100  # groups read from JSON; the zero alone holds rank coordinates

# A number written out as text is refused before it is converted when it
# has more than MAX_DIGITS digits or a decimal exponent beyond MAX_EXPONENT:
# Fraction expands "1e100000" into an integer of 100,001 digits, and int()
# raises ValueError on strings of more than 4,300 digits.
MAX_DIGITS = 250
MAX_EXPONENT = 250


def _shown(text: str) -> str:
    return repr(text if len(text) <= 20 else text[:20] + "...")


def bounded_fraction(text: str) -> Fraction:
    """``Fraction(text)`` for a number read from outside, within the bounds.

    Raises DomainError past MAX_DIGITS or MAX_EXPONENT, and whatever
    ``Fraction`` raises for text that is not a number.
    """
    digits = sum(ch.isdigit() for ch in text)
    if digits > MAX_DIGITS:
        raise DomainError(f"{digits} digits in {_shown(text)} exceed the digit bound {MAX_DIGITS}")
    _, marker, exponent = text.lower().partition("e")
    try:
        scale = int(exponent) if marker else 0
    except ValueError:
        scale = 0  # not an exponent: Fraction refuses the text
    if abs(scale) > MAX_EXPONENT:
        raise DomainError(f"exponent {scale} in {_shown(text)} exceeds the exponent "
                          f"bound {MAX_EXPONENT}")
    return Fraction(text)


def _to_fraction(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return bounded_fraction(value)
    return Fraction(value)


def _power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class LambdaGroup:
    """Rank-many rational coordinates under lexicographic order."""

    rank: int
    dyadic: bool = False

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise DomainError("group rank must be at least 1")

    def admits(self, q: Fraction) -> bool:
        """Whether a single coordinate value is allowed in this group."""
        if self.dyadic:
            return _power_of_two(q.denominator)
        return q.denominator == 1

    def element(self, *coords: Rational) -> "LambdaElement":
        if len(coords) == 1 and isinstance(coords[0], (list, tuple)):
            coords = tuple(coords[0])
        return LambdaElement(tuple(_to_fraction(c) for c in coords), self)

    def zero(self) -> "LambdaElement":
        return self._zero

    # cached_property writes the instance __dict__ directly, so it works on
    # a frozen dataclass; one shared object per group lets the same-group
    # check succeed on identity.
    @cached_property
    def _zero(self) -> "LambdaElement":
        return LambdaElement((0,) * self.rank, self, 0)

    def to_json(self) -> dict:
        return {"rank": self.rank, "dyadic": self.dyadic}

    @staticmethod
    def from_json(obj: dict) -> "LambdaGroup":
        rank, dyadic = obj["rank"], obj.get("dyadic", False)
        if isinstance(rank, bool) or not isinstance(rank, int):
            raise DomainError(f"group rank {rank!r} is not an integer")
        if rank > MAX_RANK:
            raise DomainError(f"group rank {rank} exceeds the bound {MAX_RANK}")
        if not isinstance(dyadic, bool):
            raise DomainError(f"group dyadic flag {dyadic!r} is not true or false")
        return LambdaGroup(rank, dyadic)


def _checked(coords, group: LambdaGroup):
    """Validated coordinates as (numerators, exponent)."""
    if len(coords) != group.rank:
        raise DomainError(f"expected {group.rank} coordinates, got {len(coords)}")
    for c in coords:
        if not isinstance(c, Fraction):
            raise DomainError("coordinates must be Fractions")
        if not group.admits(c):
            kind = "dyadic rationals" if group.dyadic else "integers"
            raise DomainError(f"coordinate {c} is not allowed; expected {kind}")
    den = max(c.denominator for c in coords)
    return tuple(c.numerator * (den // c.denominator) for c in coords), den.bit_length() - 1


def _reduced(num: tuple, exp: int, group: LambdaGroup) -> "LambdaElement":
    """The element num / 2**exp, with exp made minimal."""
    m = 0
    for n in num:
        m |= n
    if not m:
        return LambdaElement(num, group, 0)
    shift = min((m & -m).bit_length() - 1, exp)
    if shift:
        num = tuple(n >> shift for n in num)
    return LambdaElement(num, group, exp - shift)


def _aligned(x: "LambdaElement", y: "LambdaElement"):
    """Numerators of x and y over the larger of their exponents."""
    d = x._exp - y._exp
    if d >= 0:
        return x._num, tuple(n << d for n in y._num), x._exp
    return tuple(n << -d for n in x._num), y._num, y._exp


class LambdaElement:
    """One group element; supports +, -, unary -, integer scaling and order.

    ``LambdaElement(coords, group)`` takes a sequence of Fractions and
    checks it.  Elements are immutable: assigning an attribute raises
    ``FrozenInstanceError``, an ``AttributeError``.
    """

    # value = _num / 2**_exp with _exp minimal, so equal elements have
    # equal slots; _exp is always 0 in an integer group
    __slots__ = ("_num", "_exp", "group")

    def __init__(self, coords, group: LambdaGroup, _exp=None) -> None:
        # given _exp, coords are numerators already reduced over 2**_exp
        if _exp is None:
            coords, _exp = _checked(coords, group)
        _set_num(self, coords)
        _set_exp(self, _exp)
        _set_group(self, group)

    @property
    def coords(self) -> tuple:
        """The coordinate values: ints when the exponent is 0, else Fractions."""
        if not self._exp:
            return self._num
        den = 1 << self._exp
        return tuple(Fraction(n, den) for n in self._num)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (LambdaElement, (self._num, self.group, self._exp))

    def __repr__(self) -> str:
        return f"LambdaElement(coords={self.coords!r}, group={self.group!r})"

    def __eq__(self, other):
        if other.__class__ is not LambdaElement:
            return NotImplemented
        return self._num == other._num and self._exp == other._exp and (
            other.group is self.group or other.group == self.group
        )

    def __hash__(self) -> int:
        # the hash of the values, equal to that of their Fraction tuple
        return hash((self.coords, self.group))

    def _require_same_group(self, other: "LambdaElement") -> None:
        if not isinstance(other, LambdaElement):
            raise GroupMismatch(f"cannot combine LambdaElement with {type(other).__name__}")
        if other.group is not self.group and other.group != self.group:
            raise GroupMismatch(f"group mismatch: {self.group} vs {other.group}")

    def __add__(self, other: "LambdaElement") -> "LambdaElement":
        group = self.group
        if other.__class__ is not LambdaElement or other.group is not group:
            self._require_same_group(other)
        exp = self._exp
        if exp == other._exp:
            num = tuple(map(add, self._num, other._num))
            return _reduced(num, exp, group) if exp else LambdaElement(num, group, 0)
        a, b, exp = _aligned(self, other)
        return LambdaElement(tuple(map(add, a, b)), group, exp)

    def __sub__(self, other: "LambdaElement") -> "LambdaElement":
        group = self.group
        if other.__class__ is not LambdaElement or other.group is not group:
            self._require_same_group(other)
        exp = self._exp
        if exp == other._exp:
            num = tuple(map(sub, self._num, other._num))
            return _reduced(num, exp, group) if exp else LambdaElement(num, group, 0)
        a, b, exp = _aligned(self, other)
        return LambdaElement(tuple(map(sub, a, b)), group, exp)

    def __neg__(self) -> "LambdaElement":
        return LambdaElement(tuple(map(neg, self._num)), self.group, self._exp)

    def __mul__(self, k: int) -> "LambdaElement":
        if not isinstance(k, int):
            raise DomainError("scaling is defined for integer multiples only")
        num = tuple(a * k for a in self._num)
        if self._exp:
            return _reduced(num, self._exp, self.group)
        return LambdaElement(num, self.group, 0)

    __rmul__ = __mul__

    def _numerators(self, other):
        """Numerators of self and other over one exponent, for ordering.

        None when other is not an element; GroupMismatch across groups.
        """
        if other.__class__ is not LambdaElement or other.group is not self.group:
            if not isinstance(other, LambdaElement):
                return None
            self._require_same_group(other)
        if self._exp == other._exp:
            return self._num, other._num
        return _aligned(self, other)[:2]

    def __lt__(self, other):
        pair = self._numerators(other)
        return NotImplemented if pair is None else pair[0] < pair[1]

    def __le__(self, other):
        pair = self._numerators(other)
        return NotImplemented if pair is None else pair[0] <= pair[1]

    def __gt__(self, other):
        pair = self._numerators(other)
        return NotImplemented if pair is None else pair[0] > pair[1]

    def __ge__(self, other):
        pair = self._numerators(other)
        return NotImplemented if pair is None else pair[0] >= pair[1]

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_positive(self) -> bool:
        return self.sign() > 0

    def sign(self) -> int:
        for c in self._num:
            if c > 0:
                return 1
            if c < 0:
                return -1
        return 0

    def abs(self) -> "LambdaElement":
        return self if self.sign() >= 0 else -self

    def to_json(self) -> list:
        return [str(c) for c in self.coords]

    @staticmethod
    def from_json(obj: Sequence, group: LambdaGroup) -> "LambdaElement":
        if isinstance(obj, str):
            raise TypeError(f"coordinates {obj!r} must be a list, not a string")
        return group.element(*[bounded_fraction(str(c)) for c in obj])

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"


# The slots' own setters: __setattr__ refuses every assignment, __init__
# uses these.
_set_num = LambdaElement._num.__set__
_set_exp = LambdaElement._exp.__set__
_set_group = LambdaElement.group.__set__


@dataclass(frozen=True)
class ConvexSubgroup:
    """The convex subgroup of elements whose first ``depth`` coordinates vanish.

    depth=0 is the whole group, depth=rank the trivial subgroup.  The
    quotient map keeps the first ``depth`` coordinates, which are exactly
    the ones the subgroup cannot see.
    """

    group: LambdaGroup
    depth: int

    def __post_init__(self) -> None:
        if not 0 <= self.depth <= self.group.rank:
            raise DomainError(f"depth must lie in [0, {self.group.rank}]")

    def contains(self, x: LambdaElement) -> bool:
        if x.group is not self.group and x.group != self.group:
            raise GroupMismatch("element outside the ambient group")
        return not any(x._num[: self.depth])

    def quotient_group(self) -> LambdaGroup:
        return LambdaGroup(max(self.depth, 1), self.group.dyadic)


def convex_quotient(x: LambdaElement, subgroup: ConvexSubgroup) -> LambdaElement:
    """Image of x in the quotient by a convex subgroup."""
    if x.group is not subgroup.group and x.group != subgroup.group:
        raise GroupMismatch("element and subgroup live in different groups")
    if subgroup.depth == 0:
        return subgroup.quotient_group().zero()
    return _reduced(x._num[: subgroup.depth], x._exp, subgroup.quotient_group())


def embedding(source: LambdaGroup, target: LambdaGroup):
    """The order embedding of ``source`` in ``target`` as a function on elements.

    It appends zero coordinates up to the target's rank; an integer group
    embeds in a dyadic one.  Raises EmbeddingError when there is none.
    """
    if target.rank < source.rank:
        raise EmbeddingError("target group rank is smaller than the source rank")
    if source.dyadic and not target.dyadic:
        raise EmbeddingError("dyadic lengths do not embed in an integer group")
    pad = (0,) * (target.rank - source.rank)

    def embed(x: LambdaElement) -> LambdaElement:
        return LambdaElement(x._num + pad, target, x._exp)

    return embed


def in_two_lambda(x: LambdaElement) -> bool:
    """Whether x is twice some element of its own group."""
    return x.group.dyadic or not any(c & 1 for c in x._num)


def half_in_group(x: LambdaElement) -> LambdaElement:
    """x/2 inside the same group; raises DomainError when 2 does not divide x."""
    if not in_two_lambda(x):
        raise DomainError(f"{x} is not divisible by 2 in its group")
    if x.group.dyadic:
        return _reduced(x._num, x._exp + 1, x.group)
    return LambdaElement(tuple(c >> 1 for c in x._num), x.group, 0)


def ratio(x: LambdaElement, y: LambdaElement):
    """Archimedean ratio x/y for nonnegative x, y as a Fraction or math.inf.

    Governed by leading coordinates: at the first position where either
    element is nonzero, the ratio is the quotient of the entries, with 0
    when x is infinitesimal against y and infinity the other way round.
    """
    x._require_same_group(y)
    if x.sign() < 0 or y.sign() < 0:
        raise DomainError("ratio requires nonnegative elements")
    if x.is_zero() and y.is_zero():
        raise UndefinedRatio("ratio of zero by zero")
    a_num, b_num, _ = _aligned(x, y)
    for a, b in zip(a_num, b_num):
        if a == 0 and b == 0:
            continue
        if b == 0:
            return math.inf
        if a == 0:
            return Fraction(0)
        return Fraction(a, b)
    raise UndefinedRatio("ratio of zero by zero")
