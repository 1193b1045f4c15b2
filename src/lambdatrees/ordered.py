"""Exact arithmetic in finite-rank ordered abelian groups.

Elements are k-tuples of rationals compared lexicographically.  A group
with ``dyadic=False`` restricts coordinates to integers; ``dyadic=True``
allows power-of-two denominators, the group obtained by adjoining halves.
The trivial group is modelled as a subgroup (no generators) rather than
as a group object of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import DomainError, GroupMismatch, UndefinedRatio

Rational = Union[int, str, Fraction]


def _to_fraction(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
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
        return LambdaElement((Fraction(0),) * self.rank, self)

    def dyadic_extension(self) -> "LambdaGroup":
        return LambdaGroup(self.rank, True)

    def to_json(self) -> dict:
        return {"rank": self.rank, "dyadic": self.dyadic}

    @staticmethod
    def from_json(obj: dict) -> "LambdaGroup":
        return LambdaGroup(int(obj["rank"]), bool(obj.get("dyadic", False)))


@dataclass(frozen=True)
class LambdaElement:
    """One group element; supports +, -, unary -, integer scaling and order."""

    coords: tuple
    group: LambdaGroup

    def __post_init__(self) -> None:
        if len(self.coords) != self.group.rank:
            raise DomainError(
                f"expected {self.group.rank} coordinates, got {len(self.coords)}"
            )
        for c in self.coords:
            if not isinstance(c, Fraction):
                raise DomainError("coordinates must be Fractions")
            if not self.group.admits(c):
                kind = "dyadic rationals" if self.group.dyadic else "integers"
                raise DomainError(f"coordinate {c} is not allowed; expected {kind}")

    def _require_same_group(self, other: "LambdaElement") -> None:
        if not isinstance(other, LambdaElement):
            raise GroupMismatch(f"cannot combine LambdaElement with {type(other).__name__}")
        if other.group != self.group:
            raise GroupMismatch(f"group mismatch: {self.group} vs {other.group}")

    def __add__(self, other: "LambdaElement") -> "LambdaElement":
        self._require_same_group(other)
        return LambdaElement(
            tuple(a + b for a, b in zip(self.coords, other.coords)), self.group
        )

    def __sub__(self, other: "LambdaElement") -> "LambdaElement":
        self._require_same_group(other)
        return LambdaElement(
            tuple(a - b for a, b in zip(self.coords, other.coords)), self.group
        )

    def __neg__(self) -> "LambdaElement":
        return LambdaElement(tuple(-a for a in self.coords), self.group)

    def __mul__(self, k: int) -> "LambdaElement":
        if not isinstance(k, int):
            raise DomainError("scaling is defined for integer multiples only")
        return LambdaElement(tuple(a * k for a in self.coords), self.group)

    __rmul__ = __mul__

    def __lt__(self, other):
        if not isinstance(other, LambdaElement):
            return NotImplemented
        self._require_same_group(other)
        return self.coords < other.coords

    def __le__(self, other):
        if not isinstance(other, LambdaElement):
            return NotImplemented
        self._require_same_group(other)
        return self.coords <= other.coords

    def __gt__(self, other):
        if not isinstance(other, LambdaElement):
            return NotImplemented
        self._require_same_group(other)
        return self.coords > other.coords

    def __ge__(self, other):
        if not isinstance(other, LambdaElement):
            return NotImplemented
        self._require_same_group(other)
        return self.coords >= other.coords

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_positive(self) -> bool:
        return not self.is_zero() and self > self.group.zero()

    def sign(self) -> int:
        for c in self.coords:
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
        return group.element(*[Fraction(str(c)) for c in obj])

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"


def compare(x: LambdaElement, y: LambdaElement) -> int:
    """Lexicographic trichotomy: -1, 0 or 1."""
    x._require_same_group(y)
    if x.coords < y.coords:
        return -1
    if x.coords == y.coords:
        return 0
    return 1


def group_rank(group: LambdaGroup, generators: Iterable[LambdaElement] | None = None) -> int:
    """Rank of the group, or of the subgroup spanned by ``generators``.

    The rank counts proper steps in the maximal chain of convex subgroups.
    For a subgroup of the lexicographic model it equals the number of
    distinct leading coordinate positions in the subgroup, computed here
    by exact row reduction (the integer span and the rational span have
    the same leading positions).
    """
    if generators is None:
        return group.rank
    rows = []
    for g in generators:
        if g.group != group:
            raise GroupMismatch("generator outside the ambient group")
        rows.append(list(g.coords))
    pivots = set()
    col = 0
    r = 0
    while r < len(rows) and col < group.rank:
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            col += 1
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivots.add(col)
        for i in range(r + 1, len(rows)):
            if rows[i][col] != 0:
                factor = rows[i][col] / rows[r][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        r += 1
        col += 1
    return len(pivots)


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
        if x.group != self.group:
            raise GroupMismatch("element outside the ambient group")
        return all(c == 0 for c in x.coords[: self.depth])

    def quotient_group(self) -> LambdaGroup:
        return LambdaGroup(max(self.depth, 1), self.group.dyadic)

    def fiber_group(self) -> LambdaGroup:
        """Group receiving the coordinates the quotient forgets."""
        return LambdaGroup(max(self.group.rank - self.depth, 1), self.group.dyadic)

    def fiber_part(self, x: LambdaElement) -> LambdaElement:
        """Image of a subgroup member inside the fiber group."""
        if not self.contains(x):
            raise DomainError("element is not in the convex subgroup")
        coords = x.coords[self.depth :]
        if not coords:
            coords = (Fraction(0),)
        return LambdaElement(tuple(coords), self.fiber_group())


def convex_quotient(x: LambdaElement, subgroup: ConvexSubgroup) -> LambdaElement:
    """Image of x in the quotient by a convex subgroup."""
    if x.group != subgroup.group:
        raise GroupMismatch("element and subgroup live in different groups")
    if subgroup.depth == 0:
        return subgroup.quotient_group().zero()
    return LambdaElement(x.coords[: subgroup.depth], subgroup.quotient_group())


def in_two_lambda(x: LambdaElement) -> bool:
    """Whether x is twice some element of its own group."""
    return all(x.group.admits(c / 2) for c in x.coords)


def halve(x: LambdaElement) -> LambdaElement:
    """x/2 inside the dyadic extension of the group."""
    return LambdaElement(tuple(c / 2 for c in x.coords), x.group.dyadic_extension())


def half_in_group(x: LambdaElement) -> LambdaElement:
    """x/2 inside the same group; raises DomainError when 2 does not divide x."""
    if not in_two_lambda(x):
        raise DomainError(f"{x} is not divisible by 2 in its group")
    return LambdaElement(tuple(c / 2 for c in x.coords), x.group)


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
    for a, b in zip(x.coords, y.coords):
        if a == 0 and b == 0:
            continue
        if b == 0:
            return math.inf
        if a == 0:
            return Fraction(0)
        return a / b
    raise UndefinedRatio("ratio of zero by zero")
