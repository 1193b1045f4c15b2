"""Reference model of the ordered-group kernel, the test oracle for it.

This is ``lambdatrees.ordered`` as it was before elements became slotted,
integer-coded objects: a frozen dataclass holding a tuple of
``Fraction``s that re-validates every coordinate on every construction.
It shares only ``LambdaGroup`` (a plain value: rank and dyadic flag) with
the library.  ``tests/test_ordered_kernel.py`` checks the library against
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from lambdatrees.errors import DomainError, GroupMismatch, UndefinedRatio
from lambdatrees.ordered import LambdaGroup


@dataclass(frozen=True)
class ReferenceElement:
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

    @staticmethod
    def of(group: LambdaGroup, *values) -> "ReferenceElement":
        return ReferenceElement(tuple(Fraction(v) for v in values), group)

    @staticmethod
    def from_json(obj, group: LambdaGroup) -> "ReferenceElement":
        return ReferenceElement(tuple(Fraction(str(c)) for c in obj), group)

    def _require_same_group(self, other) -> None:
        if not isinstance(other, ReferenceElement):
            raise GroupMismatch(f"cannot combine LambdaElement with {type(other).__name__}")
        if other.group != self.group:
            raise GroupMismatch(f"group mismatch: {self.group} vs {other.group}")

    def __add__(self, other):
        self._require_same_group(other)
        return ReferenceElement(
            tuple(a + b for a, b in zip(self.coords, other.coords)), self.group
        )

    def __sub__(self, other):
        self._require_same_group(other)
        return ReferenceElement(
            tuple(a - b for a, b in zip(self.coords, other.coords)), self.group
        )

    def __neg__(self):
        return ReferenceElement(tuple(-a for a in self.coords), self.group)

    def __mul__(self, k: int):
        if not isinstance(k, int):
            raise DomainError("scaling is defined for integer multiples only")
        return ReferenceElement(tuple(a * k for a in self.coords), self.group)

    __rmul__ = __mul__

    def __lt__(self, other):
        if not isinstance(other, ReferenceElement):
            return NotImplemented
        self._require_same_group(other)
        return self.coords < other.coords

    def __le__(self, other):
        if not isinstance(other, ReferenceElement):
            return NotImplemented
        self._require_same_group(other)
        return self.coords <= other.coords

    def __gt__(self, other):
        if not isinstance(other, ReferenceElement):
            return NotImplemented
        self._require_same_group(other)
        return self.coords > other.coords

    def __ge__(self, other):
        if not isinstance(other, ReferenceElement):
            return NotImplemented
        self._require_same_group(other)
        return self.coords >= other.coords

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def sign(self) -> int:
        for c in self.coords:
            if c > 0:
                return 1
            if c < 0:
                return -1
        return 0

    def is_positive(self) -> bool:
        return self.sign() > 0

    def abs(self):
        return self if self.sign() >= 0 else -self

    def to_json(self) -> list:
        return [str(c) for c in self.coords]

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"


def compare(x, y) -> int:
    x._require_same_group(y)
    if x.coords < y.coords:
        return -1
    if x.coords == y.coords:
        return 0
    return 1


def contains(group: LambdaGroup, depth: int, x) -> bool:
    return all(c == 0 for c in x.coords[:depth])


def convex_quotient(group: LambdaGroup, depth: int, x):
    quotient = LambdaGroup(max(depth, 1), group.dyadic)
    if depth == 0:
        return ReferenceElement((Fraction(0),), quotient)
    return ReferenceElement(x.coords[:depth], quotient)


def in_two_lambda(x) -> bool:
    return all(x.group.admits(c / 2) for c in x.coords)


def half_in_group(x):
    if not in_two_lambda(x):
        raise DomainError(f"{x} is not divisible by 2 in its group")
    return ReferenceElement(tuple(c / 2 for c in x.coords), x.group)


def ratio(x, y):
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
