"""The tree of lattice classes in K^2 over a discretely valued field.

Vertices are homothety classes of rank-2 modules over the valuation
ring, held in a canonical triangular form [[pi^n, u], [0, 1]] with u a
canonical representative modulo pi^n.  The class determines (n, u)
uniquely, so equality and hashing are structural.  The class L(n; u) is
the closed ball {x : v(x - u) >= n} (Serre, Trees, ch. II.1), so the
tree is the tree of balls: distances, neighbors and geodesics are read
off levels and the valuation v(w - u), and the tree itself is never
stored.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from .errors import (
    DeterminantNotOne,
    DomainError,
    FieldMismatch,
    InfiniteResidueField,
    SingularLattice,
)
from .ordered import LambdaElement
from .valuation import ValuedField, is_infinite

MAX_RESIDUE_PRIME = 13
MAX_BALL_VERTICES = 100_000  # 1 + (p+1)(p^r - 1)/(p - 1), checked before ball enumerates


@dataclass(frozen=True)
class Mat2:
    """A 2x2 matrix over a valued field, row major."""

    field: ValuedField
    a: object
    b: object
    c: object
    d: object

    @staticmethod
    def of(field: ValuedField, a, b, c, d) -> "Mat2":
        return Mat2(field, field.coerce(a), field.coerce(b), field.coerce(c), field.coerce(d))

    @staticmethod
    def identity(field: ValuedField) -> "Mat2":
        one, zero = field.one(), field.zero()
        return Mat2(field, one, zero, zero, one)

    @staticmethod
    def from_json(field: ValuedField, entries) -> "Mat2":
        if len(entries) != 4:
            raise DomainError("a matrix needs exactly four entries")
        a, b, c, d = (field.element_from_string(s) for s in entries)
        return Mat2(field, a, b, c, d)

    def det(self):
        return self.a * self.d - self.b * self.c

    def trace(self):
        return self.a + self.d

    def __mul__(self, other: "Mat2") -> "Mat2":
        if not isinstance(other, Mat2):
            return NotImplemented
        if other.field != self.field:
            raise FieldMismatch("matrices over different fields")
        return Mat2(
            self.field,
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Mat2":
        det = self.det()
        if det == self.field.zero():
            raise SingularLattice("matrix is singular")
        return Mat2(self.field, self.d / det, -self.b / det, -self.c / det, self.a / det)

    # computed once per matrix: every act, length and fixed-vertex call checks it
    @cached_property
    def _unimodular(self) -> bool:
        return self.det() == self.field.one()

    def entries(self) -> tuple:
        return (self.a, self.b, self.c, self.d)

    def to_json(self) -> list:
        return [self.field.element_to_string(x) for x in self.entries()]

    def __str__(self):
        a, b, c, d = (self.field.element_to_string(x) for x in self.entries())
        return f"[[{a}, {b}], [{c}, {d}]]"


def _require_sl2(g: Mat2) -> None:
    if not g._unimodular:
        raise DeterminantNotOne(f"determinant is {g.field.element_to_string(g.det())}")


@dataclass(frozen=True)
class LatticeVertex:
    """Homothety class of a lattice, as the canonical pair (level, shift).

    The canonical basis matrix is [[pi^level, shift], [0, 1]] with shift
    already reduced modulo pi^level times the valuation ring.  The class
    is the ball of center shift and radius |pi|^level.
    """

    field: ValuedField
    level: int
    shift: object

    def matrix(self) -> Mat2:
        pi_n = self.field.uniformizer() ** self.level
        return Mat2(self.field, pi_n, self.shift, self.field.zero(), self.field.one())

    def to_json(self) -> list:
        return self.matrix().to_json()

    def label(self) -> str:
        return f"L({self.level}; {self.field.element_to_string(self.shift)})"

    def __str__(self):
        return self.label()


def base_vertex(field: ValuedField) -> LatticeVertex:
    return LatticeVertex(field, 0, field.zero())


def canonical_vertex(basis: Mat2) -> LatticeVertex:
    """Reduce a basis to the canonical class representative.

    Column operations over the valuation ring preserve the lattice, and
    scaling the whole matrix moves within the homothety class; together
    they reach [[pi^n, u], [0, 1]] with u canonical modulo pi^n.
    """
    field = basis.field
    zero = field.zero()
    a, b, c, d = basis.entries()
    if a * d - b * c == zero:
        raise SingularLattice("columns do not span a lattice")
    if c != zero:
        vc = field.valuation_int(c)
        vd = field.valuation_int(d)
        if d == zero or vc < vd:
            a, b = b, a
            c, d = d, c
        t = c / d  # in the valuation ring by the pivot choice
        a = a - t * b
        c = zero
    # now the matrix is [[a, b], [0, d]]: remove homothety by d
    a1 = a / d
    u0 = b / d
    n = field.valuation_int(a1)
    u = field.canonical_mod(u0, n)
    return LatticeVertex(field, n, u)


def _join_level(x: LatticeVertex, y: LatticeVertex) -> int:
    """Level of the smallest ball holding both: min(n, m, v(w - u))."""
    return min(x.level, y.level, x.field.valuation_int(y.shift - x.shift))


def lattice_distance(x: LatticeVertex, y: LatticeVertex) -> LambdaElement:
    """Tree distance n + m - 2k between L(n; u) and L(m; w), with k the
    level of the smallest ball holding both."""
    if x.field != y.field:
        raise FieldMismatch("vertices over different fields")
    return x.field.value_group.element(x.level + y.level - 2 * _join_level(x, y))


def act(g: Mat2, x: LatticeVertex) -> LatticeVertex:
    """The lattice class of g applied to x's lattice."""
    _require_sl2(g)
    if g.field != x.field:
        raise FieldMismatch("matrix and vertex over different fields")
    return canonical_vertex(g * x.matrix())


def _residue_prime(field: ValuedField) -> int:
    """p, or the error for a residue field neighbors cannot enumerate."""
    if field.kind != "p_adic":
        raise InfiniteResidueField("neighbor enumeration needs a finite residue field")
    if field.p > MAX_RESIDUE_PRIME:
        raise DomainError(f"residue field too large (p > {MAX_RESIDUE_PRIME})")
    return field.p


def _ball_prime(field: ValuedField, radius: int) -> Optional[int]:
    """p for a positive radius and None for radius 0, or the error for a
    ball of this radius that cannot be enumerated."""
    if radius < 0:
        raise DomainError("radius must be nonnegative")
    return _residue_prime(field) if radius > 0 else None


def neighbors(x: LatticeVertex) -> List[LatticeVertex]:
    """The adjacent classes, one per point of the residue projective line:
    the p balls L(n+1; u + j pi^n) inside L(n; u), then the ball L(n-1; u)
    around it."""
    field = x.field
    p = _residue_prime(field)
    n, u = x.level, x.shift
    step = field.uniformizer() ** n
    out = [LatticeVertex(field, n + 1, field.canonical_mod(u + j * step, n + 1))
           for j in range(p)]
    out.append(LatticeVertex(field, n - 1, field.canonical_mod(u, n - 1)))
    return out


@dataclass
class LatticeBall:
    """A BFS ball in the lattice tree: vertices in discovery order, the
    tree edges between them, and each vertex's distance from the center."""

    center: LatticeVertex
    radius: int
    vertices: List[LatticeVertex]
    edges: List[Tuple[LatticeVertex, LatticeVertex]]
    distance: Dict[LatticeVertex, int]


def ball(center: LatticeVertex, radius: int) -> LatticeBall:
    p = _ball_prime(center.field, radius)
    size = 1
    for k in range(radius):
        size += (p + 1) * p**k
        if size > MAX_BALL_VERTICES:
            raise DomainError(f"a radius-{radius} ball in the tree of Q_{p} has "
                              f"more than {MAX_BALL_VERTICES} vertices")
    order, edges, dist = [center], [], {center: 0}
    queue = deque([center])
    while queue:
        u = queue.popleft()
        if dist[u] < radius:
            for w in neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
                    order.append(w)
                    edges.append((u, w))
    return LatticeBall(center, radius, order, edges, dist)


def ball_to_dot(b: LatticeBall) -> str:
    lines = ["graph lattice_ball {"]
    index = {v: i for i, v in enumerate(b.vertices)}
    for v, i in index.items():
        lines.append(f'  n{i} [label="{v.label()}"];')
    for u, v in b.edges:
        lines.append(f"  n{index[u]} -- n{index[v]};")
    lines.append("}")
    return "\n".join(lines)


def sl2_translation_length(g: Mat2) -> LambdaElement:
    """max(0, -2 v(trace)): zero exactly when g fixes a vertex."""
    _require_sl2(g)
    v = g.field.valuation_int(g.trace())
    if is_infinite(v) or v >= 0:
        return g.field.value_group.zero()
    return g.field.value_group.element(-2 * v)


def find_fixed_vertex(g: Mat2, radius: Optional[int] = None) -> Optional[LatticeVertex]:
    """The vertex fixed by g nearest the base vertex x0, if it lies within radius.

    The default radius is |2 v(trace)| + 2.  A hyperbolic g (v(trace) < 0,
    so sl2_translation_length is positive) fixes no vertex.  SL2 acts
    without inversions, so for an elliptic g the vertex of Fix(g) nearest
    x0 is the midpoint of [x0, g x0]; it is returned once g is seen to fix
    it.  A radius raises as a ball of that radius would, although the
    midpoint needs no enumeration.
    """
    _require_sl2(g)
    field = g.field
    v = field.valuation_int(g.trace())
    if radius is None:
        radius = 2 if is_infinite(v) else abs(2 * v) + 2
    _ball_prime(field, radius)
    if v < 0:
        return None
    x0 = base_vertex(field)
    gx = act(g, x0)
    if gx == x0:
        return x0
    # the geodesic from x0 = L(0; 0) climbs to the join level k, then
    # descends through the balls holding g x0
    k = _join_level(x0, gx)
    half = (gx.level - 2 * k) // 2
    if half > radius:
        return None
    if half <= -k:
        mid = LatticeVertex(field, -half, field.zero())
    else:
        level = 2 * k + half
        mid = LatticeVertex(field, level, field.canonical_mod(gx.shift, level))
    return mid if act(g, mid) == mid else None
