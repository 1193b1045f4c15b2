"""The tree of lattice classes in K^2 over a discretely valued field.

Vertices are homothety classes of rank-2 modules over the valuation
ring, held in a canonical triangular form [[pi^n, u], [0, 1]] with u a
canonical representative modulo pi^n.  The class determines (n, u)
uniquely, so equality and hashing are structural.  The tree itself is
never stored; neighbors are produced on demand and ball searches stay
small because the degree is residue-field size plus one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .errors import (
    DeterminantNotOne,
    DomainError,
    FieldMismatch,
    InfiniteResidueField,
    SingularLattice,
)
from .ordered import LambdaElement
from .valuation import INFINITY, ValuedField, is_infinite

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

    def scale(self, alpha) -> "Mat2":
        alpha = self.field.coerce(alpha)
        return Mat2(self.field, self.a * alpha, self.b * alpha, self.c * alpha, self.d * alpha)

    def inverse(self) -> "Mat2":
        det = self.det()
        if det == self.field.zero():
            raise SingularLattice("matrix is singular")
        return Mat2(self.field, self.d / det, -self.b / det, -self.c / det, self.a / det)

    def is_unimodular(self) -> bool:
        return self.det() == self.field.one()

    def entries(self) -> tuple:
        return (self.a, self.b, self.c, self.d)

    def to_json(self) -> list:
        return [self.field.element_to_string(x) for x in self.entries()]

    def __str__(self):
        a, b, c, d = (self.field.element_to_string(x) for x in self.entries())
        return f"[[{a}, {b}], [{c}, {d}]]"


def _require_sl2(g: Mat2) -> None:
    if not g.is_unimodular():
        raise DeterminantNotOne(f"determinant is {g.field.element_to_string(g.det())}")


@dataclass(frozen=True)
class LatticeVertex:
    """Homothety class of a lattice, as the canonical pair (level, shift).

    The canonical basis matrix is [[pi^level, shift], [0, 1]] with shift
    already reduced modulo pi^level times the valuation ring.
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


def lattice_distance(x: LatticeVertex, y: LatticeVertex) -> LambdaElement:
    """Tree distance: gap between the two elementary divisors of the
    change-of-basis matrix."""
    if x.field != y.field:
        raise FieldMismatch("vertices over different fields")
    field = x.field
    g = x.matrix().inverse() * y.matrix()
    vdet = field.valuation_int(g.det())
    vmin = INFINITY
    for entry in g.entries():
        v = field.valuation_int(entry)
        if not is_infinite(v) and (is_infinite(vmin) or v < vmin):
            vmin = v
    return field.value_group.element(vdet - 2 * vmin)


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


def neighbors(x: LatticeVertex) -> List[LatticeVertex]:
    """The adjacent classes: one per point of the residue projective line."""
    field = x.field
    p = _residue_prime(field)
    base = x.matrix()
    out = []
    for lift in range(p):
        sub = Mat2.of(field, p, lift, 0, 1)
        out.append(canonical_vertex(base * sub))
    out.append(canonical_vertex(base * Mat2.of(field, 1, 0, 0, p)))
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


def _ball_order(center: LatticeVertex, radius: int) -> Iterator[tuple]:
    """(vertex, parent, distance) over the ball in discovery order, the
    center first with parent None.  The radius and the residue field are
    checked before the center is yielded."""
    if radius < 0:
        raise DomainError("radius must be nonnegative")
    if radius > 0:
        _residue_prime(center.field)
    dist = {center: 0}
    queue = deque([center])
    yield center, None, 0
    while queue:
        u = queue.popleft()
        if dist[u] < radius:
            for w in neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
                    yield w, u, dist[w]


def ball(center: LatticeVertex, radius: int) -> LatticeBall:
    p = _residue_prime(center.field) if radius > 0 else None
    size = 1
    for k in range(radius):
        size += (p + 1) * p**k
        if size > MAX_BALL_VERTICES:
            raise DomainError(f"a radius-{radius} ball in the tree of Q_{p} has "
                              f"more than {MAX_BALL_VERTICES} vertices")
    order, edges, dist = [], [], {}
    for x, parent, d in _ball_order(center, radius):
        order.append(x)
        dist[x] = d
        if parent is not None:
            edges.append((parent, x))
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
    """The first vertex fixed by g in breadth-first order around the base vertex.

    The default radius is |2 v(trace)| + 2.  A fixed vertex of an
    elliptic element is the midpoint of the segment from any vertex to
    its image, so enlarging the radius only helps off-center inputs.  A
    hyperbolic g (v(trace) < 0, so sl2_translation_length is positive)
    fixes no vertex, and the search is skipped.
    """
    _require_sl2(g)
    v = g.field.valuation_int(g.trace())
    if radius is None:
        radius = 2 if is_infinite(v) else abs(2 * v) + 2
    for x, _, _ in _ball_order(base_vertex(g.field), radius):
        if not is_infinite(v) and v < 0:
            return None  # hyperbolic; the search has checked its radius and field
        if act(g, x) == x:
            return x
    return None


def stabilizer_membership(g: Mat2, which: str) -> bool:
    """Membership in the vertex stabilizer, edge stabilizer, or its twin.

    sl2_O: all entries in the valuation ring (stabilizer of the base
    vertex).  delta: additionally v(c) >= 1 (stabilizer of the edge to
    the diag(1, pi) neighbor).  sl2_O_conjugate: conjugate of sl2_O by
    diag(1, pi), the stabilizer of that neighbor itself.
    """
    _require_sl2(g)
    field = g.field
    va = field.valuation_int(g.a)
    vb = field.valuation_int(g.b)
    vc = field.valuation_int(g.c)
    vd = field.valuation_int(g.d)
    ring = va >= 0 and vb >= 0 and vc >= 0 and vd >= 0
    if which == "sl2_O":
        return ring
    if which == "delta":
        return ring and vc >= 1
    if which == "sl2_O_conjugate":
        return va >= 0 and vd >= 0 and vb >= -1 and vc >= 1
    raise DomainError(f"unknown stabilizer {which!r}")


def entry_valuation_displacement(g: Mat2) -> LambdaElement:
    """Reference value: |smallest entry valuation|.

    An alternative displacement convention; it differs from the
    elementary-divisor metric by a factor of two on diagonal elements,
    so it is exposed for comparison and never used internally.
    """
    _require_sl2(g)
    field = g.field
    vmin = None
    for entry in g.entries():
        v = field.valuation_int(entry)
        if not is_infinite(v) and (vmin is None or v < vmin):
            vmin = v
    return field.value_group.element(abs(vmin))
