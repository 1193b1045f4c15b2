"""The lattice tree by matrices and search, kept as the oracle for ``sl2``.

This is how ``lattice_distance``, ``neighbors`` and ``find_fixed_vertex``
worked before they read the tree off the ball picture:

- the distance is the gap between the two elementary divisors of the
  change-of-basis matrix x^-1 y;
- the neighbors are the canonical forms of x [[p, j], [0, 1]] for
  j = 0..p-1, then of x [[1, 0], [0, p]];
- a ball is the breadth-first search over those neighbors;
- the fixed vertex is the first vertex that g fixes in breadth-first
  order around the base vertex, within the radius.

It shares with the library only ``act``, ``canonical_vertex``, the
valuation, and the checks ``_require_sl2`` and ``_residue_prime``, so
that errors can be compared by class and message.
"""

from collections import deque

from lambdatrees.errors import DomainError, FieldMismatch
from lambdatrees.sl2 import (
    LatticeBall,
    Mat2,
    _require_sl2,
    _residue_prime,
    act,
    base_vertex,
    canonical_vertex,
)
from lambdatrees.valuation import INFINITY, is_infinite


def lattice_distance(x, y):
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


def neighbors(x):
    field = x.field
    p = _residue_prime(field)
    base = x.matrix()
    out = []
    for lift in range(p):
        out.append(canonical_vertex(base * Mat2.of(field, p, lift, 0, 1)))
    out.append(canonical_vertex(base * Mat2.of(field, 1, 0, 0, p)))
    return out


def ball_order(center, radius):
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


def ball(center, radius):
    order, edges, dist = [], [], {}
    for x, parent, d in ball_order(center, radius):
        order.append(x)
        dist[x] = d
        if parent is not None:
            edges.append((parent, x))
    return LatticeBall(center, radius, order, edges, dist)


def find_fixed_vertex(g, radius=None):
    _require_sl2(g)
    v = g.field.valuation_int(g.trace())
    if radius is None:
        radius = 2 if is_infinite(v) else abs(2 * v) + 2
    for x, _, _ in ball_order(base_vertex(g.field), radius):
        if not is_infinite(v) and v < 0:
            return None  # hyperbolic; the search has checked its radius and field
        if act(g, x) == x:
            return x
    return None
