"""Shared oracles and builders used across the test suite.

These are deliberately naive reimplementations (counting scans, brute
force graph search) so that library results can be checked against
independent computations.
"""

from fractions import Fraction


def ratio_by_counting(x, y, bound=1000):
    """sup{m/n : m*y <= n*x lexicographically, 0 <= m,n <= bound}.

    Returns a Fraction, or the string "inf" when every m works for some n.
    """

    def scale(k, v):
        return tuple(k * c for c in v)

    best = None
    saturated = False
    for n in range(1, bound + 1):
        top = None
        for m in range(bound, -1, -1):
            if scale(m, y) <= scale(n, x):
                top = m
                break
        if top is None:
            continue
        if top == bound:
            saturated = True
        q = Fraction(top, n)
        if best is None or q > best:
            best = q
    if saturated and best == Fraction(bound, 1):
        return "inf"
    return best


def arc_length(sub):
    """The summed length of a subtree's arcs; member vertices add nothing."""
    total = sub.tree.group.zero()
    for spans in sub.arcs.values():
        for lo, hi in spans:
            total = total + (hi - lo)
    return total


def diameter(sub):
    """The largest distance between two of a subtree's boundary points."""
    points = sub.boundary_points()
    return max((sub.tree.distance(p, q) for p in points for q in points),
               default=sub.tree.group.zero())
