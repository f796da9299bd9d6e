"""Exact rational geometry for axis-aligned boxes and polylines.

Coordinates are ``fractions.Fraction`` or integers; every predicate is
decided by integer arithmetic, never by floating point.  The polyline predicates
(``polylines_disjoint``, ``chain_self_intersection``) first put all their
vertices over one common denominator (``lift``; an all-``int`` chain is
already there) and then decide every segment pair with ``segments_meet``,
on integers, with no gcd per operation.
``segment_intersection`` computes the intersection itself in ``Fraction``
arithmetic; the tests hold it as the reference for ``segments_meet``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence

Point = tuple[Fraction, ...]
Box = tuple[tuple[Fraction, Fraction], ...]  # per-axis (lo, hi) with lo < hi

ZERO = Fraction(0)
ONE = Fraction(1)


def vsub(p: Point, q: Point) -> Point:
    return tuple(a - b for a, b in zip(p, q))


def vlerp(p: Point, q: Point, t: Fraction) -> Point:
    return tuple(a + t * (b - a) for a, b in zip(p, q))


def boxes_disjoint(a: Box, b: Box) -> bool:
    """Closed boxes share no point iff they are separated along some axis."""
    return any(ahi < blo or bhi < alo for (alo, ahi), (blo, bhi) in zip(a, b))


def point_on_segment(z: Point, p: Point, q: Point) -> bool:
    d = vsub(q, p)
    if all(c == 0 for c in d):
        return z == p
    axis = next(i for i, c in enumerate(d) if c != 0)
    t = (z[axis] - p[axis]) / d[axis]
    if t < 0 or t > 1:
        return False
    return all(z[i] == p[i] + t * d[i] for i in range(len(p)))


def segment_intersection(p1: Point, q1: Point, p2: Point, q2: Point):
    """Exact intersection of two closed segments in R^m, any m >= 1.

    Returns one of:
      ("empty", None)
      ("point", z)
      ("overlap", (a, b))   -- collinear segments sharing a positive-length piece
    """
    m = len(p1)
    d1 = vsub(q1, p1)
    d2 = vsub(q2, p2)
    w = vsub(p2, p1)

    pair = None
    for i in range(m):
        for j in range(i + 1, m):
            det = d2[i] * d1[j] - d1[i] * d2[j]
            if det != 0:
                pair = (i, j, det)
                break
        if pair is not None:
            break

    if pair is None:
        return _parallel_intersection(p1, q1, p2, q2, d1, d2)

    i, j, det = pair
    t = (d2[i] * w[j] - w[i] * d2[j]) / det
    u = (d1[i] * w[j] - w[i] * d1[j]) / det
    # the 2x2 solve must be consistent with every remaining coordinate
    for c in range(m):
        if t * d1[c] - u * d2[c] != w[c]:
            return ("empty", None)
    if 0 <= t <= 1 and 0 <= u <= 1:
        return ("point", vlerp(p1, q1, t))
    return ("empty", None)


def _parallel_intersection(p1, q1, p2, q2, d1, d2):
    z1 = all(c == 0 for c in d1)
    z2 = all(c == 0 for c in d2)
    if z1 and z2:
        return ("point", p1) if p1 == p2 else ("empty", None)
    if z1:
        return ("point", p1) if point_on_segment(p1, p2, q2) else ("empty", None)
    if z2:
        return ("point", p2) if point_on_segment(p2, p1, q1) else ("empty", None)

    # parallel, both nondegenerate: collinear iff p2 - p1 is parallel to d1
    w = vsub(p2, p1)
    for i in range(len(d1)):
        for j in range(i + 1, len(d1)):
            if w[i] * d1[j] - d1[i] * w[j] != 0:
                return ("empty", None)

    axis = next(i for i, c in enumerate(d1) if c != 0)
    a = w[axis] / d1[axis]
    b = a + d2[axis] / d1[axis]
    if a > b:
        a, b = b, a
    lo = max(a, ZERO)
    hi = min(b, ONE)
    if lo > hi:
        return ("empty", None)
    if lo == hi:
        return ("point", vlerp(p1, q1, lo))
    return ("overlap", (vlerp(p1, q1, lo), vlerp(p1, q1, hi)))


def lift(points: Sequence[Point]) -> tuple[int, list[tuple[int, ...]]]:
    """(den, integer points): every coordinate put over den, the lcm of all
    the coordinate denominators.  Integer points keep the order, the
    equalities and the segment incidences of the rational ones."""
    den = math.lcm(*{c.denominator for v in points for c in v})
    return den, [tuple(c.numerator * (den // c.denominator) for c in v) for v in points]


def segments_meet(p1: Sequence[int], q1: Sequence[int], p2: Sequence[int],
                  q2: Sequence[int], adjacent: bool = False) -> bool:
    """Whether the closed segments p1q1 and p2q2 with integer coordinates
    share a point; for ``adjacent`` chain segments (q1 == p2), a point other
    than q1.

    Decided on integers with no division: p1 + t*d1 = p2 + u*d2 is solved on
    the first axis pair (i, j) whose determinant det is non-zero, as the
    numerators t*det and u*det with det > 0, which must satisfy every axis
    and lie in [0, det].  Parallel segments meet only if collinear (every
    minor of (p2 - p1, d1) is zero); they are then compared as intervals on
    the first axis where d1 is non-zero, scaled by d1 there.
    """
    d1 = [b - a for a, b in zip(p1, q1)]
    d2 = [b - a for a, b in zip(p2, q2)]
    w = [b - a for a, b in zip(p1, p2)]
    m = len(w)
    for i in range(m):
        for j in range(i + 1, m):
            det = d2[i] * d1[j] - d1[i] * d2[j]
            if det:
                if adjacent:
                    return False  # two lines through q1 meet only there
                tn = d2[i] * w[j] - w[i] * d2[j]
                un = d1[i] * w[j] - w[i] * d1[j]
                if det < 0:
                    det, tn, un = -det, -tn, -un
                return (0 <= tn <= det and 0 <= un <= det
                        and all(tn * a - un * b == c * det for a, b, c in zip(d1, d2, w)))
    if not any(d1):
        d1, d2, w = d2, d1, [-c for c in w]
        if not any(d1):
            return not any(w)  # two points
    if any(w[i] * d1[j] != d1[i] * w[j] for i in range(m) for j in range(i + 1, m)):
        return False  # parallel lines, not one line
    axis = next(i for i, c in enumerate(d1) if c)
    a, b, scale = w[axis], w[axis] + d2[axis], d1[axis]
    if scale < 0:
        a, b, scale = -a, -b, -scale
    lo, hi = max(min(a, b), 0), min(max(a, b), scale)
    return lo < hi if adjacent else lo <= hi


def _segment_bbox(p: Point, q: Point) -> Box:
    return tuple((min(a, b), max(a, b)) for a, b in zip(p, q))


def polyline_segments(vertices: Sequence[Point]) -> list[tuple[Point, Point]]:
    return list(zip(vertices, vertices[1:]))


def polylines_disjoint(v1: Sequence[Point], v2: Sequence[Point]) -> bool:
    """No shared point at all between the two polylines."""
    _, pts = lift([*v1, *v2])
    v1, v2 = pts[:len(v1)], pts[len(v1):]
    if boxes_disjoint(points_bbox(v1), points_bbox(v2)):
        return True
    for a, b in polyline_segments(v1):
        bb1 = _segment_bbox(a, b)
        for c, d in polyline_segments(v2):
            if boxes_disjoint(bb1, _segment_bbox(c, d)):
                continue
            if segments_meet(a, b, c, d):
                return False
    return True


def points_bbox(pts: Sequence[Point]) -> Box:
    return tuple((min(p[i] for p in pts), max(p[i] for p in pts))
                 for i in range(len(pts[0])))


def chain_self_intersection(vertices: Sequence[Point]) -> Optional[tuple[int, int]]:
    """First offending segment-index pair of a vertex chain, or None.

    Consecutive segments may share only their common vertex, all others
    nothing.  A zero-length segment raises ValueError.

    The chain is decided on integers: a chain whose coordinates are all
    ``int``, such as ``ArcApproximation.traversal_chain``, is taken as it
    is; any other has every vertex put over the lcm of the coordinate
    denominators (``lift``).  Only segments
    whose closed bounding boxes meet can share a point.  Those candidate
    pairs are found by a sweep over the integer boxes: segments in order of
    their axis-0 low end, an active list that drops a segment once its
    axis-0 high end falls below the sweep position, and comparisons on the
    other axes.  Boxes
    that merely touch count as meeting.  The candidates are then decided by
    ``segments_meet`` in increasing (i, j) order, so the pair returned is the
    first in i-major, then j order, as an all-pairs scan with the
    ``Fraction`` ``segment_intersection`` would report.  The cost is
    O(n log n) plus the axis-0 overlaps plus one integer test per candidate
    pair.
    """
    if set(map(type, itertools.chain.from_iterable(vertices))) == {int}:
        pts = vertices
    else:
        _, pts = lift(vertices)
    if any(a == b for a, b in zip(pts, pts[1:])):
        raise ValueError("zero-length segment in chain")
    for i, j in _meeting_box_pairs(pts):
        if segments_meet(pts[i], pts[i + 1], pts[j], pts[j + 1], j == i + 1):
            return (i, j)
    return None


def _meeting_box_pairs(pts: Sequence[tuple[int, ...]]) -> list[tuple[int, int]]:
    """Sorted (i, j), i < j, of the integer chain's segments whose closed
    bounding boxes share a point, found by an axis-0 sweep."""
    n = len(pts) - 1
    if n < 2:
        return []
    axes = list(zip(*pts))  # one coordinate column per axis
    los = [list(map(min, c[:-1], c[1:])) for c in axes]
    his = [list(map(max, c[:-1], c[1:])) for c in axes]
    lo0, hi0 = los[0], his[0]
    pairs = []
    active: list[int] = []
    for s in sorted(range(n), key=lo0.__getitem__):
        x = lo0[s]
        active = [t for t in active if hi0[t] >= x]
        hits = active
        for lo, hi in zip(los[1:], his[1:]):
            a, b = lo[s], hi[s]
            hits = [t for t in hits if lo[t] <= b and a <= hi[t]]
        pairs.extend((t, s) if t < s else (s, t) for t in hits)
        active.append(s)
    pairs.sort()
    return pairs
