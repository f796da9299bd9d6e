"""``Fraction`` reference predicates for the integer clearance check.

``fractarc.arc._path_legal`` decides connector clearance on integer offsets.
These are the ``Fraction`` predicates it replaced: slab clipping, point in
box and polyline simplicity, and ``path_legal``, the clearance check they
made up, which judges any polyline.  The tests compare the library with
them where they are cheap to run.
"""

from fractions import Fraction

from fractarc.geometry import chain_self_intersection

ZERO = Fraction(0)
ONE = Fraction(1)


def point_in_box(p, box):
    return all(lo <= c <= hi for c, (lo, hi) in zip(p, box))


def segment_box_clip(p, q, box):
    """Parameter range [t0, t1] of the segment p + t(q-p) inside the closed box.

    Returns None when the segment misses the box.  Exact slab clipping.
    """
    t0, t1 = ZERO, ONE
    for c_p, c_q, (lo, hi) in zip(p, q, box):
        d = c_q - c_p
        if d == 0:
            if c_p < lo or c_p > hi:
                return None
            continue
        ta = (lo - c_p) / d
        tb = (hi - c_p) / d
        if ta > tb:
            ta, tb = tb, ta
        if ta > t0:
            t0 = ta
        if tb < t1:
            t1 = tb
        if t0 > t1:
            return None
    return t0, t1


def polyline_is_simple(vertices):
    """Non-self-intersecting: consecutive segments meet only at the shared
    vertex, all other segment pairs are disjoint, no zero-length segments."""
    if any(a == b for a, b in zip(vertices, vertices[1:])):
        return False
    return chain_self_intersection(vertices) is None


def path_legal(vertices, boxes, s, parent_box):
    """Exact legality of a connector polyline joining boxes[s] to
    boxes[s+1]: it stays in the parent, is simple, and touches each closed
    box at most in its own endpoint corner."""
    if any(not point_in_box(v, parent_box) for v in vertices):
        return False
    if not polyline_is_simple(vertices):
        return False
    segs = list(zip(vertices, vertices[1:]))
    last = len(segs) - 1
    for idx, box in enumerate(boxes):
        for seg_i, (a, b) in enumerate(segs):
            clip = segment_box_clip(a, b, box)
            if clip is None:
                continue
            t0, t1 = clip
            if t0 != t1:
                return False
            if seg_i == 0 and idx == s and t0 == 0:
                continue
            if seg_i == last and idx == s + 1 and t0 == 1:
                continue
            return False
    return True
