"""Exact-geometry predicates: segment intersection, box clipping, polylines.

The box-clipping and simplicity predicates live in ``oracles``, as the
``Fraction`` reference of the integer clearance check."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractarc import geometry
from fractarc.arc import build_arc
from fractarc.cantor import (ProductCantor, RatioCantorSet, RatioSequence,
                             SelfSimilarCantor, product_for_dimension)
from fractarc.geometry import (boxes_disjoint, chain_self_intersection, point_on_segment,
                               lift, polylines_disjoint, segment_intersection,
                               segments_meet, vlerp)
from oracles import box_corners, point_in_box, polyline_is_simple, segment_box_clip


def P(*coords):
    return tuple(F(c) for c in coords)


class TestSegmentIntersection:
    def test_crossing_segments_meet_in_a_point(self):
        kind, z = segment_intersection(P(0, 0), P(1, 1), P(0, 1), P(1, 0))
        assert kind == "point"
        assert z == P(F(1, 2), F(1, 2))

    def test_disjoint_segments(self):
        kind, _ = segment_intersection(P(0, 0), P(1, 0), P(0, 1), P(1, 1))
        assert kind == "empty"

    def test_shared_endpoint_only(self):
        kind, z = segment_intersection(P(0, 0), P(1, 0), P(1, 0), P(1, 1))
        assert kind == "point" and z == P(1, 0)

    def test_collinear_overlap(self):
        kind, (a, b) = segment_intersection(P(0, 0), P(2, 0), P(1, 0), P(3, 0))
        assert kind == "overlap"
        assert (a, b) == (P(1, 0), P(2, 0))

    def test_collinear_touching(self):
        kind, z = segment_intersection(P(0, 0), P(1, 0), P(1, 0), P(2, 0))
        assert kind == "point" and z == P(1, 0)

    def test_parallel_non_collinear(self):
        kind, _ = segment_intersection(P(0, 0), P(1, 1), P(0, 1), P(1, 2))
        assert kind == "empty"

    def test_skew_3d(self):
        # lines cross in projection but pass at different heights
        kind, _ = segment_intersection(P(0, 0, 0), P(1, 1, 0), P(0, 1, 1), P(1, 0, 1))
        assert kind == "empty"

    def test_meeting_3d(self):
        kind, z = segment_intersection(P(0, 0, 0), P(1, 1, 1), P(1, 0, 0), P(0, 1, 1))
        assert kind == "point"
        assert z == P(F(1, 2), F(1, 2), F(1, 2))

    def test_degenerate_point_segment(self):
        kind, z = segment_intersection(P(1, 1), P(1, 1), P(0, 0), P(2, 2))
        assert kind == "point" and z == P(1, 1)

    def test_near_miss_is_exact(self):
        # passes within 1e-9 of the other segment's endpoint: still empty
        q = P(F(1, 10**9), 1)
        kind, _ = segment_intersection(P(0, 0), P(0, 1), q, P(1, 1))
        assert kind == "empty"


@st.composite
def rational_points(draw, dim=2):
    return tuple(F(draw(st.integers(-8, 8)), draw(st.integers(1, 8)))
                 for _ in range(dim))


class TestSegmentIntersectionProperties:
    @given(rational_points(), rational_points(), rational_points(), rational_points())
    @settings(max_examples=150, deadline=None)
    def test_symmetry(self, p1, q1, p2, q2):
        k1, d1 = segment_intersection(p1, q1, p2, q2)
        k2, d2 = segment_intersection(p2, q2, p1, q1)
        assert k1 == k2
        if k1 == "point":
            assert d1 == d2

    @given(rational_points(), rational_points(), st.integers(0, 16))
    @settings(max_examples=150, deadline=None)
    def test_point_on_segment_membership(self, p, q, num):
        t = F(num, 16)
        z = tuple(a + t * (b - a) for a, b in zip(p, q))
        assert point_on_segment(z, p, q)


class TestBoxes:
    BOX = ((F(0), F(1, 4)), (F(0), F(1, 3)))

    def test_clip_crossing(self):
        t = segment_box_clip(P(F(-1, 4), F(1, 6)), P(F(1, 2), F(1, 6)), self.BOX)
        assert t == (F(1, 3), F(2, 3))

    def test_clip_miss(self):
        assert segment_box_clip(P(1, 1), P(2, 2), self.BOX) is None

    def test_clip_corner_touch(self):
        t = segment_box_clip(P(F(1, 4), F(1, 3)), P(1, 1), self.BOX)
        assert t == (F(0), F(0))

    def test_corners_and_containment(self):
        corners = box_corners(self.BOX)
        assert len(corners) == 4
        assert all(point_in_box(c, self.BOX) for c in corners)

    def test_disjoint_boxes(self):
        other = ((F(3, 4), F(1)), (F(0), F(1, 3)))
        assert boxes_disjoint(self.BOX, other)
        assert not boxes_disjoint(self.BOX, self.BOX)


class TestPolylines:
    def test_simple_polyline(self):
        assert polyline_is_simple([P(0, 0), P(1, 0), P(1, 1)])

    def test_self_crossing_polyline(self):
        assert not polyline_is_simple([P(0, 0), P(2, 0), P(1, 1), P(1, -1)])

    def test_doubling_back_rejected(self):
        assert not polyline_is_simple([P(0, 0), P(2, 0), P(1, 0)])

    def test_disjoint_polylines(self):
        a = [P(0, 0), P(1, 0)]
        b = [P(0, 1), P(1, 1)]
        assert polylines_disjoint(a, b)
        assert not polylines_disjoint(a, [P(F(1, 2), -1), P(F(1, 2), 1)])

    def test_chain_self_intersection_locates_pair(self):
        chain = [P(0, 0), P(2, 0), P(2, 2), P(1, -1)]
        assert chain_self_intersection(chain) == (0, 2)
        assert chain_self_intersection([P(0, 0), P(1, 0), P(1, 1), P(0, 1)]) is None


def nested_loop_is_simple(vertices):
    """The unpruned all-pairs scan polyline_is_simple used to run: the oracle."""
    segs = list(zip(vertices, vertices[1:]))
    for a, b in segs:
        if a == b:
            return False
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            kind, data = segment_intersection(*segs[i], *segs[j])
            if j == i + 1:
                if kind != "point" or data != vertices[j]:
                    return False
            elif kind != "empty":
                return False
    return True


def polylines(dim):
    coord = st.integers(-3, 3).map(F) | st.fractions(-3, 3, max_denominator=4)
    return st.lists(st.tuples(*[coord] * dim), min_size=2, max_size=7)


class TestSimplicityOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(polylines(2), polylines(3)))
    def test_matches_nested_loop(self, vertices):
        assert polyline_is_simple(vertices) == nested_loop_is_simple(vertices)


def brute_chain_self_intersection(vertices):
    """The all-pairs scan chain_self_intersection used to run: the oracle."""
    segs = list(zip(vertices, vertices[1:]))
    boxes = [tuple((min(a, b), max(a, b)) for a, b in zip(p, q)) for p, q in segs]
    for a, b in segs:
        if a == b:
            raise ValueError("zero-length segment in chain")
    for i in range(len(segs)):
        bi = boxes[i]
        for j in range(i + 1, len(segs)):
            if boxes_disjoint(bi, boxes[j]):
                continue
            kind, data = segment_intersection(*segs[i], *segs[j])
            if j == i + 1:
                if kind != "point" or data != vertices[j]:
                    return (i, j)
            elif kind != "empty":
                return (i, j)
    return None


def outcome(check, vertices):
    """The pair a chain check returns, or the ValueError it raises."""
    try:
        return check(vertices)
    except ValueError as exc:
        return ("ValueError", str(exc))


def grid_chains(dim):
    # few distinct coordinates, so repeated coordinates, collinear overlaps,
    # doubling back and boxes touching on a face or a corner are common
    coord = st.sampled_from([F(0), F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2)])
    return st.lists(st.tuples(*[coord] * dim), min_size=2, max_size=12)


def chain_rule_fails(p1, q1, p2, q2, adjacent):
    """The chain rule's verdict on one segment pair, from the Fraction
    ``segment_intersection``: adjacent segments (q1 == p2) may share only
    q1, others nothing."""
    kind, data = segment_intersection(p1, q1, p2, q2)
    if adjacent:
        return kind != "point" or data != q1
    return kind != "empty"


def lifted_meet(p1, q1, p2, q2, adjacent):
    return segments_meet(*lift([p1, q1, p2, q2])[1], adjacent)


class TestIntegerSegmentTest:
    @settings(max_examples=600, deadline=None)
    @given(st.one_of(grid_chains(2), grid_chains(3)), st.data())
    def test_adjacent_pairs_match_fraction_verdict(self, vertices, data):
        pairs = [(p, q, r) for p, q, r in zip(vertices, vertices[1:], vertices[2:])
                 if p != q and q != r]
        if pairs:
            p, q, r = data.draw(st.sampled_from(pairs))
            assert lifted_meet(p, q, q, r, True) == chain_rule_fails(p, q, q, r, True)

    @settings(max_examples=600, deadline=None)
    @given(st.one_of(grid_chains(2), grid_chains(3), polylines(2), polylines(3)),
           st.data())
    def test_other_pairs_match_fraction_verdict(self, vertices, data):
        # any two segments, zero-length ones included (polylines_disjoint
        # may see those)
        p1, q1, p2, q2 = (data.draw(st.sampled_from(vertices)) for _ in range(4))
        assert lifted_meet(p1, q1, p2, q2, False) == chain_rule_fails(p1, q1, p2, q2, False)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(
        lambda dim: st.tuples(grid_chains(dim) | polylines(dim),
                              grid_chains(dim) | polylines(dim))))
    def test_polylines_disjoint_matches_fraction_scan(self, pair):
        v1, v2 = pair
        scan = all(segment_intersection(a, b, c, d)[0] == "empty"
                   for a, b in zip(v1, v1[1:]) for c, d in zip(v2, v2[1:]))
        assert polylines_disjoint(v1, v2) == scan

    def test_lift_puts_every_coordinate_over_one_denominator(self):
        den, pts = lift([P(F(1, 2), F(2, 3)), P(1, F(-5, 4))])
        assert den == 12
        assert pts == [(6, 8), (12, -15)]


def built_arc(kind, depth):
    base = RatioCantorSet(RatioSequence.dyadic())
    product = (ProductCantor(SelfSimilarCantor(F(1, 3)), 1) if kind == "planar"
               else product_for_dimension(1.5))
    return build_arc(base, product, depth)


def traversal_chain(kind, depth):
    """The traversal chain of a built arc, as ``Fraction`` points."""
    arc = built_arc(kind, depth)
    den = arc.denominator(depth)
    return [tuple(F(x, den) for x in point) for point in arc.traversal_chain(depth)]


class TestChainSelfIntersection:
    @settings(max_examples=500, deadline=None)
    @given(st.one_of(grid_chains(2), grid_chains(3)))
    def test_matches_all_pairs_scan(self, vertices):
        assert (outcome(chain_self_intersection, vertices)
                == outcome(brute_chain_self_intersection, vertices))

    @pytest.mark.parametrize("kind,depth", [("planar", 1), ("planar", 2), ("planar", 3),
                                            ("planar", 4), ("spatial", 2)])
    def test_tampered_traversal_chains(self, kind, depth):
        chain = traversal_chain(kind, depth)
        assert chain_self_intersection(chain) is None
        rng = random.Random(depth)
        for _ in range(8):
            # move one vertex onto a segment it does not end
            v = rng.randrange(1, len(chain) - 1)
            j = rng.choice([j for j in range(len(chain) - 1) if j not in (v - 1, v)])
            tampered = list(chain)
            tampered[v] = vlerp(chain[j], chain[j + 1], F(rng.randrange(5), 4))
            expected = outcome(brute_chain_self_intersection, tampered)
            assert expected is not None
            assert outcome(chain_self_intersection, tampered) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(grid_chains(2), grid_chains(3)))
    def test_integer_chain_matches_its_fraction_chain(self, vertices):
        # the grid's coordinates times 6 are integers: the same chain, scaled
        scaled = [tuple(int(6 * c) for c in v) for v in vertices]
        assert (outcome(chain_self_intersection, scaled)
                == outcome(brute_chain_self_intersection, vertices))

    @pytest.mark.parametrize("kind,depth", [("planar", 3), ("spatial", 2)])
    def test_integer_traversal_chain_is_not_lifted(self, kind, depth, monkeypatch):
        chain = built_arc(kind, depth).traversal_chain(depth)

        def refuse(points):
            raise AssertionError("an integer chain was lifted")
        monkeypatch.setattr(geometry, "lift", refuse)
        assert chain_self_intersection(chain) is None

    def test_fraction_chain_is_lifted(self, monkeypatch):
        chain = traversal_chain("planar", 2)
        lifted = []
        inner = geometry.lift

        def counting(points):
            lifted.append(len(points))
            return inner(points)
        monkeypatch.setattr(geometry, "lift", counting)
        assert chain_self_intersection(chain) is None
        # one Fraction coordinate among integers also takes the lift
        mixed = [(0, 0), (2, 0), (2, 2), (F(1, 2), -1)]
        assert chain_self_intersection(mixed) == (0, 2)
        assert lifted == [len(chain), len(mixed)]

    def test_long_simple_chain_tests_linearly_many_pairs(self, monkeypatch):
        n = 2000
        staircase = [P(k // 2 + k % 2, k // 2) for k in range(n + 1)]
        calls = {"segments_meet": 0, "boxes_disjoint": 0}

        def counting(name):
            inner = getattr(geometry, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)
            monkeypatch.setattr(geometry, name, wrapper)

        counting("segments_meet")
        counting("boxes_disjoint")
        assert chain_self_intersection(staircase) is None
        assert n - 1 <= calls["segments_meet"] <= 2 * n
        assert calls["boxes_disjoint"] <= n
