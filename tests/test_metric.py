"""Snowflake and rug metrics."""

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractarc.metric import (VON_KOCH_EXPONENT, EuclideanMetric, RugSpace,
                             SnowflakeMetric)

unit = st.floats(0.0, 1.0, allow_nan=False)


class TestSnowflake:
    def test_identity_exponent(self):
        assert SnowflakeMetric(1.0).distance(0.0, 1.0) == 1.0

    def test_von_koch_value(self):
        # (1/4)^(ln3/ln4) = 1/3
        assert SnowflakeMetric(VON_KOCH_EXPONENT).distance(0.0, 0.25) == pytest.approx(1 / 3)

    def test_square_root_case(self):
        assert SnowflakeMetric(0.5).distance(0.0, 0.25) == pytest.approx(0.5)

    def test_reach_past_the_float_range_is_infinite(self):
        # 2 ** 1e12 overflows a float; the radius-2 ball holds all of [0, 1]
        space = SnowflakeMetric(1e-12)
        assert space.reach(2.0) == math.inf and space.reach(0.5) == 0.0
        assert space.within(np.array([[0.0], [1.0]]), np.array([0.0]), 2.0).all()

    def test_rejects_bad_exponent(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                SnowflakeMetric(bad)

    @given(unit, unit, unit)
    @settings(max_examples=200, deadline=None)
    def test_triangle_inequality(self, x, y, z):
        d = SnowflakeMetric(0.7).distance
        assert d(x, z) <= d(x, y) + d(y, z) + 1e-12

    @given(unit, unit)
    @settings(max_examples=100, deadline=None)
    def test_decreasing_exponent_increases_distance(self, x, y):
        if x == y:
            return
        d_values = [SnowflakeMetric(e).distance(x, y) for e in (1.0, 0.75, 0.5, 0.25)]
        if abs(x - y) == 1.0:
            assert all(v == 1.0 for v in d_values)
        else:
            assert all(a < b + 1e-15 for a, b in zip(d_values, d_values[1:]))


class TestRug:
    def test_zero_distance(self):
        space = RugSpace(SnowflakeMetric(0.5))
        assert space.distance((0.3, 0.4), (0.3, 0.4)) == 0.0

    def test_corner_to_corner(self):
        space = RugSpace(SnowflakeMetric(0.5))
        assert space.distance((0.0, 0.0), (1.0, 1.0)) == 1.0

    def test_von_koch_mixed_point(self):
        space = RugSpace(SnowflakeMetric(VON_KOCH_EXPONENT))
        assert space.distance((0.0, 0.0), (0.25, 1 / 3)) == pytest.approx(1 / 3)

    def test_projections_are_bounded_by_rug_distance(self):
        space = RugSpace(SnowflakeMetric(0.6))
        rng = random.Random(2)
        for _ in range(100):
            p = (rng.random(), rng.random())
            q = (rng.random(), rng.random())
            d = space.distance(p, q)
            assert space.first.distance(p[0], q[0]) <= d + 1e-15
            assert abs(p[1] - q[1]) <= d + 1e-15

    @given(st.tuples(unit, unit), st.tuples(unit, unit), st.tuples(unit, unit))
    @settings(max_examples=150, deadline=None)
    def test_triangle_inequality(self, p, q, z):
        space = RugSpace(SnowflakeMetric(VON_KOCH_EXPONENT))
        assert space.distance(p, z) <= space.distance(p, q) + space.distance(q, z) + 1e-12


class TestSampling:
    def test_resolution_one_is_corner_grid(self):
        pts = RugSpace(SnowflakeMetric(0.5)).sample(1)
        assert sorted(map(tuple, pts.tolist())) == [
            (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]

    def test_sample_counts(self):
        pts = RugSpace(SnowflakeMetric(0.5)).sample(4)
        assert pts.shape == (16 * 16, 2)

    def test_budget(self):
        with pytest.raises(ValueError):
            RugSpace(SnowflakeMetric(0.5)).sample(14)

    def test_distance_multiset_symmetric_under_endpoint_swap(self):
        space = RugSpace(SnowflakeMetric(0.5))
        pts = space.sample(2)
        flipped = pts.copy()
        flipped[:, 1] = 1.0 - flipped[:, 1]

        def multiset(points):
            return Counter(round(space.distance(p, q), 12)
                           for i, p in enumerate(points)
                           for q in points[i + 1:])

        assert multiset(pts.tolist()) == multiset(flipped.tolist())

    def test_within_mask_matches_distance(self):
        space = RugSpace(SnowflakeMetric(VON_KOCH_EXPONENT))
        pts = space.sample(3)
        center = pts[17]
        mask = space.within(pts, center, 0.3)
        for point, hit in zip(pts, mask):
            assert hit == (space.distance(point, center) < 0.3)


class TestEuclidean:
    def test_distance_and_mask(self):
        metric = EuclideanMetric(2)
        assert metric.distance((0, 0), (3, 4)) == 5.0
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.2, 0.1]])
        mask = metric.within(pts, np.array([0.0, 0.0]), 0.5)
        assert mask.tolist() == [True, False, True]
