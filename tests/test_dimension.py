"""Box and net counting, regression diagnostics, expected-value metadata."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractarc.cantor import ProductCantor, SelfSimilarCantor
from fractarc.dimension import (BoxCountSeries, ball_net_count, box_count,
                                box_count_series, cantor_sample, dyadic_scales,
                                estimate_dimension, expected_dimensions,
                                interval_sample, net_count_series, power_scales,
                                product_sample)
from fractarc.metric import EuclideanMetric, RugSpace, SnowflakeMetric

LOG2_3 = math.log(2.0) / math.log(3.0)


def brute_force_box_count(points, delta):
    """Independent oracle: scan every grid box and test membership directly."""
    delta = F(delta)
    points = [p if isinstance(p, tuple) else (p,) for p in points]
    dim = len(points[0])
    n = math.ceil(1 / delta)
    count = 0
    for flat in range(n ** dim):
        index = []
        rest = flat
        for _ in range(dim):
            index.append(rest % n)
            rest //= n
        def inside(p):
            for c, i in zip(p, index):
                lo, hi = i * delta, (i + 1) * delta
                if not (lo <= c < hi or (i == n - 1 and c == 1)):
                    return False
            return True
        if any(inside(p) for p in points):
            count += 1
    return count


class TestBoxCount:
    def test_single_point(self):
        for delta in (F(1, 2), F(1, 8), F(1, 3)):
            assert box_count([(F(1, 3), F(1, 5))], delta) == 1

    def test_full_interval_grid(self):
        points, _ = interval_sample(8)
        for i in (1, 3, 5):
            assert box_count(points, F(1, 2 ** i)) == 2 ** i

    def test_middle_thirds_on_matched_scales(self):
        # oracle-derived: left endpoints of generation g occupy exactly the
        # 2^j generation boxes on the 3^-j grid
        cantor = SelfSimilarCantor(F(1, 3))
        points, _ = cantor_sample(cantor, 4)
        for j in (1, 2, 3, 4):
            expected = brute_force_box_count(points, F(1, 3 ** j))
            assert expected == 2 ** j
            assert box_count(points, F(1, 3 ** j)) == expected

    def test_agrees_with_oracle_on_dyadic_scales(self):
        cantor = SelfSimilarCantor(F(1, 3))
        points, _ = cantor_sample(cantor, 5)
        for i in (1, 2, 3, 4):
            assert box_count(points, F(1, 2 ** i)) == brute_force_box_count(points, F(1, 2 ** i))

    def test_float_and_exact_paths_agree(self):
        pts = [(F(1, 7), F(3, 11)), (F(2, 3), F(1, 2)), (F(1), F(1))]
        arr = np.array([[float(a), float(b)] for a, b in pts])
        for i in (1, 2, 4):
            assert box_count(pts, F(1, 2 ** i)) == box_count(arr, F(1, 2 ** i))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            box_count([], F(1, 2))

    def test_out_of_cube_rejected(self):
        with pytest.raises(ValueError):
            box_count([(F(3, 2),)], F(1, 2))

    @given(st.integers(1, 5), st.integers(2, 4))
    @settings(max_examples=25, deadline=None)
    def test_scale_halving_bounds(self, i, g):
        cantor = SelfSimilarCantor(F(1, 3))
        points, _ = cantor_sample(cantor, 5)
        coarse = box_count(points, F(1, 2 ** i))
        fine = box_count(points, F(1, 2 ** (i + 1)))
        assert coarse <= fine <= 2 * coarse  # ambient dimension 1


class TestSeries:
    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            BoxCountSeries((F(1, 2), F(1, 4)), (5, 3))

    def test_sample_depth_honesty(self):
        cantor = SelfSimilarCantor(F(1, 3))
        points, resolution = cantor_sample(cantor, 4)
        with pytest.raises(ValueError, match="finer than the sample"):
            box_count_series(points, dyadic_scales(3, 9), sample_resolution=resolution)

    def test_rows_for_csv(self):
        series = BoxCountSeries((F(1, 2), F(1, 4)), (2, 4))
        rows = series.rows()
        assert rows[0][0] == 0.5 and rows[0][1] == 2
        assert rows[1][2] == pytest.approx(math.log(4.0))


class TestEstimate:
    def test_constant_series_has_slope_zero(self):
        series = box_count_series([(F(1, 3), F(1, 5))], dyadic_scales(1, 4))
        est = estimate_dimension(series)
        assert est.slope == 0.0 and est.r_squared == 1.0

    def test_needs_three_scales(self):
        series = BoxCountSeries((F(1, 2), F(1, 4)), (2, 4))
        with pytest.raises(ValueError):
            estimate_dimension(series)

    def test_middle_thirds_matched_scales_exact(self):
        cantor = SelfSimilarCantor(F(1, 3))
        points, resolution = cantor_sample(cantor, 10)
        series = box_count_series(points, power_scales(F(1, 3), 2, 8),
                                  sample_resolution=resolution, scale_family="matched")
        est = estimate_dimension(series)
        assert est.slope == pytest.approx(LOG2_3, abs=1e-12)
        assert est.r_squared == pytest.approx(1.0)

    def test_middle_thirds_dyadic_scales_within_tolerance(self):
        cantor = SelfSimilarCantor(F(1, 3))
        points, resolution = cantor_sample(cantor, 12)
        series = box_count_series(points, dyadic_scales(3, 11),
                                  sample_resolution=resolution)
        est = estimate_dimension(series)
        assert est.slope == pytest.approx(LOG2_3, abs=0.05)

    def test_product_additivity(self):
        product = ProductCantor(SelfSimilarCantor(F(1, 3)), 2)
        points, resolution = product_sample(product, 6)
        series = box_count_series(points, power_scales(F(1, 3), 1, 5),
                                  sample_resolution=resolution, scale_family="matched")
        est = estimate_dimension(series)
        assert est.slope == pytest.approx(2 * LOG2_3, abs=1e-12)

    def test_window_deepening_converges(self):
        cantor = SelfSimilarCantor(F(1, 3))
        points, resolution = cantor_sample(cantor, 12)
        gaps = []
        for fine in (6, 8, 11):
            series = box_count_series(points, dyadic_scales(3, fine),
                                      sample_resolution=resolution)
            gaps.append(abs(estimate_dimension(series).slope - LOG2_3))
        assert gaps[-1] <= gaps[0]


def brute_force_net(space, points, r):
    net = []
    for p in points:
        if all(space.distance(p, q) >= r for q in net):
            net.append(p)
    return len(net)


class TestNetCount:
    def test_radius_beyond_diameter(self):
        space = SnowflakeMetric(0.5)
        pts = space.sample(6)
        assert ball_net_count(space, pts, 1.5) == 1

    def test_agrees_with_oracle(self):
        koch = SnowflakeMetric(VON_KOCH := math.log(3) / math.log(4))
        # the rug compares its max-metric within with its distance
        rug = RugSpace(SnowflakeMetric(0.5))
        for space, pts in ((koch, koch.sample(7)), (rug, rug.sample(4))):
            listed = [tuple(p) for p in pts.tolist()]
            for r in (0.5, 0.25, 0.125):
                assert ball_net_count(space, pts, r) == brute_force_net(space, listed, r)

    def test_snowflake_count_tracks_power_law(self):
        space = SnowflakeMetric(0.5)
        pts = space.sample(12)
        for i in (2, 3, 4):
            r = 0.5 ** i
            count = ball_net_count(space, pts, r)
            ideal = r ** -2.0
            assert ideal / 4 <= count <= ideal * 4

    def test_net_box_sandwich(self):
        # on a Euclidean sample, net and box counts agree within 2^dim
        metric = EuclideanMetric(1)
        pts_list, _ = interval_sample(8)
        pts = np.array([[float(p)] for p in pts_list])
        for i in (1, 2, 3, 4):
            r = 0.5 ** i
            net = ball_net_count(metric, pts, r)
            boxes = box_count(pts, F(1, 2 ** i))
            assert boxes / 2 <= net <= 2 * boxes

    def test_snowflake_exponent_estimates(self):
        for eps in (0.5, math.log(3) / math.log(4)):
            space = SnowflakeMetric(eps)
            pts = space.sample(14)
            series = net_count_series(space, pts, [0.5 ** i for i in range(2, 8)])
            est = estimate_dimension(series, "ball-net")
            assert est.slope == pytest.approx(1 / eps, abs=0.1)
            assert est.kind == "ball-net"


class TestExpectedDimensions:
    def test_arc_report(self):
        rep = expected_dimensions("arc", target_dimension=1.0 + LOG2_3)
        assert rep["conformal_dimension"] == pytest.approx(1.6309, abs=1e-3)
        assert rep["hausdorff_dimension"] == rep["conformal_dimension"]

    def test_interval_is_dimension_one(self):
        rep = expected_dimensions("interval")
        assert rep["hausdorff_dimension"] == 1.0

    def test_rug_values(self):
        eps = math.log(3) / math.log(4)
        rep = expected_dimensions("rug", exponent=eps)
        assert rep["hausdorff_dimension"] == pytest.approx(1 + 1 / eps)
        assert rep["conformal_dimension"] == rep["hausdorff_dimension"]

    def test_snowflake_conformal_collapses(self):
        rep = expected_dimensions("snowflake", exponent=0.5)
        assert rep["hausdorff_dimension"] == 2.0
        assert rep["conformal_dimension"] == 1.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            expected_dimensions("carpet")
