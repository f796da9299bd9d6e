"""Box and net counting, regression diagnostics, expected-value metadata."""

import functools
import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractarc.arc import build_arc
from fractarc.cantor import (ProductCantor, RatioCantorSet, RatioSequence,
                             SelfSimilarCantor)
from fractarc.dimension import (_SLAB_MARGIN, BoxCountSeries, LatticeSample,
                                ball_net_count, box_count, box_count_series, cantor_sample,
                                dyadic_sample, dyadic_scales, estimate_dimension,
                                expected_dimensions, interval_sample,
                                net_count_series, power_scales)
from fractarc.metric import (VON_KOCH_EXPONENT, ArcFactor, EuclideanMetric,
                             RugSpace, SnowflakeMetric, UnitGrid)
from oracles import (cloud_box_count, full_scan_net_count, generation_intervals,
                     lattice_sample, numpy_box_count, sample_points, sample_rows)

LOG2_3 = math.log(2.0) / math.log(3.0)


def brute_force_box_count(sample, delta):
    """Independent oracle: scan every grid box and test membership directly."""
    delta = F(delta)
    points = [(p,) for p in sample_points(sample)]
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
        axes = [lattice_sample([F(1, 3)]), lattice_sample([F(1, 5)])]
        for delta in (F(1, 2), F(1, 8), F(1, 3)):
            assert box_count(axes[0], delta) == 1
            # resolution 0: the two points are the whole product, refused at no scale
            assert box_count_series(axes, [delta], 0).counts == (1,)

    def test_full_interval_grid(self):
        points, step = interval_sample(8)
        assert step == F(1, 256)
        assert sample_points(points) == [F(i, 256) for i in range(257)]
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

    def test_cloud_oracle_reads_float_and_exact_rows_alike(self):
        pts = [(F(1, 7), F(3, 11)), (F(2, 3), F(1, 2)), (F(1), F(1))]
        arr = np.array([[float(a), float(b)] for a, b in pts])
        for i in (1, 2, 4):
            assert (cloud_box_count(lattice_sample(pts), F(1, 2 ** i))
                    == cloud_box_count(arr, F(1, 2 ** i)))

    @given(st.lists(st.tuples(*[st.integers(0, 64)] * 3), min_size=1, max_size=60),
           st.integers(1, 3), st.sampled_from([F(1, 2), F(1, 3), F(1, 8), F(2, 7),
                                               F(1, 2 ** 21), F(1, 2 ** 22)]))
    @settings(max_examples=100, deadline=None)
    def test_cloud_oracle_counts_distinct_index_rows(self, rows, dim, delta):
        arr = np.array([row[:dim] for row in rows], dtype=float) / 64
        n_boxes = math.ceil(1 / float(delta))
        idx = np.clip(np.floor(arr / float(delta)).astype(np.int64), 0, n_boxes - 1)
        assert cloud_box_count(arr, delta) == len(np.unique(idx, axis=0))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            box_count(LatticeSample([], 1), F(1, 2))

    def test_rows_are_refused(self):
        # a cloud of points is counted on its axes, or by the cloud oracle
        rows = lattice_sample([(F(0), F(1, 2)), (F(1, 2), F(0))])
        for numerators in (rows.numerators, rows.numerators.tolist(), [(0, 1), (1, 0)]):
            with pytest.raises(ValueError, match="one axis"):
                LatticeSample(numerators, rows.denominator)
        assert cloud_box_count(rows, F(1, 2)) == 2

    @pytest.mark.parametrize("numerators,denominator,match", [
        ([0, 2, 1], 2, "increasing"),
        ([1, 1, 0], 4, "increasing"),
        ([-1, 0, 1], 2, r"lie in \[0, 1\]"),
        ([0, 1, 3], 2, r"lie in \[0, 1\]"),
        ([5], 4, r"lie in \[0, 1\]"),
        ([0, 0.5], 1, "int numerators"),
        ([0.5], 1, "int numerators"),
        ([0, F(1, 2), 1], 1, "int numerators"),
        (np.array([0, 1], dtype=np.int64), 2, "int numerators"),
        ([0, 1], 0, "positive int"),
        ([0, 1], 2.0, "positive int"),
    ], ids=["unsorted", "decreasing", "below-0", "above-1", "lone-above-1", "float",
            "lone-float", "fraction", "numpy-ints", "zero-denominator", "float-denominator"])
    def test_bad_samples_are_refused(self, numerators, denominator, match):
        # a point beyond 1 is refused, not clipped into the last box
        with pytest.raises(ValueError, match=match):
            LatticeSample(numerators, denominator)

    def test_sorted_sequences_are_taken_as_they_are(self):
        for numerators in ([0, 0, 1, 2, 2], (3,), range(0, 9, 2), []):
            assert LatticeSample(numerators, 8).numerators is numerators

    def test_out_of_cube_rejected(self):
        for value in (1.5, -0.25, math.nan):
            with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
                dyadic_sample([0.5, value])

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20), st.integers(0, 60))
    @settings(max_examples=300, deadline=None)
    def test_the_lifted_index_is_the_float_floor(self, values, i):
        # the dyadic scale 2^-i divides a float exactly, so the exact index of
        # each lifted value is floor(x / 2^-i), clipped to the last box
        sample = dyadic_sample(values)
        den = sample.denominator
        assert den & (den - 1) == 0
        floors = [min(math.floor(x / 2.0 ** -i), 2 ** i - 1) for x in sorted(values)]
        for x, num, floor in zip(sorted(values), sample.numerators, floors, strict=True):
            assert F(num, den) == F(x)
            assert min(num * 2 ** i // den, 2 ** i - 1) == floor
        assert box_count(sample, F(1, 2 ** i)) == len(set(floors))

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
            box_count_series([points], dyadic_scales(3, 9), sample_resolution=resolution)

    def test_rows_for_csv(self):
        series = BoxCountSeries((F(1, 2), F(1, 4)), (2, 4))
        rows = series.rows()
        assert rows[0][0] == 0.5 and rows[0][1] == 2
        assert rows[1][2] == pytest.approx(math.log(4.0))


class TestEstimate:
    def test_constant_series_has_slope_zero(self):
        series = box_count_series([lattice_sample([F(1, 3)]), lattice_sample([F(1, 5)])],
                                  dyadic_scales(1, 4), 0)
        est = estimate_dimension(series, "box")
        assert est.slope == 0.0 and est.r_squared == 1.0

    def test_needs_three_scales(self):
        series = BoxCountSeries((F(1, 2), F(1, 4)), (2, 4))
        with pytest.raises(ValueError):
            estimate_dimension(series, "box")

    def test_middle_thirds_matched_scales_exact(self):
        cantor = SelfSimilarCantor(F(1, 3))
        points, resolution = cantor_sample(cantor, 10)
        series = box_count_series([points], power_scales(F(1, 3), 2, 8),
                                  sample_resolution=resolution)
        est = estimate_dimension(series, "box")
        assert est.slope == pytest.approx(LOG2_3, abs=1e-12)
        assert est.r_squared == pytest.approx(1.0)

    def test_middle_thirds_dyadic_scales_within_tolerance(self):
        cantor = SelfSimilarCantor(F(1, 3))
        points, resolution = cantor_sample(cantor, 12)
        series = box_count_series([points], dyadic_scales(3, 11),
                                  sample_resolution=resolution)
        est = estimate_dimension(series, "box")
        assert est.slope == pytest.approx(LOG2_3, abs=0.05)

    def test_product_additivity(self):
        product = ProductCantor(SelfSimilarCantor(F(1, 3)), 2)
        points, resolution = cantor_sample(product.factor, 6)
        series = box_count_series([points] * 2, power_scales(F(1, 3), 1, 5),
                                  sample_resolution=resolution)
        est = estimate_dimension(series, "box")
        assert est.slope == pytest.approx(2 * LOG2_3, abs=1e-12)

    def test_window_deepening_converges(self):
        cantor = SelfSimilarCantor(F(1, 3))
        points, resolution = cantor_sample(cantor, 12)
        gaps = []
        for fine in (6, 8, 11):
            series = box_count_series([points], dyadic_scales(3, fine),
                                      sample_resolution=resolution)
            gaps.append(abs(estimate_dimension(series, "box").slope - LOG2_3))
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
            listed = [tuple(p) for p in sample_rows(pts).tolist()]
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
        grid, _ = interval_sample(8)
        pts = np.array(grid.numerators) / grid.denominator
        for i in (1, 2, 3, 4):
            r = 0.5 ** i
            net = ball_net_count(metric, pts, r)
            boxes = box_count(grid, F(1, 2 ** i))
            assert boxes / 2 <= net <= 2 * boxes

    def test_snowflake_exponent_estimates(self):
        for eps in (0.5, math.log(3) / math.log(4)):
            space = SnowflakeMetric(eps)
            pts = space.sample(14)
            series = net_count_series([(space, pts)], [0.5 ** i for i in range(2, 8)],
                                      (2.0 ** -14) ** eps)
            est = estimate_dimension(series, "ball-net")
            assert est.slope == pytest.approx(1 / eps, abs=0.1)
            assert est.kind == "ball-net"


@functools.lru_cache(maxsize=None)
def depth_two_arc(copies=1):
    """A planar (one copy) or spatial (two copies) arc of depth 2."""
    product = ProductCantor(SelfSimilarCantor(F(1, 3)), copies)
    return build_arc(RatioCantorSet(RatioSequence.dyadic()), product, 2)


NET_SPACES = st.one_of(
    st.floats(0.3, 1.0).map(SnowflakeMetric),
    st.integers(1, 3).map(EuclideanMetric),
    st.floats(0.3, 1.0).map(lambda eps: RugSpace(SnowflakeMetric(eps))),
    st.builds(lambda: RugSpace(ArcFactor(depth_two_arc()))),
)


@st.composite
def net_cases(draw):
    """(space, points, r): the space's own sample or a k/8 lattice sample,
    rows shuffled, with lattice radii, a radius beyond the diameter, or any."""
    space = draw(NET_SPACES)
    if hasattr(space, "sample") and draw(st.booleans()):
        points = sample_rows(space.sample(draw(st.integers(1, 3))))
    else:
        axis = st.integers(0, 8)
        rows = draw(st.lists(st.tuples(*[axis] * space.point_dimension),
                             min_size=1, max_size=80))
        points = np.array(rows, dtype=float) / 8
    points = points[draw(st.permutations(range(len(points))))]
    r = draw(st.one_of(st.sampled_from([1 / 8, 1 / 4, 1 / 2, 4.0]), st.floats(0.01, 1.0)))
    return space, points, r


@st.composite
def reach_boundary_cases(draw):
    """(space, points, r): pairs whose axis-0 coordinates straddle the slab's
    edge, a few ulps inside and outside the reach or the slab's half-width."""
    space = draw(NET_SPACES)
    r = draw(st.floats(0.05, 0.5))
    reach = space.reach(r)
    edge = draw(st.sampled_from([reach, reach * _SLAB_MARGIN]))
    base = np.array(draw(st.tuples(*[st.integers(0, 8)] * space.point_dimension)),
                    dtype=float) / 8
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        low = draw(st.integers(0, max(1, int(1 / reach)))) * reach
        low = low + draw(st.integers(-3, 3)) * math.ulp(low or reach)
        high = low + edge + draw(st.integers(-3, 3)) * math.ulp(low + edge)
        for value in (low, high):
            row = base.copy()
            row[0] = value
            rows.append(row)
    points = np.array(rows)
    return space, points[draw(st.permutations(range(len(points))))], r


class TestSlabNet:
    @given(net_cases())
    @settings(max_examples=300, deadline=None)
    def test_equals_full_scan(self, case):
        space, points, r = case
        assert ball_net_count(space, points, r) == full_scan_net_count(space, points, r)

    @given(reach_boundary_cases())
    @settings(max_examples=300, deadline=None)
    def test_equals_full_scan_at_the_slab_edge(self, case):
        space, points, r = case
        assert ball_net_count(space, points, r) == full_scan_net_count(space, points, r)

    def test_reach_bounds_within_on_axis_zero(self):
        rng = np.random.default_rng(0)
        for space in (SnowflakeMetric(0.4), EuclideanMetric(3),
                      RugSpace(SnowflakeMetric(VON_KOCH_EXPONENT)),
                      RugSpace(ArcFactor(depth_two_arc()))):
            points = rng.random((400, space.point_dimension))
            for r in (0.05, 0.2, 0.7):
                reach = space.reach(r)
                assert isinstance(reach, float)
                for center in points[:20]:
                    near = points[space.within(points, center, r)]
                    assert (np.abs(near[:, 0] - center[0]) < reach).all()

    def test_tiny_radius_nets_every_point(self):
        # 2^-40 and 1e-300 on a 5-axis cloud: each slab holds at most a few
        # ulps of axis 0, and every point is its own net point
        space = EuclideanMetric(5)
        points = np.random.default_rng(1).random((300, 5))
        for r in (2.0 ** -40, 1e-300):
            assert ball_net_count(space, points, r) == 300
        assert ball_net_count(space, points, 10.0) == 1

    @pytest.mark.parametrize("space, points", [
        *((SnowflakeMetric(eps), sample_rows(SnowflakeMetric(eps).sample(16)))
          for eps in (VON_KOCH_EXPONENT, 0.5, 1.0)),
        (SnowflakeMetric(1.0), sample_rows(RugSpace(SnowflakeMetric(VON_KOCH_EXPONENT))
                                           .factors(10)[1][1])),
    ], ids=["koch", "half", "one", "rug-grid"])
    def test_within_sees_each_point_once_on_a_sorted_axis(self, space, points, monkeypatch):
        # counters, not timings: the full scan hands within n rows per net
        # point; the grids themselves are walked, so these are their arrays
        rows = []
        within = type(space).within
        monkeypatch.setattr(type(space), "within",
                            lambda self, p, c, r: (rows.append(len(p)), within(self, p, c, r))[1])
        for i in range(2, 9):
            rows.clear()
            count = ball_net_count(space, points, 2.0 ** -i)
            assert len(rows) == count and sum(rows) == len(points)

    def test_series_refuses_radii_finer_than_the_sample(self):
        space = SnowflakeMetric(0.5)
        points = space.sample(8)
        resolution = (1 / 255) ** 0.5  # just above 2^-4
        with pytest.raises(ValueError, match="finer than the sample"):
            net_count_series([(space, points)], [0.5 ** i for i in range(2, 5)],
                             sample_resolution=resolution)
        series = net_count_series([(space, points)], [0.5 ** i for i in range(1, 4)],
                                  sample_resolution=resolution)
        assert series.counts == tuple(full_scan_net_count(space, points, 0.5 ** i)
                                      for i in range(1, 4))


@st.composite
def grid_cases(draw):
    """(snowflake, g, r): an exponent in (0, 1], the von Koch one, 1/2 and 1
    among them, a grid of 2^g points, g in 1..16, and a radius in
    2^-12..2^1, often a power of two."""
    eps = draw(st.one_of(st.sampled_from([VON_KOCH_EXPONENT, 0.5, 1.0]),
                         st.floats(0.0, 1.0, exclude_min=True)))
    g = draw(st.integers(1, 16))
    r = draw(st.one_of(st.integers(-12, 1).map(lambda i: 2.0 ** i),
                       st.floats(2.0 ** -12, 2.0)))
    return SnowflakeMetric(eps), g, r


class TestGridWalk:
    @given(grid_cases())
    @settings(max_examples=80, deadline=None)
    def test_walk_equals_the_slab_search_on_the_array(self, case):
        space, g, r = case
        grid = space.sample(g)
        count = ball_net_count(space, grid, r)
        assert count == ball_net_count(space, sample_rows(grid), r)
        if g <= 8:
            assert count == full_scan_net_count(space, grid, r)

    def test_grid_is_linspace_bit_for_bit(self):
        for g in range(1, 22):
            grid = np.array(UnitGrid(g))
            assert grid.dtype == np.float64
            assert np.array_equal(grid.view(np.int64),
                                  np.linspace(0.0, 1.0, 2 ** g).view(np.int64)), g

    def test_grid_indexes_as_a_sequence(self):
        grid = UnitGrid(3)
        assert len(grid) == 8 and grid[0] == 0.0 and grid[7] == 1.0 and grid[1] == 1 / 7
        for i in (8, -1):
            with pytest.raises(IndexError):
                grid[i]
        assert list(UnitGrid(0)) == [0.0]
        with pytest.raises(ValueError, match="non-negative"):
            UnitGrid(-1)

    def test_walk_makes_no_ball_test_and_no_array(self, monkeypatch):
        # counters, not timings: within is never called, and the walk's
        # peak allocation is far below the 512 KiB of the grid's array
        import tracemalloc

        space = SnowflakeMetric(VON_KOCH_EXPONENT)
        grid = space.sample(16)
        expected = [ball_net_count(space, sample_rows(grid), 2.0 ** -i) for i in range(2, 9)]

        def refuse(*args):
            raise AssertionError("the grid walk called within")
        monkeypatch.setattr(SnowflakeMetric, "within", refuse)
        tracemalloc.start()
        try:
            counts = [ball_net_count(space, grid, 2.0 ** -i) for i in range(2, 9)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts == expected
        assert peak < 2 ** 16

    def test_other_spaces_search_the_grid_as_an_array(self):
        # a Euclidean ball tests d * d < r * r, not the walk's |d| < r
        space, grid = EuclideanMetric(1), UnitGrid(8)
        for r in (2.0 ** -3, 1 / 255, 1e-200):
            assert ball_net_count(space, grid, r) == full_scan_net_count(space, grid, r)
        assert ball_net_count(space, grid, 1e-200) == 256


#: Rug product samples above this many points make the full scan too slow.
PRODUCT_CAP = 2 ** 12


@st.composite
def rug_cases(draw):
    """(rug, g, r): a snowflake or curve rug, a resolution g in 1..6 whose
    product sample stays within ``PRODUCT_CAP``, and a radius that is often
    an exact multiple of the grid step 1/(2^g - 1), where ``<`` ties decide."""
    first = draw(st.one_of(st.floats(0.3, 1.0).map(SnowflakeMetric),
                           st.sampled_from([1, 2]).map(
                               lambda copies: ArcFactor(depth_two_arc(copies)))))
    rug = RugSpace(first)
    g = draw(st.integers(1, 6).filter(
        lambda g: len(first.sample(g)) * 2 ** g <= PRODUCT_CAP))
    step = 1.0 / (2 ** g - 1)
    k = draw(st.integers(1, 2 ** g - 1))
    r = draw(st.one_of(st.just(k / (2 ** g - 1)), st.just(k * step),
                       st.sampled_from([1 / 8, 1 / 4, 1 / 2, 4.0]), st.floats(0.01, 1.0)))
    return rug, g, r


class TestRugFactorCount:
    @given(rug_cases())
    @settings(max_examples=150, deadline=None)
    def test_product_of_factor_nets_is_the_rug_net(self, case):
        rug, g, r = case
        # the net of the sample itself, so no radius is refused (resolution 0)
        count = net_count_series(rug.factors(g), [r], 0).counts[0]
        points = rug.sample(g)
        assert count == ball_net_count(rug, points, r) == full_scan_net_count(rug, points, r)

    def test_factors_are_the_sample_in_row_major_order(self):
        for rug in (RugSpace(SnowflakeMetric(0.5)), RugSpace(ArcFactor(depth_two_arc(2)))):
            (first, first_points), (interval, grid) = rug.factors(3)
            assert first is rug.first and interval == SnowflakeMetric(1.0)
            product = [(*p, y) for p in sample_rows(first_points).tolist() for y in grid]
            assert rug.sample(3).tolist() == [list(p) for p in product]

    def test_a_ball_that_misses_its_centre_is_refused(self):
        # 1e-200 ** (1 / 0.3) and 1e-200 ** 2 underflow to 0: no ball holds a point
        for first in (SnowflakeMetric(0.3), ArcFactor(depth_two_arc())):
            factors = RugSpace(first).factors(2)
            with pytest.raises(ValueError, match="misses its own centre"):
                net_count_series(factors, [0.25, 1e-200], 0)
            assert net_count_series(factors, [0.25], 0).counts == (
                ball_net_count(RugSpace(first), RugSpace(first).sample(2), 0.25),)


def fraction_box_count(points, delta):
    """Oracle: one Fraction per coordinate, as the exact ``box_count`` was
    first written."""
    delta = F(delta)
    dn, dd = delta.numerator, delta.denominator
    n_boxes = -((-dd) // dn)
    occupied = set()
    for p in points:
        coords = p if isinstance(p, tuple) else (p,)
        key = []
        for c in coords:
            c = F(c)
            assert 0 <= c <= 1
            i = (c.numerator * dd) // (c.denominator * dn)
            key.append(min(i, n_boxes - 1))
        occupied.add(tuple(key))
    return len(occupied)


#: Scale denominators coprime to every sample denominator drawn below.
SCALE_PRIMES = (13, 17, 19, 23, 29)


@st.composite
def box_cases(draw):
    """(points, delta): mixed-denominator points with 0, 1 and the scale's
    own box boundaries, as bare numbers or tuples of 1-3 coordinates."""
    q = draw(st.sampled_from(SCALE_PRIMES)) ** draw(st.integers(1, 2))
    delta = F(draw(st.integers(1, q)), q)
    boundaries = [min(i * delta, F(1)) for i in range(math.ceil(1 / delta) + 1)]
    coord = st.one_of(st.sampled_from([F(0), F(1)]), st.sampled_from(boundaries),
                      st.fractions(0, 1, max_denominator=12))
    dim = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=40))
    if dim == 1 and draw(st.booleans()):
        return [row[0] for row in rows], delta
    return rows, delta


@st.composite
def sorted_lattices(draw):
    """(sample, delta): a sorted lattice over a denominator below or above
    2^63, with repeated points, points on and just below the scale's box
    boundaries and often the point 1; the scale a power of 2/5 or 1/3, a
    fraction whose inverse is not an integer, or one with 70-bit terms."""
    den = draw(st.one_of(st.integers(1, 2 ** 20), st.integers(2 ** 62, 2 ** 90),
                         st.sampled_from([2 ** 62, 2 ** 63, 3 ** 40, 10 ** 20])))
    delta = draw(st.one_of(
        st.integers(0, 40).map(lambda i: F(2, 5) ** i),
        st.integers(0, 40).map(lambda i: F(1, 3) ** i),
        st.fractions(0, 1, max_denominator=1000).filter(lambda d: d > 0),
        st.tuples(st.integers(1, 2 ** 70), st.integers(1, 2 ** 70)).map(
            lambda ab: F(min(ab), max(ab)))))
    boxes = math.ceil(1 / delta)
    edges = [min(den, -((-j * den * delta.numerator) // delta.denominator))
             for j in draw(st.lists(st.integers(0, boxes), max_size=6))]
    nums = draw(st.lists(st.integers(0, den), min_size=1, max_size=40))
    nums += edges + [max(0, e - 1) for e in edges]
    nums += draw(st.lists(st.sampled_from(nums), max_size=6))  # repeated points
    if draw(st.booleans()):
        nums.append(den)  # the point 1, in the last box
    return LatticeSample(sorted(nums), den), delta


def cantor_low(word):
    """Generation-len(word) lower end of the ratio-1/10 set, by its digits."""
    return sum((F(9, 10 ** (k + 1)) for k, bit in enumerate(word) if bit), F(0))


class TestIntegerBoxCount:
    @given(box_cases())
    @settings(max_examples=300, deadline=None)
    def test_equals_fraction_loop(self, case):
        points, delta = case
        assert cloud_box_count(lattice_sample(points), delta) == fraction_box_count(points, delta)
        rows = [p if isinstance(p, tuple) else (p,) for p in points]
        axes = [list(column) for column in zip(*rows)]
        for axis in axes:
            assert box_count(lattice_sample(axis), delta) == fraction_box_count(axis, delta)
        # the product of the first few values on each axis, counted on its axes
        axes = [axis[:8] for axis in axes]
        series = box_count_series([lattice_sample(axis) for axis in axes], [delta, F(1)], 0)
        assert series.counts == (fraction_box_count(list(itertools.product(*axes)), delta), 1)

    @given(st.lists(st.lists(st.booleans(), min_size=20, max_size=20), min_size=1,
                    max_size=30),
           st.sampled_from(SCALE_PRIMES), st.integers(1, 14))
    @settings(max_examples=100, deadline=None)
    def test_deep_denominator_takes_python_ints(self, words, q, k):
        # generation 20 of the ratio-1/10 set lives over 10^20 > 2^63
        points = [cantor_low(w) for w in words] + [cantor_low([True] * 20)]
        sample = lattice_sample(points)
        assert sample.denominator == 10 ** 20
        assert sample_points(sample) == sorted(points)
        for delta in (F(1, q ** k), F(q - 1, q), F(1, 10 ** k), F(1)):
            assert box_count(sample, delta) == fraction_box_count(points, delta)
        # the engine's own lattice past 63 bits: ratio 1/1000 at generation
        # 7 lives over 10^21, its tuple of Python ints sampled as it is
        engine = SelfSimilarCantor(F(1, 1000))
        lows, _, den = engine.lattice(7)
        deep, _ = cantor_sample(engine, 7)
        assert den == 10 ** 21 and isinstance(lows, tuple)
        assert deep.numerators is lows and deep.denominator == den
        engine_points = sample_points(deep)
        for delta in (F(1, q ** k), F(q - 1, q), F(1, 10 ** k), F(1)):
            assert box_count(deep, delta) == fraction_box_count(engine_points, delta)

    @given(st.integers(1, 8), st.integers(1, 30), st.sampled_from(SCALE_PRIMES))
    @settings(max_examples=60, deadline=None)
    def test_engine_samples_on_every_branch(self, g, k, q):
        # denominators below 2^63 with small and overflowing products with
        # the scale, and past 2^63
        for ratio, copies in ((F(1, 3), 1), (F(2, 5), 2), (F(1, 1000), 1),
                              (F(1, 10 ** 7), 2)):
            product = ProductCantor(SelfSimilarCantor(ratio), copies)
            sample, _ = cantor_sample(product.factor, g)
            points = sample_points(sample)
            corners = product.min_corners(min(g, 4))
            axes, _ = cantor_sample(product.factor, min(g, 4))
            for delta in (F(1, 3 ** k), F(1, q ** min(k, 14)), ratio ** min(k, g)):
                assert box_count(sample, delta) == fraction_box_count(points, delta)
                assert (box_count_series([axes] * copies, [delta], 0).counts[0]
                        == fraction_box_count(corners, delta))

    @pytest.mark.parametrize("g,storage", [(9, memoryview), (10, tuple)])
    def test_engine_lattice_is_sampled_in_place(self, g, storage):
        # dyadic generation 9 lives over a 55-bit denominator, 10 over a
        # 66-bit one: the read-only array('q') view and the tuple of Python
        # ints are both the sample's numerators, with no copy
        dyadic = RatioCantorSet(RatioSequence.dyadic())
        lows, _, den = dyadic.lattice(g)
        sample, _ = cantor_sample(dyadic, g)
        assert isinstance(lows, storage)
        assert sample.numerators is lows and sample.denominator == den
        assert list(sample.numerators) == list(lows) == sorted(lows)
        assert den.bit_length() == {9: 55, 10: 66}[g]

    @given(sorted_lattices())
    @settings(max_examples=400, deadline=None)
    def test_walk_equals_the_numpy_count(self, case):
        # the bisection walk against the vectorised count it replaced, and
        # both against one Fraction per point
        sample, delta = case
        walked = box_count(sample, delta)
        assert walked == numpy_box_count(sample, delta)
        assert walked == fraction_box_count(sample_points(sample), delta)

    def test_engine_samples_are_the_exact_points(self):
        cantor = SelfSimilarCantor(F(1, 3))
        sample, _ = cantor_sample(cantor, 6)
        lows = [iv.lower for iv in generation_intervals(cantor, 6)]
        assert len(sample) == 64 and sample_points(sample) == lows
        # the Cartesian product of the factor's lows, first axis slowest
        corners = ProductCantor(cantor, 3).min_corners(3)
        lows = [iv.lower for iv in generation_intervals(cantor, 3)]
        assert len(corners) == 512 and corners[7] == (lows[0], lows[0], lows[7])
        assert corners == list(itertools.product(lows, repeat=3))


#: The product preset's ratios, copies and generations small enough for the
#: cloud oracle: every config of ratios 1/3, 2/5, 1/10, copies 1-3 and
#: generations 4, 6, 8 with at most 2^16 cells.
PRODUCT_CONFIGS = [(ratio, copies, g) for ratio in (F(1, 3), F(2, 5), F(1, 10))
                   for copies in (1, 2, 3) for g in (4, 6, 8) if copies * g <= 16]


class TestProductCounts:
    """A product's box counts are the product of its axes' counts."""

    @given(st.sampled_from(PRODUCT_CONFIGS))
    @settings(max_examples=40, deadline=None)
    def test_axes_count_the_min_corner_cloud(self, config):
        ratio, copies, g = config
        product = ProductCantor(SelfSimilarCantor(ratio), copies)
        axis, resolution = cantor_sample(product.factor, g)
        scales = power_scales(ratio, 0, g)
        series = box_count_series([axis] * copies, scales, sample_resolution=resolution)
        cloud = lattice_sample(product.min_corners(g))
        assert series.counts == tuple(cloud_box_count(cloud, d) for d in scales)


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
