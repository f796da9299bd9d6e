"""Box-counting and net-counting dimension estimation with fit diagnostics.

Box counting is the numerical proxy used throughout: the slope of log N
against log(1/delta) over a scale window, reported together with the fit's
coefficient of determination.  For non-Euclidean metrics (snowflake, rug) the
counter is a greedy maximal r-separated net, whose size scales like a covering
number.

Box counting is exact and one-dimensional.  A ``LatticeSample`` holds
points of [0, 1] as integer numerators over one denominator: a Cantor
lattice of lower ends, the dyadic grid, or floats lifted exactly
(``dyadic_sample``).  A box index is ``(num * dd) // (den * dn)`` for the
scale ``dn/dd``, in int64 when ``den * max(dd, dn)`` fits in 63 bits and in
Python ints otherwise, so no float rounding decides a box; for a lifted
float x and the scale 2^-i it is floor(x * 2^i), as float division gives.

Every box-counted set is a Cartesian product of per-axis samples (the
product preset's cell corners, an arc's vertex cloud), and a grid box is a
product of per-axis intervals, so ``box_count_series`` multiplies the axes'
counts.

The greedy net visits the points in sample order, as a full rescan would, but
looks only where a point can be near.  Each metric's ``reach(r)`` bounds
``|p_k - c_k|`` on every axis for points ``within`` radius r, so the points
are bucketed once per radius on a grid a hair wider than the reach, and a
net point's ball is looked for in the 3^d buckets around its own.  The
bucketing only narrows the candidates: ``within`` still decides every
covered point, with the same float comparison as before, so the counts are
those of the full scan.

A rug is counted on its factors, never on its product sample.  The product
sample lists the first factor's sample against a grid of [0, 1] in
row-major order (the first factor's index varies slowest), and the max
metric's ball test is the AND of the factors' ball tests.  So, row by row,
a row is either wholly covered by an earlier net row (its first-factor
point lies in that row's first-factor ball, and every grid point lies in
the ball of a grid net point) or meets no earlier net point and contributes
exactly the grid's greedy net.  The greedy net of the product is therefore
the product of the factors' greedy nets, and
``N_rug(r) = N_first(r) * N_grid(r)``.  The one condition is reflexivity:
each factor's ball must contain its own centre, which fails only where its
cutoff underflows to 0, and ``net_count_series`` refuses such a radius.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .cantor import _BinaryCantorBase

#: Box dimension equals Hausdorff dimension for the self-similar sets and
#: products built here; estimates elsewhere carry this caveat.
BOX_DIMENSION_CAVEAT = (
    "box-counting estimates the upper box dimension; it matches the target "
    "Hausdorff dimension for the self-similar constructions sampled here")

#: Why a window of fewer than three scales is refused.
_TOO_FEW_SCALES = "need at least 3 scales to fit a slope"


@dataclass(frozen=True)
class BoxCountSeries:
    """Counts N(delta) over a family of scales."""

    scales: tuple[Fraction, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.scales) != len(self.counts):
            raise ValueError("scales and counts must align")
        pairs = sorted(zip(self.scales, self.counts), reverse=True)
        for (d1, n1), (d2, n2) in zip(pairs, pairs[1:]):
            if n2 < n1:
                raise ValueError(
                    f"count must not decrease as the scale shrinks: "
                    f"N({float(d1):g})={n1} but N({float(d2):g})={n2}")

    def rows(self) -> list[tuple[float, int, float, float]]:
        """(delta, N, log 1/delta, log N) per scale, for CSV export."""
        return [(float(d), n, math.log(1.0 / float(d)), math.log(n))
                for d, n in zip(self.scales, self.counts)]


@dataclass(frozen=True)
class DimensionEstimate:
    """Least-squares slope of log N versus log(1/delta)."""

    slope: float
    intercept: float
    r_squared: float
    scale_range: tuple[float, float]  # (coarsest delta, finest delta)
    kind: str = "box"


@dataclass(frozen=True)
class LatticeSample:
    """Exact points of [0, 1]: a 1-D array of integer numerators over one
    denominator, int64 when it fits in 63 bits and Python ints (dtype
    object) otherwise."""

    numerators: np.ndarray
    denominator: int

    def __len__(self) -> int:
        return len(self.numerators)


def box_count(points: LatticeSample, delta) -> int:
    """Number of intervals [i*delta, (i+1)*delta) meeting the sample, a
    point at 1 counted in the last; exact for a rational delta.  The box
    indices are sorted and the changes between neighbours counted."""
    delta = Fraction(delta) if not isinstance(delta, Fraction) else delta
    if delta <= 0 or delta > 1:
        raise ValueError(f"box side must lie in (0, 1], got {float(delta)}")
    if points.numerators.ndim != 1:
        raise ValueError("a LatticeSample holds one axis: a 1-D array of numerators")
    if len(points) == 0:
        raise ValueError("cannot box-count an empty sample")
    dn, dd = delta.numerator, delta.denominator
    n_boxes = -((-dd) // dn)  # ceil(1/delta)
    nums, den = points.numerators, points.denominator
    if nums.dtype == np.int64 and den * max(dd, dn) < 2 ** 63:
        idx = nums * dd
        idx //= den * dn
    else:
        idx = nums.astype(object) * dd // (den * dn)
    np.minimum(idx, n_boxes - 1, out=idx)
    idx.sort()
    return int(np.count_nonzero(idx[1:] != idx[:-1])) + 1


def dyadic_scales(coarse: int, fine: int) -> list[Fraction]:
    """delta = 2^-i for i = coarse..fine."""
    if coarse > fine:
        raise ValueError("coarse exponent must not exceed fine exponent")
    return [Fraction(1, 2 ** i) for i in range(coarse, fine + 1)]


def power_scales(base: Fraction, coarse: int, fine: int) -> list[Fraction]:
    base = Fraction(base)
    return [base ** i for i in range(coarse, fine + 1)]


def box_count_series(axes: Sequence[LatticeSample], scales: Sequence,
                     sample_resolution=None) -> BoxCountSeries:
    """Box counts at every scale of the Cartesian product of ``axes``, one
    ``LatticeSample`` each: the product of the axes' ``box_count``.  When
    the sample's generation resolution is known, windows finer than it are
    refused: counts there would flatten into a spurious dimension-zero
    tail."""
    scales = [Fraction(s) for s in scales]
    if not scales:
        raise ValueError(_TOO_FEW_SCALES)
    if sample_resolution is not None:
        _refuse_finer(min(scales), Fraction(sample_resolution))
    counts = tuple(math.prod(box_count(axis, d) for axis in axes) for d in scales)
    return BoxCountSeries(tuple(scales), counts)


def _refuse_finer(finest, resolution) -> None:
    if finest < resolution:
        raise ValueError(
            f"scale {float(finest)!r} is finer than the sample resolution "
            f"{float(resolution)!r}; deepen the sample instead")


def estimate_dimension(series: BoxCountSeries, kind: str = "box") -> DimensionEstimate:
    """Fit log N = slope * log(1/delta) + intercept by least squares."""
    if len(series.scales) < 3:
        raise ValueError(_TOO_FEW_SCALES)
    xs = np.array([math.log(1.0 / float(d)) for d in series.scales])
    ys = np.array([math.log(n) for n in series.counts])
    if np.ptp(xs) == 0.0:
        raise ValueError("degenerate series: all scales equal")
    slope, intercept = np.polyfit(xs, ys, 1)
    predicted = slope * xs + intercept
    ss_res = float(np.sum((ys - predicted) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DimensionEstimate(float(slope), float(intercept), r_squared,
                             (float(max(series.scales)), float(min(series.scales))),
                             kind)


#: Bucket sides exceed the reach by this factor, so float rounding in
#: floor(x / side) cannot put a point within reach two buckets away.
_SIDE_MARGIN = 1.0 + 2.0 ** -20


class _BucketGrid:
    """The points' buckets for one radius: an integer key per point (int32
    when every key fits), the last axis varying fastest, sorted, beside the
    point order that sorts them.

    Axis k is cut into buckets of side ``reach[k] * _SIDE_MARGIN``, widened
    where needed to at most 2^bits buckets per unit of ``max |x_k|``, with
    bits chosen so that the keys of up to 62 axes fit in int64 and
    ``x / side`` stays below 2^30, where its rounding error is far below the
    margin.
    """

    def __init__(self, points: np.ndarray, reach):
        n, d = points.shape
        bits = min(30, 62 // d - 2)
        self.sides, self.lows, self.spans = [], [], []
        for k in range(d):
            low, high = float(points[:, k].min()), float(points[:, k].max())
            side = max(reach[k] * _SIDE_MARGIN, math.ldexp(max(-low, high), -bits)) or 1.0
            # floor(x / side) is monotone in x, so the extreme cells are known
            self.sides.append(side)
            self.lows.append(math.floor(low / side))
            self.spans.append(math.floor(high / side) - self.lows[-1] + 1)
        self.strides = [math.prod(self.spans[k + 1:]) for k in range(d)]
        dtype = np.int32 if math.prod(self.spans) < 2 ** 31 else np.int64
        keys = np.zeros(n, dtype=dtype)
        cells = np.empty(n)
        for k in range(d):
            np.divide(points[:, k], self.sides[k], out=cells)
            np.floor(cells, out=cells)
            cells -= self.lows[k]
            keys *= self.spans[k]
            np.add(keys, cells, out=keys, dtype=dtype, casting="unsafe")
        del cells
        self.order = np.argsort(keys).astype(np.int32)
        keys.sort()
        self.keys = keys
        # neighbour offsets on every axis but the last; the last axis's three
        # buckets are adjacent keys, so each offset gives one sorted range
        self.ring = list(itertools.product((-1, 0, 1), repeat=d - 1))

    def near(self, point: np.ndarray) -> np.ndarray:
        """Indices of the points in the 3^d buckets around ``point``'s own."""
        cell = [math.floor(x / side) - low
                for x, side, low in zip(point.tolist(), self.sides, self.lows)]
        key = sum(c * stride for c, stride in zip(cell, self.strides))
        bases = np.array([key + sum(o * stride for o, stride in zip(offset, self.strides))
                          for offset in self.ring
                          if all(0 <= c + o < span
                                 for c, o, span in zip(cell, offset, self.spans))],
                         dtype=self.keys.dtype)
        last = cell[-1]
        starts = self.keys.searchsorted(bases - (last > 0), "left").tolist()
        ends = self.keys.searchsorted(bases + (last < self.spans[-1] - 1), "right").tolist()
        if len(starts) == 1:
            return self.order[starts[0]:ends[0]]
        return np.concatenate([self.order[a:b] for a, b in zip(starts, ends)])


def ball_net_count(space, points: np.ndarray, r: float) -> int:
    """Size of the greedy maximal r-separated subset of a float array of
    points, one per row, in sample order.

    The net size is sandwiched between covering numbers at radii r and r/2,
    so its log-log slope estimates the same exponent.  Candidates come from
    the bucket grid of the module docstring; ``space.within`` decides them,
    once per net point.
    """
    if not r > 0:
        raise ValueError(f"net radius must be positive, got {r}")
    points = np.asarray(points, dtype=float)
    n = len(points)
    if n == 0:
        raise ValueError("cannot net-count an empty sample")
    points = points.reshape(n, -1)
    grid = _BucketGrid(points, space.reach(r))
    covered = np.zeros(n, dtype=bool)
    count = 0
    i = 0
    while i < n:
        i += int(covered[i:].argmin())  # first uncovered point at or after i
        if covered[i]:
            break
        count += 1
        near = grid.near(points[i])
        near = near[~covered[near]]
        covered[near[space.within(points[near], points[i], r)]] = True
        i += 1
    return count


def net_count_series(factors, radii: Sequence[float],
                     sample_resolution=None) -> BoxCountSeries:
    """Net counts at every radius of the product of ``factors``, a list of
    ``(space, points)`` pairs, under the max metric: at each radius the
    product of the factors' ``ball_net_count``.  A single factor is its own
    sample.  When the sample's resolution (its point spacing, in the metric)
    is known, radii finer than it are refused, as in ``box_count_series``.

    The product of the factors' greedy nets is the greedy net of the
    row-major product sample (the first factor's index varying slowest),
    provided each factor's ball contains its own centre; a radius at which
    one does not (its cutoff underflowed to 0) is refused with a ValueError
    before anything is counted.  Every metric here decides its ball on
    ``p - c`` alone, so the origin shows it for every centre.
    """
    if sample_resolution is not None:
        _refuse_finer(min(float(r) for r in radii), float(sample_resolution))
    floats = [float(r) for r in radii]
    for space, _ in factors:
        origin = np.zeros((1, space.point_dimension))
        for r in floats:
            if not space.within(origin, origin[0], r)[0]:
                raise ValueError(f"the {type(space).__name__} ball of radius {r!r} misses "
                                 "its own centre, so the factor net counts do not multiply")
    counts = tuple(math.prod(ball_net_count(space, points, r) for space, points in factors)
                   for r in floats)
    return BoxCountSeries(tuple(Fraction(r) for r in radii), counts)


def cantor_sample(cantor_set: _BinaryCantorBase, generation: int) -> tuple[LatticeSample, Fraction]:
    """Left endpoints of the generation intervals (all provably in the set;
    right endpoints sit on aligned grid lines and would leak into gap boxes),
    as the engine's own read-only lattice of lower ends.
    Returns (points, sample resolution)."""
    lows, _, den = cantor_set.lattice(generation)
    return LatticeSample(lows, den), cantor_set.generation_length(generation)


def interval_sample(generation: int) -> tuple[LatticeSample, Fraction]:
    """Uniform dyadic grid on [0, 1]: the degenerate target of dimension 1."""
    n = 2 ** generation
    return LatticeSample(np.arange(n + 1, dtype=np.int64), n), Fraction(1, n)


def dyadic_sample(values: Sequence[float]) -> LatticeSample:
    """Floats of [0, 1] lifted exactly onto one ``LatticeSample``: each is
    m / 2^e (``as_integer_ratio``), over the largest 2^e."""
    if not all(0.0 <= x <= 1.0 for x in values):
        raise ValueError("points must lie in [0, 1]")
    ratios = [float(x).as_integer_ratio() for x in values]
    den = max(d for _, d in ratios)
    nums = [n * (den // d) for n, d in ratios]
    return LatticeSample(np.array(nums, dtype=np.int64 if den < 2 ** 63 else object), den)


def expected_dimensions(kind: str, **params) -> dict:
    """Exact expected values for a configuration, as metadata beside the
    numerical estimates.  Nothing here is computed from samples.

    kinds: "arc" (params: target_dimension c), "product" (params: dimension),
    "cantor" (params: dimension), "snowflake" / "rug" (params: exponent),
    "interval".
    """
    report: dict = {"kind": kind, "caveat": BOX_DIMENSION_CAVEAT}
    if kind == "interval":
        report["hausdorff_dimension"] = 1.0
        report["conformal_dimension"] = 1.0
    elif kind == "arc":
        c = float(params["target_dimension"])
        if c < 1:
            raise ValueError("arc target dimension must be at least 1")
        report["conformal_dimension"] = c
        report["hausdorff_dimension"] = c  # max(1, 1 + (c-1))
        report["product_dimension"] = c    # contained product: 1 + (c-1)
    elif kind in ("cantor", "product"):
        report["hausdorff_dimension"] = float(params["dimension"])
    elif kind == "snowflake":
        eps = float(params["exponent"])
        report["hausdorff_dimension"] = 1.0 / eps
        report["conformal_dimension"] = 1.0
    elif kind == "rug":
        eps = float(params["exponent"])
        report["hausdorff_dimension"] = 1.0 + 1.0 / eps
        report["conformal_dimension"] = 1.0 + 1.0 / eps  # minimal space
    elif kind == "arc_rug":
        # product of a curve of dimension d with the interval: d + 1, minimal
        d = float(params["arc_dimension"])
        report["hausdorff_dimension"] = d + 1.0
        report["conformal_dimension"] = d + 1.0
    else:
        raise ValueError(f"unknown configuration kind {kind!r}")
    return report
