"""Box-counting and net-counting dimension estimation with fit diagnostics.

Box counting is the numerical proxy used throughout: the slope of log N
against log(1/delta) over a scale window, reported together with the fit's
coefficient of determination.  For non-Euclidean metrics (snowflake, rug) the
counter is a greedy maximal r-separated net, whose size scales like a covering
number.

Box counting is exact and one-dimensional.  A ``LatticeSample`` holds
points of [0, 1] as a sorted sequence of int numerators over one
denominator: a Cantor lattice of lower ends, the dyadic grid, or floats
lifted exactly (``dyadic_sample``).  The box of a numerator is
``(num * dd) // (den * dn)`` for the scale ``dn/dd``, in Python ints, so no
float rounding decides a box; for a lifted float x and the scale 2^-i it is
floor(x * 2^i), as float division gives.  ``box_count`` walks the sorted
numerators box by box: from a point in box b, the first point of a later
box is the first numerator at or above ``ceil((b + 1) * den * dn / dd)``,
one bisection away.  A count at N(delta) occupied boxes costs O(N(delta)
log n) for n points, with no pass over the points.

Every box-counted set is a Cartesian product of per-axis samples (the
product preset's cell corners, an arc's vertex cloud), and a grid box is a
product of per-axis intervals, so ``box_count_series`` multiplies the axes'
counts.

The greedy net visits the points in sample order, as a full rescan would, but
looks only where a point can be near.  A snowflake's grid is walked
(``UnitGrid.net_count``); an array is searched.  Each metric's ``reach(r)``
is one float, and ``within(p, c, r)`` implies that the float ``|p_0 -
c_0|`` is below it, so the exact difference is below ``reach * (1 +
2^-52)``.  The points are sorted on axis 0 once per radius; a net point's
candidates are the slab ``c_0 - w <= x_0 <= c_0 + w``, two binary searches
away, with ``w = reach * (1 + 2^-20)`` plus four ulps of ``max(|x_0|, 1)``.
Rounding moves each float bound by at most an ulp of the larger of ``w``
and ``|c_0|``, which the relative margin or the four ulps cover with room
to spare for the rounding of the difference: no point within reach falls
outside the slab.  ``within`` still decides every candidate, with the same
float comparison, so the counts are those of the full scan.  On a sorted
1-D array a point reaches ``within`` twice only if it lies in the hair
between a net point's reach and ``w``.

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

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Sequence

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
    kind: str


@dataclass(frozen=True)
class LatticeSample:
    """Exact points of [0, 1]: a sequence of int numerators in increasing
    order (repeats allowed), each from 0 to the denominator, over one
    positive int denominator.  Anything else raises ValueError, checked in
    one pass."""

    numerators: Sequence[int]
    denominator: int

    def __post_init__(self):
        nums, den = self.numerators, self.denominator
        if type(den) is not int or den < 1:
            raise ValueError(f"the denominator must be a positive int, got {den!r}")
        try:
            # ``int.__index__`` refuses every entry that is not an int: the
            # map checks all but the last, which is checked after it
            ordered = all(map(operator.le, map(int.__index__, nums), islice(nums, 1, None)))
            if len(nums):
                int.__index__(nums[-1])
        except TypeError:
            raise ValueError("a LatticeSample holds one axis: a sequence of int "
                             "numerators") from None
        if not ordered:
            raise ValueError("the numerators must be in increasing order")
        if len(nums) and (nums[0] < 0 or nums[-1] > den):
            raise ValueError("points must lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.numerators)


def box_count(points: LatticeSample, delta) -> int:
    """Number of intervals [i*delta, (i+1)*delta) meeting the sample, a
    point at 1 counted in the last; exact for a rational delta.  One
    bisection per occupied box finds the first point of the next one."""
    delta = Fraction(delta) if not isinstance(delta, Fraction) else delta
    if delta <= 0 or delta > 1:
        raise ValueError(f"box side must lie in (0, 1], got {float(delta)}")
    nums, den = points.numerators, points.denominator
    n = len(points)
    if n == 0:
        raise ValueError("cannot box-count an empty sample")
    dn, dd = delta.numerator, delta.denominator
    width = den * dn  # a box's side, as numerators times dd
    last = -((-dd) // dn) - 1  # the last box, ceil(1/delta) - 1, holds a point at 1
    count, i = 0, 0
    while i < n:
        count += 1
        box = nums[i] * dd // width
        if box >= last:
            break
        i = bisect_left(nums, -((-(box + 1) * width) // dd), i + 1)
    return count


def dyadic_scales(coarse: int, fine: int) -> list[Fraction]:
    """delta = 2^-i for i = coarse..fine."""
    if coarse > fine:
        raise ValueError("coarse exponent must not exceed fine exponent")
    return [Fraction(1, 2 ** i) for i in range(coarse, fine + 1)]


def power_scales(base: Fraction, coarse: int, fine: int) -> list[Fraction]:
    base = Fraction(base)
    return [base ** i for i in range(coarse, fine + 1)]


def box_count_series(axes: Sequence[LatticeSample], scales: Sequence,
                     sample_resolution) -> BoxCountSeries:
    """Box counts at every scale of the Cartesian product of ``axes``, one
    ``LatticeSample`` each: the product of the axes' ``box_count``.  Windows
    finer than the sample's generation resolution are refused: counts there
    would flatten into a spurious dimension-zero tail."""
    scales = [Fraction(s) for s in scales]
    if not scales:
        raise ValueError(_TOO_FEW_SCALES)
    _refuse_finer(min(scales), Fraction(sample_resolution))
    counts = tuple(math.prod(box_count(axis, d) for axis in axes) for d in scales)
    return BoxCountSeries(tuple(scales), counts)


def _refuse_finer(finest, resolution) -> None:
    if finest < resolution:
        raise ValueError(
            f"scale {float(finest)!r} is finer than the sample resolution "
            f"{float(resolution)!r}; deepen the sample instead")


def check_fit_window(series: BoxCountSeries) -> None:
    """Refuse a series of fewer than three scales, which no slope fits."""
    if len(series.scales) < 3:
        raise ValueError(_TOO_FEW_SCALES)


def estimate_dimension(series: BoxCountSeries, kind: str) -> DimensionEstimate:
    """Fit log N = slope * log(1/delta) + intercept by least squares."""
    import numpy as np

    check_fit_window(series)
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


#: The slab's relative margin over the reach (see the module docstring).
_SLAB_MARGIN = 1.0 + 2.0 ** -20


def ball_net_count(space, points, r: float) -> int:
    """Size of the greedy maximal r-separated subset of a float array of
    points, one per row, or a ``UnitGrid``, in sample order.

    The net size is sandwiched between covering numbers at radii r and r/2,
    so its log-log slope estimates the same exponent.  Candidates come from
    the axis-0 slab of the module docstring; ``space.within`` decides them,
    once per net point.  A snowflake's grid is walked instead.
    """
    from .metric import SnowflakeMetric, UnitGrid

    if not r > 0:
        raise ValueError(f"net radius must be positive, got {r}")
    if isinstance(points, UnitGrid) and isinstance(space, SnowflakeMetric):
        return points.net_count(space.reach(r))
    import numpy as np

    points = np.asarray(points, dtype=float)
    n = len(points)
    if n == 0:
        raise ValueError("cannot net-count an empty sample")
    points = points.reshape(n, -1)
    order = np.argsort(points[:, 0], kind="stable")
    axis = points[order, 0]
    scale = max(float(np.abs(axis[[0, -1]]).max()), 1.0)
    width = space.reach(r) * _SLAB_MARGIN + 4 * math.ulp(scale)
    covered = np.zeros(n, dtype=bool)
    count = 0
    i = 0
    while i < n:
        i += int(covered[i:].argmin())  # first uncovered point at or after i
        if covered[i]:
            break
        count += 1
        x = float(points[i, 0])
        near = order[axis.searchsorted(x - width, "left"):axis.searchsorted(x + width, "right")]
        near = near[~covered[near]]
        covered[near[space.within(points[near], points[i], r)]] = True
        i += 1
    return count


def net_count_series(factors, radii: Sequence[float],
                     sample_resolution) -> BoxCountSeries:
    """Net counts at every radius of the product of ``factors``, a list of
    ``(space, points)`` pairs, under the max metric: at each radius the
    product of the factors' ``ball_net_count``.  A single factor is its own
    sample.  Radii finer than the sample's resolution (its point spacing, in
    the metric) are refused, as in ``box_count_series``.

    The product of the factors' greedy nets is the greedy net of the
    row-major product sample (the first factor's index varying slowest),
    provided each factor's ball contains its own centre; a radius at which
    one does not (its cutoff underflowed to 0) is refused with a ValueError
    before anything is counted.  Every metric here decides its ball on
    ``p - c`` alone, so the origin shows it for every centre.
    """
    import numpy as np

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
    as the engine's own lattice of lower ends, its read-only sequence taken
    as it is.  Returns (points, sample resolution)."""
    lows, _, den = cantor_set.lattice(generation)
    return LatticeSample(lows, den), cantor_set.generation_length(generation)


def interval_sample(generation: int) -> tuple[LatticeSample, Fraction]:
    """Uniform dyadic grid on [0, 1]: the degenerate target of dimension 1."""
    n = 2 ** generation
    return LatticeSample(range(n + 1), n), Fraction(1, n)


def dyadic_sample(values: Sequence[float]) -> LatticeSample:
    """Floats of [0, 1] lifted exactly onto one ``LatticeSample``, in
    increasing order: each is m / 2^e (``as_integer_ratio``), over the
    largest 2^e."""
    if not all(0.0 <= x <= 1.0 for x in values):
        raise ValueError("points must lie in [0, 1]")
    ratios = [float(x).as_integer_ratio() for x in values]
    den = max(d for _, d in ratios)
    return LatticeSample(sorted(n * (den // d) for n, d in ratios), den)


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
