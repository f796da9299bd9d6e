"""Box-counting and net-counting dimension estimation with fit diagnostics.

Box counting is the numerical proxy used throughout: the slope of log N
against log(1/delta) over a scale window, reported together with the fit's
coefficient of determination.  For non-Euclidean metrics (snowflake, rug) the
counter is a greedy maximal r-separated net, whose size scales like a covering
number.

Exact-point samples (tuples of Fractions) are counted with integer floor
division so scale grids aligned with the construction (for example powers of
1/3 against a middle-thirds set) are decided exactly, never by float rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .cantor import ProductCantor, _BinaryCantorBase

#: Box dimension equals Hausdorff dimension for the self-similar sets and
#: products built here; estimates elsewhere carry this caveat.
BOX_DIMENSION_CAVEAT = (
    "box-counting estimates the upper box dimension; it matches the target "
    "Hausdorff dimension for the self-similar constructions sampled here")


@dataclass(frozen=True)
class BoxCountSeries:
    """Counts N(delta) over a family of scales."""

    scales: tuple[Fraction, ...]
    counts: tuple[int, ...]
    scale_family: str = "dyadic"

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


def box_count(points: Sequence, delta) -> int:
    """Number of grid boxes of side delta meeting the point sample.

    Boxes are [i*delta, (i+1)*delta) per axis, with points at the upper domain
    boundary assigned to the last box.  Deterministic; exact for Fraction
    points with a rational delta.
    """
    delta = Fraction(delta) if not isinstance(delta, Fraction) else delta
    if delta <= 0 or delta > 1:
        raise ValueError(f"box side must lie in (0, 1], got {float(delta)}")
    if isinstance(points, np.ndarray):
        if points.size == 0:
            raise ValueError("cannot box-count an empty sample")
        pts = points.reshape(len(points), -1)
        if pts.min() < 0.0 or pts.max() > 1.0:
            raise ValueError("points must lie in the unit cube")
        n_boxes = int(math.ceil(1.0 / float(delta)))
        idx = np.floor(pts / float(delta)).astype(np.int64)
        np.clip(idx, 0, n_boxes - 1, out=idx)
        return len(np.unique(idx, axis=0))

    if len(points) == 0:
        raise ValueError("cannot box-count an empty sample")
    dn, dd = delta.numerator, delta.denominator
    n_boxes = -((-dd) // dn)  # ceil(1/delta)
    occupied = set()
    for p in points:
        coords = p if isinstance(p, tuple) else (p,)
        key = []
        for c in coords:
            c = Fraction(c)
            if c < 0 or c > 1:
                raise ValueError("points must lie in the unit cube")
            i = (c.numerator * dd) // (c.denominator * dn)
            key.append(min(i, n_boxes - 1))
        occupied.add(tuple(key))
    return len(occupied)


def dyadic_scales(coarse: int, fine: int) -> list[Fraction]:
    """delta = 2^-i for i = coarse..fine."""
    if coarse > fine:
        raise ValueError("coarse exponent must not exceed fine exponent")
    return [Fraction(1, 2 ** i) for i in range(coarse, fine + 1)]


def power_scales(base: Fraction, coarse: int, fine: int) -> list[Fraction]:
    base = Fraction(base)
    return [base ** i for i in range(coarse, fine + 1)]


def box_count_series(points: Sequence, scales: Sequence,
                     sample_resolution=None,
                     scale_family: str = "dyadic") -> BoxCountSeries:
    """Count at every scale.  When the sample's generation resolution is
    known, windows finer than it are refused: counts there would flatten into
    a spurious dimension-zero tail."""
    scales = [Fraction(s) for s in scales]
    if sample_resolution is not None:
        finest = min(scales)
        if finest < Fraction(sample_resolution):
            raise ValueError(
                f"scale {float(finest)!r} is finer than the sample resolution "
                f"{float(sample_resolution)!r}; deepen the sample instead")
    counts = tuple(box_count(points, d) for d in scales)
    return BoxCountSeries(tuple(scales), counts, scale_family)


def estimate_dimension(series: BoxCountSeries, kind: str = "box") -> DimensionEstimate:
    """Fit log N = slope * log(1/delta) + intercept by least squares."""
    if len(series.scales) < 3:
        raise ValueError("need at least 3 scales to fit a slope")
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


def ball_net_count(space, points, r: float) -> int:
    """Size of the greedy maximal r-separated subset, in sample order.

    The net size is sandwiched between covering numbers at radii r and r/2,
    so its log-log slope estimates the same exponent.
    """
    if r <= 0:
        raise ValueError(f"net radius must be positive, got {r}")
    if isinstance(points, np.ndarray) and hasattr(space, "within"):
        if len(points) == 0:
            raise ValueError("cannot net-count an empty sample")
        covered = np.zeros(len(points), dtype=bool)
        count = 0
        for i in range(len(points)):
            if covered[i]:
                continue
            count += 1
            covered |= space.within(points, points[i], r)
        return count

    pts = list(points)
    if not pts:
        raise ValueError("cannot net-count an empty sample")
    net: list = []
    for p in pts:
        if all(space.distance(p, q) >= r for q in net):
            net.append(p)
    return len(net)


def net_count_series(space, points, radii: Sequence[float]) -> BoxCountSeries:
    counts = tuple(ball_net_count(space, points, float(r)) for r in radii)
    return BoxCountSeries(tuple(Fraction(r) for r in radii), counts, "net")


def cantor_sample(cantor_set: _BinaryCantorBase, generation: int) -> tuple[list[Fraction], Fraction]:
    """Left endpoints of the generation intervals (all provably in the set;
    right endpoints sit on aligned grid lines and would leak into gap boxes).
    Returns (points, sample resolution)."""
    pts = [iv.lower for iv in cantor_set.generation_intervals(generation)]
    return pts, cantor_set.generation_length(generation)


def product_sample(product: ProductCantor, generation: int) -> tuple[list[tuple[Fraction, ...]], Fraction]:
    """Cell min-corners of the product at one generation."""
    return (product.min_corners(generation),
            product.factor.generation_length(generation))


def interval_sample(generation: int) -> tuple[list[Fraction], Fraction]:
    """Uniform dyadic grid on [0, 1]: the degenerate target of dimension 1."""
    step = Fraction(1, 2 ** generation)
    return [i * step for i in range(2 ** generation + 1)], step


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
