"""Natural probability measure on a ratio Cantor set, with two-sided
power-law mass bounds.

The measure splits mass equally among each generation's intervals, so every
generation-k interval carries exactly 2^-k.  Ball masses are never estimated
pointwise: a query returns an exact bracket [lower, upper], where the lower
bound counts intervals fully inside the open ball and the upper bound counts
intervals merely meeting it.  Because the intervals meeting a ball form a
contiguous run, the bracket width is at most two intervals' mass.

Both ends of that run are ranks of integer keys: (x -+ r) times the lattice
denominator, floored or ceiled by integer division (``lattice_rank``), so no
``Fraction`` arithmetic decides a bracket or a boundary count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .cantor import RatioCantorSet, lattice_rank

#: Exponents certified by default; the bounds hold for every exponent in
#: (0, 1) but a certificate fixes finitely many.
DEFAULT_EXPONENT_GRID = (0.5, 0.25, 0.1)


@dataclass(frozen=True)
class BallMassBracket:
    """Exact enclosure of mu(B(center, radius)) at a finite resolution."""

    center: Fraction
    radius: Fraction
    lower: Fraction
    upper: Fraction
    resolution: int


class NaturalMeasure:
    """Equal-weight probability measure on the generations of a Cantor set."""

    def __init__(self, base: RatioCantorSet, depth: int):
        base.build(depth)
        self.base = base
        self.depth = depth

    def interval_mass(self, k: int, j: int) -> Fraction:
        """Mass of generation-k interval j: exactly 2^-k."""
        if k < 0 or k > self.base.max_built_generation:
            raise KeyError(f"generation {k} is not built")
        if not 1 <= j <= 2 ** k:
            raise KeyError(f"no interval {j} in generation {k}")
        return Fraction(1, 2 ** k)

    def generation_mass_total(self, k: int) -> Fraction:
        return sum((self.interval_mass(k, j) for j in range(1, 2 ** k + 1)),
                   Fraction(0))

    def ball_mass(self, x, r, resolution: int) -> BallMassBracket:
        """Bracket the open-ball mass using generation-``resolution`` intervals.

        lower: total mass of intervals contained in (x-r, x+r);
        upper: total mass of intervals intersecting it.
        """
        x = Fraction(x)
        r = Fraction(r)
        if r <= 0:
            raise ValueError(f"radius must be positive, got {r}")
        lows, ln, den = self.base.lattice(resolution)
        key_den, key_lo, key_hi = _ball_keys(x, r, den)
        shift = ln * key_den
        # an upper end a + ln is <= key (< key) exactly when a <= key - ln
        # run of intervals meeting the open ball: upper > x-r and lower < x+r
        meet = max(0, lattice_rank(lows, den, key_hi, key_den, True)
                   - lattice_rank(lows, den, key_lo - shift, key_den, False))
        # fully inside the open ball: lower > x-r and upper < x+r
        inside = max(0, lattice_rank(lows, den, key_hi - shift, key_den, True)
                     - lattice_rank(lows, den, key_lo, key_den, False))
        unit = 2 ** resolution
        return BallMassBracket(x, r, Fraction(inside, unit), Fraction(meet, unit), resolution)

    def radius_generation(self, r) -> int:
        """Smallest k whose generation length drops below r (the resolution a
        ball of radius r naturally selects).  Requires r > the deepest built
        length."""
        rn, rd = Fraction(r).as_integer_ratio()
        if rn > rd:
            return 0
        for k in range(self.depth + 1):
            _, ln, den = self.base.lattice(k)
            if ln * rd < rn * den:
                return k
        raise ValueError(f"radius {rn / rd:.3e} is below the built resolution; deepen the build")

    def boundary_interval_count(self, x, r) -> tuple[int, int]:
        """(k-1, number of generation-(k-1) intervals meeting B(x, r)) for the
        radius-selected k.  The count is at most 3 whenever the selection rule
        applies; exceeding 3 would falsify the selection reading and must
        surface, so callers assert on it."""
        x = Fraction(x)
        r = Fraction(r)
        k = self.radius_generation(r)
        coarse = max(k - 1, 0)
        lows, ln, den = self.base.lattice(coarse)
        key_den, key_lo, key_hi = _ball_keys(x, r, den)
        first = lattice_rank(lows, den, key_lo - ln * key_den, key_den, False)
        last = lattice_rank(lows, den, key_hi, key_den, True)
        return coarse, max(0, last - first)


def _ball_keys(x: Fraction, r: Fraction, den: int) -> tuple[int, int, int]:
    """(key_den, key_lo, key_hi): (x - r) * den and (x + r) * den as integer
    numerators over key_den > 0."""
    (xn, xd), (rn, rd) = x.as_integer_ratio(), r.as_integer_ratio()
    return xd * rd, (xn * rd - rn * xd) * den, (xn * rd + rn * xd) * den


@dataclass
class MassBoundSequence:
    """Coefficients 6 * 2^(-k*eps) / prod(1 - c_i)^(1-eps) bounding the upper
    mass estimate, with their consecutive ratios and running maximum."""

    exponent: float
    values: list[float]
    ratios: list[float]

    @property
    def bound(self) -> float:
        return max(self.values)


def mass_bound_sequence(cantor_set: RatioCantorSet, exponent: float,
                        k_max: int) -> MassBoundSequence:
    """Values for k = 0..k_max plus ratios value[k+1]/value[k] for k < k_max.

    The ratios converge to 2^-eps < 1, so the sequence peaks at a finite index
    and tends to zero; its maximum feeds the mass-bound constant.
    """
    if not 0 < exponent < 1:
        raise ValueError(f"exponent must lie in (0, 1), got {exponent}")
    values = []
    log_prod = 0.0
    for k in range(k_max + 1):
        if k > 0:
            log_prod += math.log1p(-float(cantor_set.ratios(k)))
        values.append(6.0 * math.exp(-k * exponent * math.log(2.0)
                                     - (1.0 - exponent) * log_prod))
    ratios = [2.0 ** (-exponent) / (1.0 - float(cantor_set.ratios(k + 1))) ** (1.0 - exponent)
              for k in range(k_max)]
    return MassBoundSequence(exponent, values, ratios)


@dataclass
class MassBoundCertificate:
    """Outcome of checking r^(1+eps)/C <= mu(B(x, r)) <= C r^(1-eps) on a
    sample set, with C = max(2, sup of the bound coefficients)."""

    exponent: float
    constant: float
    resolution: int
    sample_count: int
    lower_margin: float  # min over samples of (lower mass - lower threshold)
    upper_margin: float  # min over samples of (upper threshold - upper mass)
    violations: list[tuple[Fraction, Fraction, str]] = field(default_factory=list)
    inconclusive: list[tuple[Fraction, Fraction, str]] = field(default_factory=list)
    max_boundary_intervals: int = 0

    @property
    def valid(self) -> bool:
        return not self.violations and not self.inconclusive


def verify_mass_bounds(measure: NaturalMeasure, exponents: Sequence[float],
                       samples: Sequence[tuple[Fraction, Fraction]],
                       resolution: int) -> list[MassBoundCertificate]:
    """Certify the two-sided mass bound at each exponent on every sample, by
    exact bracketing; one certificate per exponent, in order.

    A sample fails loudly when even the favourable bracket side violates its
    bound; it is inconclusive (deepen the resolution) when only the bracket
    width prevents a verdict.  The boundary-interval count for the
    radius-selected generation is tracked and must stay at most 3.  Neither
    the bracket nor the count depends on the exponent, so each is computed
    once per sample.
    """
    brackets = [(measure.ball_mass(x, r, resolution), measure.boundary_interval_count(x, r)[1])
                for x, r in samples]
    return [_mass_certificate(measure, exponent, brackets, resolution)
            for exponent in exponents]


def _mass_certificate(measure: NaturalMeasure, exponent: float,
                      brackets: Sequence[tuple[BallMassBracket, int]],
                      resolution: int) -> MassBoundCertificate:
    """The certificate at one exponent from each sample's bracket and
    boundary-interval count."""
    seq = mass_bound_sequence(measure.base, exponent,
                              max(40, 2 * resolution))
    constant = max(2.0, seq.bound)
    lower_margin = math.inf
    upper_margin = math.inf
    cert = MassBoundCertificate(exponent, constant, resolution, len(brackets),
                                0.0, 0.0)
    for bracket, boundary in brackets:
        rf = float(bracket.radius)
        thr_lo = rf ** (1.0 + exponent) / constant
        thr_hi = constant * rf ** (1.0 - exponent)
        lo = float(bracket.lower)
        hi = float(bracket.upper)
        if hi < thr_lo:
            cert.violations.append((bracket.center, bracket.radius, "lower"))
        elif lo < thr_lo:
            cert.inconclusive.append((bracket.center, bracket.radius, "lower"))
        if lo > thr_hi:
            cert.violations.append((bracket.center, bracket.radius, "upper"))
        elif hi > thr_hi:
            cert.inconclusive.append((bracket.center, bracket.radius, "upper"))
        lower_margin = min(lower_margin, lo - thr_lo)
        upper_margin = min(upper_margin, thr_hi - hi)
        cert.max_boundary_intervals = max(cert.max_boundary_intervals, boundary)

    cert.lower_margin = lower_margin if brackets else 0.0
    cert.upper_margin = upper_margin if brackets else 0.0
    return cert


def verify_radius_generation_chain(measure: NaturalMeasure,
                                   samples: Sequence[tuple[Fraction, Fraction]]) -> bool:
    """Exact check that the radius-selected generation k satisfies
    2^(k-1) * r <= 1, i.e. the coarse-generation count is controlled by 1/r."""
    for _, r in samples:
        r = Fraction(r)
        k = measure.radius_generation(r)
        if k >= 1 and 2 ** (k - 1) * r > 1:
            return False
    return True
