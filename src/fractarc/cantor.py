"""Cantor sets built by repeated middle-interval removal.

Two constructions share one engine:

* ``RatioCantorSet`` removes a middle portion of relative size c_k at
  generation k, where the ratio sequence c_k decreases to zero.  Its
  generation-k intervals all have length prod_{i<=k}(1 - c_i) / 2^k.
* ``SelfSimilarCantor`` keeps two copies scaled by a constant ratio
  r in (0, 1/2); generation-k intervals have length r^k and the set has
  similarity dimension ln 2 / ln(1/r).

All endpoints are exact rationals.  Every generation-k interval has the one
length L_k, so a generation is stored as one read-only sequence of integers:
the intervals' lower ends as numerators over a common denominator, beside
the numerator of L_k (``lattice``).  While the denominator fits in 63 bits
the sequence is a read-only ``memoryview`` of an ``array('q')``, eight bytes
an interval; beyond, a tuple of Python ints.  Generation k is built from
generation k-1 by scaling its lower ends and interleaving each with its
right sibling, both through ``map``.

The ball certificates read the lattice itself: ``lattice_rank`` ranks a
rational key among its numerators by one integer floor or ceiling division
and a ``bisect``, and ``verify_uniform_perfectness`` and
``measure.NaturalMeasure`` rank every ball end that way.
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

#: The deepest generation any Cantor set builds; interval counts double per level.
GENERATION_CAP = 20

#: Ratio sequences must have dropped below this by the last validated index.
TAIL_TOLERANCE = Fraction(1, 4)


class GenerationBudgetError(RuntimeError):
    """Requested generation exceeds the build cap."""


class RatioSequence:
    """Middle-removal ratios c_1, c_2, ... with each c_i in (0, 1).

    The sequence must be non-increasing and tend to zero; both are checked on
    the prefix up to ``GENERATION_CAP`` (monotonicity index by index,
    smallness at the last index).
    """

    def __init__(self, kind: str, params: dict[str, Fraction],
                 evaluator: Callable[[int], Fraction]):
        self.kind = kind
        self.params = dict(params)
        self._evaluator = evaluator

    def __call__(self, i: int) -> Fraction:
        if i < 1:
            raise ValueError("ratio indices start at 1")
        return self._evaluator(i)

    def __repr__(self) -> str:
        if self.params:
            inner = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
            return f"RatioSequence({self.kind}: {inner})"
        return f"RatioSequence({self.kind})"

    @classmethod
    def dyadic(cls) -> "RatioSequence":
        """c_i = 2^-i, the default: keeps every endpoint dyadic."""
        return cls("dyadic", {}, lambda i: Fraction(1, 2 ** i))

    @classmethod
    def geometric(cls, q: Fraction) -> "RatioSequence":
        q = Fraction(q)
        if not 0 < q < 1:
            raise ValueError(f"geometric ratio base must lie in (0, 1), got {q}")
        return cls("geometric", {"q": q}, lambda i: q ** i)

    @classmethod
    def harmonic(cls) -> "RatioSequence":
        return cls("harmonic", {}, lambda i: Fraction(1, i + 1))

    def supremum(self) -> Fraction:
        """sup_i c_i; equals c_1 for a validated (non-increasing) sequence."""
        return self(1)

    def validate_prefix(self) -> None:
        prev: Optional[Fraction] = None
        for i in range(1, GENERATION_CAP + 1):
            c = self(i)
            if not 0 < c < 1:
                raise ValueError(f"ratio c_{i} = {c} is outside (0, 1)")
            if prev is not None and c > prev:
                raise ValueError(f"ratio sequence increases at index {i}: {c} > {prev}")
            prev = c
        if prev is not None and prev >= TAIL_TOLERANCE:
            raise ValueError(
                f"ratio sequence has not decayed below {TAIL_TOLERANCE} by index "
                f"{GENERATION_CAP}; it must tend to zero within the build budget")


class _BinaryCantorBase:
    """Shared engine: at each generation every interval [a, b] is replaced by
    its outer children [a, a + L_k] and [b - L_k, b], where L_k is the uniform
    generation-k length supplied by the subclass."""

    def __init__(self):
        # one (lower-end numerators, length numerator, denominator) per generation
        self._lattices: list[tuple[Sequence[int], int, int]] = [
            (memoryview(array("q", [0])).toreadonly(), 1, 1)]

    # subclasses supply the exact generation length
    def generation_length(self, k: int) -> Fraction:
        raise NotImplementedError

    def build(self, k: int) -> None:
        """Build (and keep) the lattices of all generations up to k."""
        if k < 0:
            raise ValueError("generation must be non-negative")
        if k > GENERATION_CAP:
            raise GenerationBudgetError(
                f"generation {k} exceeds the build cap {GENERATION_CAP}; "
                f"interval counts double per level")
        while len(self._lattices) <= k:
            g = len(self._lattices)
            length = self.generation_length(g)
            if not 0 < length < self.generation_length(g - 1) / 2:
                raise ValueError(f"generation {g} length {length} leaves no middle gap")
            lows, prev_ln, prev_den = self._lattices[g - 1]
            den = math.lcm(prev_den, length.denominator)
            lift = den // prev_den
            ln = length.numerator * (den // length.denominator)
            step = prev_ln * lift - ln  # from a left child's lower end to its sibling's
            fits = den < 2 ** 63
            make = (lambda values: array("q", values)) if fits else list
            # each parent's children: its lower end, scaled, then that plus step
            scaled = make(map(lift.__mul__, lows))
            children = scaled * 2
            children[::2] = scaled
            children[1::2] = make(map(step.__add__, scaled))
            del scaled  # freed before the tuple copy, which bounds the peak
            self._lattices.append(
                (memoryview(children).toreadonly() if fits else tuple(children), ln, den))

    def lattice(self, k: int) -> tuple[Sequence[int], int, int]:
        """(lower ends, length, denominator) of generation k, as integer
        numerators over the denominator; the lower ends are a read-only
        sequence in increasing order: a memoryview of an ``array('q')``
        while the denominator fits in 63 bits, a tuple of Python ints
        beyond."""
        self.build(k)
        return self._lattices[k]


class RatioCantorSet(_BinaryCantorBase):
    """Cantor set from a decreasing ratio sequence, on [0, 1]."""

    def __init__(self, ratios: RatioSequence):
        super().__init__()
        ratios.validate_prefix()
        self.ratios = ratios
        self._lengths: list[Fraction] = [Fraction(1)]

    def generation_length(self, k: int) -> Fraction:
        while len(self._lengths) <= k:
            g = len(self._lengths)
            self._lengths.append(self._lengths[g - 1] * (1 - self.ratios(g)) / 2)
        return self._lengths[k]


class SelfSimilarCantor(_BinaryCantorBase):
    """Two-branch self-similar Cantor set with exact rational scaling ratio."""

    def __init__(self, ratio):
        super().__init__()
        ratio = Fraction(ratio)
        if not 0 < ratio < Fraction(1, 2):
            raise ValueError(f"scaling ratio must lie in (0, 1/2), got {ratio}")
        self.ratio = ratio
        self._lengths: list[Fraction] = [Fraction(1)]

    @property
    def dimension(self) -> float:
        """Similarity dimension ln 2 / ln(1/r), in (0, 1)."""
        return math.log(2.0) / -_log_fraction(self.ratio)

    def generation_length(self, k: int) -> Fraction:
        while len(self._lengths) <= k:
            self._lengths.append(self._lengths[-1] * self.ratio)
        return self._lengths[k]


def _log_fraction(x: Fraction) -> float:
    # log of a positive rational without overflowing float conversion
    return math.log(x.numerator) - math.log(x.denominator)


def scaling_for_dimension(b: float) -> SelfSimilarCantor:
    """Self-similar set of dimension b in (0, 1): scaling ratio r = 2^(-1/b).

    The ratio is irrational for most b, so it is stored as the rational
    closest to the float value (snapped to a denominator of at most 10^9
    whenever the snap is positive and indistinguishable at 1e-13).  The
    round trip ln 2 / ln(1/r) agrees with b to within 1e-12.  Below b = 1/1022 the float
    2^(-1/b) is no longer a normal float, and b is refused.
    """
    if not (isinstance(b, (int, float)) and math.isfinite(b)):
        raise ValueError(f"dimension must be a finite number, got {b!r}")
    if not 0 < b < 1:
        raise ValueError(f"factor dimension must lie in (0, 1), got {b}")
    value = 2.0 ** (-1.0 / b)
    if value < sys.float_info.min:
        raise ValueError(f"factor dimension {b} is too small: its scaling ratio "
                         f"2^(-1/b) = {value} is below the normal float range")
    exact = Fraction(value)
    snapped = exact.limit_denominator(10 ** 9)
    ratio = snapped if snapped and abs(snapped - exact) < Fraction(1, 10 ** 13) else exact
    result = SelfSimilarCantor(ratio)
    if abs(result.dimension - b) > 1e-12:
        result = SelfSimilarCantor(exact)
    if abs(result.dimension - b) > 1e-12:
        raise ValueError(f"no rational scaling ratio found for dimension {b}")
    return result


class ProductCantor:
    """N-fold product of one self-similar factor, living in [0, 1]^N."""

    def __init__(self, factor: SelfSimilarCantor, copies: int):
        if copies < 1:
            raise ValueError("need at least one factor copy")
        self.factor = factor
        self.copies = copies

    @property
    def dimension(self) -> float:
        """Product dimension: copies * factor dimension."""
        return self.copies * self.factor.dimension

    def cell_count(self, k: int) -> int:
        return 2 ** (k * self.copies)

    def min_corners(self, k: int) -> list[tuple[Fraction, ...]]:
        """Lower-left corners of every generation-k cell (the cells' provable
        member points), in lexicographic order."""
        lows, _, den = self.factor.lattice(k)
        return list(itertools.product([Fraction(v, den) for v in lows],
                                      repeat=self.copies))


def product_for_dimension(a: float) -> ProductCantor:
    """Product Cantor set of total dimension a > 0.

    Uses the least number of copies N with a/N < 1, each copy a self-similar
    set of dimension a/N.
    """
    if not (isinstance(a, (int, float)) and math.isfinite(a)):
        raise ValueError(f"target dimension must be finite, got {a!r}; "
                         "infinite products have no finite construction")
    if a <= 0:
        raise ValueError(f"target dimension must be positive, got {a}")
    copies = int(math.floor(a)) + 1  # least N with a/N < 1
    return ProductCantor(scaling_for_dimension(a / copies), copies)


def uniform_perfectness_constant(cantor_set: RatioCantorSet) -> Fraction:
    """K = 2 / (1 - sup_i c_i): bounds every consecutive-length ratio."""
    return 2 / (1 - cantor_set.ratios.supremum())


@dataclass(frozen=True)
class AnnulusWitness:
    """Outcome of one annulus query at a sampled (center, radius)."""

    center: Fraction
    radius: Fraction
    kind: str  # "witness" | "vacuous" | "inconclusive"
    point: Optional[Fraction] = None
    distance: Optional[Fraction] = None


@dataclass
class PerfectnessReport:
    constant: Fraction
    depth: int
    results: list[AnnulusWitness]

    @property
    def conclusive(self) -> bool:
        return all(r.kind != "inconclusive" for r in self.results)

    @property
    def witness_count(self) -> int:
        return sum(1 for r in self.results if r.kind == "witness")

    @property
    def vacuous_count(self) -> int:
        return sum(1 for r in self.results if r.kind == "vacuous")

    def inconclusive_samples(self) -> list[AnnulusWitness]:
        return [r for r in self.results if r.kind == "inconclusive"]


def lattice_rank(values: Sequence[int], num: int, den: int, strict: bool) -> int:
    """How many of the sorted integers ``values`` are < num / den when
    ``strict`` and <= num / den otherwise (den > 0).

    a < key iff a < ceil(key), and a <= key iff a <= floor(key), both integer
    divisions, and the bound is found by ``bisect``.  The perfectness and
    mass certificates rank every ball end here.
    """
    if strict:
        return bisect_left(values, -(-num // den))
    return bisect_right(values, num // den)


def verify_uniform_perfectness(cantor_set: RatioCantorSet,
                               samples: Sequence[tuple[Fraction, Fraction]],
                               depth: int) -> PerfectnessReport:
    """For each (x, r) exhibit a set point in the annulus r/(4K) <= |x - a| < r,
    or recognise that the ball of radius r swallows the whole set.

    Centers must be endpoints of built generation intervals (hence provably in
    the set).  A sample where no witness exists among depth-``depth`` endpoints
    is reported inconclusive: deepen, never refute.

    The depth-``depth`` endpoints stay integer numerators over the lattice
    denominator.  x, x + r/(4K) and x - r/(4K) are ranked among them
    (``lattice_rank``) and x + r and x - r compared with them, all on
    integers; a ``Fraction`` is made only for each witness found.
    """
    constant = uniform_perfectness_constant(cantor_set)
    lows, ln, den = cantor_set.lattice(depth)
    ends = [0] * (2 * len(lows))  # every endpoint, increasing
    ends[::2] = lows
    ends[1::2] = map(ln.__add__, lows)
    kn, kd = constant.numerator, constant.denominator
    results: list[AnnulusWitness] = []
    for x, r in samples:
        x = Fraction(x)
        r = Fraction(r)
        (xn, xd), (rn, rd) = x.as_integer_ratio(), r.as_integer_ratio()
        if rn <= 0:
            raise ValueError(f"radius must be positive, got {r}")
        i = lattice_rank(ends, xn * den, xd, True)
        if i == len(ends) or ends[i] * xd != xn * den:
            raise ValueError(f"center {x} is not a built generation endpoint")
        if rn * xd > max(xn, xd - xn) * rd:
            # ball contains [0, 1], hence the whole set: nothing to witness
            results.append(AnnulusWitness(x, r, "vacuous"))
            continue
        # x, r and r/(4K) over one denominator, in lattice units
        key_den = 4 * kn * xd * rd
        center, reach, inner = (4 * kn * xn * rd * den, 4 * kn * rn * xd * den,
                                kd * rn * xd * den)
        witness = None
        # right side [x + inner, x + r), then left side (x - r, x - inner]
        i = lattice_rank(ends, center + inner, key_den, True)
        if i < len(ends) and ends[i] * key_den < center + reach:
            witness = ends[i]
        else:
            j = lattice_rank(ends, center - inner, key_den, False) - 1
            if j >= 0 and ends[j] * key_den > center - reach:
                witness = ends[j]
        if witness is None:
            results.append(AnnulusWitness(x, r, "inconclusive"))
        else:
            witness = Fraction(witness, den)
            results.append(AnnulusWitness(x, r, "witness", witness, abs(witness - x)))
    return PerfectnessReport(constant, depth, results)


def sample_ball_inputs(cantor_set: RatioCantorSet, count: int, depth: int,
                       rng) -> list[tuple[Fraction, Fraction]]:
    """Balls (center, radius) for the perfectness and mass certificates:
    centers are random endpoints of generations 0..depth (provably in the
    set), radii log-uniform in [L_{depth-1}, 1)."""
    cantor_set.build(depth)
    log_lo = _log_fraction(cantor_set.generation_length(max(depth - 1, 0)))
    samples = []
    for _ in range(count):
        g = rng.randrange(0, depth + 1)
        lows, ln, den = cantor_set.lattice(g)
        i = rng.randrange(2 ** (g + 1))  # endpoint i: an end of interval i // 2
        x = Fraction(lows[i // 2] + i % 2 * ln, den)
        r = Fraction(min(math.exp(rng.uniform(log_lo, 0.0)), 1.0 - 1e-12))
        samples.append((x, r))
    return samples
