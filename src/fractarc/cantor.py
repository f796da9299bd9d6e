"""Cantor sets built by repeated middle-interval removal.

Two constructions share one engine:

* ``RatioCantorSet`` removes a middle portion of relative size c_k at
  generation k, where the ratio sequence c_k decreases to zero.  Its
  generation-k intervals all have length prod_{i<=k}(1 - c_i) / 2^k.
* ``SelfSimilarCantor`` keeps two copies scaled by a constant ratio
  r in (0, 1/2); generation-k intervals have length r^k and the set has
  similarity dimension ln 2 / ln(1/r).

All endpoints are exact rationals.  Every generation-k interval has the one
length L_k, so a generation is stored as one read-only integer lattice: the
intervals' lower ends as numerators over a common denominator, beside the
numerator of L_k (``lattice``).  The array is int64 while the denominator
fits in 63 bits and holds Python ints beyond; generation k is built from
generation k-1 in one vectorised step.  Intervals, endpoints and addresses
are ``Fraction`` views derived from the lattice on each call.

The ball certificates read the lattice itself: ``lattice_rank`` ranks a
rational key among its numerators by one integer floor or ceiling division
and a ``searchsorted``, and ``verify_uniform_perfectness`` and
``measure.NaturalMeasure`` rank every ball end that way.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

DEFAULT_GENERATION_BUDGET = 20
GENERATION_BUDGET_ENV = "FRACTARC_GENERATION_BUDGET"

#: Ratio sequences must have dropped below this by the last validated index.
TAIL_TOLERANCE = Fraction(1, 4)


class GenerationBudgetError(RuntimeError):
    """Requested generation exceeds the configured build cap."""


def generation_budget(default: int = DEFAULT_GENERATION_BUDGET) -> int:
    """Build cap, overridable through the environment."""
    raw = os.environ.get(GENERATION_BUDGET_ENV)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{GENERATION_BUDGET_ENV} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{GENERATION_BUDGET_ENV} must be positive")
    return value


class RatioSequence:
    """Middle-removal ratios c_1, c_2, ... with each c_i in (0, 1).

    The sequence must be non-increasing and tend to zero; both are checked on
    a finite prefix (monotonicity index by index, smallness at the last
    validated index).
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

    def validate_prefix(self, length: int) -> None:
        prev: Optional[Fraction] = None
        for i in range(1, length + 1):
            c = self(i)
            if not 0 < c < 1:
                raise ValueError(f"ratio c_{i} = {c} is outside (0, 1)")
            if prev is not None and c > prev:
                raise ValueError(f"ratio sequence increases at index {i}: {c} > {prev}")
            prev = c
        if prev is not None and prev >= TAIL_TOLERANCE:
            raise ValueError(
                f"ratio sequence has not decayed below {TAIL_TOLERANCE} by index "
                f"{length}; it must tend to zero within the build budget")


@dataclass(frozen=True)
class CantorInterval:
    """One closed generation interval, with exact rational endpoints."""

    generation: int
    index: int  # 1-based, left to right within the generation
    lower: Fraction
    upper: Fraction

    @property
    def length(self) -> Fraction:
        return self.upper - self.lower


class _BinaryCantorBase:
    """Shared engine: at each generation every interval [a, b] is replaced by
    its outer children [a, a + L_k] and [b - L_k, b], where L_k is the uniform
    generation-k length supplied by the subclass."""

    def __init__(self, max_generation: Optional[int] = None):
        self._max_generation = generation_budget() if max_generation is None else max_generation
        if self._max_generation < 1:
            raise ValueError("generation budget must be at least 1")
        # one (lower-end numerators, length numerator, denominator) per generation
        self._lattices: list[tuple[np.ndarray, int, int]] = [
            (_read_only(np.zeros(1, np.int64)), 1, 1)]

    # subclasses supply the exact generation length
    def generation_length(self, k: int) -> Fraction:
        raise NotImplementedError

    @property
    def max_generation(self) -> int:
        return self._max_generation

    @property
    def max_built_generation(self) -> int:
        return len(self._lattices) - 1

    def build(self, k: int) -> None:
        """Build (and keep) the lattices of all generations up to k."""
        if k < 0:
            raise ValueError("generation must be non-negative")
        if k > self._max_generation:
            raise GenerationBudgetError(
                f"generation {k} exceeds the build cap {self._max_generation}; "
                f"interval counts double per level")
        while self.max_built_generation < k:
            g = self.max_built_generation + 1
            length = self.generation_length(g)
            if not 0 < length < self.generation_length(g - 1) / 2:
                raise ValueError(f"generation {g} length {length} leaves no middle gap")
            lows, prev_ln, prev_den = self._lattices[g - 1]
            den = math.lcm(prev_den, length.denominator)
            lift = den // prev_den
            ln = length.numerator * (den // length.denominator)
            if den >= 2 ** 63:
                lows = lows.astype(object, copy=False)
            lows = lows * lift
            children = np.stack([lows, lows + (prev_ln * lift - ln)], axis=1).ravel()
            self._lattices.append((_read_only(children), ln, den))

    def lattice(self, k: int) -> tuple[np.ndarray, int, int]:
        """(lower ends, length, denominator) of generation k, as integer
        numerators over the denominator; the lower ends are a read-only array
        in increasing order, int64 while the denominator fits in 63 bits and
        Python ints (dtype object) beyond."""
        self.build(k)
        return self._lattices[k]

    def generation_intervals(self, k: int) -> list[CantorInterval]:
        """The 2^k generation-k intervals in increasing order."""
        lows, ln, den = self.lattice(k)
        return [CantorInterval(k, j + 1, Fraction(a, den), Fraction(a + ln, den))
                for j, a in enumerate(lows.tolist())]

    def endpoints(self, k: int) -> list[Fraction]:
        """All 2^(k+1) generation-k interval endpoints, sorted increasing."""
        lows, ln, den = self.lattice(k)
        return [Fraction(v, den) for a in lows.tolist() for v in (a, a + ln)]

    def interval_at(self, word: str) -> CantorInterval:
        """Interval addressed by a branch word over {0, 1} (0 = left child)."""
        if any(ch not in "01" for ch in word):
            raise ValueError(f"branch word must be over {{0,1}}, got {word!r}")
        k = len(word)
        lows, ln, den = self.lattice(k)
        j = int(word, 2) if word else 0
        a = int(lows[j])
        return CantorInterval(k, j + 1, Fraction(a, den), Fraction(a + ln, den))

    def verify_generation_lengths(self, up_to: int) -> bool:
        """Every stored generation has the exact generation length, and each
        of its intervals is an outer child of its parent: even children start
        at the parent's lower end, odd children end at its upper end.

        Runs on the integer lattice, so deep generations check in milliseconds.
        """
        self.build(up_to)
        for k in range(up_to + 1):
            lows, ln, den = self._lattices[k]
            if Fraction(ln, den) != self.generation_length(k):
                return False
            if k == 0:
                continue
            parents, prev_ln, prev_den = self._lattices[k - 1]
            lift = den // prev_den
            parents = parents.astype(lows.dtype) * lift
            if not (np.array_equal(lows[0::2], parents)
                    and np.array_equal(lows[1::2] + ln, parents + prev_ln * lift)):
                return False
        return True


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class RatioCantorSet(_BinaryCantorBase):
    """Cantor set from a decreasing ratio sequence, on [0, 1]."""

    def __init__(self, ratios: RatioSequence, max_generation: Optional[int] = None):
        super().__init__(max_generation)
        ratios.validate_prefix(self._max_generation)
        self.ratios = ratios
        self._lengths: list[Fraction] = [Fraction(1)]

    def generation_length(self, k: int) -> Fraction:
        while len(self._lengths) <= k:
            g = len(self._lengths)
            self._lengths.append(self._lengths[g - 1] * (1 - self.ratios(g)) / 2)
        return self._lengths[k]

    def length_ratio(self, k: int) -> Fraction:
        """Exact consecutive-length ratio L_{k-1} / L_k = 2 / (1 - c_k)."""
        if k < 1:
            raise ValueError("length ratios start at generation 1")
        return 2 / (1 - self.ratios(k))

    def finite_generation_exponent(self, k: int) -> float:
        """k ln 2 / ln(1 / L_k): the depth-k box-counting exponent of the
        construction, increasing toward 1 when the ratios decrease to zero."""
        if k < 1:
            raise ValueError("exponent defined for k >= 1")
        return k * math.log(2.0) / -_log_fraction(self.generation_length(k))


class SelfSimilarCantor(_BinaryCantorBase):
    """Two-branch self-similar Cantor set with exact rational scaling ratio."""

    def __init__(self, ratio, max_generation: Optional[int] = None):
        super().__init__(max_generation)
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


@dataclass(frozen=True)
class Address:
    """Branch words, one per coordinate, naming a generation cell.

    Every word has the same length (the generation depth); a single-word
    address names an interval of a one-dimensional set.
    """

    words: tuple[str, ...]

    def __post_init__(self):
        if not self.words:
            raise ValueError("address needs at least one coordinate word")
        depth = len(self.words[0])
        for w in self.words:
            if len(w) != depth:
                raise ValueError("all coordinate words must share one length")
            if any(ch not in "01" for ch in w):
                raise ValueError(f"branch words are over {{0,1}}, got {w!r}")

    @property
    def depth(self) -> int:
        return len(self.words[0])

    @property
    def axes(self) -> int:
        return len(self.words)

    @classmethod
    def random(cls, axes: int, depth: int, rng) -> "Address":
        return cls(tuple("".join(rng.choice("01") for _ in range(depth))
                         for _ in range(axes)))


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

    @property
    def ambient_dimension(self) -> int:
        return self.copies

    def cell_count(self, k: int) -> int:
        return 2 ** (k * self.copies)

    def min_corners(self, k: int) -> list[tuple[Fraction, ...]]:
        """Lower-left corners of every generation-k cell (the cells' provable
        member points), in lexicographic order."""
        corners, den = self.min_corner_lattice(k)
        return [tuple(Fraction(v, den) for v in row) for row in corners.tolist()]

    def min_corner_lattice(self, k: int) -> tuple[np.ndarray, int]:
        """``min_corners`` as a (cells, copies) array of integer numerators
        over one denominator, typed as in ``lattice``; at most 2^22 cells."""
        if self.cell_count(k) > 2 ** 22:
            raise GenerationBudgetError(
                f"{self.cell_count(k)} cells at generation {k} exceed the sample cap {2 ** 22}")
        lows, _, den = self.factor.lattice(k)
        n, copies = len(lows), self.copies
        corners = np.empty((n ** copies, copies), dtype=lows.dtype)
        grid = corners.reshape((n,) * copies + (copies,))
        for axis in range(copies):
            # axis 0 varies slowest: lexicographic order
            grid[..., axis] = lows.reshape([n if a == axis else 1 for a in range(copies)])
        return corners, den


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


def lattice_rank(values: np.ndarray, top: int, num: int, den: int, strict: bool) -> int:
    """How many of the sorted integers ``values``, all in [0, top], are
    < num / den when ``strict`` and <= num / den otherwise (den > 0).

    a < key iff a < ceil(key), and a <= key iff a <= floor(key), both integer
    divisions; a bound outside [0, top] counts none or all of them without a
    search, so the searched bound fits the array's dtype.  The perfectness
    and mass certificates rank every ball end here.
    """
    bound = -(-num // den) if strict else num // den
    if bound < 0 or bound > top:
        return 0 if bound < 0 else len(values)
    return int(np.searchsorted(values, bound, side="left" if strict else "right"))


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
    ends = np.stack([lows, lows + ln], axis=1).ravel()  # every endpoint, increasing
    kn, kd = constant.numerator, constant.denominator
    results: list[AnnulusWitness] = []
    for x, r in samples:
        x = Fraction(x)
        r = Fraction(r)
        (xn, xd), (rn, rd) = x.as_integer_ratio(), r.as_integer_ratio()
        if rn <= 0:
            raise ValueError(f"radius must be positive, got {r}")
        i = lattice_rank(ends, den, xn * den, xd, True)
        if i == len(ends) or int(ends[i]) * xd != xn * den:
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
        i = lattice_rank(ends, den, center + inner, key_den, True)
        if i < len(ends) and int(ends[i]) * key_den < center + reach:
            witness = int(ends[i])
        else:
            j = lattice_rank(ends, den, center - inner, key_den, False) - 1
            if j >= 0 and int(ends[j]) * key_den > center - reach:
                witness = int(ends[j])
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
        x = Fraction(int(lows[i // 2]) + i % 2 * ln, den)
        r = Fraction(min(math.exp(rng.uniform(log_lo, 0.0)), 1.0 - 1e-12))
        samples.append((x, r))
    return samples
