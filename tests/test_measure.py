"""Natural measure: exact interval masses, ball-mass brackets, mass bounds."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractarc.cantor import RatioCantorSet, RatioSequence, sample_ball_inputs
from fractarc.measure import (DEFAULT_EXPONENT_GRID, NaturalMeasure,
                              mass_bound_sequence, verify_mass_bounds,
                              verify_radius_generation_chain)


@pytest.fixture(scope="module")
def measure():
    return NaturalMeasure(RatioCantorSet(RatioSequence.dyadic()), depth=12)


class TestIntervalMass:
    def test_root_mass_is_one(self, measure):
        assert measure.interval_mass(0, 1) == 1

    def test_equal_weights(self, measure):
        assert all(measure.interval_mass(3, j) == F(1, 8) for j in range(1, 9))

    def test_generation_masses_sum_to_one(self, measure):
        assert measure.generation_mass_total(5) == 1
        assert measure.generation_mass_total(10) == 1

    def test_unknown_interval(self, measure):
        with pytest.raises(KeyError):
            measure.interval_mass(2, 5)
        with pytest.raises(KeyError):
            measure.interval_mass(40, 1)


class TestBallMass:
    def test_huge_ball_has_full_mass(self, measure):
        bracket = measure.ball_mass(F(1, 2), F(2), resolution=3)
        assert bracket.lower == bracket.upper == 1

    def test_ball_capturing_first_interval_only(self, measure):
        # radius just past the first depth-1 interval, far from the second
        bracket = measure.ball_mass(F(0), F(1, 4) + F(1, 1000), resolution=1)
        assert bracket.lower == bracket.upper == F(1, 2)

    def test_lower_bound_of_selected_interval(self, measure):
        # brute-force oracle: sum over generation-4 intervals inside the ball
        r = measure.base.generation_length(2)
        expected = sum(F(1, 16) for iv in measure.base.generation_intervals(4)
                       if -r < iv.lower and iv.upper < r)
        bracket = measure.ball_mass(F(0), r, resolution=4)
        assert bracket.lower == expected
        assert bracket.lower >= r / 2

    def test_bracket_width_bound(self, measure):
        rng = random.Random(5)
        for _ in range(50):
            x = F(rng.randrange(0, 1001), 1000)
            r = F(rng.randrange(1, 500), 1000)
            for k in (4, 8):
                b = measure.ball_mass(x, r, k)
                assert b.lower <= b.upper
                assert b.upper - b.lower <= 2 * F(1, 2 ** k)

    @given(st.integers(0, 1000), st.integers(1, 800), st.integers(2, 9))
    @settings(max_examples=60, deadline=None)
    def test_monotone_refinement(self, xn, rn, k):
        measure = _SHARED
        x = F(xn, 1000)
        r = F(rn, 1000)
        coarse = measure.ball_mass(x, r, k)
        fine = measure.ball_mass(x, r, k + 1)
        assert fine.lower >= coarse.lower
        assert fine.upper <= coarse.upper


_SHARED = NaturalMeasure(RatioCantorSet(RatioSequence.dyadic()), depth=12)


def _scan_counts(ivs, x, r):
    """Oracle: (intervals inside the open ball, intervals meeting it), by a
    scan over the exact intervals."""
    inside = sum(1 for iv in ivs if x - r < iv.lower and iv.upper < x + r)
    meet = sum(1 for iv in ivs if iv.upper > x - r and iv.lower < x + r)
    return inside, meet


class TestLatticeSearchMatchesScan:
    # generations 10-12 of the dyadic set hold Python ints, 0-9 int64; centers
    # and radii drawn from the endpoints put the ball's ends on interval ends
    @given(st.integers(0, 12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_ball_mass_and_boundary_count(self, k, data):
        base = _SHARED.base
        ends = base.endpoints(k)
        fractions = st.fractions(F(-1, 2), F(3, 2), max_denominator=10 ** 6)
        x = data.draw(st.sampled_from(ends) | fractions)
        r = data.draw(st.sampled_from([abs(e - x) for e in ends if e != x])
                      | fractions.filter(lambda v: v > 0))
        inside, meet = _scan_counts(base.generation_intervals(k), x, r)
        bracket = _SHARED.ball_mass(x, r, k)
        assert (bracket.lower, bracket.upper) == (inside * F(1, 2 ** k), meet * F(1, 2 ** k))
        if r > base.generation_length(_SHARED.depth):
            coarse, count = _SHARED.boundary_interval_count(x, r)
            assert count == _scan_counts(base.generation_intervals(coarse), x, r)[1]


class TestMassBoundSequence:
    def test_initial_value(self):
        seq = mass_bound_sequence(_SHARED.base, 0.3, 10)
        assert seq.values[0] == pytest.approx(6.0)

    def test_half_exponent_first_value(self):
        # 6 * 2^(-1/2) / (1/2)^(1/2) = 6
        seq = mass_bound_sequence(_SHARED.base, 0.5, 5)
        assert seq.values[1] == pytest.approx(6.0)

    def test_ratio_formula_and_limit(self):
        seq = mass_bound_sequence(_SHARED.base, 0.5, 40)
        for k in (0, 3, 10):
            expected = 2 ** -0.5 / (1 - 2.0 ** -(k + 1)) ** 0.5
            assert seq.ratios[k] == pytest.approx(expected)
        assert abs(seq.ratios[-1] - 2.0 ** -0.5) < 1e-6

    def test_values_match_ratios(self):
        seq = mass_bound_sequence(_SHARED.base, 0.25, 20)
        for k in range(20):
            assert seq.values[k + 1] / seq.values[k] == pytest.approx(seq.ratios[k])

    def test_bounded_and_vanishing(self):
        for eps in DEFAULT_EXPONENT_GRID:
            seq = mass_bound_sequence(_SHARED.base, eps, 40)
            assert seq.values.index(max(seq.values)) < 40
            assert seq.values[-1] < seq.values[0]

    def test_rejects_bad_exponent(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                mass_bound_sequence(_SHARED.base, bad, 10)


class TestMassBoundCertificate:
    def test_full_radius_upper_bound(self, measure):
        # mass 1 at radius ~ diameter stays below C * r^(1-eps)
        [cert] = verify_mass_bounds(measure, [0.5], [(F(0), F(999, 1000))], resolution=8)
        assert cert.valid
        assert cert.constant >= 2.0

    def test_sampled_certificates_hold(self, measure):
        rng = random.Random(11)
        samples = sample_ball_inputs(measure.base, 300, measure.depth, rng)
        certs = verify_mass_bounds(measure, DEFAULT_EXPONENT_GRID, samples, resolution=12)
        assert [cert.exponent for cert in certs] == list(DEFAULT_EXPONENT_GRID)
        for cert in certs:
            assert cert.valid, (cert.violations, cert.inconclusive)
            assert cert.lower_margin >= 0.0
            assert cert.upper_margin >= 0.0
            assert cert.max_boundary_intervals <= 3

    def test_one_bracket_per_sample_for_every_exponent(self, measure, monkeypatch):
        samples = sample_ball_inputs(measure.base, 50, measure.depth, random.Random(5))
        alone = [verify_mass_bounds(measure, [eps], samples, resolution=12)[0]
                 for eps in DEFAULT_EXPONENT_GRID]
        calls = []
        ball_mass = NaturalMeasure.ball_mass
        monkeypatch.setattr(NaturalMeasure, "ball_mass",
                            lambda self, *args: calls.append(args) or ball_mass(self, *args))
        certs = verify_mass_bounds(measure, DEFAULT_EXPONENT_GRID, samples, resolution=12)
        assert len(calls) == len(samples)
        assert certs == alone

    def test_radius_generation_chain(self, measure):
        rng = random.Random(13)
        samples = sample_ball_inputs(measure.base, 200, measure.depth, rng)
        assert verify_radius_generation_chain(measure, samples)

    def test_harmonic_family_also_certifies(self):
        m = NaturalMeasure(RatioCantorSet(RatioSequence.harmonic()), depth=10)
        samples = sample_ball_inputs(m.base, 100, m.depth, random.Random(3))
        [cert] = verify_mass_bounds(m, [0.25], samples, resolution=10)
        assert cert.valid
