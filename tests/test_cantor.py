"""Cantor constructions: exact interval geometry, dimensions, perfectness."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractarc.cantor import (GenerationBudgetError, ProductCantor, RatioCantorSet,
                             RatioSequence, SelfSimilarCantor, product_for_dimension,
                             sample_ball_inputs, scaling_for_dimension,
                             uniform_perfectness_constant, verify_uniform_perfectness)
from oracles import (Address, CantorInterval, endpoints, generation_intervals,
                     verify_generation_lengths)

LOG2_3 = math.log(2.0) / math.log(3.0)


def dyadic_set():
    return RatioCantorSet(RatioSequence.dyadic())


class TestRatioSequence:
    def test_dyadic_values(self):
        seq = RatioSequence.dyadic()
        assert [seq(i) for i in (1, 2, 3)] == [F(1, 2), F(1, 4), F(1, 8)]

    def test_geometric_and_harmonic(self):
        assert RatioSequence.geometric(F(1, 3))(2) == F(1, 9)
        assert RatioSequence.harmonic()(4) == F(1, 5)

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            RatioSequence.geometric(F(3, 2))

    def test_validation_rejects_increasing(self):
        seq = RatioSequence("bad", {}, lambda i: F(i, i + 10))
        with pytest.raises(ValueError, match="increases"):
            seq.validate_prefix()

    def test_validation_rejects_slow_decay(self):
        seq = RatioSequence("slow", {}, lambda i: F(9, 10))
        with pytest.raises(ValueError):
            seq.validate_prefix()


class TestGenerationIntervals:
    def test_generation_zero_is_unit_interval(self):
        iv, = generation_intervals(dyadic_set(), 0)
        assert (iv.lower, iv.upper) == (F(0), F(1))
        assert iv.length == 1

    def test_dyadic_generation_one(self):
        # removal of the middle half leaves quarters at both ends
        ivs = generation_intervals(dyadic_set(), 1)
        assert [(iv.lower, iv.upper) for iv in ivs] == [(F(0), F(1, 4)), (F(3, 4), F(1))]
        assert all(iv.length == F(1, 4) for iv in ivs)

    def test_dyadic_generation_two(self):
        ivs = generation_intervals(dyadic_set(), 2)
        assert all(iv.length == F(3, 32) for iv in ivs)
        assert [(iv.lower, iv.upper) for iv in ivs] == [
            (F(0), F(3, 32)), (F(5, 32), F(8, 32)),
            (F(24, 32), F(27, 32)), (F(29, 32), F(1))]

    def test_interval_count_and_order(self):
        ivs = generation_intervals(dyadic_set(), 6)
        assert len(ivs) == 64
        assert all(a.upper < b.lower for a, b in zip(ivs, ivs[1:]))

    @pytest.mark.parametrize("k", [3, 11])  # array('q') and tuple lattices
    def test_stored_lattice_is_read_only(self, k):
        lows, _, _ = dyadic_set().lattice(k)
        with pytest.raises(TypeError):
            lows[0] = 1

    def test_budget_exceeded(self):
        cantor = dyadic_set()
        with pytest.raises(GenerationBudgetError, match="generation 21 exceeds the build cap 20"):
            cantor.lattice(21)
        assert len(cantor._lattices) == 1  # refused before any generation is built

    def test_exact_lengths_all_generations(self):
        assert verify_generation_lengths(dyadic_set(), 10)


@st.composite
def ratio_sets(draw):
    kind = draw(st.sampled_from(["dyadic", "harmonic", "geometric"]))
    if kind == "dyadic":
        return RatioCantorSet(RatioSequence.dyadic())
    if kind == "harmonic":
        return RatioCantorSet(RatioSequence.harmonic())
    q = F(draw(st.integers(1, 5)), draw(st.integers(8, 12)))
    return RatioCantorSet(RatioSequence.geometric(q))


def oracle_pairs(s, k):
    """The engine's former build loop, kept as the oracle: generation k as
    (a, b) numerator pairs over one denominator, grown pair by pair."""
    den, pairs = 1, [(0, 1)]
    for g in range(1, k + 1):
        length = s.generation_length(g)
        new_den = math.lcm(den, length.denominator)
        lift = new_den // den
        ln = length.numerator * (new_den // length.denominator)
        grown = []
        for a, b in pairs:
            a *= lift
            b *= lift
            grown.append((a, a + ln))
            grown.append((b - ln, b))
        den, pairs = new_den, grown
    return pairs, den


engines = st.one_of(
    ratio_sets(),
    st.sampled_from([F(1, 3), F(2, 5), F(1, 10)]).map(SelfSimilarCantor),
    st.builds(scaling_for_dimension, st.just(0.75)))


class TestLatticeMatchesPairOracle:
    # generations 0-12 cross the array('q') -> tuple switch (dyadic: g = 10)
    @given(engines, st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_views_match_oracle(self, s, k):
        pairs, den = oracle_pairs(s, k)
        lows, ln, lattice_den = s.lattice(k)
        assert lattice_den == den
        assert list(lows) == [a for a, _ in pairs]
        assert all(b - a == ln for a, b in pairs)
        expected = [CantorInterval(k, j + 1, F(a, den), F(b, den))
                    for j, (a, b) in enumerate(pairs)]
        assert generation_intervals(s, k) == expected
        assert endpoints(s, k) == [F(v, den) for pair in pairs for v in pair]

    def test_dyadic_lattice_is_exact_on_both_sides_of_2_63(self):
        # generation 9 lives over a 55-bit denominator, generation 10 over a
        # 66-bit one: eight bytes an interval, then Python ints
        s = dyadic_set()
        for k, bits, storage in ((9, 55, memoryview), (10, 66, tuple)):
            pairs, den = oracle_pairs(s, k)
            lows, ln, lattice_den = s.lattice(k)
            assert (lattice_den, lattice_den.bit_length()) == (den, bits)
            assert list(lows) == [a for a, _ in pairs]
            assert [a + ln for a in lows] == [b for _, b in pairs]
            assert isinstance(lows, storage)


def _shift_odd_child(lows, ln, den):
    lows = list(lows)
    lows[3] += 1
    return lows, ln, den


def _shift_even_child(lows, ln, den):
    lows = list(lows)
    lows[2] -= 1
    return lows, ln, den


def _stretch_length(lows, ln, den):
    return lows, ln + 1, den


class TestTamperedLattice:
    @pytest.mark.parametrize("k", [4, 11])  # array('q') and tuple lattices
    @pytest.mark.parametrize("tamper", [_shift_odd_child, _shift_even_child,
                                        _stretch_length])
    def test_verify_generation_lengths_rejects_a_tampered_generation(self, k, tamper):
        # the tampered generation is the last one checked, so its own
        # children cannot give it away
        s = dyadic_set()
        assert verify_generation_lengths(s, k)
        s._lattices[k] = tamper(*s._lattices[k])
        assert not verify_generation_lengths(s, k)


class TestStructuralInvariants:
    @given(ratio_sets(), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_nesting_is_binary(self, s, k):
        parents = generation_intervals(s, k - 1)
        children = generation_intervals(s, k)
        for j, child in enumerate(children):
            parent = parents[j // 2]
            assert parent.lower <= child.lower and child.upper <= parent.upper

    @given(ratio_sets(), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_length_formula_exact(self, s, k):
        expected = F(1)
        for i in range(1, k + 1):
            expected *= 1 - s.ratios(i)
        expected /= 2 ** k
        assert s.generation_length(k) == expected
        assert all(iv.length == expected for iv in generation_intervals(s, k))

    @given(ratio_sets(), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_length_ratio_bounded_by_perfectness_constant(self, s, k):
        ratio = s.generation_length(k - 1) / s.generation_length(k)
        assert ratio == 2 / (1 - s.ratios(k))
        assert ratio <= uniform_perfectness_constant(s)

    def test_finite_generation_exponent_increases_toward_one(self):
        # k ln 2 / ln(1 / L_k), with L_k read off the lattice
        s = dyadic_set()
        values = []
        for k in range(1, 17):
            _, ln, den = s.lattice(k)
            values.append(k * math.log(2.0) / (math.log(den) - math.log(ln)))
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < 1.0 for v in values)
        assert values[-1] > 0.85


class TestSelfSimilar:
    def test_middle_thirds_geometry(self):
        s = SelfSimilarCantor(F(1, 3))
        ivs = generation_intervals(s, 2)
        assert [(iv.lower, iv.upper) for iv in ivs] == [
            (F(0), F(1, 9)), (F(2, 9), F(1, 3)), (F(2, 3), F(7, 9)), (F(8, 9), F(1))]
        assert s.generation_length(5) == F(1, 243)

    def test_dimension_formula(self):
        assert SelfSimilarCantor(F(1, 3)).dimension == pytest.approx(LOG2_3)
        assert SelfSimilarCantor(F(1, 4)).dimension == pytest.approx(0.5)

    def test_ratio_bounds(self):
        for bad in (F(0), F(1, 2), F(2, 3), F(-1, 3)):
            with pytest.raises(ValueError):
                SelfSimilarCantor(bad)

    def test_exact_lengths_all_generations(self):
        assert verify_generation_lengths(SelfSimilarCantor(F(2, 5)), 10)


class TestScalingForDimension:
    def test_middle_thirds_recovered(self):
        s = scaling_for_dimension(LOG2_3)
        assert s.ratio == F(1, 3)

    def test_half_dimension(self):
        assert scaling_for_dimension(0.5).ratio == F(1, 4)

    def test_generic_dimension_round_trip(self):
        s = scaling_for_dimension(0.9)
        assert float(s.ratio) == pytest.approx(2.0 ** (-10.0 / 9.0), abs=1e-9)
        assert abs(s.dimension - 0.9) <= 1e-12

    # below about 0.023 the ratio is within 1e-13 of 0, which limit_denominator
    # would snap it to
    @given(st.floats(1 / 1022, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_within_tolerance(self, b):
        s = scaling_for_dimension(b)
        assert 0 < s.ratio < F(1, 2)
        assert abs(s.dimension - b) <= 1e-12

    def test_rejects_out_of_range(self):
        # the last three: the ratio 2^(-1/b) is below the normal floats
        for bad in (0.0, 1.0, -0.3, float("nan"), float("inf"), 1 / 1023, 0.0005, 1e-300):
            with pytest.raises(ValueError):
                scaling_for_dimension(bad)


class TestProductForDimension:
    def test_small_dimension_single_copy(self):
        p = product_for_dimension(0.5)
        assert p.copies == 1 and p.factor.dimension == pytest.approx(0.5)

    def test_dimension_two_needs_three_copies(self):
        p = product_for_dimension(2.0)
        assert p.copies == 3
        assert p.factor.dimension == pytest.approx(2.0 / 3.0)
        assert float(p.factor.ratio) == pytest.approx(2.0 ** -1.5, abs=1e-9)

    def test_dimension_three_halves(self):
        p = product_for_dimension(1.5)
        assert p.copies == 2 and p.factor.dimension == pytest.approx(0.75)

    def test_integer_dimension_boundary(self):
        # a/N < 1 must be strict, so a=1 needs two copies
        assert product_for_dimension(1.0).copies == 2

    def test_rejects_non_finite(self):
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                product_for_dimension(bad)

    def test_product_additivity(self):
        p = product_for_dimension(1.5)
        assert p.dimension == pytest.approx(1.5)

    def test_min_corners(self):
        p = ProductCantor(SelfSimilarCantor(F(1, 3)), 2)
        corners = p.min_corners(1)
        assert corners == [(F(0), F(0)), (F(0), F(2, 3)), (F(2, 3), F(0)), (F(2, 3), F(2, 3))]


class TestAddress:
    def test_validation(self):
        with pytest.raises(ValueError):
            Address(("01", "0"))
        with pytest.raises(ValueError):
            Address(("0a",))
        a = Address(("01", "10"))
        assert a.depth == 2 and len(a.words) == 2


class TestUniformPerfectness:
    def test_constant_values(self):
        assert uniform_perfectness_constant(dyadic_set()) == 4
        geo = RatioCantorSet(RatioSequence.geometric(F(3, 4)))
        assert uniform_perfectness_constant(geo) == 8
        tiny = RatioCantorSet(RatioSequence.geometric(F(1, 1000)))
        k = uniform_perfectness_constant(tiny)
        assert 2 < k < F(2) + F(1, 100)

    def test_annulus_witness_at_origin(self):
        s = dyadic_set()
        report = verify_uniform_perfectness(s, [(F(0), F(1))], depth=4)
        res, = report.results
        assert res.kind == "witness"
        assert F(1, 16) <= res.distance < 1
        # the far interval's left endpoint is itself a valid witness
        assert F(1, 16) <= abs(F(3, 4) - F(0)) < 1

    def test_vacuous_when_ball_swallows_set(self):
        report = verify_uniform_perfectness(dyadic_set(), [(F(0), F(2))], depth=2)
        assert report.results[0].kind == "vacuous"

    def test_witness_inside_first_interval(self):
        s = dyadic_set()
        x = generation_intervals(s, 2)[0].lower  # left endpoint of the first depth-2 interval
        report = verify_uniform_perfectness(s, [(x, F(1, 4))], depth=4)
        res, = report.results
        assert res.kind == "witness"
        assert res.distance >= F(1, 4) / (4 * report.constant)
        assert res.point <= F(1, 4)  # witness stays in the first depth-1 interval

    def test_rejects_non_endpoint_center(self):
        with pytest.raises(ValueError, match="endpoint"):
            verify_uniform_perfectness(dyadic_set(), [(F(1, 2), F(1, 4))], depth=3)

    def test_sampled_batch_is_conclusive(self):
        import random
        s = dyadic_set()
        samples = sample_ball_inputs(s, 200, depth=10, rng=random.Random(7))
        report = verify_uniform_perfectness(s, samples, depth=10)
        assert report.conclusive
        for res in report.results:
            if res.kind == "witness":
                assert res.radius / (4 * report.constant) <= res.distance < res.radius
