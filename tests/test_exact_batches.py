"""The read path's exact integer passes against the code they replaced:
``evaluate_many`` and ``continuity_violations`` against the digit loop and
the ``Fraction`` digits, and the integer-ranked perfectness and mass
certificates against their ``Fraction`` versions."""

import random
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fractarc.arc import ArcApproximation, build_arc, continuity_violations
from fractarc.cantor import (ProductCantor, RatioCantorSet, RatioSequence,
                             SelfSimilarCantor, lattice_rank, product_for_dimension,
                             sample_ball_inputs, uniform_perfectness_constant,
                             verify_uniform_perfectness)
from fractarc.measure import NaturalMeasure
from oracles import (RowView, digit_evaluate, fraction_ball_mass,
                     fraction_boundary_interval_count, fraction_evaluate,
                     fraction_uniform_perfectness, loop_continuity_violations)


@lru_cache(maxsize=None)
def depth_four_arc(kind):
    """A built depth-4 arc, planar (p = 7) or spatial (p = 15); never mutated."""
    base = RatioCantorSet(RatioSequence.dyadic())
    product = (ProductCantor(SelfSimilarCantor(F(1, 3)), 1) if kind == "planar"
               else product_for_dimension(1.5))
    return build_arc(base, product, 4)


@lru_cache(maxsize=None)
def depth_four_views(kind):
    """The ``RowView`` of ``depth_four_arc(kind)``; never mutated."""
    return RowView(depth_four_arc(kind))


#: Floats below 2^-8 and Fractions over 2^70 or a large odd denominator:
#: their digit products pass 2^63 for both p = 7 and p = 15.
WIDE = (5e-324, 2.0 ** -1074 * 3, 1e-300, 2.0 ** -61, 3 * 2.0 ** -62, 1e-3,
        F(1, 2 ** 70), F(5, 3 ** 41), F(2 ** 69 - 1, 2 ** 70))

#: Odd denominators below 2^63 / p, but where float(num) / float(den)
#: rounds twice and moves the connector point.
ROUNDED_TWICE = (F(113493040589302039, 436913816877166123),
                 F(67684211669536966, 369204549186685685),
                 F(216959887983133705, 500889328644863911),
                 F(407994856501563127, 540082916216206869))


@st.composite
def parameters(draw, p, k):
    """Parameters in [0, 1]: drawn floats, tiny floats, the ends, piece
    boundaries j / p^g as Fractions and as floats, and wide rationals."""
    g = draw(st.integers(1, k + 1))
    boundary = st.integers(0, p ** g).map(lambda j: F(j, p ** g))
    return draw(st.lists(
        st.floats(0.0, 1.0) | st.floats(0.0, 2.0 ** -8) | st.sampled_from([0.0, 1.0, 0, 1])
        | boundary | boundary.map(float) | st.sampled_from(WIDE + ROUNDED_TWICE)
        | st.fractions(F(0), F(1), max_denominator=10 ** 30),
        min_size=1, max_size=40))


class TestDescent:
    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["planar", "spatial"]), k=st.integers(1, 4), data=st.data())
    @example(kind="planar", k=4, data=None)
    @example(kind="spatial", k=4, data=None)
    def test_batch_matches_the_digit_loop_and_the_fraction_digits(self, kind, k, data):
        arc = depth_four_arc(kind)
        p = 2 * arc.branching - 1
        ts = list(WIDE + ROUNDED_TWICE) if data is None else data.draw(parameters(p, k))
        points, errors = arc.evaluate_many(ts, k)
        assert len(points) == len(errors) == len(ts)
        for t, point, error in zip(ts, points, errors):
            expected = digit_evaluate(arc, t, k)
            assert (point, error) == expected == fraction_evaluate(
                depth_four_views(kind), t, k), t
            assert arc.evaluate(t, k) == expected
        # floats and the same values as Fractions give the same points
        floats = [float(t) for t in ts]
        assert (arc.evaluate_many(floats, k)[0]
                == arc.evaluate_many([F(t) for t in floats], k)[0])

    @pytest.mark.parametrize("kind", ["planar", "spatial"])
    @pytest.mark.parametrize("ts", [
        [0.5, 5e-324, 2.0 ** -61], [F(1, 2), F(1, 3 ** 41)],
        # 2^60 * 7 still fits in 63 bits, 2^61 * 7 does not
        [0.0, 1.0, 2.0 ** -60, 2.0 ** -61, F(1, 2 ** 60), F(1, 2 ** 61), 3 * 2.0 ** -62]])
    def test_exact_on_both_sides_of_2_63(self, kind, ts):
        # the digit products of 2^-60 and 2^-61 fall on both sides of 2^63
        arc = depth_four_arc(kind)
        points, errors = arc.evaluate_many(ts, 4)
        assert [(point, error) for point, error in zip(points, errors)] == [
            fraction_evaluate(depth_four_views(kind), t, 4) for t in ts]
        assert all(type(x) is float for point in points for x in point)

    def test_rejects_what_evaluate_rejects(self):
        arc = depth_four_arc("planar")
        for bad in ([0.5, float("nan")], [1.5], [-1e-300], [F(3, 2)]):
            with pytest.raises(ValueError, match="parameter must lie in"):
                arc.evaluate_many(bad, 2)
        with pytest.raises(ValueError):
            arc.evaluate_many([0.5], 0)
        with pytest.raises(ValueError):
            arc.evaluate_many([0.5], 5)
        assert arc.evaluate_many([], 3) == ([], [])


class TestContinuity:
    @pytest.mark.parametrize("kind", ["planar", "spatial"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batched_count_matches_the_per_pair_loop(self, kind, seed):
        # epsilon below a deep connector's length, so violations are counted;
        # 2500 pairs span two full batches and a partial one
        arc = depth_four_arc(kind)
        epsilon, delta = 0.02, 0.01
        count = continuity_violations(arc, epsilon, delta, 2500, random.Random(seed))
        assert count > 0
        assert count == loop_continuity_violations(arc, epsilon, delta, 2500,
                                                   random.Random(seed))

    def test_continuity_does_not_call_evaluate(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("continuity_violations called evaluate")

        arc = depth_four_arc("planar")
        monkeypatch.setattr(ArcApproximation, "evaluate", refuse)
        assert continuity_violations(arc, 0.3, 1e-4, 3000, random.Random(4)) == 0


# -- the certificates -----------------------------------------------------------

#: Dyadic generations 0-9 live over denominators below 2^63, 10-12 above
#: (a 91-bit denominator at 12); the harmonic and geometric sets widen sooner.
CANTOR_SETS = {"dyadic": RatioCantorSet(RatioSequence.dyadic()),
               "harmonic": RatioCantorSet(RatioSequence.harmonic()),
               "geometric": RatioCantorSet(RatioSequence.geometric(F(2, 5)))}


@lru_cache(maxsize=None)
def endpoints_of(name, g):
    lows, ln, den = CANTOR_SETS[name].lattice(g)
    return tuple(F(v, den) for a in lows for v in (a, a + ln))


@st.composite
def balls(draw, name, depth):
    """(x, r) with x a built endpoint and r landing x + r, x - r, x + r/(4K)
    or x - r/(4K) exactly on a depth-``depth`` endpoint, or drawn."""
    x = draw(st.sampled_from(endpoints_of(name, draw(st.integers(0, depth)))))
    gap = st.sampled_from(endpoints_of(name, depth)).filter(lambda e: e != x).map(
        lambda e: abs(e - x))
    constant = uniform_perfectness_constant(CANTOR_SETS[name])
    r = draw(gap | gap.map(lambda g: 4 * constant * g)
             | st.sampled_from([max(x, 1 - x), F(1), F(2)])
             | st.fractions(F(1, 10 ** 9), F(3, 2), max_denominator=10 ** 12))
    return x, r


class TestCertificates:
    @pytest.mark.parametrize("depth", [9, 10])
    def test_certificates_on_both_sides_of_2_63(self, depth):
        # dyadic generation 9 lives over a 55-bit denominator, 10 over a 66-bit one
        dyadic = CANTOR_SETS["dyadic"]
        assert dyadic.lattice(depth)[2].bit_length() == {9: 55, 10: 66}[depth]
        samples = sample_ball_inputs(dyadic, 100, depth, random.Random(depth))
        assert (verify_uniform_perfectness(dyadic, samples, depth)
                == fraction_uniform_perfectness(dyadic, samples, depth))
        measure = NaturalMeasure(dyadic, depth)
        for x, r in samples:
            assert measure.ball_mass(x, r, depth) == fraction_ball_mass(measure, x, r, depth)
        assert dyadic.lattice(12)[2].bit_length() == 91

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(CANTOR_SETS)), depth=st.sampled_from([2, 5, 9, 12]),
           data=st.data())
    def test_perfectness_matches_the_fraction_bisection(self, name, depth, data):
        cantor_set = CANTOR_SETS[name]
        samples = data.draw(st.lists(balls(name, depth), min_size=1, max_size=12))
        assert (verify_uniform_perfectness(cantor_set, samples, depth)
                == fraction_uniform_perfectness(cantor_set, samples, depth))

    @pytest.mark.parametrize("name", sorted(CANTOR_SETS))
    def test_perfectness_on_sampled_balls(self, name):
        cantor_set = CANTOR_SETS[name]
        samples = sample_ball_inputs(cantor_set, 200, 12, random.Random(7))
        report = verify_uniform_perfectness(cantor_set, samples, 12)
        assert report == fraction_uniform_perfectness(cantor_set, samples, 12)
        assert report.witness_count > 0

    @pytest.mark.parametrize("x,r", [(F(1, 3), F(1, 4)), (F(-1, 2), F(1)), (F(3, 2), F(1)),
                                     (F(0), F(0)), (F(0), F(-1, 3))])
    def test_perfectness_refuses_what_the_bisection_refuses(self, x, r):
        cantor_set = CANTOR_SETS["dyadic"]
        with pytest.raises(ValueError) as ours:
            verify_uniform_perfectness(cantor_set, [(x, r)], 6)
        with pytest.raises(ValueError) as theirs:
            fraction_uniform_perfectness(cantor_set, [(x, r)], 6)
        assert str(ours.value) == str(theirs.value)

    @settings(max_examples=80, deadline=None)
    @given(name=st.sampled_from(sorted(CANTOR_SETS)), resolution=st.sampled_from([1, 4, 8, 12]),
           data=st.data())
    def test_ball_mass_and_boundary_count_match_the_fraction_keys(self, name, resolution,
                                                                   data):
        measure = NaturalMeasure(CANTOR_SETS[name], 12)
        x, r = data.draw(balls(name, resolution))
        assert measure.ball_mass(x, r, resolution) == fraction_ball_mass(measure, x, r,
                                                                         resolution)
        try:
            expected = fraction_boundary_interval_count(measure, x, r)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                measure.boundary_interval_count(x, r)
        else:
            assert measure.boundary_interval_count(x, r) == expected

    def test_rank_ends_and_clamps(self):
        values = [0, 3, 5, 9]
        assert [lattice_rank(values, n, 2, True) for n in (-3, 0, 6, 7, 10, 18, 19)] == [
            0, 0, 1, 2, 2, 3, 4]
        assert [lattice_rank(values, n, 2, False) for n in (-3, -1, 0, 6, 7, 18, 40)] == [
            0, 0, 1, 2, 2, 4, 4]
        assert lattice_rank(values, 2 ** 80, 1, True) == 4
        assert lattice_rank(values, -2 ** 80, 1, False) == 0

    def test_perfectness_makes_a_few_fractions_per_sample(self, monkeypatch):
        cantor_set = CANTOR_SETS["dyadic"]
        samples = sample_ball_inputs(cantor_set, 50, 12, random.Random(3))
        made = []

        def counting(cls, *args, inner=F.__new__, **kwargs):
            made.append(args)
            return inner(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", counting)
        verify_uniform_perfectness(cantor_set, samples, 12)
        monkeypatch.undo()
        # the lattice has 2^13 endpoints; the Fraction bisection made one each
        assert len(made) <= 6 * len(samples) + 10
