"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion
lines and timings.  Every tolerance is pinned here; nothing is deferred.
"""

import json
import math
import random
import time
from fractions import Fraction as F

import pytest

from fractarc.arc import (build_arc, continuity_violations,
                          modulus_of_continuity, verify_containment,
                          verify_injectivity)
from fractarc.cantor import (ProductCantor, RatioCantorSet, RatioSequence,
                             SelfSimilarCantor, sample_ball_inputs,
                             uniform_perfectness_constant,
                             verify_uniform_perfectness)
from fractarc.cli import RunConfig, arc_estimate, main, run_estimate
from fractarc.dimension import estimate_dimension
from fractarc.measure import (NaturalMeasure, mass_bound_sequence,
                              verify_mass_bounds)
from fractarc.metric import VON_KOCH_EXPONENT
from oracles import (RowView, generation_intervals, param_intervals,
                     sample_addresses, scan_containment, verify_generation_lengths)

LOG2_3 = math.log(2.0) / math.log(3.0)


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def report(number: int, name: str, passed: bool, elapsed: float, budget: float):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {status} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert passed, f"criterion {number} ({name}) failed"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s: {elapsed:.2f}s"


@pytest.fixture(scope="module")
def figure_arc():
    """Planar build: dyadic base times the middle-thirds factor, depth 4."""
    base = RatioCantorSet(RatioSequence.dyadic())
    product = ProductCantor(SelfSimilarCantor(F(1, 3)), 1)
    return build_arc(base, product, 4)


def test_criterion_1_interval_exactness():
    with _Timer() as t:
        cantor = RatioCantorSet(RatioSequence.dyadic())
        ok = verify_generation_lengths(cantor, 16)
        # spot check the exact closed form against an independent product
        for k in (1, 2, 7, 10):
            expected = F(1)
            for i in range(1, k + 1):
                expected *= 1 - F(1, 2 ** i)
            expected /= 2 ** k
            ok = ok and all(iv.length == expected
                            for iv in generation_intervals(cantor, k))
    report(1, "interval-exactness", ok, t.elapsed, 1.0)


def test_criterion_2_uniform_perfectness():
    with _Timer() as t:
        cantor = RatioCantorSet(RatioSequence.dyadic())
        constant = uniform_perfectness_constant(cantor)
        ok = constant == F(2) / (1 - F(1, 2))
        samples = sample_ball_inputs(cantor, 1000, depth=16, rng=random.Random(2024))
        rep = verify_uniform_perfectness(cantor, samples, depth=16)
        ok = ok and rep.conclusive
        for res in rep.results:
            if res.kind == "witness":
                ok = ok and res.radius / (4 * constant) <= res.distance < res.radius
    report(2, "uniform-perfectness", ok, t.elapsed, 10.0)


def test_criterion_3_mass_bounds():
    with _Timer() as t:
        cantor = RatioCantorSet(RatioSequence.dyadic())
        measure = NaturalMeasure(cantor, depth=16)
        samples = sample_ball_inputs(cantor, 1000, 16, random.Random(7))
        ok = True
        grid = (0.5, 0.25, 0.1)
        for eps, cert in zip(grid, verify_mass_bounds(measure, grid, samples, resolution=16)):
            ok = ok and cert.valid and cert.max_boundary_intervals <= 3
            seq = mass_bound_sequence(cantor, eps, 40)
            ok = ok and cert.constant == max(2.0, seq.bound)
            ok = ok and abs(seq.values[-1] / seq.values[-2] - 2.0 ** -eps) < 1e-6
    report(3, "mass-bounds", ok, t.elapsed, 30.0)


def test_criterion_4_counting_invariants(figure_arc):
    with _Timer() as t:
        arc = figure_arc
        views = RowView(arc)
        ok = True
        for k in range(1, 5):
            ok = ok and len(views.generation_cells(k)) == 2 ** (2 * k)
            ok = ok and len(views.cumulative_connectors(k)) == 2 ** (2 * k) - 1
        rows = list(param_intervals(arc.depth, arc.ambient_dimension))
        for iv in rows:
            if iv["children"]:
                ok = ok and len(iv["children"]) == 7
                ok = ok and all(
                    rows[i]["status"] == ("neglected" if rows[i]["index"] % 2 == 0 else "used")
                    for i in iv["children"])
    report(4, "counting-invariants", ok, t.elapsed, 5.0)


def test_criterion_5_injectivity(figure_arc):
    with _Timer() as t:
        ok = True
        for k in range(1, 5):
            rep = verify_injectivity(figure_arc, k)
            ok = ok and rep.passed
    report(5, "injectivity", ok, t.elapsed, 30.0)


def test_criterion_6_containment_and_convergence(figure_arc):
    with _Timer() as t:
        arc = figure_arc
        addresses = sample_addresses(arc, 100, random.Random(11))
        worst = []
        ok = True
        for k in range(1, 5):
            # the exact check decides; the sampled oracle's worst distances
            # must stay within the bound and shrink
            sampled = scan_containment(arc, k, addresses)
            ok = ok and verify_containment(arc, k).passed and sampled.passed
            worst.append(sampled.max_distance)
        ok = ok and all(a > b for a, b in zip(worst, worst[1:]))
        for i in range(1000):
            u = i / 999.0
            for k in range(1, 4):
                p1, _ = arc.evaluate(u, k)
                p2, _ = arc.evaluate(u, k + 1)
                ok = ok and math.dist(p1, p2) <= arc.cell_diameter(k) + 1e-12
    report(6, "containment-convergence", ok, t.elapsed, 30.0)


def test_criterion_7_dimension_reproduction():
    config = RunConfig()
    jobs = [
        ("cantor", dict(ratio=F(1, 3), generation=12), LOG2_3, 0.05),
        ("product", dict(ratio=F(1, 3), copies=2, generation=8), 2 * LOG2_3, 0.1),
        ("snowflake", dict(exponent=0.5), 2.0, 0.1),
        ("snowflake", dict(exponent=VON_KOCH_EXPONENT), 1.0 / VON_KOCH_EXPONENT, 0.1),
        ("rug", dict(exponent=VON_KOCH_EXPONENT), 1.0 + 1.0 / VON_KOCH_EXPONENT, 0.1),
    ]
    ok = True
    slowest = 0.0
    for preset, kwargs, target, tolerance in jobs:
        with _Timer() as t:
            rep, _ = run_estimate(preset, config, **kwargs)
        ok = ok and abs(rep["slope"] - target) <= tolerance
        ok = ok and t.elapsed < 60.0  # each estimate individually budgeted
        slowest = max(slowest, t.elapsed)
    report(7, "dimension-reproduction", ok, slowest, 60.0)


def test_criterion_8_arc_dimension_consistency(figure_arc):
    expected = 1.0 + LOG2_3
    with _Timer() as t:
        slopes = []
        for depth in (2, 3, 4):
            arc = build_arc(figure_arc.base_set, figure_arc.product, depth)
            slopes.append(estimate_dimension(arc_estimate(arc), "box").slope)
        ok = 1.0 <= slopes[-1] <= expected + 0.15
        ok = ok and all(a <= b for a, b in zip(slopes, slopes[1:]))  # monotone trend
        ok = ok and all(s <= expected for s in slopes)  # approaches from below
    report(8, "arc-dimension-consistency", ok, t.elapsed, 60.0)


def test_criterion_9_modulus_of_continuity(figure_arc):
    with _Timer() as t:
        ok = True
        views = RowView(figure_arc)
        rng = random.Random(23)
        for eps in (0.5, 0.25, 0.12):
            rep = modulus_of_continuity(figure_arc, eps)
            lipschitz = max(c.lipschitz
                            for c in views.cumulative_connectors(rep.cutoff_depth))
            ok = ok and rep.delta == pytest.approx(
                min(rep.delta_prime, eps / (2 * lipschitz)))
            ok = ok and continuity_violations(figure_arc, eps, rep.delta,
                                              10_000, rng) == 0
    report(9, "modulus-of-continuity", ok, t.elapsed, 30.0)


def test_criterion_10_reproducibility(tmp_path):
    with _Timer() as t:
        outputs = []
        for tag in ("first", "second"):
            model = tmp_path / f"{tag}_model.json"
            est = tmp_path / f"{tag}_est.json"
            csv = tmp_path / f"{tag}_counts.csv"
            assert main(["build", "--c", repr(1 + LOG2_3), "--depth", "3",
                         "--seed", "42", "--out", str(model)]) == 0
            assert main(["estimate", "--preset", "arc", "--model", str(model),
                         "--out", str(est), "--csv", str(csv)]) == 0
            outputs.append((model.read_bytes(), est.read_bytes(), csv.read_bytes()))
        ok = outputs[0] == outputs[1]
    report(10, "reproducibility", ok, t.elapsed, 60.0)
