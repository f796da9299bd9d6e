"""Per-layer timings of the Cantor lattice, the two counting kernels and
the arc's build and verify layers, with the work they do.

Times ``lattice`` of fresh self-similar Cantor engines (r = 1/3 and 1/10,
the second past the 63-bit denominators), ``box_count_series`` on exact
Cantor samples and on a two-copy product, counted on its two per-axis
samples as the product preset counts it, and ``net_count_series`` on
snowflake and snowflake-rug samples, each at three or four generations, and
on the rug over planar-4 at generation 6, in one process, best of five
``perf_counter`` runs.  Sampling is timed apart from counting (a fresh
Cantor engine per run, so its stored generations do not hide the build).
Rugs are counted on their factor samples, as the CLI counts them, beside
the product path (the whole product sample built, then counted) as the
reference.  Each row keeps the point count (for a rug, the product's and
each factor's; for a product, the axis sample's and the cells') beside the
lattice's storage (``array('q')`` or tuple) or the counts per scale, so work and time are
read together.  Given a second ``src`` directory, the box and net samples
and counts are timed in a fresh process against it as well.

``ball_net_count`` alone, best of five, beside one run of the full-scan
oracle of the tests (``full_scan_net_count``), whose counts must be equal:
on the snowflake at the von Koch exponent, 1/2 and 0.3, generations
12/14/16, and on the ``ArcFactor`` vertex clouds of planar-5/6 and
spatial-3/4, each on the radii ``estimate`` would count it at.  Given a
second ``src`` directory, the same counts are timed in a fresh process
against it as well.

The arc layers on the planar (n = 1) arcs of depth 4 to 8 and the spatial
(n = 2) arcs of depth 3 to 5 (``perfbench`` builds planar-4/5/6 and
spatial-3/4): construction (``build_model``, which grows, routes and checks
every generation in one loop), best of three, with its ``route_connectors``
runs (one per distinct sub-cell order of each generation).  All but planar-4
then time ``run_verification`` as ``verify`` runs it on the model's config,
best of five, with the ``_order_shape``, ``corners`` and ``_path_legal``
calls one run makes: construction decided every check, so the target is 0.
Given a second ``src`` directory, the build and the verification of
planar-5/6/8 and spatial-3/4/5 are timed in a fresh process against it as
well.  Where the sweep is cheap (planar-5/6, spatial-3/4) the chain build
(``traversal_chain``) and the sweep of the tests' row oracle
(``chain_self_intersection``) are timed too, with the segment count and
candidate pairs.  ``evaluate_many`` is timed
over 20,000 seeded parameters on planar-5, beside per-call
``evaluate`` on the first 2,000 of them, and ``continuity_violations`` over
10,000 seeded pairs (epsilon 0.05, the modulus's delta) on planar-5 and
planar-6.  The certificates run on the base sets of planar-5 and spatial-3
at resolution 12, the resolution ``verify`` uses: ``verify_uniform_perfectness``
and ``verify_mass_bounds`` on 200 seeded balls each, with the verdict counts
and the lattice's storage.  Containment runs on planar-5 to 8 and spatial-3
to 5: ``containment`` is ``verify_containment`` at the arc's depth, the one
call ``verify`` makes, which reads no row;
``sampled_containment`` is the sampled check it replaced
(``scan_containment`` from the tests' oracles: 100 seeded addresses
against the whole vertex cloud) at every depth, with the cloud points it
scans, and it must pass wherever the exact check does.

The model file, best of three, on planar-6 and spatial-4: ``model_text``;
``_load_model`` of the canonical file, streamed through the compare, beside
the row check (``json.loads`` then ``model_from_dict``) that any other text
gets; and ``vertex_cloud`` with its point count.  ``arc_estimate`` on the
same two arcs, as ``estimate --preset arc`` runs it on the default window:
each axis's float interval ends counted and the counts multiplied, beside
the cloud oracle of the tests (``cloud_box_count``: the distinct box rows of
the whole ``vertex_cloud``, as a set of tuples), whose counts must be equal.
Every row above runs the library as the CLI does, on the arc's per-axis
interval-index rows.

Last, the fifteen commands of perfbench's three workloads, each in a fresh
process exactly as perfbench runs it untraced (``python -m fractarc.cli``,
or ``perfbench/child.py continuity``), the median of five runs of the wall
time and of the child's own peak RSS (``os.wait4``, as perfbench reads
it), beside ``python -c "import fractarc.cli"`` timed on its own.  One more run of
each, through ``child.main``, records the ``fractarc.*`` modules the
command loaded.  Given a second ``src`` directory (the parent's, say),
every repeat runs each command once against each tree, the order
alternating from repeat to repeat, and a row reports both medians and how
many of the five pairs the first tree won, so the two sides share the
machine's state instead of being minutes apart.

The report also records the lines of every ``src/fractarc`` module, of both
trees when a second is given.

    PYTHONPATH=src python bench/run.py BENCH.json [PARENT_SRC]
"""

from __future__ import annotations

import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

import fractarc
from fractarc import arc as arc_module
from fractarc.cantor import (SelfSimilarCantor, sample_ball_inputs,
                             verify_uniform_perfectness)
from fractarc.cli import (RunConfig, _load_canonical, _load_model, arc_estimate,
                          build_model, model_from_dict, model_text, run_verification)
from fractarc.dimension import (ball_net_count, box_count_series, cantor_sample,
                                net_count_series, power_scales)
from fractarc.geometry import _meeting_box_pairs, chain_self_intersection
from fractarc.measure import DEFAULT_EXPONENT_GRID, NaturalMeasure, verify_mass_bounds
from fractarc.metric import VON_KOCH_EXPONENT, ArcFactor, RugSpace, SnowflakeMetric

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
sys.path[:0] = [str(PERFBENCH), str(ROOT / "tests")]
import workloads  # noqa: E402  (perfbench's commands, run by cli_rows)
from oracles import (cloud_box_count, full_scan_net_count,  # noqa: E402  (the references)
                     sample_addresses, scan_containment)

REPEATS = 5
VERIFY_REPEATS = 3
CLI_REPEATS = 5
EVALUATE_CALLS = 20_000
PER_CALL_EVALUATES = 2_000
CONTINUITY_PAIRS = 10_000
CONTINUITY_EPSILON = 0.05
CERTIFICATE_SAMPLES = 200
CERTIFICATE_RESOLUTION = 12
CONTAINMENT_ADDRESSES = 100
CLI_SEED = 1
THIRD = Fraction(1, 3)
PLANAR_C = 1.6309297535714574
ARCS = {**{f"planar-{d}": (PLANAR_C, d) for d in range(4, 9)},
        **{f"spatial-{d}": (2.5, d) for d in range(3, 6)}}
#: Arcs whose traversal is cheap enough to sweep and whose cloud to scan.
SWEPT = ("planar-5", "planar-6", "spatial-3", "spatial-4")
#: Arcs whose build and verification are also timed against a parent tree.
COMPARED = ("planar-5", "planar-6", "planar-8", "spatial-3", "spatial-4", "spatial-5")


def best_of(fn, repeats=REPEATS):
    """(best wall time, last result) over ``repeats`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        result = fn()
        best = min(best, perf_counter() - start)
    return best, result


def src_lines(src: Path) -> dict:
    """Lines of each module of the ``fractarc`` package under ``src``, and
    their total."""
    lines = {path.name: len(path.read_text(encoding="utf-8").splitlines())
             for path in sorted((src / "fractarc").glob("*.py"))}
    return {**lines, "total": sum(lines.values())}


def lattice_row(case: str, ratio: Fraction, generation: int) -> dict:
    build_s, (lows, _, _) = best_of(lambda: SelfSimilarCantor(ratio).lattice(generation))
    return {"layer": "cantor_lattice", "case": case, "generation": generation,
            "points": len(lows), "storage": _storage(lows), "build_s": build_s}


def _storage(lows) -> str:
    """How a Cantor lattice stores its lower ends."""
    return "array('q')" if isinstance(lows, memoryview) else "tuple"


def box_cases():
    """(case, generation, copies, scales) of the box rows: the cantor
    preset's window at three generations, the product preset's for two
    copies at four."""
    for g in (10, 12, 14):
        yield "cantor 1/3", g, 1, power_scales(THIRD, 2, g - 2)
    for g in (6, 8, 10, 12):
        hi = min(6, g - 2)
        yield "product 1/3 x2", g, 2, power_scales(THIRD, max(1, min(2, hi - 2)), hi)


def box_times() -> list:
    """(best sample time, best count time, counts) of each of ``box_cases``:
    ``cantor_sample`` of a fresh engine, then ``box_count_series`` of
    ``copies`` copies of the sample."""
    out = []
    for _, g, copies, scales in box_cases():
        sample_s, (points, resolution) = best_of(
            lambda: cantor_sample(SelfSimilarCantor(THIRD), g))
        count_s, series = best_of(lambda: box_count_series([points] * copies, scales,
                                                           resolution))
        out.append((sample_s, count_s, list(series.counts)))
    return out


#: Prints ``box_times()`` of the ``fractarc`` on PYTHONPATH (argv: bench's
#: directory) as JSON.
PARENT_BOXES = ("import json, sys; sys.path.insert(0, sys.argv[1]); import run; "
                "print(json.dumps(run.box_times()))")


def box_rows(parent: Path | None = None) -> list[dict]:
    """Box counts of each of ``box_cases``, the product of the axis counts;
    ``points`` is the axis sample's size, ``cells`` the product's.  With a
    ``parent`` src directory the same samples and counts are timed in a
    fresh process against it (``parent_sample_s``, ``parent_count_s``), and
    its counts must be equal."""
    out = []
    for (case, g, copies, scales), (sample_s, count_s, counts) in zip(box_cases(),
                                                                      box_times()):
        points = 2 ** g
        out.append({"layer": "box_count_series", "case": case, "generation": g,
                    "points": points, "cells": points ** copies,
                    "scales": [str(s) for s in scales], "counts": counts,
                    "sample_s": sample_s, "count_s": count_s})
    if parent is not None:
        run = subprocess.run([sys.executable, "-c", PARENT_BOXES, str(ROOT / "bench")],
                             env={**os.environ, "PYTHONPATH": str(parent)}, check=True,
                             text=True, stdout=subprocess.PIPE)
        for row, (sample_s, count_s, counts) in zip(out, json.loads(run.stdout)):
            if counts != row["counts"]:
                raise SystemExit(f"{row['case']}: parent counts {counts} != {row['counts']}")
            row.update(parent_sample_s=sample_s, parent_count_s=count_s)
    return out


def net_cases():
    """(case, generation, space, radii) of the net rows: the snowflake
    preset's radii at three generations, the snowflake rug's at three, and
    the rug over planar-4 at generation 6."""
    koch = SnowflakeMetric(VON_KOCH_EXPONENT)
    for g in (12, 14, 16):
        yield "snowflake koch", g, koch, [0.5 ** i for i in range(2, 8)]
    for g in (7, 8, 9):
        yield "rug koch", g, RugSpace(koch), [0.5 ** i for i in range(2, 6)]
    c, depth = ARCS["planar-4"]
    planar_4 = build_model(RunConfig(target_dimension=c, depth=depth))
    yield "rug planar-4", 6, RugSpace(ArcFactor(planar_4)), [0.5 ** i for i in range(2, 5)]


def net_factors(space, generation: int) -> list:
    """The ``(space, sample)`` factors the CLI counts: a snowflake on its
    own sample, a rug on its two factor samples."""
    if isinstance(space, RugSpace):
        return space.factors(generation)
    return [(space, space.sample(generation))]


def net_series_times() -> list:
    """(best sample time, best count time, counts) of each of ``net_cases``:
    ``net_factors``, then ``net_count_series`` on them."""
    out = []
    for _, g, space, radii in net_cases():
        sample_s, factors = best_of(lambda: net_factors(space, g))
        # resolution 0: the radii are the presets' own, which they admit
        count_s, series = best_of(lambda: net_count_series(factors, radii, 0))
        out.append((sample_s, count_s, list(series.counts)))
    return out


#: Prints ``net_series_times()`` of the ``fractarc`` on PYTHONPATH (argv:
#: bench's directory) as JSON.
PARENT_NET_SERIES = ("import json, sys; sys.path.insert(0, sys.argv[1]); import run; "
                     "print(json.dumps(run.net_series_times()))")


def net_rows(parent: Path | None = None) -> list[dict]:
    """Net counts of each of ``net_cases`` as the CLI takes them.  A rug row
    also times the product path it replaced, the whole product sample built
    and then counted, as the reference, and checks that both give the same
    counts.  With a ``parent`` src directory the same factors and counts are
    timed in a fresh process against it (``parent_sample_s``,
    ``parent_count_s``), and its counts must be equal."""
    out = []
    for (case, g, space, radii), (sample_s, count_s, counts) in zip(net_cases(),
                                                                    net_series_times()):
        factors = net_factors(space, g)
        row = {"layer": "net_count_series", "case": case, "generation": g,
               "points": math.prod(len(points) for _, points in factors),
               "factor_points": [len(points) for _, points in factors],
               "scales": radii, "counts": counts,
               "sample_s": sample_s, "count_s": count_s}
        if isinstance(space, RugSpace):
            product_sample_s, points = best_of(lambda: space.sample(g))
            product_count_s, product_counts = best_of(
                lambda: [ball_net_count(space, points, r) for r in radii])
            if product_counts != counts:
                raise SystemExit(f"{case}: factor counts {counts} != product {product_counts}")
            row.update(product_sample_s=product_sample_s, product_count_s=product_count_s)
        out.append(row)
    if parent is not None:
        run = subprocess.run([sys.executable, "-c", PARENT_NET_SERIES, str(ROOT / "bench")],
                             env={**os.environ, "PYTHONPATH": str(parent)}, check=True,
                             text=True, stdout=subprocess.PIPE)
        for row, (sample_s, count_s, counts) in zip(out, json.loads(run.stdout)):
            if counts != row["counts"]:
                raise SystemExit(f"{row['case']}: parent counts {counts} != {row['counts']}")
            row.update(parent_sample_s=sample_s, parent_count_s=count_s)
    return out


def net_samples():
    """(case, generation, space, points, radii) of the net-oracle rows: the
    snowflake at three exponents and generations on the snowflake preset's
    default radii 2^-2..2^-7, less those finer than the sample's resolution
    (which ``estimate`` refuses), and the ``ArcFactor`` clouds of four arcs
    on the default window 2^-2..2^-4 of a rug over them."""
    for name, eps in (("koch", VON_KOCH_EXPONENT), ("1/2", 0.5), ("0.3", 0.3)):
        space = SnowflakeMetric(eps)
        for g in (12, 14, 16):
            radii = [0.5 ** i for i in range(2, 8) if 0.5 ** i >= (2.0 ** -g) ** eps]
            yield f"snowflake {name}", g, space, space.sample(g), radii
    for case in ("planar-5", "planar-6", "spatial-3", "spatial-4"):
        c, depth = ARCS[case]
        factor = ArcFactor(build_model(RunConfig(target_dimension=c, depth=depth)))
        yield f"arc {case}", depth, factor, factor.sample(depth), [0.5 ** i for i in range(2, 5)]


def net_time(space, points, radii):
    """(best time, counts) of ``ball_net_count`` over ``radii``."""
    return best_of(lambda: [ball_net_count(space, points, r) for r in radii])


def net_times() -> list:
    """``net_time`` of each of ``net_samples``, in order."""
    return [net_time(space, points, radii) for _, _, space, points, radii in net_samples()]


#: Prints ``net_times()`` of the ``fractarc`` on PYTHONPATH (argv: bench's
#: directory) as JSON.
PARENT_NETS = ("import json, sys; sys.path.insert(0, sys.argv[1]); import run; "
               "print(json.dumps(run.net_times()))")


def net_oracle_rows(parent: Path | None = None) -> list[dict]:
    """``ball_net_count`` on each of ``net_samples``, best of five, beside
    one run of the full-scan oracle, whose counts must be equal.  With a
    ``parent`` src directory the same counts are timed in a fresh process
    against it (``parent_count_s``), and must be equal too."""
    out = []
    for case, g, space, points, radii in net_samples():
        count_s, counts = net_time(space, points, radii)
        oracle_s, oracle = best_of(lambda: [full_scan_net_count(space, points, r)
                                            for r in radii], 1)
        if oracle != counts:
            raise SystemExit(f"{case} g={g}: counts {counts} != full scan {oracle}")
        out.append({"layer": "ball_net_count", "case": case, "generation": g,
                    "points": len(points), "scales": radii, "counts": counts,
                    "count_s": count_s, "oracle_s": oracle_s})
    if parent is not None:
        run = subprocess.run([sys.executable, "-c", PARENT_NETS, str(ROOT / "bench")],
                             env={**os.environ, "PYTHONPATH": str(parent)}, check=True,
                             text=True, stdout=subprocess.PIPE)
        for row, (parent_s, counts) in zip(out, json.loads(run.stdout)):
            if counts != row["counts"]:
                raise SystemExit(f"{row['case']}: parent counts {counts} != {row['counts']}")
            row["parent_count_s"] = parent_s
    return out


@contextmanager
def counting(name: str, owner=arc_module):
    """Replace ``owner.<name>`` (an ``arc`` module attribute by default) by a
    wrapper counting its runs into the first item of the list it yields."""
    calls = [0]
    inner = getattr(owner, name)

    def wrapper(*args):
        calls[0] += 1
        return inner(*args)
    setattr(owner, name, wrapper)
    try:
        yield calls
    finally:
        setattr(owner, name, inner)


def arc_config(case: str) -> RunConfig:
    """The config of one of ``ARCS``, as its model file holds it."""
    c, depth = ARCS[case]
    return RunConfig(target_dimension=c, depth=depth)


def build_time(case: str):
    """(best of three time, arc) of ``build_model`` on one arc, each run a
    fresh arc."""
    return best_of(lambda: build_model(arc_config(case)), VERIFY_REPEATS)


def verify_time(arc, case: str):
    """(best of five time, report) of ``run_verification`` on a built arc."""
    return best_of(lambda: run_verification(arc, arc_config(case)))


def arc_times() -> list:
    """(build, verification) times of each of ``COMPARED``, in order."""
    out = []
    for case in COMPARED:
        build_s, arc = build_time(case)
        out.append((build_s, verify_time(arc, case)[0]))
    return out


#: Prints ``arc_times()`` of the ``fractarc`` on PYTHONPATH (argv: bench's
#: directory) as JSON.
PARENT_ARCS = ("import json, sys; sys.path.insert(0, sys.argv[1]); import run; "
               "print(json.dumps(run.arc_times()))")


def build_row(case: str) -> dict:
    """Construction of one arc (``build_model``: every generation grown,
    routed and checked), with the ``route_connectors`` runs: one per
    distinct sub-cell order of each generation."""
    with counting("route_connectors") as calls:
        time_s, arc = build_time(case)
    depth = arc.depth
    return {"layer": "build", "case": case, "depth": depth, "cells": arc.first_id(depth + 1),
            "connectors": arc.branching ** depth - 1,
            "route_connectors_runs": calls[0] // VERIFY_REPEATS, "time_s": time_s}


def verify_rows(case: str) -> list[dict]:
    """``run_verification`` of one arc, with the construction work one run
    repeats (none); on the ``SWEPT`` arcs also the chain build and the sweep
    of the tests' row oracle."""
    arc = build_model(arc_config(case))
    depth = arc.depth
    with (counting("_order_shape") as shapes, counting("_path_legal") as legal,
          counting("corners", arc_module.ArcApproximation) as corners):
        verify_s, report = verify_time(arc, case)
    out = [{"layer": "verify", "case": case, "depth": depth,
            "connectors": arc.branching ** depth - 1, "passed": report["passed"],
            "order_shape_calls": shapes[0] // REPEATS,
            "corners_calls": corners[0] // REPEATS,
            "path_legal_calls": legal[0] // REPEATS, "time_s": verify_s}]
    if case in SWEPT:
        den = arc.denominator(depth)
        build_s, chain = best_of(lambda: arc.traversal_chain(depth), VERIFY_REPEATS)
        check_s, found = best_of(lambda: chain_self_intersection(chain), VERIFY_REPEATS)
        assert found is None, (case, found)
        out += [{"layer": "chain_build", "case": case, "depth": depth,
                 "denominator_bits": den.bit_length(), "time_s": build_s},
                {"layer": "chain_check", "case": case, "depth": depth,
                 "segments": len(chain) - 1,
                 "candidate_pairs": len(_meeting_box_pairs(chain)), "time_s": check_s}]
    return out


def evaluate_row(case: str) -> dict:
    c, depth = ARCS[case]
    arc = build_model(RunConfig(target_dimension=c, depth=depth))
    rng = random.Random(0)
    params = [rng.random() for _ in range(EVALUATE_CALLS)]
    time_s, _ = best_of(lambda: arc.evaluate_many(params, depth), VERIFY_REPEATS)
    per_call_s, _ = best_of(lambda: [arc.evaluate(t, depth)
                                     for t in params[:PER_CALL_EVALUATES]], VERIFY_REPEATS)
    return {"layer": "evaluate_many", "case": case, "depth": depth, "params": len(params),
            "per_call": PER_CALL_EVALUATES, "per_call_s": per_call_s, "time_s": time_s}


def continuity_row(case: str) -> dict:
    c, depth = ARCS[case]
    arc = build_model(RunConfig(target_dimension=c, depth=depth))
    delta = arc_module.modulus_of_continuity(arc, CONTINUITY_EPSILON).delta
    time_s, violations = best_of(lambda: arc_module.continuity_violations(
        arc, CONTINUITY_EPSILON, delta, CONTINUITY_PAIRS, random.Random(0)), VERIFY_REPEATS)
    return {"layer": "continuity", "case": case, "depth": depth, "pairs": CONTINUITY_PAIRS,
            "violations": violations, "time_s": time_s}


def certificate_rows(case: str) -> list[dict]:
    """Uniform perfectness and the mass bounds on the base set of one arc,
    as ``verify`` runs them."""
    c, depth = ARCS[case]
    base = build_model(RunConfig(target_dimension=c, depth=1)).base_set
    res = CERTIFICATE_RESOLUTION
    rng = random.Random(0)
    balls = sample_ball_inputs(base, CERTIFICATE_SAMPLES, res, rng)
    mass_balls = sample_ball_inputs(base, CERTIFICATE_SAMPLES, res, rng)
    lows, _, den = base.lattice(res)
    perf_s, perf = best_of(lambda: verify_uniform_perfectness(base, balls, res),
                           VERIFY_REPEATS)
    measure = NaturalMeasure(base, res)
    mass_s, certs = best_of(lambda: verify_mass_bounds(measure, DEFAULT_EXPONENT_GRID,
                                                       mass_balls, res), VERIFY_REPEATS)
    lattice = {"resolution": res, "storage": _storage(lows),
               "denominator_bits": den.bit_length()}
    return [{"layer": "uniform_perfectness", "case": case, "depth": depth, **lattice,
             "samples": len(balls), "witnesses": perf.witness_count,
             "vacuous": perf.vacuous_count, "inconclusive": len(perf.inconclusive_samples()),
             "time_s": perf_s},
            {"layer": "mass_bounds", "case": case, "depth": depth, **lattice,
             "samples": len(mass_balls), "valid": sum(cert.valid for cert in certs),
             "max_boundary_intervals": max(cert.max_boundary_intervals for cert in certs),
             "time_s": mass_s}]


def containment_rows(case: str) -> list[dict]:
    """``verify_containment`` of one arc at its depth, best of three, beside
    the sampled oracle it replaced (``scan_containment`` on seeded
    addresses) at every depth, which must pass wherever the exact check
    does: an exact pass at the arc's depth covers every shallower depth."""
    c, depth = ARCS[case]
    arc = build_model(RunConfig(target_dimension=c, depth=depth))
    depths = range(1, depth + 1)
    time_s, report = best_of(lambda: arc_module.verify_containment(arc, depth), VERIFY_REPEATS)
    addresses = sample_addresses(arc, CONTAINMENT_ADDRESSES, random.Random(0))
    scan_s, scanned = best_of(lambda: [scan_containment(arc, k, addresses) for k in depths],
                              VERIFY_REPEATS)
    if report.passed and not all(sampled.passed for sampled in scanned):
        raise SystemExit(f"{case}: the exact containment check passes where the sample fails")
    return [{"layer": "containment", "case": case, "depth": depth, "passed": report.passed,
             "time_s": time_s},
            {"layer": "sampled_containment", "case": case, "depth": depth,
             "passed": all(sampled.passed for sampled in scanned),
             "addresses": len(addresses),
             "cloud_points": sum(len(arc.vertex_cloud(k)) for k in depths),
             "time_s": scan_s}]


def model_file_rows(case: str) -> list[dict]:
    """Serialise and load of one arc's model file, each beside its reference
    path, then its vertex cloud."""
    c, depth = ARCS[case]
    config = RunConfig(target_dimension=c, depth=depth)
    arc = build_model(config)
    text_s, text = best_of(lambda: model_text(arc, config), VERIFY_REPEATS)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{case}.json"
        path.write_text(text)
        if _load_canonical(path) is None:
            raise SystemExit(f"{case}: the canonical text does not load")
        load_s, _ = best_of(lambda: _load_model(path), VERIFY_REPEATS)
        row_check_s, _ = best_of(lambda: model_from_dict(json.loads(path.read_text())),
                                 VERIFY_REPEATS)
    cloud_s, cloud = best_of(lambda: arc.vertex_cloud(depth), VERIFY_REPEATS)
    return [{"layer": "serialise", "case": case, "depth": depth, "bytes": len(text),
             "time_s": text_s},
            {"layer": "load", "case": case, "depth": depth, "row_check_s": row_check_s,
             "time_s": load_s},
            {"layer": "vertex_cloud", "case": case, "depth": depth, "points": len(cloud),
             "time_s": cloud_s}]


def estimate_row(case: str) -> dict:
    """``arc_estimate`` of one arc on its default window, best of three,
    beside the cloud oracle on the whole vertex cloud; the counts must be
    equal."""
    c, depth = ARCS[case]
    arc = build_model(RunConfig(target_dimension=c, depth=depth))
    time_s, series = best_of(lambda: arc_estimate(arc), VERIFY_REPEATS)
    cloud_s, counts = best_of(lambda: [cloud_box_count(np.array(arc.vertex_cloud(depth)), d)
                                       for d in series.scales], VERIFY_REPEATS)
    if counts != list(series.counts):
        raise SystemExit(f"{case}: axis counts {list(series.counts)} != cloud {counts}")
    return {"layer": "arc_estimate", "case": case, "depth": depth,
            "axis_ends": sum(len(ends) for ends in arc.axis_ends(depth)),
            "cloud_points": len(arc.vertex_cloud(depth)),
            "scales": [str(s) for s in series.scales], "counts": counts,
            "cloud_s": cloud_s, "time_s": time_s}


#: Prints the ``fractarc.*`` modules loaded so far as the last stdout line.
PRINT_MODULES = ("print(' '.join(sorted(m.split('.', 1)[1] for m in sys.modules "
                 "if m.startswith('fractarc.'))))")
#: Runs ``child.main`` (argv: perfbench's directory, then the op) first.
OP_MODULES = ("import sys; sys.path.insert(0, sys.argv[1]); import child; "
              "child.main(sys.argv[2:]); " + PRINT_MODULES)


#: Runs argv[1:] as a child and prints its wall time and its own peak RSS in
#: MiB (``os.wait4``).  A child's peak RSS counts the memory of the process
#: that spawned it, and this harness holds hundreds of MiB by the time it
#: reaches the commands, so each command is spawned from this small process
#: instead, as perfbench's small harness spawns its own.
SPAWN = ("import os, subprocess, sys, time; start = time.perf_counter(); "
         "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL); "
         "_, status, usage = os.wait4(proc.pid, 0); "
         "print(time.perf_counter() - start, usage.ru_maxrss / 1024); "
         "sys.exit(os.waitstatus_to_exitcode(status))")


def cli_rows(parent: Path | None = None) -> list[dict]:
    """Fresh-process wall times and peak RSS, the median of five, of
    ``import fractarc.cli`` and of each perfbench command, with the engine
    modules each loads.  The peak RSS is the child's own, from ``os.wait4``
    in ``SPAWN``, as perfbench reads it.  With a ``parent`` src directory each repeat also
    runs the command against it, in alternating order; ``parent_time_s``
    and ``parent_peak_rss_mib`` are its medians and ``pairs_faster`` the
    repeats in which this tree was faster.  The models the workloads read
    are built first, as perfbench's set-up does."""
    src = Path(fractarc.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}

    def fresh(tree: Path, *args: str) -> tuple[float, float]:
        """(wall time, peak RSS in MiB) of one run."""
        run = subprocess.run([sys.executable, "-c", SPAWN, sys.executable, *args],
                             env={**env, "PYTHONPATH": str(tree)}, check=True, text=True,
                             stdout=subprocess.PIPE)
        wall, rss = run.stdout.split()
        return float(wall), float(rss)

    def medians(runs: list, prefix: str = "") -> dict:
        return {f"{prefix}time_s": statistics.median(wall for wall, _ in runs),
                f"{prefix}peak_rss_mib": statistics.median(rss for _, rss in runs)}

    def timed(*args: str) -> dict:
        if parent is None:
            return medians([fresh(src, *args) for _ in range(CLI_REPEATS)])
        runs: dict = {src: [], parent: []}
        for repeat in range(CLI_REPEATS):
            for tree in (src, parent) if repeat % 2 == 0 else (parent, src):
                runs[tree].append(fresh(tree, *args))
        return {**medians(runs[src]), **medians(runs[parent], "parent_"),
                "pairs_faster": sum(a[0] < b[0] for a, b in zip(runs[src], runs[parent]))}

    def loaded(*args: str) -> list[str]:
        run = subprocess.run([sys.executable, *args], env=env, check=True, text=True,
                             stdout=subprocess.PIPE)
        return run.stdout.splitlines()[-1].split()

    out = [{"layer": "cli_process", "case": "import fractarc.cli",
            "modules": loaded("-c", "import sys, fractarc.cli; " + PRINT_MODULES),
            **timed("-c", "import fractarc.cli")}]
    with tempfile.TemporaryDirectory() as tmp:
        models = Path(tmp) / "models"
        for model in sorted({m for w in workloads.WORKLOADS.values() for m in w.models}):
            fresh(src, "-m", "fractarc.cli", "build", *workloads.MODELS[model],
                  "--out", str(models / f"{model}.json"))
        for workload in workloads.WORKLOADS.values():
            for op in workload.ops:
                args = [a.format(seed=CLI_SEED, models=models, out=tmp) for a in op.args]
                command = (("-m", "fractarc.cli") if op.runner == "cli"
                           else (str(PERFBENCH / "child.py"), op.runner))
                out.append({"layer": "cli_process", "case": op.name,
                            "workload": workload.name,
                            "modules": loaded("-c", OP_MODULES, str(PERFBENCH),
                                              op.runner, *args),
                            **timed(*command, *args)})
    return out


def rows(parent: Path | None = None) -> list[dict]:
    out = []
    for case, ratio in (("cantor 1/3", THIRD), ("cantor 1/10", Fraction(1, 10))):
        for g in (16, 18, 20):
            out.append(lattice_row(case, ratio, g))
    out.extend(box_rows(parent))
    out.extend(net_rows(parent))
    out.extend(net_oracle_rows(parent))
    for case in ARCS:
        out.append(build_row(case))
        if case != "planar-4":
            out.extend(verify_rows(case))
    if parent is not None:
        run = subprocess.run([sys.executable, "-c", PARENT_ARCS, str(ROOT / "bench")],
                             env={**os.environ, "PYTHONPATH": str(parent)}, check=True,
                             text=True, stdout=subprocess.PIPE)
        parent_times = dict(zip(COMPARED, json.loads(run.stdout)))
        for row in out:
            if row["case"] in parent_times and row["layer"] in ("build", "verify"):
                row["parent_time_s"] = parent_times[row["case"]][row["layer"] == "verify"]
    out.append(evaluate_row("planar-5"))
    for case in ("planar-5", "planar-6"):
        out.append(continuity_row(case))
    for case in ("planar-5", "spatial-3"):
        out.extend(certificate_rows(case))
    for case in ARCS:
        if case != "planar-4":
            out.extend(containment_rows(case))
    for case in ("planar-6", "spatial-4"):
        out.extend(model_file_rows(case))
        out.append(estimate_row(case))
    out.extend(cli_rows(parent))
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def machine() -> dict:
    return {"platform": platform.platform(), "machine": platform.machine(),
            "cpu": cpu_model(), "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
            "implementation": platform.python_implementation(),
            "numpy": np.__version__, "repeats": REPEATS,
            "verify_repeats": VERIFY_REPEATS, "cli_repeats": CLI_REPEATS}


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.rsplit("\n\n", 1)[-1].strip(), file=sys.stderr)
        return 2
    parent = Path(argv[1]).resolve() if len(argv) == 2 else None
    lines = {"src": src_lines(Path(fractarc.__file__).parents[1])}
    if parent is not None:
        lines["parent"] = src_lines(parent)
    report = {"machine": machine(), "src_lines": lines, "layers": rows(parent)}
    with open(argv[0], "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    for side, counts in lines.items():
        print(f"{'src_lines':17s} {side:15s} {counts}")
    for row in report["layers"]:
        if row["layer"] == "cli_process":
            versus = (f" (parent {row['parent_time_s']:.4f} s "
                      f"{row['parent_peak_rss_mib']:.2f} MiB, faster in "
                      f"{row['pairs_faster']}/{CLI_REPEATS})" if "parent_time_s" in row else "")
            print(f"{row['layer']:17s} {row['case']:28s} {row['time_s']:.4f} s "
                  f"{row['peak_rss_mib']:.2f} MiB{versus}  {' '.join(row['modules'])}")
            continue
        if "depth" in row:
            work = {k: v for k, v in row.items()
                    if k not in ("layer", "case", "depth", "time_s")}
            print(f"{row['layer']:17s} {row['case']:15s} d={row['depth']:<3d} "
                  f"{row['time_s']:.4f} s  {work}")
            continue
        head = (f"{row['layer']:17s} {row['case']:15s} g={row['generation']:<3d} "
                f"points={row['points']:<8d}")
        if row["layer"] == "cantor_lattice":
            print(f"{head} build {row['build_s']:.4f} s  {row['storage']}")
        elif row["layer"] == "ball_net_count":
            versus = (f"  parent {row['parent_count_s']:.4f} s" if "parent_count_s" in row
                      else "")
            print(f"{head} count {row['count_s']:.4f} s{versus}  full scan "
                  f"{row['oracle_s']:.4f} s  counts {row['counts']}")
        else:
            versus = (f" (parent sample {row['parent_sample_s']:.4f} s count "
                      f"{row['parent_count_s']:.4f} s)" if "parent_count_s" in row else "")
            print(f"{head} sample {row['sample_s']:.4f} s  "
                  f"count {row['count_s']:.4f} s{versus}  counts {row['counts']}")
            if "product_count_s" in row:
                print(f"{'':17s} factor points {row['factor_points']}  product path: "
                      f"sample {row['product_sample_s']:.4f} s  "
                      f"count {row['product_count_s']:.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
