"""Per-layer timings of the Cantor lattice, the two counting kernels and
the arc's build and verify layers, with the work they do.

Times ``lattice`` of fresh self-similar Cantor engines (r = 1/3 and 1/10,
the second past the int64 denominators), ``box_count_series`` on exact
Cantor and product samples and ``net_count_series`` on snowflake and
snowflake-rug samples, each at three generations, in one process, best of
five ``perf_counter`` runs.  Sampling is timed apart from counting (a fresh
Cantor engine per run, so its stored generations do not hide the build).
Each row keeps the point count beside the lattice's dtype and bytes or the
counts per scale, so work and time are read together.

The arc layers, best of three, on the planar (n = 1) arcs of depth 4/5/6
and the spatial (n = 2) arcs of depth 3/4, the models ``perfbench`` builds:
``grow_cells`` and ``route`` apart, ``route`` with its ``route_connectors``
runs (one per distinct parent shape).  All but planar-4 then time the
four steps of ``verify_injectivity``, all on the rows' integer corners: the
clearance check with its exact ``_path_legal`` runs and the connector
count, the glue check alone, the chain build (``traversal_chain``, which
runs the glue check too) and the chain check (``chain_self_intersection``)
with its segment count and candidate pairs.  ``evaluate_many`` is timed
over 20,000 seeded parameters on planar-5, beside per-call
``evaluate`` on the first 2,000 of them, and ``continuity_violations`` over
10,000 seeded pairs (epsilon 0.05, the modulus's delta) on planar-5 and
planar-6.  The certificates run on the base sets of planar-5 and spatial-3
at resolution 12, the resolution ``verify`` uses: ``verify_uniform_perfectness``
and ``verify_mass_bounds`` on 200 seeded balls each, with the verdict counts
and the lattice's dtype.  Containment runs as ``verify`` runs it, on 100
seeded sample addresses at every depth of planar-5/6 and spatial-3/4, with
the vertex-cloud points it searches.

The model file, best of three, on planar-6 and spatial-4: ``model_text``;
``_load_model`` of the canonical file, which takes the byte compare, beside
the row check (``json.loads`` then ``model_from_dict``) that any other text
gets; and ``vertex_cloud`` with its point count.  Every row above runs the
library as the CLI does, on the arc's per-axis interval-index rows.

Last, the fifteen commands of perfbench's three workloads, each in a fresh
process exactly as perfbench runs it untraced (``python -m fractarc.cli``,
or ``perfbench/child.py continuity``), best of three, beside
``python -c "import fractarc.cli"`` timed on its own.  One more run of
each, through ``child.main``, records the ``fractarc.*`` modules the
command loaded.

    PYTHONPATH=src python bench/run.py BENCH.json
"""

from __future__ import annotations

import json
import os
import platform
import random
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
from fractarc.cantor import (ProductCantor, SelfSimilarCantor, sample_ball_inputs,
                             verify_uniform_perfectness)
from fractarc.cli import (RunConfig, _load_canonical, _load_model, _unrouted_arc,
                          build_model, model_from_dict, model_text)
from fractarc.dimension import (box_count_series, cantor_sample, net_count_series,
                                power_scales, product_sample)
from fractarc.geometry import _meeting_box_pairs, chain_self_intersection
from fractarc.measure import DEFAULT_EXPONENT_GRID, NaturalMeasure, verify_mass_bounds
from fractarc.metric import VON_KOCH_EXPONENT, RugSpace, SnowflakeMetric

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402  (perfbench's commands, run by cli_rows)

REPEATS = 5
VERIFY_REPEATS = 3
EVALUATE_CALLS = 20_000
PER_CALL_EVALUATES = 2_000
CONTINUITY_PAIRS = 10_000
CONTINUITY_EPSILON = 0.05
CERTIFICATE_SAMPLES = 200
CERTIFICATE_RESOLUTION = 12
CONTAINMENT_ADDRESSES = 100
CLI_SEED = 1
THIRD = Fraction(1, 3)
ARCS = {"planar-4": (1.6309297535714574, 4), "planar-5": (1.6309297535714574, 5),
        "planar-6": (1.6309297535714574, 6), "spatial-3": (2.5, 3), "spatial-4": (2.5, 4)}


def best_of(fn, repeats=REPEATS):
    """(best wall time, last result) over ``repeats`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        result = fn()
        best = min(best, perf_counter() - start)
    return best, result


def lattice_row(case: str, ratio: Fraction, generation: int) -> dict:
    build_s, (lows, _, _) = best_of(lambda: SelfSimilarCantor(ratio).lattice(generation))
    return {"layer": "cantor_lattice", "case": case, "generation": generation,
            "points": len(lows), "dtype": str(lows.dtype), "nbytes": lows.nbytes,
            "build_s": build_s}


def box_row(case: str, generation: int, sample, scales) -> dict:
    sample_s, (points, resolution) = best_of(sample)
    count_s, series = best_of(lambda: box_count_series(points, scales, resolution))
    return {"layer": "box_count_series", "case": case, "generation": generation,
            "points": len(points), "scales": [str(s) for s in series.scales],
            "counts": list(series.counts), "sample_s": sample_s, "count_s": count_s}


def net_row(case: str, generation: int, space, lo: int, hi: int) -> dict:
    sample_s, points = best_of(lambda: space.sample(generation))
    radii = [0.5 ** i for i in range(lo, hi + 1)]
    count_s, series = best_of(lambda: net_count_series(space, points, radii))
    return {"layer": "net_count_series", "case": case, "generation": generation,
            "points": len(points), "scales": radii, "counts": list(series.counts),
            "sample_s": sample_s, "count_s": count_s}


@contextmanager
def counting(name: str):
    """Replace ``arc.<name>`` by a wrapper counting its runs into the first
    item of the list it yields."""
    calls = [0]
    inner = getattr(arc_module, name)

    def wrapper(*args):
        calls[0] += 1
        return inner(*args)
    setattr(arc_module, name, wrapper)
    try:
        yield calls
    finally:
        setattr(arc_module, name, inner)


def build_rows(case: str) -> list[dict]:
    """``grow_cells`` and ``route`` of one arc, best of three each; every
    run grows a fresh arc, and ``route`` runs on it once grown.  The route
    row counts the ``route_connectors`` runs: one per distinct parent
    shape of each generation."""
    c, depth = ARCS[case]
    config = RunConfig(target_dimension=c, depth=depth)
    grow_s = route_s = float("inf")
    with counting("route_connectors") as calls:
        for _ in range(VERIFY_REPEATS):
            start = perf_counter()
            arc = _unrouted_arc(config)
            grown = perf_counter()
            arc.route()
            grow_s = min(grow_s, grown - start)
            route_s = min(route_s, perf_counter() - grown)
    return [{"layer": "grow_cells", "case": case, "depth": depth,
             "cells": arc.first_id(depth + 1), "time_s": grow_s},
            {"layer": "route", "case": case, "depth": depth,
             "connectors": arc.branching ** depth - 1,
             "route_connectors_runs": calls[0] // VERIFY_REPEATS, "time_s": route_s}]


def verify_rows(case: str) -> list[dict]:
    """The steps of ``verify_injectivity`` on one arc, best of three each."""
    c, depth = ARCS[case]
    arc = build_model(RunConfig(target_dimension=c, depth=depth))
    with counting("_path_legal") as calls:
        clearance_s, _ = best_of(lambda: arc_module._clearance_violations(arc, depth),
                                 VERIFY_REPEATS)
    den = arc.denominator(depth)
    near, far = arc.corners(depth, den)
    glue_s, glued = best_of(lambda: arc._glued(depth, den, near, far), VERIFY_REPEATS)
    build_s, chain = best_of(lambda: arc.traversal_chain(depth), VERIFY_REPEATS)
    check_s, _ = best_of(lambda: chain_self_intersection(chain), VERIFY_REPEATS)
    return [{"layer": "clearance", "case": case, "depth": depth,
             "connectors": arc.branching ** depth - 1,
             "path_legal_runs": calls[0] // VERIFY_REPEATS, "time_s": clearance_s},
            {"layer": "glue", "case": case, "depth": depth, "glued": glued,
             "time_s": glue_s},
            {"layer": "chain_build", "case": case, "depth": depth,
             "denominator_bits": den.bit_length(), "time_s": build_s},
            {"layer": "chain_check", "case": case, "depth": depth,
             "segments": len(chain) - 1,
             "candidate_pairs": len(_meeting_box_pairs(chain)), "time_s": check_s}]


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
    base = _unrouted_arc(RunConfig(target_dimension=c, depth=1)).base_set
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
    lattice = {"resolution": res, "dtype": str(lows.dtype), "denominator_bits": den.bit_length()}
    return [{"layer": "uniform_perfectness", "case": case, "depth": depth, **lattice,
             "samples": len(balls), "witnesses": perf.witness_count,
             "vacuous": perf.vacuous_count, "inconclusive": len(perf.inconclusive_samples()),
             "time_s": perf_s},
            {"layer": "mass_bounds", "case": case, "depth": depth, **lattice,
             "samples": len(mass_balls), "valid": sum(cert.valid for cert in certs),
             "max_boundary_intervals": max(cert.max_boundary_intervals for cert in certs),
             "time_s": mass_s}]


def containment_row(case: str) -> dict:
    """``verify_containment`` at every depth of one arc, on the seeded
    sample addresses ``run_verification`` draws, best of three."""
    c, depth = ARCS[case]
    arc = build_model(RunConfig(target_dimension=c, depth=depth))
    addresses = arc_module.sample_addresses(arc, CONTAINMENT_ADDRESSES, random.Random(0))
    time_s, reports = best_of(lambda: [arc_module.verify_containment(arc, k, addresses)
                                       for k in range(1, depth + 1)], VERIFY_REPEATS)
    return {"layer": "containment", "case": case, "depth": depth,
            "addresses": len(addresses), "passed": all(r.passed for r in reports),
            "cloud_points": sum(len(arc.vertex_cloud(k)) for k in range(1, depth + 1)),
            "time_s": time_s}


def model_file_rows(case: str) -> list[dict]:
    """Serialise and load of one arc's model file, each beside its reference
    path, then its vertex cloud."""
    c, depth = ARCS[case]
    config = RunConfig(target_dimension=c, depth=depth)
    arc = build_model(config)
    text_s, text = best_of(lambda: model_text(arc, config), VERIFY_REPEATS)
    if _load_canonical(text) is None:
        raise SystemExit(f"{case}: the canonical text does not load")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{case}.json"
        path.write_text(text)
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


#: Prints the ``fractarc.*`` modules loaded so far as the last stdout line.
PRINT_MODULES = ("print(' '.join(sorted(m.split('.', 1)[1] for m in sys.modules "
                 "if m.startswith('fractarc.'))))")
#: Runs ``child.main`` (argv: perfbench's directory, then the op) first.
OP_MODULES = ("import sys; sys.path.insert(0, sys.argv[1]); import child; "
              "child.main(sys.argv[2:]); " + PRINT_MODULES)


def cli_rows() -> list[dict]:
    """Fresh-process wall times, best of three, of ``import fractarc.cli``
    and of each perfbench command, with the engine modules each loads.  The
    models the workloads read are built first, as perfbench's set-up does."""
    env = {**os.environ, "PYTHONPATH": str(Path(fractarc.__file__).parents[1])}

    def fresh(*args: str) -> float:
        start = perf_counter()
        subprocess.run([sys.executable, *args], env=env, check=True, stdout=subprocess.DEVNULL)
        return perf_counter() - start

    def loaded(*args: str) -> list[str]:
        run = subprocess.run([sys.executable, *args], env=env, check=True, text=True,
                             stdout=subprocess.PIPE)
        return run.stdout.splitlines()[-1].split()

    out = [{"layer": "cli_process", "case": "import fractarc.cli",
            "modules": loaded("-c", "import sys, fractarc.cli; " + PRINT_MODULES),
            "time_s": min(fresh("-c", "import fractarc.cli") for _ in range(VERIFY_REPEATS))}]
    with tempfile.TemporaryDirectory() as tmp:
        models = Path(tmp) / "models"
        for model in sorted({m for w in workloads.WORKLOADS.values() for m in w.models}):
            fresh("-m", "fractarc.cli", "build", *workloads.MODELS[model],
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
                            "time_s": min(fresh(*command, *args)
                                          for _ in range(VERIFY_REPEATS))})
    return out


def rows() -> list[dict]:
    out = []
    for case, ratio in (("cantor 1/3", THIRD), ("cantor 1/10", Fraction(1, 10))):
        for g in (16, 18, 20):
            out.append(lattice_row(case, ratio, g))
    for g in (10, 12, 14):  # the cantor preset's window
        out.append(box_row("cantor 1/3", g,
                           lambda g=g: cantor_sample(SelfSimilarCantor(THIRD), g),
                           power_scales(THIRD, 2, g - 2)))
    for g in (6, 7, 8):  # the product preset's window for two copies
        hi = min(6, g - 2)
        out.append(box_row("product 1/3 x2", g,
                           lambda g=g: product_sample(
                               ProductCantor(SelfSimilarCantor(THIRD), 2), g),
                           power_scales(THIRD, max(1, min(2, hi - 2)), hi)))
    koch = SnowflakeMetric(VON_KOCH_EXPONENT)
    for g in (12, 14, 16):
        out.append(net_row("snowflake koch", g, koch, 2, 7))
    for g in (7, 8, 9):
        out.append(net_row("rug koch", g, RugSpace(koch), 2, 5))
    for case in ARCS:
        out.extend(build_rows(case))
        if case != "planar-4":
            out.extend(verify_rows(case))
    out.append(evaluate_row("planar-5"))
    for case in ("planar-5", "planar-6"):
        out.append(continuity_row(case))
    for case in ("planar-5", "spatial-3"):
        out.extend(certificate_rows(case))
    for case in ("planar-5", "planar-6", "spatial-3", "spatial-4"):
        out.append(containment_row(case))
    for case in ("planar-6", "spatial-4"):
        out.extend(model_file_rows(case))
    out.extend(cli_rows())
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
            "verify_repeats": VERIFY_REPEATS}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.rsplit("\n\n", 1)[-1].strip(), file=sys.stderr)
        return 2
    report = {"machine": machine(), "layers": rows()}
    with open(argv[0], "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    for row in report["layers"]:
        if row["layer"] == "cli_process":
            print(f"{row['layer']:17s} {row['case']:28s} {row['time_s']:.4f} s  "
                  f"{' '.join(row['modules'])}")
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
            print(f"{head} build {row['build_s']:.4f} s  {row['dtype']} {row['nbytes']} bytes")
        else:
            print(f"{head} sample {row['sample_s']:.4f} s  "
                  f"count {row['count_s']:.4f} s  counts {row['counts']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
