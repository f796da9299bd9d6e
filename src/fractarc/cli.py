"""Command-line entry point and all file formats.

Subcommands: ``build`` constructs an arc model and writes it as JSON;
``verify`` re-runs the verification suite on a model; ``estimate`` runs a
dimension estimator on a preset or model; ``export`` renders a model to
SVG/JSON/CSV.  Exit codes: 0 all checks pass, 1 verification failure,
2 configuration error, 3 construction failure.

Exact rationals travel through JSON as "numerator/denominator" strings;
output files are written atomically and are byte-stable for a fixed config
and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import sys
import tempfile
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path
from typing import Iterator, Optional, Sequence

from . import arc as arc_mod
from . import dimension as dim_mod
from . import measure as measure_mod
from .cantor import (GenerationBudgetError, ProductCantor, RatioCantorSet,
                     RatioSequence, SelfSimilarCantor, product_for_dimension,
                     sample_ball_inputs, verify_uniform_perfectness)
from .metric import (VON_KOCH_EXPONENT, ArcFactor, RugSpace, SnowflakeMetric)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2
EXIT_CONSTRUCTION = 3


class ConfigError(ValueError):
    """Bad configuration file or flag values."""


# -- rationals and atomic files ----------------------------------------------


def encode_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def decode_rational(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def parse_fraction(text: str) -> Fraction:
    """Accept 'p/q', decimals, or a float literal."""
    text = text.strip()
    try:
        if "/" in text:
            return decode_rational(text)
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse rational {text!r}") from exc


def write_atomic(path: Path, data: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# -- configuration -------------------------------------------------------------


@dataclass
class RunConfig:
    target_dimension: float = 1.0 + math.log(2.0) / math.log(3.0)
    ratio_family: str = "dyadic"
    ratio_params: dict = field(default_factory=dict)
    depth: int = 2
    seed: int = 0
    scales: Optional[tuple[int, int]] = None  # None: preset picks its window
    samples: int = 200

    def __post_init__(self):
        if self.target_dimension < 1.0:
            raise ConfigError(f"target dimension must be at least 1, got {self.target_dimension}")
        if not all(isinstance(v, int) for v in (self.depth, self.seed, self.samples)):
            raise ConfigError("depth, seed and samples must be integers")
        if self.depth < 1:
            raise ConfigError("depth must be at least 1")
        if self.samples < 1:
            raise ConfigError(f"samples must be at least 1, got {self.samples}")
        if self.scales is not None and not (
                len(self.scales) == 2 and all(isinstance(v, int) for v in self.scales)
                and self.scales[0] <= self.scales[1]):
            raise ConfigError(f"bad scale window {self.scales}")

    def ratio_sequence(self) -> RatioSequence:
        if self.ratio_family == "dyadic":
            return RatioSequence.dyadic()
        if self.ratio_family == "harmonic":
            return RatioSequence.harmonic()
        if self.ratio_family == "geometric":
            q = self.ratio_params.get("q")
            if q is None:
                raise ConfigError("geometric ratios need a parameter q")
            return RatioSequence.geometric(Fraction(q))
        raise ConfigError(f"unknown ratio family {self.ratio_family!r}")

    def as_dict(self) -> dict:
        return {
            "target_dimension": self.target_dimension,
            "ratio_family": self.ratio_family,
            "ratio_params": {k: encode_rational(Fraction(v))
                             for k, v in sorted(self.ratio_params.items())},
            "depth": self.depth,
            "seed": self.seed,
            "scales": list(self.scales) if self.scales else None,
            "samples": self.samples,
        }


def parse_ratio_spec(text: str) -> tuple[str, dict]:
    """'dyadic' | 'harmonic' | 'geometric:q=1/3'."""
    family, _, rest = text.partition(":")
    family = family.strip()
    params: dict = {}
    if rest:
        for item in rest.split(","):
            key, _, value = item.partition("=")
            if not value:
                raise ConfigError(f"bad ratio parameter {item!r}")
            params[key.strip()] = parse_fraction(value)
    if family not in ("dyadic", "harmonic", "geometric"):
        raise ConfigError(f"unknown ratio family {family!r}")
    return family, params


def parse_scales(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError as exc:
        raise ConfigError(f"scales must look like '3:8', got {text!r}") from exc


def load_config_file(path: Path) -> dict:
    """Plain key=value lines; '#' starts a comment."""
    values: dict = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        values[key.strip()] = value.strip()
    return values


def config_from_sources(args) -> RunConfig:
    raw: dict = {}
    if getattr(args, "config", None):
        raw.update(load_config_file(args.config))
    for key in ("c", "depth", "seed", "ratios", "scales", "samples"):
        value = getattr(args, key, None)
        if value is not None:
            raw[key] = value
    kwargs: dict = {}
    try:
        if "c" in raw:
            kwargs["target_dimension"] = float(raw["c"])
        if "depth" in raw:
            kwargs["depth"] = int(raw["depth"])
        if "seed" in raw:
            kwargs["seed"] = int(raw["seed"])
        if "samples" in raw:
            kwargs["samples"] = int(raw["samples"])
        if "ratios" in raw:
            family, params = parse_ratio_spec(str(raw["ratios"]))
            kwargs["ratio_family"] = family
            kwargs["ratio_params"] = params
        if "scales" in raw:
            scales = raw["scales"]
            kwargs["scales"] = parse_scales(scales) if isinstance(scales, str) else scales
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(**kwargs)


# -- model serialization -------------------------------------------------------


def _point_json(point) -> list[str]:
    return [encode_rational(Fraction(c)) for c in point]


def _arc_header(arc) -> dict:
    """Schema-v1 fields of an arc model that follow from its config, besides
    the rows."""
    return {"kind": "arc", "ambient_dimension": arc.ambient_dimension, "depth": arc.depth,
            "factor": {"ratio": encode_rational(arc.product.factor.ratio),
                       "copies": arc.product.copies}}


def _cell_rows(arc) -> Iterator[dict]:
    """Schema-v1 rows of every cell of ``arc``, in id order: the index fields,
    the branch address and the box."""
    for cell in arc.cells:
        yield {"id": cell.id, "generation": cell.generation, "rank": cell.rank,
               "parent": cell.parent_id, "address": list(cell.address),
               "box": [[encode_rational(lo), encode_rational(hi)] for lo, hi in cell.box]}


def model_to_dict(model, config: RunConfig) -> dict:
    if isinstance(model, UnitIntervalModel):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "unit_interval",
            "config": config.as_dict(),
        }
    arc = model
    depth, axes = arc.depth, arc.ambient_dimension
    return {
        "schema_version": SCHEMA_VERSION,
        "config": config.as_dict(),
        **_arc_header(arc),
        "cells": list(_cell_rows(arc)),
        "connectors": [
            {**fields, "vertices": [_point_json(v) for v in conn.vertices]}
            for fields, conn in zip(arc_mod.connector_fields(depth, axes), arc.connectors)
        ],
        "param_intervals": list(arc_mod.param_intervals(depth, axes)),
    }


class UnitIntervalModel:
    """Degenerate model for target dimension exactly 1: the unit interval."""

    kind = "unit_interval"
    ambient_dimension = 1
    depth = 0

    def sample(self, generation: int = 10):
        points, resolution = dim_mod.interval_sample(generation)
        return points, resolution


def _check_fields(where: str, item, **expected) -> None:
    """Raise ConfigError naming the first field of ``item`` that differs
    from its derived value."""
    if not isinstance(item, dict):
        raise ConfigError(f"{where} must be a JSON object")
    for key, want in expected.items():
        if key not in item or item[key] != want:
            raise ConfigError(f"{where}.{key} is {item.get(key)!r}, expected {want!r}")


_MISSING = object()


def _checked_rows(data: dict, section: str, expected):
    """(index, file row, derived row) of one section, each file row checked
    against its derived row."""
    if not isinstance(data[section], list):
        raise ConfigError(f"{section} must be a list")
    for n, (item, want) in enumerate(zip_longest(data[section], expected, fillvalue=_MISSING)):
        if want is _MISSING:
            raise ConfigError(f"{section} has more than the {n} rows its depth {data['depth']} allows")
        if item is _MISSING:
            raise ConfigError(f"{section} has {n} rows, fewer than its depth {data['depth']} needs")
        if item != want:
            _check_fields(f"{section}[{n}]", item, **want)
        yield n, item, want


def _rationals(where: str, items, count: int) -> tuple[Fraction, ...]:
    if not isinstance(items, list) or len(items) != count:
        raise ConfigError(f"{where} must list {count} rationals")
    return tuple(decode_rational(c) for c in items)


def model_from_dict(data: dict):
    """Model from its JSON form.

    Only the config and the connector vertices are read.  The kind, the
    header, every cell and every id and link follow from the config, so they
    are derived and compared with the file row by row, never trusted: the
    first mismatch raises ConfigError naming the field.
    """
    if not isinstance(data, dict):
        raise ConfigError("a model must be a JSON object")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema version {data.get('schema_version')!r}")
    scales = data["config"]["scales"]
    config = RunConfig(**{
        "target_dimension": data["config"]["target_dimension"],
        "ratio_family": data["config"]["ratio_family"],
        "ratio_params": {k: decode_rational(v)
                         for k, v in data["config"]["ratio_params"].items()},
        "depth": data["config"]["depth"],
        "seed": data["config"]["seed"],
        "scales": tuple(scales) if scales else None,
        "samples": data["config"]["samples"],
    })
    if config.target_dimension == 1.0:
        _check_fields("model", data, kind="unit_interval")
        return UnitIntervalModel(), config
    try:
        arc = _unrouted_arc(config)
    except GenerationBudgetError as exc:
        raise ConfigError(f"the model's config cannot be rebuilt: {exc}") from exc
    depth, axes = arc.depth, arc.ambient_dimension
    _check_fields("model", data, **_arc_header(arc))
    for _ in _checked_rows(data, "cells", _cell_rows(arc)):
        pass
    for _ in _checked_rows(data, "param_intervals", arc_mod.param_intervals(depth, axes)):
        pass
    for n, item, want in _checked_rows(data, "connectors",
                                       arc_mod.connector_fields(depth, axes)):
        vertices = item["vertices"]
        if not isinstance(vertices, list) or len(vertices) < 2:
            raise ConfigError(f"connectors[{n}].vertices must list at least two points")
        arc.connectors.append(arc_mod.Connector(
            n, want["depth"], [_rationals(f"connectors[{n}].vertices", v, axes) for v in vertices],
            want["parent_cell"], want["source_cell"], want["target_cell"],
            arc.param_interval_length(want["depth"])))
    return arc, config


# -- svg / csv -----------------------------------------------------------------


def render_svg(arc) -> str:
    if arc.ambient_dimension != 2:
        raise ConfigError("svg export is only defined for planar (n=1) models")
    size, margin = 760.0, 20.0

    def sx(x) -> float:
        return margin + float(x) * size

    def sy(y) -> float:
        return margin + (1.0 - float(y)) * size

    def width(generation: int) -> float:
        return max(0.3, 2.4 * (0.62 ** (generation - 1)))

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {size + 2 * margin:.0f} {size + 2 * margin:.0f}">',
    ]
    # deepest generation's cells as rectangles; every connector as a polyline,
    # generations told apart by stroke width
    for cell in arc.generation_cells(arc.depth):
        (x0, x1), (y0, y1) = cell.box
        lines.append(
            f'<rect x="{sx(x0):.4f}" y="{sy(y1):.4f}" '
            f'width="{(float(x1) - float(x0)) * size:.4f}" '
            f'height="{(float(y1) - float(y0)) * size:.4f}" '
            f'fill="none" stroke="#222222" stroke-width="{width(arc.depth):.2f}"/>')
    for conn in arc.connectors:
        pts = " ".join(f"{sx(v[0]):.4f},{sy(v[1]):.4f}" for v in conn.vertices)
        lines.append(f'<polyline points="{pts}" fill="none" stroke="#b03030" '
                     f'stroke-width="{width(conn.depth):.2f}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def series_csv(series: dim_mod.BoxCountSeries) -> str:
    rows = ["delta,count,log_inv_delta,log_count"]
    for delta, count, log_inv, log_n in series.rows():
        rows.append(f"{delta!r},{count},{log_inv!r},{log_n!r}")
    return "\n".join(rows) + "\n"


# -- model construction and verification ---------------------------------------


def _unrouted_arc(config: RunConfig) -> arc_mod.ArcApproximation:
    """Every cell of the arc ``config`` describes, without connectors."""
    base = RatioCantorSet(config.ratio_sequence())
    product = product_for_dimension(config.target_dimension - 1.0)
    return arc_mod.ArcApproximation(base, product).grow_cells(config.depth)


def build_model(config: RunConfig):
    if config.target_dimension == 1.0:
        return UnitIntervalModel()
    return _unrouted_arc(config).route()


def counting_summary(model) -> dict:
    if isinstance(model, UnitIntervalModel):
        return {"kind": "unit_interval", "cells": 0, "connectors": 0,
                "param_intervals": 1}
    deepest = model.generation_cells(model.depth)
    return {
        "kind": "arc",
        "depth": model.depth,
        "ambient_dimension": model.ambient_dimension,
        "cells_per_generation": [len(model.generation_cells(k))
                                 for k in range(model.depth + 1)],
        "connectors": len(model.connectors),
        # the root, plus 2q-1 pieces for every cell above the deepest generation
        "param_intervals": 1 + (2 * model.branching - 1) * (len(model.cells) - len(deepest)),
    }


def run_verification(model, config: RunConfig) -> dict:
    """All verification checks on a model; each check reports pass/fail."""
    checks: list[dict] = []

    def add(name: str, passed: bool, **details) -> None:
        checks.append({"name": name, "passed": bool(passed), **details})

    if isinstance(model, UnitIntervalModel):
        add("degenerate_unit_interval", True,
            note="target dimension 1: every structural check is vacuous")
        return {"schema_version": SCHEMA_VERSION, "kind": "verification_report",
                "passed": True, "checks": checks}

    arc = model
    rng = random.Random(config.seed)

    report = arc_mod.verify_injectivity(arc, arc.depth)
    add("injectivity", report.passed,
        connector_pairs=report.connector_pairs_checked,
        clearance_violations=report.clearance_violations,
        traversal_violation=(list(report.traversal_violation)
                             if report.traversal_violation else None))

    addresses = arc_mod.sample_addresses(arc, min(100, config.samples), rng)
    containment_ok = True
    details = []
    for k in range(1, arc.depth + 1):
        rep = arc_mod.verify_containment(arc, k, addresses)
        details.append({"depth": k, "max_distance": rep.max_distance,
                        "bound": rep.bound})
        containment_ok = containment_ok and rep.passed
    add("containment", containment_ok, per_depth=details)

    resolution = min(12, arc.base_set.max_generation)
    samples = sample_ball_inputs(arc.base_set, config.samples, resolution, rng)
    perf = verify_uniform_perfectness(arc.base_set, samples, resolution)
    add("uniform_perfectness", perf.conclusive,
        constant=float(perf.constant), witnesses=perf.witness_count,
        vacuous=perf.vacuous_count,
        inconclusive=len(perf.inconclusive_samples()))

    meas = measure_mod.NaturalMeasure(arc.base_set, resolution)
    mass_samples = sample_ball_inputs(arc.base_set, config.samples, resolution, rng)
    mass_ok = True
    mass_details = []
    for eps in measure_mod.DEFAULT_EXPONENT_GRID:
        cert = measure_mod.verify_mass_bounds(meas, eps, mass_samples, resolution)
        mass_ok = mass_ok and cert.valid and cert.max_boundary_intervals <= 3
        mass_details.append({"exponent": eps, "constant": cert.constant,
                             "lower_margin": cert.lower_margin,
                             "upper_margin": cert.upper_margin,
                             "max_boundary_intervals": cert.max_boundary_intervals})
    add("mass_bounds", mass_ok, certificates=mass_details)

    passed = all(c["passed"] for c in checks)
    return {"schema_version": SCHEMA_VERSION, "kind": "verification_report",
            "passed": passed, "checks": checks}


# -- estimation ---------------------------------------------------------------


def arc_estimate(model, window: Optional[tuple[int, int]] = None,
                 depth: Optional[int] = None) -> dim_mod.BoxCountSeries:
    """Box counts of an arc model's vertex cloud.

    Defaults to the finest three admissible dyadic scales (depth-1 .. depth+1):
    the construction's active scales, where the depth trend of the estimate is
    visible instead of being averaged into the coarse-scale plateau.
    """
    depth = model.depth if depth is None else depth
    cloud = model.vertex_cloud(depth)
    resolution = max(float(model.base_set.generation_length(depth)),
                     float(model.product.factor.generation_length(depth)))
    lo, hi = window if window is not None else (max(depth - 1, 1), depth + 1)
    return dim_mod.box_count_series(cloud, dim_mod.dyadic_scales(lo, hi),
                                    sample_resolution=resolution)


def run_estimate(preset: str, config: RunConfig, model=None,
                 ratio: Fraction = Fraction(1, 3), copies: int = 2,
                 exponent: float = VON_KOCH_EXPONENT,
                 generation: Optional[int] = None) -> tuple[dict, dim_mod.BoxCountSeries]:
    window = config.scales
    if preset == "cantor":
        g = generation or 12
        cantor = SelfSimilarCantor(ratio, max_generation=max(20, g))
        points, resolution = dim_mod.cantor_sample(cantor, g)
        lo, hi = window or (2, g - 2)
        # scales matched to the construction's own hierarchy (powers of r)
        series = dim_mod.box_count_series(points, dim_mod.power_scales(ratio, lo, hi),
                                          sample_resolution=resolution,
                                          scale_family="matched")
        expected = dim_mod.expected_dimensions("cantor", dimension=cantor.dimension)
    elif preset == "product":
        # cell counts grow like 2^(g*copies); shrink the default depth to match
        g = generation or {1: 12, 2: 8}.get(copies, 5)
        product = ProductCantor(SelfSimilarCantor(ratio), copies)
        points, resolution = dim_mod.product_sample(product, g)
        if window is None:
            hi = min(6, g - 2)
            window = (max(1, min(2, hi - 2)), hi)
        lo, hi = window
        if hi - lo < 2:
            raise ConfigError(f"window {lo}:{hi} has fewer than 3 scales; "
                              "widen --scales or deepen --generation")
        series = dim_mod.box_count_series(points, dim_mod.power_scales(ratio, lo, hi),
                                          sample_resolution=resolution,
                                          scale_family="matched")
        expected = dim_mod.expected_dimensions("product", dimension=product.dimension)
    elif preset == "snowflake":
        g = generation or 14
        space = SnowflakeMetric(exponent)
        points = space.sample(g)
        lo, hi = window or (2, 7)
        radii = [0.5 ** i for i in range(lo, hi + 1)]
        series = dim_mod.net_count_series(space, points, radii)
        expected = dim_mod.expected_dimensions("snowflake", exponent=exponent)
    elif preset == "rug":
        if model is not None and not isinstance(model, UnitIntervalModel):
            # fractal rug: a built arc model as the first factor
            space = RugSpace(ArcFactor(model))
            g = generation or min(6, model.depth + 3)
            lo, hi = window or (2, 4)
            expected = dim_mod.expected_dimensions(
                "arc_rug", arc_dimension=1.0 + model.product.dimension)
        else:
            space = RugSpace(SnowflakeMetric(exponent))
            g = generation or 9
            lo, hi = window or (2, 5)
            expected = dim_mod.expected_dimensions("rug", exponent=exponent)
        points = space.sample(g)
        radii = [0.5 ** i for i in range(lo, hi + 1)]
        series = dim_mod.net_count_series(space, points, radii)
    elif preset == "arc":
        if model is None:
            raise ConfigError("arc estimation needs a model file")
        if isinstance(model, UnitIntervalModel):
            points, resolution = model.sample()
            lo, hi = window or (3, 8)
            series = dim_mod.box_count_series(points, dim_mod.dyadic_scales(lo, hi),
                                              sample_resolution=resolution)
            expected = dim_mod.expected_dimensions("interval")
        else:
            series = arc_estimate(model, window)
            expected = dim_mod.expected_dimensions(
                "arc", target_dimension=1.0 + model.product.dimension)
    else:
        raise ConfigError(f"unknown preset {preset!r}")

    kind = "ball-net" if preset in ("snowflake", "rug") else "box"
    estimate = dim_mod.estimate_dimension(series, kind)
    key = "hausdorff_dimension"
    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": "estimate_report",
        "preset": preset,
        "estimator": estimate.kind,
        "slope": estimate.slope,
        "intercept": estimate.intercept,
        "r_squared": estimate.r_squared,
        "scale_range": list(estimate.scale_range),
        "scales": [float(s) for s in series.scales],
        "counts": list(series.counts),
        "expected": expected,
        "gap": estimate.slope - expected[key],
    }
    return report, series


# -- subcommands ----------------------------------------------------------------


def cmd_build(args) -> int:
    config = config_from_sources(args)
    try:
        model = build_model(config)
    except (arc_mod.RoutingFailed, GenerationBudgetError) as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    summary = counting_summary(model)
    out = Path(args.out) if args.out else Path("model.json")
    write_atomic(out, dump_json(model_to_dict(model, config)))
    for key, value in summary.items():
        print(f"{key}: {value}")
    print(f"model written to {out}")
    return EXIT_OK


def _load_model(path) -> tuple[object, RunConfig]:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read model {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"model {path} is not valid JSON: {exc}") from exc
    try:
        return model_from_dict(data)
    except (LookupError, TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"model {path} is malformed: {type(exc).__name__}: {exc}") from exc


def cmd_verify(args) -> int:
    model, config = _load_model(args.model)
    overrides = {key: getattr(args, key) for key in ("seed", "samples")
                 if getattr(args, key) is not None}
    report = run_verification(model, replace(config, **overrides))
    if args.out:
        write_atomic(Path(args.out), dump_json(report))
    for check in report["checks"]:
        print(f"{'PASS' if check['passed'] else 'FAIL'}  {check['name']}")
    return EXIT_OK if report["passed"] else EXIT_VERIFICATION


def _estimate_or_refuse(preset: str, config: RunConfig, model, **kwargs):
    """run_estimate; a refused window or sample budget prints why and gives None."""
    try:
        return run_estimate(preset, config, model, **kwargs)
    except (ValueError, GenerationBudgetError) as exc:
        if isinstance(exc, ConfigError):
            raise
        print(f"estimation failed: {exc}", file=sys.stderr)
        return None


def cmd_estimate(args) -> int:
    config = config_from_sources(args)
    model = None
    if args.model:
        model, _ = _load_model(args.model)
    kwargs = {}
    if args.ratio is not None:
        kwargs["ratio"] = parse_fraction(args.ratio)
    if args.eps is not None:
        kwargs["exponent"] = (VON_KOCH_EXPONENT if args.eps == "koch"
                              else float(parse_fraction(args.eps)))
    for key in ("copies", "generation"):
        value = getattr(args, key)
        if value is not None:
            if value < 1:
                raise ConfigError(f"--{key} must be at least 1, got {value}")
            kwargs[key] = value
    result = _estimate_or_refuse(args.preset, config, model, **kwargs)
    if result is None:
        return EXIT_CONSTRUCTION
    report, series = result
    if args.out:
        write_atomic(Path(args.out), dump_json(report))
    if args.csv:
        write_atomic(Path(args.csv), series_csv(series))
    expected = report["expected"].get("hausdorff_dimension")
    print(f"preset: {report['preset']}")
    print(f"slope: {report['slope']:.4f}  (expected {expected:.4f}, "
          f"gap {report['gap']:+.4f}, r^2 {report['r_squared']:.5f})")
    return EXIT_OK


def cmd_export(args) -> int:
    model, config = _load_model(args.model)
    out = Path(args.out)
    if args.format == "json":
        write_atomic(out, dump_json(model_to_dict(model, config)))
    elif args.format == "svg":
        if isinstance(model, UnitIntervalModel):
            raise ConfigError("svg export is only defined for planar (n=1) models")
        write_atomic(out, render_svg(model))
    elif args.format == "csv":
        result = _estimate_or_refuse("arc", config, model)
        if result is None:
            return EXIT_CONSTRUCTION
        write_atomic(out, series_csv(result[1]))
    else:
        raise ConfigError(f"unknown export format {args.format!r}")
    print(f"wrote {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fractarc",
        description="Construct, verify, estimate, and export fractal arc models")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, help="key=value config file")
        p.add_argument("--c", type=float, default=None,
                       help="target conformal dimension (>= 1)")
        p.add_argument("--depth", type=int, default=None, help="generation depth")
        p.add_argument("--ratios", type=str, default=None,
                       help="ratio family: dyadic | harmonic | geometric:q=1/3")
        p.add_argument("--seed", type=int, default=None, help="random seed")
        p.add_argument("--scales", type=str, default=None,
                       help="dyadic scale window, e.g. 3:8")
        p.add_argument("--samples", type=int, default=None,
                       help="verification sample count")

    p_build = sub.add_parser("build", help="construct a model and write JSON")
    common(p_build)
    p_build.add_argument("--out", type=Path, default=None)
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="run verification checks on a model")
    p_verify.add_argument("--model", type=Path, required=True)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--samples", type=int, default=None)
    p_verify.add_argument("--out", type=Path, default=None, help="report JSON path")
    p_verify.set_defaults(func=cmd_verify)

    p_est = sub.add_parser("estimate", help="estimate a dimension")
    common(p_est)
    p_est.add_argument("--preset", required=True,
                       choices=["cantor", "product", "snowflake", "rug", "arc"])
    p_est.add_argument("--model", type=Path, default=None)
    p_est.add_argument("--ratio", type=str, default=None,
                       help="self-similar scaling ratio, e.g. 1/3")
    p_est.add_argument("--eps", type=str, default=None,
                       help="snowflake exponent, a rational or 'koch'")
    p_est.add_argument("--copies", type=int, default=None)
    p_est.add_argument("--generation", type=int, default=None)
    p_est.add_argument("--out", type=Path, default=None, help="report JSON path")
    p_est.add_argument("--csv", type=Path, default=None, help="per-scale CSV path")
    p_est.set_defaults(func=cmd_estimate)

    p_exp = sub.add_parser("export", help="export a model to svg/json/csv")
    p_exp.add_argument("--model", type=Path, required=True)
    p_exp.add_argument("--format", required=True, choices=["svg", "json", "csv"])
    p_exp.add_argument("--out", type=Path, required=True)
    p_exp.set_defaults(func=cmd_export)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    # stdout is held until the command returns, so a reader that has gone
    # away cannot cut the command short or change its exit code
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            args = build_parser().parse_args(argv)
            return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (arc_mod.RoutingFailed, GenerationBudgetError) as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    finally:
        try:
            sys.stdout.write(out.getvalue())
            sys.stdout.flush()
        except BrokenPipeError:
            # the interpreter flushes stdout again at exit; send that to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


if __name__ == "__main__":
    sys.exit(main())
