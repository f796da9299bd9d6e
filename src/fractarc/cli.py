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
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

# Every command needs the Cantor engine.  The arc, measure, metric and
# dimension modules are imported by the command paths that use them, so a
# fresh process compiles only what its command runs.  Their functions are
# looked up on the module at call time (``arc_mod.verify_injectivity``), so
# a replaced module attribute is the one called.
from .cantor import (GenerationBudgetError, ProductCantor, RatioCantorSet,
                     RatioSequence, SelfSimilarCantor, product_for_dimension,
                     sample_ball_inputs, verify_uniform_perfectness)

if TYPE_CHECKING:
    from . import dimension as dim_mod

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


def write_atomic(path: Path, data: str | Iterable[str]) -> None:
    """Write ``data``, one string or its pieces in order, to ``path`` through a
    temporary file, so a reader never sees a partial file.  A path that
    cannot be written raises ConfigError, and no temporary file is left."""
    path = Path(path)
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.writelines([data] if isinstance(data, str) else data)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):  # the write stopped short
            os.unlink(tmp)


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# -- configuration -------------------------------------------------------------


#: The parameters each ratio family reads.
_RATIO_PARAMS = {"dyadic": (), "harmonic": (), "geometric": ("q",)}


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
        # JSON true and false load as bools, which pass for the ints 1 and 0
        for name, values in (("target_dimension", [self.target_dimension]),
                             ("depth", [self.depth]), ("seed", [self.seed]),
                             ("samples", [self.samples]), ("scales", self.scales or [])):
            if any(isinstance(v, bool) for v in values):
                raise ConfigError(f"{name} must be a number, not a boolean")
        if not (math.isfinite(self.target_dimension) and self.target_dimension >= 1.0):
            raise ConfigError(f"target dimension must be a finite number of at least 1, "
                              f"got {self.target_dimension}")
        if not all(isinstance(v, int) for v in (self.depth, self.seed, self.samples)):
            raise ConfigError("depth, seed and samples must be integers")
        if self.depth < 1:
            raise ConfigError("depth must be at least 1")
        if self.samples < 1:
            raise ConfigError(f"samples must be at least 1, got {self.samples}")
        if self.scales is not None and not (
                len(self.scales) == 2 and all(isinstance(v, int) for v in self.scales)
                and 0 <= self.scales[0] <= self.scales[1]):
            raise ConfigError(f"bad scale window {self.scales}: the exponents need "
                              "0 <= coarse <= fine")
        reads = _RATIO_PARAMS.get(self.ratio_family)
        if reads is None:
            raise ConfigError(f"unknown ratio family {self.ratio_family!r}")
        for key in self.ratio_params:
            if key not in reads:
                raise ConfigError(f"ratio parameter {key!r} is not read by the "
                                  f"{self.ratio_family} family")
        for key in reads:
            if key not in self.ratio_params:
                raise ConfigError(f"{self.ratio_family} ratios need a parameter {key}")

    def ratio_sequence(self) -> RatioSequence:
        if self.ratio_family == "dyadic":
            return RatioSequence.dyadic()
        if self.ratio_family == "harmonic":
            return RatioSequence.harmonic()
        return RatioSequence.geometric(Fraction(self.ratio_params["q"]))

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
    """'dyadic' | 'harmonic' | 'geometric:q=1/3'; a parameter set twice is
    refused, and ``RunConfig`` checks the family and what it reads."""
    family, _, rest = text.partition(":")
    params: dict = {}
    for item in rest.split(",") if rest else ():
        key, _, value = (part.strip() for part in item.partition("="))
        if not value:
            raise ConfigError(f"bad ratio parameter {item!r}")
        if key in params:
            raise ConfigError(f"ratio parameter {key!r} is set twice")
        params[key] = parse_fraction(value)
    return family.strip(), params


def parse_scales(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError as exc:
        raise ConfigError(f"scales must look like '3:8', got {text!r}") from exc


def load_config_file(path: Path) -> dict:
    """Plain key=value lines; '#' starts a comment.  A key is set once."""
    values: dict = {}
    lines: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key = key.strip()
        if key in lines:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} is already set "
                              f"on line {lines[key]}")
        lines[key] = lineno
        values[key] = value.strip()
    return values


#: The config keys each command reads, from a file or as flags; a file key
#: outside its command's set is refused, as argparse refuses the flag.
_CONFIG_KEYS = {"build": ("c", "depth", "seed", "ratios", "scales", "samples"),
                "estimate": ("scales",)}


#: The RunConfig fields each config key sets, from its text or flag value.
_CONFIG_FIELDS = {
    "c": lambda v: {"target_dimension": float(v)},
    "depth": lambda v: {"depth": int(v)},
    "seed": lambda v: {"seed": int(v)},
    "samples": lambda v: {"samples": int(v)},
    "ratios": lambda v: dict(zip(("ratio_family", "ratio_params"), parse_ratio_spec(v))),
    "scales": lambda v: {"scales": parse_scales(v)},
}


def config_from_sources(args) -> RunConfig:
    """The RunConfig of a command's config file and flags, a flag winning
    over the file; a bad value is refused naming its key, and the file when
    it came from one."""
    raw = load_config_file(args.config) if args.config else {}
    keys = _CONFIG_KEYS[args.command]
    for key in raw:
        if key not in _CONFIG_KEYS["build"]:
            raise ConfigError(f"{args.config}: unknown config key {key!r}")
        if key not in keys:
            raise ConfigError(f"{args.config}: {args.command} does not read the "
                              f"config key {key!r}")
    flags = {key: getattr(args, key) for key in keys if getattr(args, key) is not None}
    kwargs: dict = {}
    for key, value in {**raw, **flags}.items():
        try:
            fields = _CONFIG_FIELDS[key](value)
            RunConfig(**fields)  # their own range checks
        except (TypeError, ValueError) as exc:
            where = f"--{key}" if key in flags else f"{args.config}: config key {key!r}"
            raise ConfigError(f"{where}: {exc}") from exc
        kwargs.update(fields)
    return RunConfig(**kwargs)


# -- model serialization -------------------------------------------------------


def _arc_header(arc) -> dict:
    """Schema-v1 fields of an arc model that follow from its config, besides
    the rows."""
    return {"kind": "arc", "ambient_dimension": arc.ambient_dimension, "depth": arc.depth,
            "factor": {"ratio": encode_rational(arc.product.factor.ratio),
                       "copies": arc.product.copies}}


def model_to_dict(model, config: RunConfig) -> dict:
    """The schema-v1 object of a model: its canonical text, parsed."""
    return json.loads(model_text(model, config))


def _cell_text(arc) -> Iterator[str]:
    """Schema-v1 rows of every cell, in id order, as ``dump_json`` writes
    them (the index fields, the branch address and the box), from the arc's
    index columns and "n/d" tables."""
    from . import arc as arc_mod

    q = arc.branching
    for k in range(arc.depth + 1):
        words, boxes = [], []
        for lo, hi in arc.interval_ends("text", k):
            words.append([f'        "{arc_mod.branch_word(j, k)}"' for j in range(len(lo))])
            boxes.append([f'        [\n          "{a}",\n          "{b}"\n        ]'
                          for a, b in zip(lo, hi)])
        first = arc.first_id(k)
        parent = arc.first_id(k - 1) if k else None
        for i, row in enumerate(zip(*arc.generation_columns(k))):
            address = ",\n".join([table[j] for table, j in zip(words, row)])
            box = ",\n".join([table[j] for table, j in zip(boxes, row)])
            yield (f'    {{\n      "address": [\n{address}\n      ],\n'
                   f'      "box": [\n{box}\n      ],\n'
                   f'      "generation": {k},\n      "id": {first + i},\n'
                   f'      "parent": {"null" if parent is None else parent + i // q},\n'
                   f'      "rank": {i % q + 1}\n    }}')


def _connector_text(arc) -> Iterator[str]:
    """Schema-v1 rows of every connector, in id order, as ``dump_json``
    writes them (the index fields and the vertices): connector j of cell c
    has id c*(q-1)+j, runs from the far corner of sub-cell c*q+1+j to the
    near corner of c*q+2+j and carries parameter piece 2j+1 of c."""
    q = arc.branching
    p = 2 * q - 1
    for k in range(1, arc.depth + 1):
        ends = [([f'          "{a}"' for a in lo], [f'          "{b}"' for b in hi])
                for lo, hi in arc.interval_ends("text", k)]
        rows = list(zip(*arc.generation_columns(k)))
        first = arc.first_id(k - 1)
        for i, (source, target) in enumerate(zip(rows, rows[1:])):
            c, j = divmod(i, q)
            if j == q - 1:
                continue  # the last sub-cell of a parent starts no connector
            c += first
            far = ",\n".join([hi[x] for (_, hi), x in zip(ends, source)])
            near = ",\n".join([lo[x] for (lo, _), x in zip(ends, target)])
            yield (f'    {{\n      "depth": {k},\n      "id": {c * (q - 1) + j},\n'
                   f'      "interval": {2 + c * p + 2 * j},\n      "parent_cell": {c},\n'
                   f'      "source_cell": {c * q + 1 + j},\n'
                   f'      "target_cell": {c * q + 2 + j},\n'
                   f'      "vertices": [\n        [\n{far}\n        ],\n'
                   f'        [\n{near}\n        ]\n      ]\n    }}')


def _param_text(arc) -> Iterator[str]:
    """The rows of ``arc_mod.param_rows`` as ``dump_json`` writes them."""
    from . import arc as arc_mod

    for row_id, depth, index, lo, hi, status, link, children in arc_mod.param_rows(
            arc.depth, arc.ambient_dimension):
        if children:
            children = "[\n        " + ",\n        ".join(map(str, children)) + "\n      ]"
        else:
            children = "[]"
        yield (f'    {{\n      "children": {children},\n      "depth": {depth},\n'
               f'      "hi": "{hi}",\n      "id": {row_id},\n'
               f'      "index": {index},\n      "link": {link},\n'
               f'      "lo": "{lo}",\n      "status": "{status}"\n    }}')


def model_chunks(model, config: RunConfig) -> Iterator[str]:
    """The canonical schema-v1 text of a model, in pieces: the ``dump_json``
    text of the model object.

    The top-level fields go through ``json.dumps`` one by one; the rows of
    the three sections come from fixed templates (sorted keys, two-space
    indentation), one piece per row.
    """
    if isinstance(model, UnitIntervalModel):
        yield dump_json({"schema_version": SCHEMA_VERSION, "kind": "unit_interval",
                         "config": config.as_dict()})
        return
    fields = {"schema_version": SCHEMA_VERSION, "config": config.as_dict(),
              **_arc_header(model)}
    sections = {"cells": _cell_text, "connectors": _connector_text,
                "param_intervals": _param_text}
    separator = "{\n"
    for key in sorted([*fields, *sections]):
        if key in fields:
            # dump_json's text of the value, one level further in
            value = json.dumps(fields[key], indent=2, sort_keys=True).replace("\n", "\n  ")
            yield f'{separator}  "{key}": {value}'
        else:
            yield f'{separator}  "{key}": [\n'
            rows = sections[key](model)
            yield next(rows)
            for row in rows:
                yield ",\n" + row
            yield "\n  ]"
        separator = ",\n"
    yield "\n}\n"


def model_text(model, config: RunConfig) -> str:
    """The canonical schema-v1 text of a model (see ``model_chunks``)."""
    return "".join(model_chunks(model, config))


class UnitIntervalModel:
    """Degenerate model for target dimension exactly 1: the unit interval."""

    kind = "unit_interval"
    ambient_dimension = 1
    depth = 0


def _check_fields(where: str, item, **expected) -> None:
    """Raise ConfigError naming the first field of ``item`` that differs
    from its derived value."""
    if not isinstance(item, dict):
        raise ConfigError(f"{where} must be a JSON object")
    for key, want in expected.items():
        if key not in item or item[key] != want:
            raise ConfigError(f"{where}.{key} is {item.get(key)!r}, expected {want!r}")


_MISSING = object()


def _check_rows(data: dict, section: str, expected) -> None:
    """Check every file row of one section against its derived row."""
    if not isinstance(data[section], list):
        raise ConfigError(f"{section} must be a list")
    for n, (item, want) in enumerate(zip_longest(data[section], expected, fillvalue=_MISSING)):
        if want is _MISSING:
            raise ConfigError(f"{section} has more than the {n} rows its depth {data['depth']} allows")
        if item is _MISSING:
            raise ConfigError(f"{section} has {n} rows, fewer than its depth {data['depth']} needs")
        if item != want:
            _check_fields(f"{section}[{n}]", item, **want)


def _config_from_dict(raw: dict) -> RunConfig:
    """The RunConfig a model file's "config" object describes."""
    scales = raw["scales"]
    return RunConfig(
        target_dimension=raw["target_dimension"],
        ratio_family=raw["ratio_family"],
        ratio_params={k: decode_rational(v) for k, v in raw["ratio_params"].items()},
        depth=raw["depth"],
        seed=raw["seed"],
        scales=tuple(scales) if scales else None,
        samples=raw["samples"])


def model_from_dict(data: dict):
    """Model from its JSON form.

    Only the config is read.  The kind, the header, every cell, every
    connector (its vertices included) and every id and link follow from the
    config, so the model is rebuilt by ``build_model`` and the file compared
    with its ``model_to_dict`` row by row, never trusted: the first mismatch
    raises ConfigError naming the field.
    """
    if not isinstance(data, dict):
        raise ConfigError("a model must be a JSON object")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema version {data.get('schema_version')!r}")
    config = _config_from_dict(data["config"])
    try:
        model = build_model(config)
    except GenerationBudgetError as exc:
        raise ConfigError(f"the model's config cannot be rebuilt: {exc}") from exc
    if isinstance(model, UnitIntervalModel):
        _check_fields("model", data, kind="unit_interval")
        return model, config
    _check_fields("model", data, **_arc_header(model))
    expected = model_to_dict(model, config)
    for section in ("cells", "param_intervals", "connectors"):
        _check_rows(data, section, expected[section])
    return model, config


# -- svg / csv -----------------------------------------------------------------


def render_svg(arc) -> list[str]:
    """The SVG text of a planar model, one line per piece, each ending in a
    newline, for ``write_atomic`` to write in order."""
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
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {size + 2 * margin:.0f} {size + 2 * margin:.0f}">\n',
    ]
    # deepest generation's cells as rectangles; every connector as a polyline,
    # generations told apart by stroke width
    (x_lo, x_hi), (y_lo, y_hi) = arc.interval_ends("float", arc.depth)
    for i, j in zip(*arc.generation_columns(arc.depth)):
        x0, x1, y0, y1 = x_lo[i], x_hi[i], y_lo[j], y_hi[j]
        lines.append(
            f'<rect x="{sx(x0):.4f}" y="{sy(y1):.4f}" '
            f'width="{(x1 - x0) * size:.4f}" '
            f'height="{(y1 - y0) * size:.4f}" '
            f'fill="none" stroke="#222222" stroke-width="{width(arc.depth):.2f}"/>\n')
    for k in range(1, arc.depth + 1):
        sources, targets = arc.connector_ends(k)
        for a, b in zip(sources, targets):
            pts = " ".join(f"{sx(v[0]):.4f},{sy(v[1]):.4f}" for v in (a, b))
            lines.append(f'<polyline points="{pts}" fill="none" stroke="#b03030" '
                         f'stroke-width="{width(k):.2f}"/>\n')
    lines.append("</svg>\n")
    return lines


def series_csv(series: dim_mod.BoxCountSeries) -> str:
    rows = ["delta,count,log_inv_delta,log_count"]
    for delta, count, log_inv, log_n in series.rows():
        rows.append(f"{delta!r},{count},{log_inv!r},{log_n!r}")
    return "\n".join(rows) + "\n"


# -- model construction and verification ---------------------------------------


def build_model(config: RunConfig):
    if config.target_dimension == 1.0:
        return UnitIntervalModel()
    from . import arc as arc_mod

    try:
        # ratios that do not decay, or a factor dimension too small for a
        # float ratio
        base = RatioCantorSet(config.ratio_sequence())
        product = product_for_dimension(config.target_dimension - 1.0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return arc_mod.ArcApproximation(base, product, config.depth)


def counting_summary(model) -> dict:
    if isinstance(model, UnitIntervalModel):
        return {"kind": "unit_interval", "cells": 0, "connectors": 0,
                "param_intervals": 1}
    q = model.branching
    return {
        "kind": "arc",
        "depth": model.depth,
        "ambient_dimension": model.ambient_dimension,
        "cells_per_generation": [q ** k for k in range(model.depth + 1)],
        "connectors": q ** model.depth - 1,
        # the root, plus 2q-1 pieces for every cell above the deepest generation
        "param_intervals": 1 + (2 * q - 1) * model.first_id(model.depth),
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

    from . import arc as arc_mod
    from . import measure as measure_mod

    arc = model
    rng = random.Random(config.seed)

    report = arc_mod.verify_injectivity(arc, arc.depth)
    add("injectivity", report.passed,
        connector_pairs=report.connector_pairs_checked,
        clearance_violations=report.clearance_violations,
        traversal_violation=(list(report.traversal_violation)
                             if report.traversal_violation else None))

    # one check of the deepest generation decides every depth: it checks
    # the rows of each shallower one as well
    add("containment", arc_mod.verify_containment(arc, arc.depth).passed,
        per_depth=[{"depth": k, "bound": arc.cell_diameter(k)}
                   for k in range(1, arc.depth + 1)])

    resolution = 12  # the base set's generation the certificates read
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
    for cert in measure_mod.verify_mass_bounds(meas, measure_mod.DEFAULT_EXPONENT_GRID,
                                               mass_samples, resolution):
        mass_ok = mass_ok and cert.valid and cert.max_boundary_intervals <= 3
        mass_details.append({"exponent": cert.exponent, "constant": cert.constant,
                             "lower_margin": cert.lower_margin,
                             "upper_margin": cert.upper_margin,
                             "max_boundary_intervals": cert.max_boundary_intervals})
    add("mass_bounds", mass_ok, certificates=mass_details)

    passed = all(c["passed"] for c in checks)
    return {"schema_version": SCHEMA_VERSION, "kind": "verification_report",
            "passed": passed, "checks": checks}


# -- estimation ---------------------------------------------------------------


def arc_estimate(model, window: Optional[tuple[int, int]] = None
                 ) -> dim_mod.BoxCountSeries:
    """Box counts of an arc model's vertex cloud, the Cartesian product of
    each axis's float interval ends (``axis_ends``), counted on the axes.

    Defaults to the finest three admissible dyadic scales, depth-1 .. depth+1
    where the sample resolution allows: the construction's active scales,
    where the depth trend of the estimate is visible instead of being
    averaged into the coarse-scale plateau.  The finest admissible scale 2^-i
    is found from the exact resolution.
    """
    from . import dimension as dim_mod

    depth = model.depth
    axes = [dim_mod.dyadic_sample(ends) for ends in model.axis_ends(depth)]
    resolution = max(model.base_set.generation_length(depth),
                     model.product.factor.generation_length(depth))
    if window is None:
        # largest i with 2^-i >= resolution
        hi = min(depth + 1, (resolution.denominator // resolution.numerator).bit_length() - 1)
        window = (max(min(depth - 1, hi - 2), 1), hi)
    lo, hi = window
    return dim_mod.box_count_series(axes, dim_mod.dyadic_scales(lo, hi),
                                    sample_resolution=resolution)


def arc_series(model, window: Optional[tuple[int, int]] = None
               ) -> dim_mod.BoxCountSeries:
    """The box counts ``estimate --preset arc`` fits and ``export --format
    csv`` writes: ``arc_estimate`` of an arc model, or the dyadic grid of
    generation 10 for ``UnitIntervalModel`` (default window 3..8).  A window
    of fewer than three scales is refused, since no slope fits it."""
    from . import dimension as dim_mod

    if model is None:
        raise ConfigError("arc estimation needs a model file")
    if isinstance(model, UnitIntervalModel):
        points, resolution = dim_mod.interval_sample(10)
        lo, hi = window or (3, 8)
        series = dim_mod.box_count_series([points], dim_mod.dyadic_scales(lo, hi),
                                          sample_resolution=resolution)
    else:
        series = arc_estimate(model, window)
    dim_mod.check_fit_window(series)
    return series


def _from_flags(make, *args):
    """``make(*args)``, with the constructor's own range error on a value
    that came from a flag raised as a ConfigError."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def run_estimate(preset: str, config: RunConfig, model=None,
                 ratio: Fraction = Fraction(1, 3), copies: int = 2,
                 exponent: Optional[float] = None,
                 generation: Optional[int] = None) -> tuple[dict, dim_mod.BoxCountSeries]:
    """The estimate report and series of one preset.  ``exponent`` is the
    snowflake exponent, the von Koch one when None; a ``ratio`` or
    ``exponent`` out of its range raises ConfigError."""
    from . import dimension as dim_mod

    if preset in ("snowflake", "rug"):
        from .metric import VON_KOCH_EXPONENT, ArcFactor, RugSpace, SnowflakeMetric

        exponent = VON_KOCH_EXPONENT if exponent is None else exponent
    window = config.scales
    if preset == "cantor":
        g = generation or 12
        cantor = _from_flags(SelfSimilarCantor, ratio)
        points, resolution = dim_mod.cantor_sample(cantor, g)
        lo, hi = window or (2, g - 2)
        # scales matched to the construction's own hierarchy (powers of r)
        series = dim_mod.box_count_series([points], dim_mod.power_scales(ratio, lo, hi),
                                          sample_resolution=resolution)
        expected = dim_mod.expected_dimensions("cantor", dimension=cantor.dimension)
    elif preset == "product":
        # cell counts grow like 2^(g*copies); shrink the default depth to match
        g = generation or {1: 12, 2: 8}.get(copies, 5)
        product = ProductCantor(_from_flags(SelfSimilarCantor, ratio), copies)
        if product.cell_count(g) > 2 ** 22:
            raise GenerationBudgetError(f"{product.cell_count(g)} cells at generation {g} "
                                        f"exceed the sample cap {2 ** 22}")
        # the cell corners: the factor's lower ends on every axis
        points, resolution = dim_mod.cantor_sample(product.factor, g)
        if window is None:
            hi = min(6, g - 2)
            window = (max(1, min(2, hi - 2)), hi)
        lo, hi = window
        series = dim_mod.box_count_series([points] * copies,
                                          dim_mod.power_scales(ratio, lo, hi),
                                          sample_resolution=resolution)
        expected = dim_mod.expected_dimensions("product", dimension=product.dimension)
    elif preset == "snowflake":
        g = generation or 14
        space = _from_flags(SnowflakeMetric, exponent)
        points = space.sample(g)
        lo, hi = window or (2, 7)
        radii = [0.5 ** i for i in range(lo, hi + 1)]
        # the grid's generation length 2^-g, in the metric
        series = dim_mod.net_count_series([(space, points)], radii,
                                          sample_resolution=(2.0 ** -g) ** exponent)
        expected = dim_mod.expected_dimensions("snowflake", exponent=exponent)
    elif preset == "rug":
        if isinstance(model, UnitIntervalModel):
            raise ConfigError("rug estimation needs an arc model; "
                              "drop --model for the snowflake rug")
        if model is not None:
            # fractal rug: a built arc model as the first factor
            space = RugSpace(ArcFactor(model))
            g = generation or min(6, model.depth + 3)
            lo, hi = window or (2, 4)
            # the second factor's generation length; the arc factor's own
            # resolution is not checked
            resolution = 2.0 ** -g
            expected = dim_mod.expected_dimensions(
                "arc_rug", arc_dimension=1.0 + model.product.dimension)
        else:
            space = RugSpace(_from_flags(SnowflakeMetric, exponent))
            g = generation or 9
            lo, hi = window or (2, 5)
            resolution = (2.0 ** -g) ** exponent  # the coarser axis: eps <= 1
            expected = dim_mod.expected_dimensions("rug", exponent=exponent)
        # counted on the factors: the product sample is never built
        factors = space.factors(g)
        radii = [0.5 ** i for i in range(lo, hi + 1)]
        series = dim_mod.net_count_series(factors, radii, sample_resolution=resolution)
    elif preset == "arc":
        series = arc_series(model, window)
        if isinstance(model, UnitIntervalModel):
            expected = dim_mod.expected_dimensions("interval")
        else:
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
    model = build_model(config)
    summary = counting_summary(model)
    out = Path(args.out) if args.out else Path("model.json")
    write_atomic(out, model_chunks(model, config))
    for key, value in summary.items():
        print(f"{key}: {value}")
    print(f"model written to {out}")
    return EXIT_OK


#: Where the canonical text puts the config: a key of the top-level object.
_CONFIG_KEY = b'\n  "config": '
#: The end of the canonical config object: its closing brace, indented as
#: the key is (a nested value closes further in).
_CONFIG_END = b"\n  }"
#: Bytes of a model file a canonical load reads at a time while it looks
#: for the config.
_BLOCK = 1 << 16


def _read_config(handle) -> dict:
    """The object at the first canonical config key of a binary file, read
    ``_BLOCK`` bytes at a time; StopIteration when the file ends before the
    key or before the object closes."""
    blocks = iter(lambda: handle.read(_BLOCK), b"")
    buf = b""
    while (start := buf.find(_CONFIG_KEY)) < 0:
        buf = buf[1 - len(_CONFIG_KEY):] + next(blocks)  # a key may straddle two blocks
    buf = buf[start + len(_CONFIG_KEY):]
    while (stop := buf.find(_CONFIG_END)) < 0:
        buf += next(blocks)
    return json.JSONDecoder().raw_decode(buf[:stop + len(_CONFIG_END)].decode("ascii"))[0]


def _load_canonical(path):
    """(model, config) when the file at ``path`` is exactly the canonical
    text (``model_chunks``) of the model that its config builds, else None.

    The file is read in binary: the config at its canonical place, found
    ``_BLOCK`` bytes at a time; then the model is rebuilt from it, and the
    canonical pieces (ASCII, as ``json.dumps`` writes them) are compared
    with the file's bytes in order, then the file's end is checked.  So a
    load holds the model and one block, never the file or the whole
    canonical text.  A match means the file is that text, and its one
    config is the one read; any error but an unreadable file only means no
    match.
    """
    with open(path, "rb") as handle:
        try:
            config = _config_from_dict(_read_config(handle))
            model = build_model(config)
            handle.seek(0)
            for chunk in model_chunks(model, config):
                piece = chunk.encode("ascii")
                if handle.read(len(piece)) != piece:
                    return None
        except (ArithmeticError, AttributeError, LookupError, RuntimeError, StopIteration,
                TypeError, ValueError):
            return None
        return None if handle.read(1) else (model, config)


def _load_model(path) -> tuple[object, RunConfig]:
    """Model and config of a model file.

    A file ``build`` wrote is accepted by ``_load_canonical``, which
    streams it; any other file is read whole and gets the row check of
    ``model_from_dict``, which names the first field that differs from its
    derived value.
    """
    try:
        loaded = _load_canonical(path)
        if loaded is not None:
            return loaded
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read model {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"model {path} is not UTF-8 text: {exc}") from exc
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested past the interpreter's stack
        raise ConfigError(f"model {path} is not valid JSON: {exc}") from exc
    try:
        return model_from_dict(data)
    except (ArithmeticError, AttributeError, LookupError, TypeError, ValueError) as exc:
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


def _estimate_or_refuse(estimate, *args, **kwargs):
    """``estimate(*args, **kwargs)`` (``run_estimate`` or ``arc_series``); a
    refused window or sample budget prints why and gives None."""
    try:
        return estimate(*args, **kwargs)
    except (ValueError, GenerationBudgetError) as exc:
        if isinstance(exc, ConfigError):
            raise
        print(f"estimation failed: {exc}", file=sys.stderr)
        return None


#: The preset flags each ``estimate`` preset reads; it refuses the others.
_PRESET_FLAGS = {
    "cantor": ("ratio", "generation"),
    "product": ("ratio", "copies", "generation"),
    "snowflake": ("eps", "generation"),
    "rug": ("eps", "generation"),
    "rug --model": ("model", "generation"),
    "arc": ("model",),
}


def cmd_estimate(args) -> int:
    preset = args.preset + (" --model" if args.preset == "rug" and args.model else "")
    for flag in ("ratio", "copies", "eps", "model", "generation"):
        if getattr(args, flag) is not None and flag not in _PRESET_FLAGS[preset]:
            raise ConfigError(f"estimate --preset {preset} does not read --{flag}")
    config = config_from_sources(args)
    model = None
    if args.model:
        model, _ = _load_model(args.model)
    kwargs = {}
    if args.ratio is not None:
        kwargs["ratio"] = parse_fraction(args.ratio)
    if args.eps not in (None, "koch"):
        kwargs["exponent"] = float(parse_fraction(args.eps))
    for key in ("copies", "generation"):
        value = getattr(args, key)
        if value is not None:
            if value < 1:
                raise ConfigError(f"--{key} must be at least 1, got {value}")
            kwargs[key] = value
    result = _estimate_or_refuse(run_estimate, args.preset, config, model, **kwargs)
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
        write_atomic(out, model_chunks(model, config))
    elif args.format == "svg":
        if isinstance(model, UnitIntervalModel):
            raise ConfigError("svg export is only defined for planar (n=1) models")
        write_atomic(out, render_svg(model))
    elif args.format == "csv":
        # the arc preset's counts, unfitted: no numpy is loaded
        series = _estimate_or_refuse(arc_series, model, config.scales)
        if series is None:
            return EXIT_CONSTRUCTION
        write_atomic(out, series_csv(series))
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
        p.add_argument("--scales", type=str, default=None,
                       help="dyadic scale window, e.g. 3:8")

    p_build = sub.add_parser("build", help="construct a model and write JSON")
    common(p_build)
    p_build.add_argument("--seed", type=int, default=None, help="random seed")
    p_build.add_argument("--c", type=float, default=None,
                         help="target conformal dimension (>= 1)")
    p_build.add_argument("--depth", type=int, default=None, help="generation depth")
    p_build.add_argument("--ratios", type=str, default=None,
                         help="ratio family: dyadic | harmonic | geometric:q=1/3")
    p_build.add_argument("--samples", type=int, default=None,
                         help="verification sample count")
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
    except RuntimeError as exc:
        # a RoutingFailed comes from an arc module that is already loaded
        from .arc import RoutingFailed

        if not isinstance(exc, (RoutingFailed, GenerationBudgetError)):
            raise
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
