"""Spans and counters around fractarc's public functions, from outside.

The child side (`Tracer`, `install`) wraps each traced name where its caller
looks it up: ``fractarc.arc`` imports the geometry predicates by name, so
``boxes_disjoint`` is wrapped both in ``fractarc.geometry`` (for the calls
inside ``polylines_disjoint`` and ``chain_self_intersection``) and in
``fractarc.arc`` (for the pair scan in ``verify_injectivity``).  Hot
predicates get plain counters; everything else gets a span (name, parent,
start, end) kept in memory and written out once when the child exits.
Each operation is its own child and file, so the file names the op.

The parent side (`op_metrics`) turns one child's trace into per-layer
numbers.  A layer is the module prefix of a span name (``arc.route`` belongs
to ``arc``); its self time is the time its spans cover minus the time their
child spans cover.  A named time such as ``arc.route_s`` is the inclusive
time of the outermost spans of that name, so recursion is not counted twice;
``arc.build_s`` is self time instead, which leaves routing and Cantor
lattice work to their own metrics.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "arc", "geometry", "cantor", "measure", "metric", "dimension")


class Tracer:
    """In-memory spans and counters of one child process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; after(counts, args, result) may add to the counters."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, perf_counter(), None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = perf_counter()
            if after is not None:
                after(self.counts, args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path, extra: dict) -> None:
        with open(path, "w") as handle:
            json.dump({**extra, "spans": self.spans, "counts": dict(self.counts)}, handle)


def _model_bytes(counts, args, result) -> None:
    if isinstance(args[0], dict) and args[0].get("kind") in ("arc", "unit_interval"):
        counts["cli.model_bytes"] += len(result)


def _connectors_built(counts, args, result) -> None:
    counts["arc.connectors_built"] += len(result)


def _connector_pairs(counts, args, result) -> None:
    counts["arc.connector_pairs"] += result.connector_pairs_checked


def _box_count_points(counts, args, result) -> None:
    counts["dimension.box_count_points"] += len(args[0])


def _net_points(counts, args, result) -> None:
    counts["dimension.net_points"] += len(args[1])


def install(tracer: Tracer) -> None:
    """Replace the traced names in the imported fractarc modules."""
    from fractarc import arc, cantor, cli, dimension, geometry, measure, metric

    spans = [
        (cli, "_load_model", "cli.load", None),
        (cli, "model_to_dict", "cli.serialize", None),
        (cli, "dump_json", "cli.serialize", _model_bytes),
        (cli, "series_csv", "cli.serialize", None),
        (cli, "write_atomic", "cli.serialize", None),
        (cli, "render_svg", "cli.render_svg", None),
        (cli, "verify_uniform_perfectness", "cantor.verify_uniform_perfectness", None),
        (arc, "build_arc", "arc.build", None),
        (arc, "route_connectors", "arc.route", _connectors_built),
        (arc, "verify_injectivity", "arc.verify_injectivity", _connector_pairs),
        (arc, "chain_self_intersection", "geometry.chain_self_intersection", None),
        (arc, "verify_containment", "arc.verify_containment", None),
        (arc, "modulus_of_continuity", "arc.modulus_of_continuity", None),
        (arc, "continuity_violations", "arc.continuity_violations", None),
        (arc.ArcApproximation, "traversal_chain", "arc.traversal_chain", None),
        (arc.ArcApproximation, "vertex_cloud", "arc.vertex_cloud", None),
        (arc.ArcApproximation, "evaluate", "arc.evaluate", None),
        (cantor._BinaryCantorBase, "build", "cantor.build", None),
        (cantor.ProductCantor, "min_corners", "cantor.min_corners", None),
        (measure, "verify_mass_bounds", "measure.verify_mass_bounds", None),
        (dimension, "box_count", "dimension.box_count", _box_count_points),
        (dimension, "estimate_dimension", "dimension.estimate_dimension", None),
        (dimension, "ball_net_count", "dimension.ball_net_count", _net_points),
    ]
    for cls in (metric.SnowflakeMetric, metric.EuclideanMetric, metric.ArcFactor,
                metric.RugSpace):
        spans.append((cls, "within", "metric.within", None))
        if "sample" in vars(cls):
            spans.append((cls, "sample", "metric.sample", None))
    counters = [
        (arc, "boxes_disjoint", "geometry.boxes_disjoint_calls"),
        (geometry, "boxes_disjoint", "geometry.boxes_disjoint_calls"),
        (arc, "polylines_disjoint", "geometry.polylines_disjoint_calls"),
        (geometry, "segment_intersection", "geometry.segment_intersection_calls"),
        (measure.NaturalMeasure, "ball_mass", "measure.ball_mass_calls"),
    ]
    for owner, attr, name, after in spans:
        setattr(owner, attr, tracer.span(name, getattr(owner, attr), after))
    for owner, attr, name in counters:
        setattr(owner, attr, tracer.counter(name, getattr(owner, attr)))


# -- parent side ---------------------------------------------------------------

#: Counters recorded by the child under these names.
COUNTS = ("cli.model_bytes", "arc.connectors_built", "arc.connector_pairs",
          "geometry.polylines_disjoint_calls", "geometry.boxes_disjoint_calls",
          "geometry.segment_intersection_calls", "measure.ball_mass_calls",
          "dimension.box_count_points", "dimension.net_points")

#: Spans reported as NAME_s, the inclusive time of the outermost spans.
TIMED = ("cli.load", "cli.serialize", "cli.render_svg", "arc.route",
         "arc.verify_injectivity", "arc.traversal_chain", "geometry.chain_self_intersection",
         "arc.verify_containment", "arc.vertex_cloud", "arc.evaluate", "cantor.build",
         "cantor.verify_uniform_perfectness", "cantor.min_corners",
         "measure.verify_mass_bounds", "dimension.box_count", "dimension.estimate_dimension",
         "dimension.ball_net_count", "metric.within", "metric.sample")

#: Spans reported as NAME_calls, the number of outermost spans.
CALLED = ("arc.route", "arc.evaluate", "metric.within")


def op_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced child (see the module docstring)."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def outermost(index: int) -> bool:
        name, parent = spans[index][0], spans[index][1]
        while parent >= 0:
            if spans[parent][0] == name:
                return False
            parent = spans[parent][1]
        return True

    inclusive: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    self_by_name: dict[str, float] = defaultdict(float)
    for index, (name, _, start, end) in enumerate(spans):
        self_by_name[name] += end - start - child_time[index]
        if outermost(index):
            inclusive[name] += end - start
            calls[name] += 1

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum((t for name, t in self_by_name.items()
                                      if name.split(".", 1)[0] == layer), 0.0)
    out.update({f"{name}_s": inclusive[name] for name in TIMED})
    out.update({f"{name}_calls": calls[name] for name in CALLED})
    out.update({name: trace["counts"].get(name, 0) for name in COUNTS})
    out["arc.build_s"] = self_by_name["arc.build"]
    return out
