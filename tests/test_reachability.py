"""``src/fractarc`` keeps what the commands run.

A fresh process runs a fixed list of command lines through ``cli.main``,
plus the continuity check that the benchmark runs from the library, under
``sys.setprofile``, and collects the ``fractarc`` code objects that were
entered.  Every ``def`` that ``ast`` finds in the package (a decorated one
starting at its first decorator, as its code object does) is either among
them or in ``ALLOWED`` with the reason it stays.  The unreached set must
equal ``ALLOWED``: a new function that no command runs fails, and so does an
entry that a command reaches again or that no longer exists.

Run the probe alone with ``python tests/test_reachability.py DIR``: it
writes its models to DIR and prints the reached ``module:qualname`` keys as
JSON.
"""

import ast
import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "fractarc"

_TRACER = "perfbench/tracing.py wraps it"
_API = "library API shown in the README"
_METRIC = "metric definition the net oracles check and the tracer wraps"

#: Functions no command runs, with the reason each stays in ``src``.
ALLOWED = {
    "geometry:vsub": _TRACER + " (segment_intersection calls it)",
    "geometry:vlerp": _TRACER + " (segment_intersection calls it)",
    "geometry:point_on_segment": _TRACER + " (segment_intersection calls it)",
    "geometry:segment_intersection": _TRACER,
    "geometry:_parallel_intersection": _TRACER + " (segment_intersection calls it)",
    "cantor:ProductCantor.min_corners": _TRACER,
    "geometry:chain_self_intersection": _TRACER,
    "geometry:_meeting_box_pairs": _TRACER + " (chain_self_intersection calls it)",
    "arc:ArcApproximation.traversal_chain": _TRACER,
    "arc:ArcApproximation._glued": _TRACER + " (traversal_chain calls it)",
    "arc:build_arc": _API,
    "arc:ArcApproximation.evaluate": _API,
    "metric:SnowflakeMetric.distance": _METRIC,
    "metric:EuclideanMetric.distance": _METRIC,
    "metric:ArcFactor.distance": _METRIC,
    "metric:RugSpace.distance": _METRIC,
    "metric:RugSpace.within": _METRIC,
    "metric:RugSpace.reach": _METRIC,
    "metric:RugSpace.sample": _METRIC,
    "cantor:RatioSequence.__repr__": "dunder: the repr of a ratio sequence",
    "cantor:_BinaryCantorBase.generation_length": "abstract: each subclass defines it",
    "__init__:__dir__": "dunder: dir(fractarc) lists the lazily loaded names",
}

PLANAR = ["--c", "1.6309297535714574"]

#: (argv, exit code) of the builds, run first; "{d}" is the probe's directory.
BUILDS = [
    (["build", *PLANAR, "--depth", "3", "--out", "{d}/planar.json"], 0),
    (["build", "--c", "2.5", "--depth", "2", "--out", "{d}/spatial.json"], 0),
    (["build", "--c", "1", "--out", "{d}/unit.json"], 0),
    (["build", "--c", "1.5", "--depth", "2", "--ratios", "geometric:q=1/3",
      "--out", "{d}/geometric.json"], 0),
    (["build", "--c", "1.5", "--depth", "2", "--ratios", "harmonic",
      "--out", "{d}/harmonic.json"], 0),
    (["build", "--config", "{d}/build.cfg", "--scales", "1:3", "--out", "{d}/config.json"], 0),
]

#: Then these, on the built models and on planar-3 re-dumped compactly and
#: with one field tampered.
COMMANDS = [
    (["verify", "--model", "{d}/planar.json", "--seed", "1", "--samples", "20",
      "--out", "{d}/verify-planar.json"], 0),
    (["verify", "--model", "{d}/spatial.json", "--seed", "1", "--samples", "20"], 0),
    (["verify", "--model", "{d}/compact.json", "--samples", "20"], 0),
    (["verify", "--model", "{d}/tampered.json"], 2),
    (["verify", "--model", "{d}/unit.json"], 0),
    (["export", "--model", "{d}/planar.json", "--format", "json", "--out", "{d}/e.json"], 0),
    (["export", "--model", "{d}/planar.json", "--format", "svg", "--out", "{d}/e.svg"], 0),
    (["export", "--model", "{d}/planar.json", "--format", "csv", "--out", "{d}/e.csv"], 0),
    (["estimate", "--preset", "cantor", "--ratio", "1/3", "--generation", "8",
      "--csv", "{d}/cantor.csv"], 0),
    (["estimate", "--preset", "product", "--ratio", "1/3", "--generation", "5"], 0),
    (["estimate", "--preset", "product", "--copies", "3", "--generation", "5"], 0),
    (["estimate", "--preset", "snowflake", "--eps", "koch", "--generation", "10"], 0),
    (["estimate", "--preset", "snowflake", "--eps", "1/2", "--generation", "8",
      "--scales", "2:4"], 0),
    (["estimate", "--preset", "rug", "--eps", "koch"], 0),
    (["estimate", "--preset", "rug", "--model", "{d}/planar.json", "--generation", "4"], 0),
    (["estimate", "--preset", "arc", "--model", "{d}/planar.json", "--out", "{d}/arc.json"], 0),
    (["estimate", "--preset", "arc", "--model", "{d}/unit.json", "--csv", "{d}/unit.csv"], 0),
    (["estimate", "--preset", "cantor", "--config", "{d}/estimate.cfg"], 0),
    (["estimate", "--preset", "cantor", "--generation", "8", "--scales", "2:9"], 3),
    (["estimate", "--preset", "cantor", "--eps", "5"], 2),
]


def probe(directory: Path) -> set:
    """(module, first line) of every package function that ``BUILDS``,
    ``COMMANDS`` and the continuity check enter."""
    codes = set()
    sys.setprofile(lambda frame, event, arg: codes.add(frame.f_code))
    try:
        from fractarc import arc, cli

        def run(commands):
            for argv, code in commands:
                argv = [arg.format(d=directory) for arg in argv]
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(argv) == code, argv

        (directory / "build.cfg").write_text(
            "c = 1.6\ndepth = 2\nseed = 3\nsamples = 20\nratios = dyadic  # the default\n")
        (directory / "estimate.cfg").write_text("scales = 2:6\n")
        run(BUILDS)
        data = json.loads((directory / "planar.json").read_text())
        (directory / "compact.json").write_text(json.dumps(data, separators=(",", ":")))
        data["connectors"][1]["target_cell"] += 1
        (directory / "tampered.json").write_text(json.dumps(data))
        run(COMMANDS)
        # the library check perfbench/child.py runs as its continuity op
        model, _ = cli._load_model(directory / "planar.json")
        modulus = arc.modulus_of_continuity(model, 0.2)
        assert arc.continuity_violations(model, 0.2, modulus.delta, 2000,
                                         random.Random(1)) == 0
    finally:
        sys.setprofile(None)
    return {(Path(code.co_filename).stem, code.co_firstlineno) for code in codes
            if Path(code.co_filename).resolve().parent == PACKAGE}


def _defs(node, module: str, prefix: str, out: dict) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            start = min([child.lineno] + [d.lineno for d in child.decorator_list])
            out[module, start] = f"{module}:{prefix}{child.name}"
            _defs(child, module, f"{prefix}{child.name}.", out)
        elif isinstance(child, ast.ClassDef):
            _defs(child, module, f"{prefix}{child.name}.", out)
        else:
            _defs(child, module, prefix, out)


def defined() -> dict:
    """Every ``def`` of the package: (module, first line) -> module:qualname."""
    out: dict = {}
    for path in sorted(PACKAGE.glob("*.py")):
        _defs(ast.parse(path.read_text(encoding="utf-8")), path.stem, "", out)
    return out


def test_every_unreached_function_is_allowed(tmp_path):
    run = subprocess.run([sys.executable, __file__, str(tmp_path)], capture_output=True,
                         text=True, timeout=300,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert run.returncode == 0, run.stderr
    reached = set(json.loads(run.stdout.splitlines()[-1]))
    unreached = {name for name in defined().values() if name not in reached}
    new, stale = sorted(unreached - ALLOWED.keys()), sorted(ALLOWED.keys() - unreached)
    # no command runs the first; the second are reached again, or gone
    assert (new, stale) == ([], [])


if __name__ == "__main__":
    names = defined()
    keys = probe(Path(sys.argv[1]))
    print(json.dumps(sorted(names[key] for key in keys if key in names)))
