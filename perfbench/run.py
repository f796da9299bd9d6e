"""fractarc benchmark: fixed CLI workloads, one fresh process per command.

    python3 perfbench/run.py --workload arc-build --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

Run from a source checkout; the program is imported from ``src/``.  After
set-up (an import warm-up and the models the workload reads, repeated
SETUP_REPEATS times), the harness runs the workload's operations in a closed
loop, one at a time: MIN_PASSES passes over them, then more while another
pass, as long as the longest so far, still ends within ``--seconds``.
Every output is checked (workloads.gate).  The last stdout line is one JSON
object: the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``; the metric names and units come from BENCHMARK.json.

End to end, ``wall_s`` is one pass: the sum of each operation's median time
over the passes.  ``peak_rss_mib`` is the largest child's peak RSS in a pass
and ``setup_s`` the median set-up time.  Their bounds are wide because the
machine is: on a shared 2-vCPU Xeon VM, a fixed pure-Python loop averaged
over 36-second windows varied by 14% (quartile distance over median, seven
windows), and 36 s per run is what the run budget allows.

Why a fresh process per operation: that is what a user of the CLI pays, and
a warm process hides much of it.  The ``rug`` preset makes about 3.2M minor
page faults, about 4 s of system time, in every fresh process; a second call
in the same process makes about 2k and takes 3.2 s instead of 7.5-8.3 s.

At most two processes are alive at once (this harness and one child), with
BLAS/OpenMP threads pinned to one.  Each child's resource usage comes from
``os.wait4``, the child's own ``getrusage`` record: unlike a
``RUSAGE_CHILDREN`` delta it also gives each child's own peak RSS.

``--trace 1`` alternates untraced and traced passes.  Traced children wrap
fractarc's public functions from outside (tracing.py); their per-layer
numbers are medians over the traced passes, ``op.*`` are per-command times
from the untraced passes, and ``trace.overhead`` is the traced pass time
over the untraced one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
MIN_PASSES = 2
OP_TIMEOUT_S = 120
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


@dataclass
class Child:
    exit_code: int
    wall_s: float
    started: float
    user_s: float
    sys_s: float
    minor_faults: int
    peak_rss_mib: float


@dataclass
class OpResult:
    op: workloads.Op
    child: Child
    failure: str | None
    wrong: bool
    layers: dict = field(default_factory=dict)  # traced passes only


@dataclass
class Pass:
    traced: bool
    wall_s: float
    ops: list[OpResult]


def child_env() -> dict:
    return {**os.environ, **PINNED_ENV, "PYTHONPATH": str(ROOT / "src")}


def run_child(cmd: list[str], cwd: Path, log: Path) -> Child:
    """Run one child to completion and read its own resource usage."""
    with open(log, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    return Child(proc.returncode, wall, started, usage.ru_utime, usage.ru_stime,
                 usage.ru_minflt, usage.ru_maxrss / 1024)


def build_command(model: str, out: Path) -> list[str]:
    return [sys.executable, "-m", "fractarc.cli", "build", *workloads.MODELS[model],
            "--out", str(out)]


def op_command(op: workloads.Op, args: list[str], trace_file: Path | None) -> list[str]:
    """Untraced CLI ops run exactly as a user types them."""
    if trace_file is not None:
        return [sys.executable, str(HERE / "child.py"), "--trace-out", str(trace_file),
                op.runner, *args]
    if op.runner == "cli":
        return [sys.executable, "-m", "fractarc.cli", *args]
    return [sys.executable, str(HERE / "child.py"), op.runner, *args]


def log_tail(log: Path) -> str:
    lines = log.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


class Bench:
    """One workload's set-up and passes, in a work directory of its own."""

    def __init__(self, workload: workloads.Workload, seed: int, work: Path, digests: dict):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.models = work / "models"
        self.digests = digests
        self.wrong_setup: list[str] = []

    def setup(self) -> float:
        """Import warm-up, then build the models the workload reads."""
        started = time.perf_counter()
        log = self.work / "setup.log"
        warm = run_child([sys.executable, "-c", "import fractarc.cli"], self.work, log)
        if warm.exit_code != 0:
            raise SystemExit(f"set-up: cannot import fractarc: {log_tail(log)}")
        shutil.rmtree(self.models, ignore_errors=True)
        self.models.mkdir(parents=True)
        for model in self.workload.models:
            out = self.models / f"{model}.json"
            child = run_child(build_command(model, out), self.work, log)
            if child.exit_code != 0:
                raise SystemExit(f"set-up: build {model} failed: {log_tail(log)}")
            failure, _ = workloads.gate(out, child.exit_code, self.digests)
            if failure:
                self.wrong_setup.append(f"set-up {model}: {failure}")
        return time.perf_counter() - started

    def run_pass(self, index: int, traced: bool) -> Pass:
        out_dir = self.work / f"pass-{index}"
        out_dir.mkdir()
        fill = {"seed": str(self.seed), "models": str(self.models), "out": str(out_dir)}
        results = []
        started = time.perf_counter()
        for n, op in enumerate(self.workload.ops):
            args = [a.format(**fill) for a in op.args]
            trace_file = out_dir / f"trace-{n}.json" if traced else None
            log = out_dir / f"op-{n}.log"
            child = run_child(op_command(op, args, trace_file), self.work, log)
            failure, wrong = workloads.gate(out_dir / op.out, child.exit_code, self.digests)
            if failure and child.exit_code != 0:
                failure = f"{failure}: {log_tail(log)}"
            result = OpResult(op, child, failure, wrong)
            if trace_file:
                result.layers = self.layer_metrics(trace_file, child)
            results.append(result)
        wall = time.perf_counter() - started
        shutil.rmtree(out_dir)
        return Pass(traced, wall, results)

    @staticmethod
    def layer_metrics(trace_file: Path, child: Child) -> dict:
        if trace_file.exists():
            trace = json.loads(trace_file.read_text())
            metrics = tracing.op_metrics(trace)
            # perf_counter is CLOCK_MONOTONIC on Linux, one clock for both processes
            metrics["proc.import_s"] = trace["imported"] - child.started
        else:  # the child died before writing its trace; its op has failed
            metrics = tracing.op_metrics({"spans": [], "counts": {}})
            metrics["proc.import_s"] = 0.0
        metrics["proc.minor_faults"] = child.minor_faults
        metrics["proc.user_s"] = child.user_s
        metrics["proc.sys_s"] = child.sys_s
        return metrics


def op_medians(passes: list[Pass]) -> list[float]:
    """Each op's median time over the passes, in workload order."""
    return [median(p.ops[n].child.wall_s for p in passes) for n in range(len(passes[0].ops))]


def end_to_end(setups: list[float], passes: list[Pass]) -> dict:
    return {
        "wall_s": sum(op_medians(passes)),
        "peak_rss_mib": median(max(r.child.peak_rss_mib for r in p.ops) for p in passes),
        "setup_s": median(setups),
    }


def kind_times(p: Pass) -> dict:
    times = {f"op.{kind}_s": 0.0 for kind in workloads.KINDS}
    for r in p.ops:
        times[f"op.{r.op.kind}_s"] += r.child.wall_s
    return times


def per_layer(untraced: list[Pass], traced: list[Pass]) -> dict:
    sums = []
    for p in traced:
        total: Counter = Counter()
        for r in p.ops:
            total.update(r.layers)
        boxes = total["geometry.boxes_disjoint_calls"]
        total["geometry.exact_ratio"] = (
            total["geometry.segment_intersection_calls"] / boxes if boxes else 0.0)
        sums.append(total)
    out = {name: median(s[name] for s in sums) for name in sums[0]}
    kinds = [kind_times(p) for p in untraced]
    out.update({name: median(k[name] for k in kinds) for name in kinds[0]})
    out["trace.overhead"] = (median(sum(r.child.wall_s for r in p.ops) for p in traced)
                             / median(sum(r.child.wall_s for r in p.ops) for p in untraced))
    return out


def environment(workload: str, args) -> dict:
    import numpy  # the harness's own interpreter runs the children too

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "workload": workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "pinned_env": PINNED_ENV}


def report(passes: list[Pass], setups: list[float], wrong_setup: list[str]) -> None:
    """Human-readable table; everything here precedes the JSON line."""
    print(f"set-up: median {median(setups):.3f} s over {len(setups)} "
          f"({', '.join(f'{s:.3f}' for s in setups)})")
    by_op = defaultdict(list)
    for p in passes:
        for r in p.ops:
            by_op[(r.op.name, p.traced)].append(r.child.wall_s)
    print(f"{'operation':28} {'traced':>6} {'n':>3} {'median_s':>9} {'min_s':>8} {'max_s':>8}")
    for (name, traced), times in by_op.items():
        print(f"{name:28} {str(traced):>6} {len(times):>3} {median(times):9.3f} "
              f"{min(times):8.3f} {max(times):8.3f}")
    plain = [p for p in passes if not p.traced]
    kinds = [kind_times(p) for p in plain]
    print("per command kind (median of untraced passes): " + ", ".join(
        f"{name[3:]} {median(k[name] for k in kinds):.3f} s" for name in kinds[0]))
    attempted = sum(len(p.ops) for p in passes)
    failures = Counter(f"{r.op.name}: {r.failure}" for p in passes for r in p.ops if r.failure)
    print(f"ops_attempted {attempted} count, ops_failed {sum(failures.values())} count "
          f"({len(passes)} passes)")
    for why, n in failures.items():
        print(f"  failed x{n}: {why}")
    for why in wrong_setup:
        print(f"  wrong output: {why}")
    traced = next((p for p in passes if p.traced), None)
    if traced:
        print("counts per operation (first traced pass):")
        for r in traced.ops:
            counts = {k: v for k, v in r.layers.items() if v and not k.endswith("_s")}
            print(f"  {r.op.name}: " + ", ".join(f"{k} {v}" for k, v in counts.items()))


def run_workload(name: str, args, wanted: list[dict]) -> None:
    """Set up, measure and print one workload's block, ending in its JSON line."""
    work = HERE / "_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(workloads.WORKLOADS[name], args.seed, work, workloads.load_digests())
        setups = [bench.setup() for _ in range(SETUP_REPEATS)]
        passes: list[Pass] = []
        started = time.perf_counter()
        while len(passes) < MIN_PASSES or (
                time.perf_counter() - started + max(p.wall_s for p in passes) <= args.seconds):
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(bench.run_pass(len(passes), traced))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("env: " + json.dumps(environment(name, args), sort_keys=True))
    report(passes, setups, bench.wrong_setup)
    if args.trace:
        values = per_layer([p for p in passes if not p.traced], [p for p in passes if p.traced])
    else:
        values = end_to_end(setups, passes)
    results = [r for p in passes for r in p.ops]
    print(json.dumps({
        "correct": not bench.wrong_setup and not any(r.wrong for r in results),
        "attempted": len(results),
        "failed": sum(1 for r in results if r.failure),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "fractarc" / "cli.py").is_file():
        print(f"no fractarc sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    for name in workloads.WORKLOADS if args.workload == "all" else [args.workload]:
        run_workload(name, args, wanted)
    return 0


if __name__ == "__main__":
    sys.exit(main())
