"""The benchmark's tracer resolves every library name it wraps."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_perfbench_tracer_installs():
    # perfbench/tracing.py wraps fractarc names by getattr: a renamed or
    # deleted traced name makes install raise, and the traced run with it
    code = ("import sys; sys.path.insert(0, 'perfbench'); import tracing; "
            "tracing.install(tracing.Tracer())")
    run = subprocess.run([sys.executable, "-c", code], cwd=REPO, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": "src"}, timeout=120)
    assert run.returncode == 0, run.stderr
