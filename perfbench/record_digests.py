"""Record the digests the correctness gate compares against.

    python3 perfbench/record_digests.py

Runs every workload's set-up and operations once (seed 0) and writes the
sha256 of each seed-independent output to digests.json; an op that fails
gets ``null``.  Verification reports depend on the seed and are checked by
their verdicts instead.  Re-record only when a change is meant to alter the
output bytes, and say so in that change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def main() -> int:
    digests: dict = {}
    work = run.HERE / "_work" / f"record-{os.getpid()}"
    try:
        for workload in workloads.WORKLOADS.values():
            models, out_dir = work / workload.name / "models", work / workload.name / "out"
            models.mkdir(parents=True)
            out_dir.mkdir()
            log = work / "record.log"
            for model in workload.models:
                out = models / f"{model}.json"
                run.run_child(run.build_command(model, out), work, log)
                digests[out.name] = workloads.sha256(out)
            fill = {"seed": "0", "models": str(models), "out": str(out_dir)}
            for op in workload.ops:
                args = [a.format(**fill) for a in op.args]
                child = run.run_child(run.op_command(op, args, None), work, log)
                if not op.out.startswith("verify-"):
                    out = out_dir / op.out
                    digests[op.out] = workloads.sha256(out) if child.exit_code == 0 else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(json.dumps(digests, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
