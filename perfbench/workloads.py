"""The three workloads and the correctness gate.

Every operation is one fractarc command a researcher waits on, run as a
fresh process (see run.py for why).  Configs are fixed; the seed feeds only
``verify --seed`` and the continuity RNG.  "planar" is n=1 in the plane,
"spatial" n=2 in space.

* arc-build is the write path: routing and serialisation dominate, box
  counting takes its float/numpy path, verification is bypassed.
* arc-verify is the read path: the O(connectors^2) injectivity scan, the
  chain scan, containment and ``evaluate`` dominate, routing is bypassed.
* estimate-suite is the dimension layer: exact ``Fraction`` box counting
  beside greedy r-nets under two metrics (snowflake and Euclidean), so a net
  optimisation tuned to one metric cannot slow the other unseen; the arc
  layer is bypassed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

PLANAR = ("--c", "1.6309297535714574")
SPATIAL = ("--c", "2.5")
MODELS = {"planar-4": PLANAR + ("--depth", "4"), "planar-5": PLANAR + ("--depth", "5"),
          "planar-6": PLANAR + ("--depth", "6"), "spatial-3": SPATIAL + ("--depth", "3"),
          "spatial-4": SPATIAL + ("--depth", "4")}

#: Command kinds, summed into one time each.
KINDS = ("build", "verify", "export", "continuity", "estimate_box", "estimate_net")


@dataclass(frozen=True)
class Op:
    name: str
    kind: str
    runner: str   # "cli" or "continuity" (see child.py)
    args: tuple   # "{seed}", "{models}" and "{out}" are filled in per pass
    out: str      # output file in the pass directory, checked by the gate


def build(model: str) -> Op:
    return Op(f"build {model}", "build", "cli",
              ("build",) + MODELS[model] + ("--out", f"{{out}}/{model}.json"), f"{model}.json")


def estimate(label: str, kind: str, *args: str) -> Op:
    out = f"estimate-{label}.json"
    return Op(f"estimate {label}", kind, "cli",
              ("estimate",) + args + ("--out", f"{{out}}/{out}"), out)


@dataclass(frozen=True)
class Workload:
    name: str
    models: tuple  # built in set-up, read by the ops from {models}
    ops: tuple


WORKLOADS = {w.name: w for w in (
    Workload("arc-build", (), (
        build("planar-6"),
        build("spatial-4"),
        Op("export svg planar-6", "export", "cli",
           ("export", "--model", "{out}/planar-6.json", "--format", "svg",
            "--out", "{out}/planar-6.svg"), "planar-6.svg"),
        Op("export csv spatial-4", "export", "cli",
           ("export", "--model", "{out}/spatial-4.json", "--format", "csv",
            "--out", "{out}/spatial-4.csv"), "spatial-4.csv"),
        estimate("arc-planar-6", "estimate_box", "--preset", "arc",
                 "--model", "{out}/planar-6.json"),
    )),
    Workload("arc-verify", ("planar-5", "spatial-3"), (
        Op("verify planar-5", "verify", "cli",
           ("verify", "--model", "{models}/planar-5.json", "--seed", "{seed}",
            "--out", "{out}/verify-planar-5.json"), "verify-planar-5.json"),
        Op("verify spatial-3", "verify", "cli",
           ("verify", "--model", "{models}/spatial-3.json", "--seed", "{seed}",
            "--out", "{out}/verify-spatial-3.json"), "verify-spatial-3.json"),
        Op("continuity planar-5", "continuity", "continuity",
           ("--model", "{models}/planar-5.json", "--seed", "{seed}",
            "--out", "{out}/continuity-planar-5.json"), "continuity-planar-5.json"),
        # Known defect, kept visible: exits 3 because the snapped rational
        # for 2^(-4/3), cubed, exceeds 1/16 by 1.4e-17, so the finest scale
        # reads as finer than the sample.  It counts as a failed op.
        estimate("arc-spatial-3", "estimate_box", "--preset", "arc",
                 "--model", "{models}/spatial-3.json"),
    )),
    Workload("estimate-suite", ("planar-4",), (
        estimate("cantor", "estimate_box", "--preset", "cantor", "--ratio", "1/3",
                 "--generation", "14"),
        estimate("product-2", "estimate_box", "--preset", "product", "--ratio", "1/3"),
        estimate("product-3", "estimate_box", "--preset", "product", "--ratio", "1/3",
                 "--copies", "3", "--generation", "5"),
        estimate("snowflake", "estimate_net", "--preset", "snowflake", "--eps", "koch",
                 "--generation", "16"),
        estimate("rug-koch", "estimate_net", "--preset", "rug", "--eps", "koch"),
        estimate("rug-planar-4", "estimate_net", "--preset", "rug",
                 "--model", "{models}/planar-4.json"),
    )),
)}

DIGESTS = Path(__file__).with_name("digests.json")


def load_digests() -> dict[str, Optional[str]]:
    """sha256 of every output that does not depend on the seed.  ``null``
    marks an output with no reference: its op fails at the recording commit."""
    return json.loads(DIGESTS.read_text())


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def gate(out: Path, exit_code: int, digests: dict) -> tuple[Optional[str], bool]:
    """(why the op failed or None, whether it produced a wrong output).

    An op fails when it exits non-zero, when its output differs from the
    recorded digest, when a verification report has a failing check, or when
    the continuity check finds a violation.  A wrong output (the last three)
    also makes the run incorrect; a refusal only counts as failed.
    """
    if out.exists():
        try:
            wrong = wrong_output(out, digests)
        except (ValueError, KeyError, TypeError) as exc:
            wrong = f"unreadable {out.name}: {exc!r}"
        if wrong:
            return wrong, True
    if exit_code != 0:
        return f"exit code {exit_code}", False
    if not out.exists():
        return "no output written", True
    return None, False


def wrong_output(out: Path, digests: dict) -> Optional[str]:
    if out.name.startswith("verify-"):
        # seed-dependent samples: the verdicts are checked, not the bytes
        failing = [c["name"] for c in json.loads(out.read_text())["checks"]
                   if not c["passed"]]
        return f"verification checks failed: {', '.join(failing)}" if failing else None
    if out.name.startswith("continuity-"):
        violations = json.loads(out.read_text())["violations"]
        if violations:
            return f"{violations} continuity violations"
    expected = digests[out.name]
    if expected is not None and sha256(out) != expected:
        return f"{out.name} differs from its recorded digest"
    return None
