"""One benchmark operation in a fresh process.

    python child.py [--trace-out PATH] cli <fractarc CLI arguments>
    python child.py [--trace-out PATH] continuity --model M --seed N --out R

``cli`` runs ``fractarc.cli.main`` as ``python -m fractarc.cli`` would.
``continuity`` is the library check the CLI does not expose: the modulus of
continuity of a model at EPSILON, then PAIRS random parameter pairs closer
than its delta, none of which may map EPSILON or farther apart.  With
``--trace-out`` the child wraps fractarc's public functions (see
tracing.py) and writes the spans, the counters and the moment its imports
finished to PATH when it exits.
"""

from __future__ import annotations

import json
import random
import sys
import time

EPSILON = 0.05
PAIRS = 10_000


def continuity(argv: list[str]) -> int:
    from fractarc import arc, cli

    opts = dict(zip(argv[::2], argv[1::2]))
    model, _ = cli._load_model(opts["--model"])
    modulus = arc.modulus_of_continuity(model, EPSILON)
    violations = arc.continuity_violations(model, EPSILON, modulus.delta, PAIRS,
                                           random.Random(int(opts["--seed"])))
    report = {"epsilon": EPSILON, "delta": modulus.delta,
              "cutoff_depth": modulus.cutoff_depth, "delta_prime": modulus.delta_prime,
              "lipschitz_bound": modulus.lipschitz_bound, "pairs": PAIRS,
              "violations": violations}
    cli.write_atomic(opts["--out"], cli.dump_json(report))
    return 0 if violations == 0 else 1


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[0] == "--trace-out":
        trace_out, argv = argv[1], argv[2:]
    kind, args = argv[0], argv[1:]
    from fractarc import cli

    imported = time.perf_counter()
    run = cli.main if kind == "cli" else continuity
    if trace_out is None:
        return run(args)

    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        root = "cli.main" if kind == "cli" else "op.continuity"
        return tracer.span(root, run)(args)
    finally:
        tracer.dump(trace_out, {"imported": imported})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
