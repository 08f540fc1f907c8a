#!/usr/bin/env python3
"""Write reference.json: the expected facts of every operation kind.

Run from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/record_reference.py

Facts are status, null dimension, equation counts and Schmidt rank for
verdicts, per-trial facts for experiments, and the verified flag for array
witnesses.  None of them depends on the seed, so each kind is observed under
three seeds and must agree; every twin must also pass the re-check.
"""

from __future__ import annotations

import json
import sys

import run

SEEDS = (0, 1, 2)


def main() -> int:
    run.pin_blas_threads()
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS, check, cli_op, write_cli_state

    run.WORK.mkdir(exist_ok=True)
    cli_state = run.WORK / "cli-state-record.json"
    facts = {}
    try:
        for seed in SEEDS:
            write_cli_state(cli_state, seed)
            ops = [cli_op(sys.executable, cli_state, run.child_env(), run.ROOT)]
            for workload in WORKLOADS.values():
                ops += workload.warmup(seed) + workload.passes(seed, 0)
            for op in ops:
                result = op.call()
                observed = json.loads(json.dumps(op.observe(result)))
                problems = check(op, result, observed)
                if problems:
                    print("\n".join(problems), file=sys.stderr)
                    return 1
                if facts.setdefault(op.kind, observed) != observed:
                    print(f"{op.kind}: facts differ between seeds",
                          file=sys.stderr)
                    return 1
    finally:
        cli_state.unlink(missing_ok=True)
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(facts, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(facts)} kinds to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
