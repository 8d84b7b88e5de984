#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload edge_churn --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics, with unjudged diagnostics (shares of time, counts the workload
fixes, the tracing overhead) beside them.  Times are the one thread's CPU
time scaled to the reference host's speed (``perfbench/speed.py``).
Human-readable lines come first; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Exit
codes: 0 after a result was printed, 2 when the library sources are
missing, 3 when a count repeated inexactly across passes of one seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]

    from perfbench.bench import DeterminismError, run_end_to_end, run_traced
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    run = run_traced if args.trace else run_end_to_end
    try:
        report = run(workload, args.seed, args.seconds)
    except DeterminismError as exc:
        print(f"perfbench: determinism check failed: {exc}", file=sys.stderr)
        return 3
    print(f"workload={workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace} n={workload.n}")
    for note in report.notes:
        print(note)
    for name, (value, unit) in report.metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    for name, (value, unit) in report.diagnostics.items():
        print(f"{name:40s} {value:14.6g} {unit} (diagnostic)")
    for problem in report.problems:
        print(f"CHECK FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": report.ledger.failed == 0 and not report.problems,
                "attempted": report.ledger.attempted,
                "failed": report.ledger.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report.metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
