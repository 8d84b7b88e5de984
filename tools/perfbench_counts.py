#!/usr/bin/env python3
"""Collect the model counts of traced perfbench runs into a ``BENCH_PERFBENCH.json``.

Usage::

    for w in edge_churn mixed_churn read_heavy; do
        python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 1 > "perfbench-$w.txt"
    done
    python tools/perfbench_counts.py OUT.json perfbench-edge_churn.txt \
        perfbench-mixed_churn.txt perfbench-read_heavy.txt

Each input is the standard output of one ``perfbench/run.py --trace 1``
run: its first line names the workload, its last line is the JSON result.
The output keeps, per workload, every metric of that last line whose unit is
``count`` except ``metrics.calls`` (how often the library called its
recorder, which a change may cut without changing the model), in
``tools/bench_compare.py``'s schema: ``experiment`` ``PERFBENCH``, ``scale``
``smoke``, the counts under ``counters``.  Diff the file against the
committed one with ``tools/bench_compare.py``; counters compare exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List

#: Count metrics that measure the library's bookkeeping, not the model.
EXCLUDED = ("metrics.calls",)


def counts_of(lines: List[str]) -> Dict[str, Dict[str, int]]:
    """``{workload: {metric: count}}`` from one run's output lines."""
    header = dict(field.split("=", 1) for field in lines[0].split())
    result = json.loads(lines[-1])
    if result["correct"] is not True:
        raise ValueError(f"{header['workload']}: the run was not correct")
    counts = {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] == "count" and name not in EXCLUDED
    }
    return {header["workload"]: counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", help="BENCH_PERFBENCH.json to write")
    parser.add_argument("runs", nargs="+", help="perfbench/run.py --trace 1 outputs, one per workload")
    args = parser.parse_args(argv)
    counters: Dict[str, Dict[str, int]] = {}
    for path in args.runs:
        with open(path) as fh:
            counters.update(counts_of(fh.read().splitlines()))
    report = {
        "asserts": {},
        "counters": counters,
        "experiment": "PERFBENCH",
        "scale": "smoke",
        "schema": 1,
        "tables": {},
        "timings_ms": {},
    }
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
