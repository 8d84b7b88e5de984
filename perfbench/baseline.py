#!/usr/bin/env python3
"""Measure the benchmark's baseline and write ``perfbench/baseline.json``.

Usage, from the root of a checkout::

    python3 perfbench/baseline.py                     # every workload, full protocol
    python3 perfbench/baseline.py --workloads mixed_churn --sets 1-5 --repeats 0 \\
        --no-extras --out -                           # a quick spread check, printed only

Per workload it runs ``perfbench/run.py`` once per seed of each set (by
default set A = seeds 1-10 and set B = seeds 11-20), ``--repeats`` times on
the first seed (identical inputs, so their spread is the host's alone), and,
unless ``--no-extras``, once on the held-out seed and once traced.  For
every end-to-end metric it reports each set's median, quartiles and spread
(interquartile range over median), the same-seed spread, and how far set
B's median moved from set A's, each against the metric's bound in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.bench import SETUP_REPEATS, TRACE_DIVISOR  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

HELD_OUT_SEED = 1009
#: Which layer's change should move which end-to-end metric, on which
#: workload; later issues name layers and metrics by these names.
LAYER_MAP = {
    "core.queries": ("DQueryService.answer_batch, DQueryService.canonical_sources",
                     "updates_per_s, update_p95_ms on edge_churn (overlay-view sweep) and mixed_churn"),
    "core.structure_d": ("DStructureBackend.rebuild",
                         "update_p50_ms on mixed_churn and read_heavy (D rebuilt every update); "
                         "no change on edge_churn"),
    "core.maintenance": ("counts only", "updates_per_s on edge_churn, the only workload where the policy "
                                        "picks the cadence"),
    "core.reduction": ("repro.core.engine.reduce_update", "update_p95_ms on mixed_churn"),
    "core.reroot_parallel": ("ParallelRerootEngine.reroot_many", "update_p95_ms on mixed_churn"),
    "tree.dfs_tree": ("DFSTree construction on the engine's commit path", "update_p95_ms on mixed_churn"),
    "graph": ("DStructureBackend.mutate", "update_p50_ms, all workloads"),
    "core.engine": ("UpdateEngine.apply minus its children",
                    "update_p50_ms on edge_churn (a cheap update is all pipeline)"),
    "metrics": ("calls to MetricsRecorder.inc / observe_max / set", "updates_per_s on edge_churn"),
    "service.service": ("TreeSnapshot construction in DFSTreeService publish",
                        "update_p50_ms on every workload (each publishes a snapshot per commit)"),
    "tree.lca": ("ArrayLCAIndex construction",
                 "read_p95_ms on read_heavy (the first burst after a commit pays the build)"),
    "service.snapshot": ("TreeSnapshot.*_batch", "read_p50_ms on read_heavy"),
    "service.batch": ("burst time minus BatchingQueryFront.flush, plus flush self time",
                      "reads_per_s, read_p50_ms on read_heavy"),
}


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run of ``run.py``; its result line plus notes and wall time."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: output check failed:\n{proc.stdout}")
    values = " ".join(f"{k}={v['value']:.4g}" for k, v in list(result["metrics"].items())[:8])
    print(f"  {workload} seed={seed} trace={trace} wall_s={wall:.1f} {values}", flush=True)
    return {"result": result, "lines": lines, "wall_s": wall}


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": round(med, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "spread": round((q3 - q1) / med, 4), "runs": len(values)}


def measure(name: str, sets: list, repeats: int, extras: bool, seconds: int, bounds: dict) -> dict:
    workload = WORKLOADS[name]
    out = dict(workload.describe())
    set_runs = [[run_once(name, s, seconds, 0) for s in seeds] for seeds in sets]
    first = set_runs[0][0]
    out["samples_per_run"] = {k: int(v) for k, v in (kv.split("=") for kv in first["lines"][1].split())}
    out["samples_per_run"]["traced_updates_per_pass"] = max(1, round(workload.updates_for(seconds) / TRACE_DIVISOR))
    out["run_wall_s"] = summarise([r["wall_s"] for runs in set_runs for r in runs])
    repeat_runs = [first] + [run_once(name, sets[0][0], seconds, 0) for _ in range(repeats - 1)] if repeats else []
    e2e = {}
    for metric, bound in bounds.items():
        entry = {"bound": bound}
        for label, (seeds, runs) in zip("ABCDEFGH", zip(sets, set_runs)):
            entry[f"set_{label}"] = dict(summarise([r["result"]["metrics"][metric]["value"] for r in runs]),
                                         seeds=f"{seeds[0]}-{seeds[-1]}")
        if len(sets) > 1:
            a, b = entry["set_A"]["median"], entry["set_B"]["median"]
            entry["b_vs_a"] = round((b - a) / a, 4)
        if repeat_runs:
            entry["same_seed"] = dict(summarise([r["result"]["metrics"][metric]["value"] for r in repeat_runs]),
                                      seed=sets[0][0])
        e2e[metric] = entry
    out["end_to_end"] = e2e
    if extras:
        held = run_once(name, HELD_OUT_SEED, seconds, 0)["result"]["metrics"]
        out["held_out_seed_run"] = {k: round(v["value"], 6) for k, v in held.items()}
        traced = run_once(name, sets[0][0], seconds, 1)
        out["traced_run"] = {
            "seed": sets[0][0],
            "passes": "traced, untraced, traced",
            "per_layer": {k: round(v["value"], 6) for k, v in traced["result"]["metrics"].items()},
            "diagnostics": {
                line.split()[0]: round(float(line.split()[1]), 6)
                for line in traced["lines"] if line.endswith("(diagnostic)")
            },
        }
    return out


def report(results: dict) -> None:
    print(f"{'workload':12s} {'metric':14s} {'bound':>5s} {'A med':>11s} {'A sprd':>6s} "
          f"{'B sprd':>6s} {'B-A':>7s} {'same':>6s}")
    for name, res in results.items():
        for metric, e in res["end_to_end"].items():
            b = e.get("set_B", {}).get("spread", float("nan"))
            same = e.get("same_seed", {}).get("spread", float("nan"))
            print(f"{name:12s} {metric:14s} {e['bound']:5.2f} {e['set_A']['median']:11.5g} "
                  f"{e['set_A']['spread']:6.3f} {b:6.3f} {e.get('b_vs_a', float('nan')):+7.3f} {same:6.3f}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--sets", default="1-10,11-20", help="comma-separated seed ranges, one per set")
    parser.add_argument("--repeats", type=int, default=5, help="runs of the first seed (0: none)")
    parser.add_argument("--no-extras", action="store_true", help="skip the held-out and traced runs")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "baseline.json"), help="'-' prints only")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets = [_seeds(s) for s in args.sets.split(",")]
    results = {}
    for name in args.workloads.split(","):
        print(f"{name}:", flush=True)
        results[name] = measure(name, sets, args.repeats, not args.no_extras, args.seconds, bounds)
    report(results)
    if args.out != "-":
        doc = {
            "about": (
                "Baseline of the perfbench benchmark and the facts BENCHMARK.json has no keys for: each "
                "workload's deployment, closed-loop shape and sample counts, the layer -> end-to-end map, "
                "and per end-to-end metric the median, quartiles and spread (IQR / median) of one run per "
                "seed in two seed sets, of repeated runs of one seed, and of set B's median against set "
                "A's. Times are CPU time of the one thread. Written by perfbench/baseline.py."
            ),
            "host": "2-vCPU x86-64 VM (Intel Xeon, 2.0 GHz), Python %d.%d.%d" % sys.version_info[:3],
            "run_seconds": args.seconds,
            "setup_constructions_per_run": SETUP_REPEATS,
            "held_out_seed": HELD_OUT_SEED,
            "held_out_rule": "a claim tuned on the set seeds is re-checked on the held-out seed",
            "workloads": results,
            "layer_map": {k: {"entry_points": v[0], "should_move": v[1]} for k, v in LAYER_MAP.items()},
        }
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
