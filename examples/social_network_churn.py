#!/usr/bin/env python3
"""Domain scenario: membership churn in a social/overlay network.

The paper motivates dynamic DFS with large, constantly changing graphs.  Here a
sparse "friendship" graph experiences node arrivals and departures (the
hardest update type: a vertex may arrive with many edges), and we compare the
dynamic algorithm against recomputing the DFS forest from scratch after every
event — both in wall-clock time and in the model quantities.

Run:  python examples/social_network_churn.py
"""

from __future__ import annotations

import time

from repro import FullyDynamicDFS, MetricsRecorder
from repro.baselines.static_recompute import StaticRecomputeDFS
from repro.metrics.complexity import format_table
from repro.workloads.scenarios import build_scenario


def main() -> None:
    scenario = build_scenario("social_network_churn", n=400, seed=3, updates=40)
    print(f"scenario: {scenario.name} — {scenario.description}")
    print(f"n={scenario.n}, m={scenario.m}, updates={len(scenario.updates)}\n")

    metrics = MetricsRecorder()
    dynamic = FullyDynamicDFS(scenario.graph, metrics=metrics)
    start = time.perf_counter()
    dynamic.apply_all(scenario.updates)
    dynamic_seconds = time.perf_counter() - start

    baseline = StaticRecomputeDFS(scenario.graph)
    start = time.perf_counter()
    baseline.apply_all(scenario.updates)
    static_seconds = time.perf_counter() - start

    n_updates = len(scenario.updates)
    print(
        format_table(
            ["approach", "total seconds", "ms / update", "still a valid DFS forest?"],
            [
                ["fully dynamic (paper)", f"{dynamic_seconds:.3f}",
                 f"{1000 * dynamic_seconds / n_updates:.2f}", "yes" if dynamic.is_valid() else "NO"],
                ["recompute from scratch", f"{static_seconds:.3f}",
                 f"{1000 * static_seconds / n_updates:.2f}", "yes" if baseline.is_valid() else "NO"],
            ],
        )
    )
    print()
    print(
        format_table(
            ["model quantity (dynamic algorithm)", "value"],
            [
                ["query rounds / update", f"{metrics['query_rounds'] / n_updates:.1f}"],
                ["independent queries / update", f"{metrics['queries'] / n_updates:.1f}"],
                ["traversal rounds / update", f"{metrics['traversal_rounds'] / n_updates:.1f}"],
            ],
        )
    )
    print("\nBoth maintain a correct DFS forest; the dynamic algorithm touches only the")
    print("affected subtrees and answers everything else from the data structure D.")


if __name__ == "__main__":
    main()
