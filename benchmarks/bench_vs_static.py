"""E7 — dynamic update vs full static recomputation (the paper's motivation).

Documented in ``docs/benchmarks.md`` (E7).

The dynamic algorithm touches only the affected subtrees plus ``D`` maintenance,
while the baseline re-runs the ``O(m + n)`` static DFS after every update.  The
harness records wall-clock per update for both as ``m`` grows and asserts
nothing about their ratio: the committed ``static_over_dynamic`` at
m = 1,500 / 3,000 / 6,000 / 12,000 is 0.269 / 0.743 / 0.294 / 1.66, so static
recomputation is faster at three of the four densities and the ratio does not
grow monotonically with density.

A second harness restores the *sequential-baseline separation* on the
adversarial comb: the spine deletions of ``comb_with_tip_back_edges`` (whose
tip back edges survive the canonical minimum-postorder source re-anchoring,
unlike the tip-to-spine-start edges of ``comb_with_back_edges``) force the
sequential rerooting engine through a Θ(teeth) dependency chain per update,
while the parallel engine's round count stays poly-logarithmic.

A third harness splits the default driver's update latency on edge churn
into tree-moving updates, tree-keeping updates that pay auto's stale-tree
``D`` rebuild, and the other tree-keeping updates, and asserts that the last
class costs the same at n = 10^3 and 10^4: a back-edge update commits the
tree it found and does no O(n) work.
"""

from __future__ import annotations

import time
from statistics import median

import pytest

from benchmarks.conftest import SCALE, record_table, scale_sizes
from repro.baselines.static_recompute import StaticRecomputeDFS
from repro.core.dynamic_dfs import FullyDynamicDFS
from repro.graph.generators import gnp_random_graph
from repro.metrics.counters import MetricsRecorder
from repro.workloads.scenarios import build_scenario
from repro.workloads.updates import edge_churn


def _mean_update_seconds(driver, updates):
    start = time.perf_counter()
    driver.apply_all(updates)
    return (time.perf_counter() - start) / len(updates)


@pytest.mark.benchmark(group="E7-vs-static")
def test_dynamic_vs_static_recompute(benchmark):
    n = scale_sizes([1500], [300])[0]
    densities = scale_sizes([2, 4, 8, 16], [2, 4])
    dyn_times, static_times, ratio = [], [], []
    for avg_deg in densities:
        graph = gnp_random_graph(n, avg_deg / n, seed=4, connected=True)
        updates = edge_churn(graph, 6, seed=8)
        dyn = FullyDynamicDFS(graph, engine="parallel")
        static = StaticRecomputeDFS(graph)
        d = _mean_update_seconds(dyn, updates)
        s = _mean_update_seconds(static, updates)
        dyn_times.append(round(d, 5))
        static_times.append(round(s, 5))
        ratio.append(round(s / d, 3) if d else float("inf"))

    record_table(
        benchmark,
        "E7_seconds_per_update_vs_density",
        [n * d // 2 for d in densities],
        {
            "dynamic_seconds": dyn_times,
            "static_recompute_seconds": static_times,
            "static_over_dynamic": ratio,
        },
    )

    graph = gnp_random_graph(n, densities[-1] / n, seed=4, connected=True)
    dyn = FullyDynamicDFS(graph, engine="parallel")
    u0, v0 = next(iter(graph.edges()))

    def run():
        dyn.delete_edge(u0, v0)
        dyn.insert_edge(u0, v0)

    benchmark(run)


@pytest.mark.benchmark(group="E7-vs-static")
def test_sequential_baseline_separation_on_comb(benchmark):
    """The adversarial comb (tip back edges that survive canonical source
    re-anchoring) separates the engines again: the sequential baseline's
    dependency chain grows linearly with the number of teeth, the parallel
    engine's query rounds stay poly-logarithmic, and both maintain the same
    trees as the static recompute ground truth."""
    sizes = scale_sizes([120, 240, 480], [60, 120])
    seq_chain, par_rounds, ratios = [], [], []
    for n in sizes:
        scenario = build_scenario("adversarial_comb", n=n, updates=4)
        results = {}
        for engine in ("sequential", "parallel"):
            metrics = MetricsRecorder(engine, strict=True)
            dyn = FullyDynamicDFS(scenario.graph, engine=engine, metrics=metrics)
            dyn.apply_all(scenario.updates)
            # The baseline follows a different rerooting order, so its tree
            # may legitimately differ — both must be valid DFS forests.
            assert dyn.is_valid(), f"{engine} engine produced an invalid tree (n={n})"
            results[engine] = (dyn.parent_map(), metrics)
        static = StaticRecomputeDFS(scenario.graph)
        static.apply_all(scenario.updates)
        assert static.is_valid()
        chain = results["sequential"][1]["max_sequential_chain_depth"]
        rounds = results["parallel"][1]["query_rounds"] / max(
            results["parallel"][1]["updates"], 1
        )
        seq_chain.append(chain)
        par_rounds.append(round(rounds, 1))
        ratios.append(round(chain / max(rounds, 1), 2))

    record_table(
        benchmark,
        "E7_sequential_separation_on_comb",
        sizes,
        {
            "sequential_chain_depth": seq_chain,
            "parallel_query_rounds_per_update": par_rounds,
            "chain_over_rounds": ratios,
        },
    )
    # The separation the back-edge comb is built for: the chain grows with
    # the input, the parallel rounds barely move, so the ratio must widen.
    assert seq_chain[-1] > seq_chain[0]
    assert ratios[-1] > ratios[0]

    scenario = build_scenario("adversarial_comb", n=sizes[0], updates=2)
    dyn = FullyDynamicDFS(scenario.graph, engine="parallel")

    def run():
        dyn.apply_all(scenario.updates[:2])

    benchmark(run)


#: Latency classes of the tree-keeping split, in table order.
UPDATE_CLASSES = ("moving", "keeping_rebuilt", "keeping")


@pytest.mark.benchmark(group="E7-vs-static")
def test_tree_keeping_updates_cost_the_same_at_every_size(benchmark):
    """``FullyDynamicDFS()`` (auto policy, dict store) on ``edge_churn``:
    each update is tree-moving, tree-keeping after a ``D`` rebuild (auto
    rebuilds ``D`` before the update that follows a tree move), or
    tree-keeping without one.  The last class commits the tree it found and
    copies nothing, so its median thread CPU time must not grow with n.  The
    sizes' streams are applied in lockstep, one update each in turn, so a
    slow stretch of the machine hits every size alike."""
    sizes = scale_sizes([1000, 10000], [300, 1000])
    runs = []
    for n in sizes:
        graph = gnp_random_graph(n, 6 / n, seed=4, connected=True)
        metrics = MetricsRecorder()
        dyn = FullyDynamicDFS(graph, metrics=metrics)
        runs.append((dyn, metrics, edge_churn(graph, 300, seed=8), {c: [] for c in UPDATE_CLASSES}))
    for step in range(300):
        for dyn, metrics, updates, samples in runs:
            tree, rebuilds = dyn.tree, metrics["d_rebuilds"]
            start = time.thread_time()
            dyn.apply(updates[step])
            ms = (time.thread_time() - start) * 1e3
            if dyn.tree is not tree:
                samples["moving"].append(ms)
            elif metrics["d_rebuilds"] > rebuilds:
                samples["keeping_rebuilt"].append(ms)
            else:
                samples["keeping"].append(ms)

    columns = {}
    for c in UPDATE_CLASSES:
        columns[f"{c}_updates"] = [len(samples[c]) for *_, samples in runs]
        columns[f"{c}_p50_ms"] = [round(median(samples[c]), 4) for *_, samples in runs]
    record_table(benchmark, "E7_tree_keeping_updates", sizes, columns)
    if SCALE != "small":
        keep = columns["keeping_p50_ms"]
        assert keep[-1] <= 2 * keep[0], f"tree-keeping p50 grew with n: {keep}"

    dyn = runs[-1][0]
    tree = dyn.tree
    u, v = next((a, b) for a, b in dyn.graph.edges() if tree.parent(a) != b and tree.parent(b) != a)

    def run():
        dyn.delete_edge(u, v)
        dyn.insert_edge(u, v)

    benchmark(run)
