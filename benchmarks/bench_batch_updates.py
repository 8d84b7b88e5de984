"""E7 — amortized batch updates: per-update rebuild vs Theorem 9 overlays.

Documented in ``docs/benchmarks.md`` (E7).

Claims reproduced: rebuilding ``D`` after every update costs ``O(m)`` work per
update (Theorem 8), but the multi-update extension (Theorem 9) answers queries
correctly for up to ``k`` overlaid updates, so a rebuild policy of
``rebuild_every=k`` drops the amortized rebuild work to ``O(m / k)`` per update
— and, because query answers are canonical, *without changing a single parent
pointer* of the maintained trees.

The benchmark runs the ``sustained_churn`` scenario under three policies
(rebuild every update, every ``k``-th update, auto-tuned) and checks:

* the amortized policy performs at least ``5x`` fewer ``build_d`` rebuilds
  than the per-update policy on a 100-update churn workload;
* the final parent maps of all policies are identical on every tested seed.

Next to each policy's rebuild work the table records its range searches per
update (``d_vertex_queries``): the auto policy rebuilds whenever the
committed tree moves, paying build work to keep every query on the direct
range search of a ``D`` over the current tree.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import record_table, scale_sizes
from repro.core.dynamic_dfs import FullyDynamicDFS
from repro.metrics.counters import MetricsRecorder
from repro.workloads.scenarios import build_scenario

UPDATES = 100
K = 10


def _run_policy(scenario, rebuild_every):
    metrics = MetricsRecorder()
    dyn = FullyDynamicDFS(scenario.graph, rebuild_every=rebuild_every, metrics=metrics)
    before = metrics.as_dict()
    dyn.apply_all(scenario.updates[:UPDATES])
    delta = metrics.snapshot_delta(before)
    assert dyn.is_valid()
    return dyn.parent_map(), delta


@pytest.mark.benchmark(group="E7-batch-updates")
def test_amortized_policy_rebuild_work(benchmark):
    """Rebuild count and work drop ~k-fold; the trees stay byte-identical."""
    sizes = scale_sizes([256, 512, 1024, 2048], [128, 256])
    seeds = [0, 1, 2]
    rebuilds_per_update, rebuilds_amortized = [], []
    work_per_update, work_amortized, work_auto = [], [], []
    searches_per_update, searches_amortized, searches_auto = [], [], []
    overlay_peak = []
    for n in sizes:
        r1 = rk = w1 = wk = wa = s1 = sk = sa = peak = 0.0
        for seed in seeds:
            scenario = build_scenario("sustained_churn", n=n, seed=seed, updates=UPDATES)
            tree1, d1 = _run_policy(scenario, 1)
            treek, dk = _run_policy(scenario, K)
            treea, da = _run_policy(scenario, None)
            assert tree1 == treek == treea, (
                f"amortized trees diverged from per-update rebuild (n={n}, seed={seed})"
            )
            assert d1["d_builds"] >= 5 * dk["d_builds"], (
                f"expected >=5x fewer rebuilds (n={n}, seed={seed}): "
                f"{d1['d_builds']} vs {dk['d_builds']}"
            )
            r1 += d1["d_builds"]
            rk += dk["d_builds"]
            w1 += d1["d_build_work"]
            wk += dk["d_build_work"]
            wa += da["d_build_work"]
            s1 += d1["d_vertex_queries"]
            sk += dk["d_vertex_queries"]
            sa += da["d_vertex_queries"]
            peak = max(peak, dk.get("max_overlay_size", 0))
        count = len(seeds)
        rebuilds_per_update.append(round(r1 / count, 1))
        rebuilds_amortized.append(round(rk / count, 1))
        work_per_update.append(round(w1 / count / UPDATES, 1))
        work_amortized.append(round(wk / count / UPDATES, 1))
        work_auto.append(round(wa / count / UPDATES, 1))
        searches_per_update.append(round(s1 / count / UPDATES, 1))
        searches_amortized.append(round(sk / count / UPDATES, 1))
        searches_auto.append(round(sa / count / UPDATES, 1))
        overlay_peak.append(peak)

    record_table(
        benchmark,
        "E7_rebuild_work_per_update",
        sizes,
        {
            "d_builds_per_update_policy": rebuilds_per_update,
            f"d_builds_rebuild_every_{K}": rebuilds_amortized,
            "build_work_per_update_policy": work_per_update,
            f"build_work_rebuild_every_{K}": work_amortized,
            "build_work_auto_policy": work_auto,
            "range_searches_per_update_policy": searches_per_update,
            f"range_searches_rebuild_every_{K}": searches_amortized,
            "range_searches_auto_policy": searches_auto,
            "max_overlay_size": overlay_peak,
        },
    )

    scenario = build_scenario("sustained_churn", n=sizes[-1], seed=0, updates=UPDATES)

    def run():
        dyn = FullyDynamicDFS(scenario.graph, rebuild_every=K)
        dyn.apply_all(scenario.updates[:UPDATES])
        return dyn

    benchmark(run)


@pytest.mark.benchmark(group="E7-batch-updates")
def test_batch_api_single_pass(benchmark):
    """apply_all() serves a whole batch with the policy's rebuild cadence and
    records batch-level metrics."""
    n = scale_sizes([1024], [256])[0]
    scenario = build_scenario("sustained_churn", n=n, seed=3, updates=UPDATES)
    metrics = MetricsRecorder()
    dyn = FullyDynamicDFS(scenario.graph, rebuild_every=K, metrics=metrics)
    before = metrics.as_dict()
    dyn.apply_all(scenario.updates[:UPDATES])
    delta = metrics.snapshot_delta(before)
    assert delta["update_batches"] == 1
    assert delta["updates"] == UPDATES
    assert delta["overlay_served_updates"] == UPDATES - UPDATES // K
    record_table(
        benchmark,
        "E7_batch_metrics",
        [n],
        {
            "updates": [delta["updates"]],
            "overlay_served_updates": [delta["overlay_served_updates"]],
            "d_builds": [delta["d_builds"]],
        },
    )
    benchmark(lambda: FullyDynamicDFS(scenario.graph, rebuild_every=K).apply_all(scenario.updates[:20]))
