"""E12 — MVCC snapshot query service: batched read throughput and staleness.

Documented in ``docs/benchmarks.md`` (E12).

Claim 1 (throughput): answering a large batch of LCA queries through one
vectorized :class:`~repro.service.snapshot.TreeSnapshot` pass is **>= 10x**
the queries/sec of the per-query inline loop on the dict driver's service at
n = 10^5 — with byte-identical answers and byte-identical published parent
maps across backends.  (The write side stays at version 0 here: python
rerooting at n = 10^5 is minutes per update, which is exactly why reads go
through snapshots instead of the driver.)

Claim 2 (staleness): under read/write churn the MVCC accounting is exact and
*policy-invariant*: a reader answering K queries against a snapshot held
across a burst of B commits records ``K * B`` staleness updates and its
version trails ``committed_version`` by exactly B — across ``rebuild_every``
policies {1, 8, auto}, whose only visible difference is the write-side cost
(``d_builds``, wall-clock); published maps match the dict rebuild-every-1
reference after every burst.

Results are persisted to ``BENCH_E12.json`` and CI compares the file against
the committed trajectory with ``tools/bench_compare.py``.
"""

from __future__ import annotations

import random
import time

import pytest

from benchmarks.conftest import emit_bench, record_table, scale_sizes, timed_median
from repro.core.dynamic_dfs import FullyDynamicDFS
from repro.metrics.counters import MetricsRecorder
from repro.graph.generators import barabasi_albert_graph
from repro.service import DFSTreeService
from repro.workloads.updates import edge_churn

READ_SPEEDUP_MIN = 10.0


@pytest.mark.benchmark(group="E12-query-service")
def test_batched_snapshot_reads_beat_inline_dict(benchmark):
    n = scale_sizes([100_000], [20_000])[0]
    graph = barabasi_albert_graph(n, 3, seed=0)
    dict_metrics = MetricsRecorder("e12_dict", strict=True)
    array_metrics = MetricsRecorder("e12_array", strict=True)
    dyn_d = FullyDynamicDFS(graph.copy(), backend="dict", metrics=dict_metrics)
    svc_d = DFSTreeService(dyn_d, metrics=dict_metrics)
    dyn_a = FullyDynamicDFS(graph.copy(), backend="array", metrics=array_metrics)
    svc_a = DFSTreeService(dyn_a, metrics=array_metrics)
    # Byte-identical published state across backends (version 0).
    assert svc_d.snapshot().parent_map() == svc_a.snapshot().parent_map()

    q = max(n // 2, 1)
    rng = random.Random(7)
    verts = list(graph.vertices())
    avs = [verts[rng.randrange(len(verts))] for _ in range(q)]
    bvs = [verts[rng.randrange(len(verts))] for _ in range(q)]

    # Per-query inline reads on the dict driver's service (the baseline an
    # application gets without the batch front).
    t_inline, ans_inline = timed_median(
        lambda: [svc_d.lca(a, b)[0] for a, b in zip(avs, bvs)], k=3
    )
    # One vectorized snapshot pass through the array driver's service.
    t_batch, (ans_batch, version) = timed_median(
        lambda: svc_a.lca_batch(avs, bvs), k=3
    )
    assert version == 0
    assert ans_inline == ans_batch  # byte-identical LCAs
    speedup = t_inline / t_batch
    assert speedup >= READ_SPEEDUP_MIN, (
        f"E12: batched snapshot reads only {speedup:.1f}x over per-query "
        f"inline dict reads (floor {READ_SPEEDUP_MIN}x) at n={n}"
    )

    qps_inline = q / (t_inline / 1e3)
    qps_batched = q / (t_batch / 1e3)
    record_table(
        benchmark,
        "E12_read_throughput",
        [n],
        {
            "read_speedup": [round(speedup, 1)],
            "queries_per_sec_inline": [round(qps_inline, 0)],
            "queries_per_sec_batched": [round(qps_batched, 0)],
        },
    )
    emit_bench(
        "E12",
        timings_ms={
            "inline_dict_reads": round(t_inline, 3),
            "batched_snapshot_reads": round(t_batch, 3),
        },
        counters={
            "n": n,
            "num_edges": graph.num_edges,
            "queries": q,
            # timed_median runs 1 warmup + 3 timed rounds -> 4 batches
            "query_batches": array_metrics["query_batches"],
            "max_query_batch_size": array_metrics["max_query_batch_size"],
        },
        asserts={"read_speedup_min": READ_SPEEDUP_MIN},
    )
    benchmark(lambda: svc_a.lca_batch(avs, bvs))


@pytest.mark.benchmark(group="E12-query-service")
def test_staleness_exact_across_rebuild_policies(benchmark):
    n = scale_sizes([2_000], [512])[0]
    bursts, burst_size, reads_per_burst = 6, 8, 1_000
    graph = barabasi_albert_graph(n, 3, seed=2)
    updates = edge_churn(graph, bursts * burst_size, seed=3)

    # Dict rebuild-every-1 oracle: the published map after every burst.
    reference = FullyDynamicDFS(graph.copy(), backend="dict", rebuild_every=1)
    ref_maps = []
    for b in range(bursts):
        for u in updates[b * burst_size : (b + 1) * burst_size]:
            reference.apply(u)
        ref_maps.append(reference.tree.parent_map())

    rng = random.Random(13)
    verts = list(graph.vertices())
    avs = [verts[rng.randrange(len(verts))] for _ in range(reads_per_burst)]
    bvs = [verts[rng.randrange(len(verts))] for _ in range(reads_per_burst)]

    policies = [("1", 1), ("8", 8), ("auto", None)]
    table = {"d_builds": [], "snapshots_published": [], "held_staleness_updates": []}
    timings = {}
    last_svc = None
    for label, rebuild_every in policies:
        driver_metrics = MetricsRecorder(f"e12_driver_{label}", strict=True)
        svc_metrics = MetricsRecorder(f"e12_svc_{label}", strict=True)
        dyn = FullyDynamicDFS(
            graph.copy(), backend="array", rebuild_every=rebuild_every,
            metrics=driver_metrics,
        )
        svc = DFSTreeService(dyn, metrics=svc_metrics)
        t0 = time.perf_counter()
        for b in range(bursts):
            held = svc.snapshot()
            staleness_before = svc_metrics["snapshot_staleness_updates"]
            for u in updates[b * burst_size : (b + 1) * burst_size]:
                dyn.apply(u)
            # published map == dict reference after every burst
            assert svc.version == svc.committed_version == (b + 1) * burst_size
            assert svc.snapshot().parent_map() == ref_maps[b], (label, b)
            # reader pinned on the pre-burst snapshot: staleness exactly B
            held_answers, held_version = svc.lca_batch(avs, bvs, snapshot=held)
            assert held_version == svc.committed_version - burst_size
            assert (
                svc_metrics["snapshot_staleness_updates"] - staleness_before
                == reads_per_burst * burst_size
            )
            # reader on the fresh snapshot: zero staleness, current version
            fresh_answers, fresh_version = svc.lca_batch(avs, bvs)
            assert fresh_version == svc.committed_version
            assert len(fresh_answers) == len(held_answers) == reads_per_burst
        timings[f"churn_and_reads_ms_{label}"] = round(
            (time.perf_counter() - t0) * 1e3, 3
        )
        table["d_builds"].append(driver_metrics["d_builds"])
        table["snapshots_published"].append(svc_metrics["snapshots_published"])
        table["held_staleness_updates"].append(
            svc_metrics["snapshot_staleness_updates"]
        )
        last_svc = svc

    # MVCC accounting is policy-invariant; only the write side differs.
    assert len(set(table["snapshots_published"])) == 1
    assert len(set(table["held_staleness_updates"])) == 1
    record_table(
        benchmark,
        "E12_policy_staleness",
        [1, 8, 0],  # rebuild_every (0 = auto)
        table,
    )
    emit_bench(
        "E12",
        timings_ms=timings,
        counters={
            "staleness_n": n,
            "bursts": bursts,
            "burst_size": burst_size,
            "reads_per_burst": reads_per_burst,
        },
    )
    benchmark(lambda: last_svc.lca_batch(avs, bvs))
