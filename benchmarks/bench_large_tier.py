"""E11 — large tier: the flat ``D`` and the snapshot batch reads at n = 10^5.

Documented in ``docs/benchmarks.md`` (E11).

Claim: the flat postorder-sorted ``StructureD`` and the vectorized snapshot
reads turn the three hot paths — the ``D`` rebuild, the batched canonical
min-postorder re-anchor (overlay service), and the LCA query path — from
python dict/list constant factors into vectorized numpy sweeps, at **>= 10x**
at n = 10^5 while returning byte-identical answers.  The rebuild and
overlay-service references are the per-vertex sorted-list ``D`` that the
flat one replaced, kept here as :class:`_SortedListD`: its build and its
scalar bisect loop.  ``D`` is timed on the ``ArrayGraph`` store.  Results are
persisted to ``BENCH_E11.json`` (median-of-k timings, the counters asserted
on, the enforced speedup floors) and CI compares the file against the
committed trajectory with ``tools/bench_compare.py``.
"""

from __future__ import annotations

import os
import random
from bisect import bisect_left

import numpy as np
import pytest

from benchmarks.conftest import emit_bench, record_table, scale_sizes, timed_median
from repro.constants import VIRTUAL_ROOT
from repro.core.structure_d import StructureD
from repro.graph.array_graph import ArrayGraph
from repro.graph.generators import barabasi_albert_graph
from repro.graph.traversal import static_dfs_forest
from repro.metrics.counters import MetricsRecorder
from repro.service import TreeSnapshot
from repro.tree.dfs_tree import DFSTree

SPEEDUP_MIN = 10.0
#: The XL tier floor is a sanity bound, not the headline claim: at n = 10^6
#: the flat ``D`` pays its own memory traffic (hundreds of MB of int64
#: arrays), so the reference/flat rebuild ratio narrows from ~20x (n = 10^5) to
#: single digits; the recorded speedup columns carry the actual numbers.
XL_SPEEDUP_MIN = 2.0


class _SortedListD:
    """The reference for E11's rebuild and overlay-service rows: ``D`` as
    one python list of neighbours per vertex, sorted by base-tree
    post-order, answering the batched re-anchor with one scalar bisect per
    query.  A copy of the per-vertex build and scalar loop that the flat
    ``StructureD`` replaced, overlay checks included (no overlay is ever
    recorded here, so every check passes)."""

    def __init__(self, graph, tree, *, metrics=None):
        self._extra_edges = {}
        self._deleted_edges = set()
        self._deleted_vertices = set()
        self._sorted_posts = {}
        self._sorted_nbrs = {}
        post = {v: tree.postorder(v) for v in tree.vertices()}
        self._post = post
        total_work = 0
        for v in graph.vertices():
            if v not in post:
                continue
            nbrs = [w for w in graph.neighbors(v) if w in post]
            nbrs.sort(key=post.__getitem__)
            self._sorted_nbrs[v] = nbrs
            self._sorted_posts[v] = [post[w] for w in nbrs]
            total_work += max(len(nbrs), 1)
        if metrics is not None:
            metrics.inc("d_builds")
            metrics.inc("d_build_work", total_work)

    def size(self):
        return sum(len(lst) for lst in self._sorted_nbrs.values())

    def _row(self, u):
        posts = self._sorted_posts.get(u)
        if posts is None:
            return None
        return posts, self._sorted_nbrs[u]

    def _edge_alive(self, u, w):
        if w in self._deleted_vertices or u in self._deleted_vertices:
            return False
        return frozenset((u, w)) not in self._deleted_edges

    def min_post_alive_neighbor(self, u, lo, hi):
        probes = 0
        best = None
        best_post = None
        row = self._row(u)
        if row is not None and len(row[0]):
            posts, nbrs = row
            i = bisect_left(posts, lo)
            while i < len(posts) and posts[i] <= hi:
                probes += 1
                w = nbrs[i]
                if self._edge_alive(u, w):
                    best, best_post = w, posts[i]
                    break
                i += 1
        for w in self._extra_edges.get(u, ()):
            probes += 1
            if not self._edge_alive(u, w):
                continue
            p = self._post.get(w)
            if p is None or p < lo or p > hi:
                continue
            if best_post is None or p < best_post:
                best, best_post = w, p
        return best, probes

    def min_post_alive_neighbor_batch(self, us, los, his):
        best = []
        probes = 0
        for u, lo, hi in zip(us, los, his):
            b, p = self.min_post_alive_neighbor(u, lo, hi)
            best.append(b)
            probes += p
        return best, probes


def _workload(n, seed=0):
    graph = barabasi_albert_graph(n, 3, seed=seed)
    agraph = ArrayGraph.from_graph(graph)
    tree = DFSTree(static_dfs_forest(graph), root=VIRTUAL_ROOT)
    return graph, agraph, tree


@pytest.mark.benchmark(group="E11-large-tier")
def test_array_backend_speedups_at_large_n(benchmark):
    n = scale_sizes([100_000], [20_000])[0]
    rng = random.Random(11)
    graph, agraph, tree = _workload(n)
    verts = [v for v in graph.vertices()]

    # --- rebuild path: D construction ----------------------------------- #
    dict_metrics = MetricsRecorder()
    array_metrics = MetricsRecorder()
    t_rebuild_dict, d_dict = timed_median(
        lambda: _SortedListD(graph, tree, metrics=dict_metrics), k=3
    )
    t_rebuild_array, d_array = timed_median(
        lambda: StructureD(agraph, tree, metrics=array_metrics), k=3
    )
    assert d_dict.size() == d_array.size()
    assert dict_metrics["d_build_work"] == array_metrics["d_build_work"]
    rebuild_speedup = t_rebuild_dict / t_rebuild_array

    # --- overlay-service path: batched canonical re-anchor ------------- #
    q = max(n // 2, 1)
    us, los, his = [], [], []
    for _ in range(q):
        t_star = verts[rng.randrange(len(verts))]
        root = verts[rng.randrange(len(verts))]
        hi = tree.postorder(root)
        lo = hi - tree.subtree_size(root) + 1
        us.append(t_star)
        los.append(lo)
        his.append(hi)
    # Interval bounds travel as int64 arrays — the bulk form callers hold at
    # this scale; both sides receive the same inputs.
    los = np.asarray(los, dtype=np.int64)
    his = np.asarray(his, dtype=np.int64)
    # the sorted-list reference answers the batch with the scalar bisect loop
    t_anchor_dict, (ans_dict, _) = timed_median(
        lambda: d_dict.min_post_alive_neighbor_batch(us, los, his), k=3
    )
    t_anchor_array, (ans_array, _) = timed_median(
        lambda: d_array.min_post_alive_neighbor_batch(us, los, his), k=3
    )
    assert ans_dict == ans_array  # byte-identical canonical anchors
    anchor_speedup = t_anchor_dict / t_anchor_array

    # --- query path: LCA batches --------------------------------------- #
    # The scalar reference is the tree's own per-pair DFSTree.lca loop; the
    # batch is a snapshot's lca_batch, which resolves ids through the tree's
    # id table.  Both sides read the same index, built once before timing
    # (the graph is connected, so no answer is the virtual root).
    tree.lca_index()
    snap = TreeSnapshot(0, tree)
    # Query vertex ids in bulk int64 form too; both sides see the same
    # arrays (the tree's dict index accepts np.int64 keys — same hashes).
    avs = np.asarray([verts[rng.randrange(len(verts))] for _ in range(q)], dtype=np.int64)
    bvs = np.asarray([verts[rng.randrange(len(verts))] for _ in range(q)], dtype=np.int64)
    t_lca_dict, lcas_dict = timed_median(
        lambda: [tree.lca(a, b) for a, b in zip(avs, bvs)], k=3
    )
    t_lca_array, lcas_array = timed_median(lambda: snap.lca_batch(avs, bvs), k=3)
    assert lcas_dict == lcas_array
    lca_speedup = t_lca_dict / t_lca_array

    for label, speedup in (
        ("rebuild", rebuild_speedup),
        ("overlay_service", anchor_speedup),
        ("query", lca_speedup),
    ):
        assert speedup >= SPEEDUP_MIN, (
            f"E11 {label} path: only {speedup:.1f}x over the reference "
            f"(floor {SPEEDUP_MIN}x) at n={n}"
        )

    record_table(
        benchmark,
        "E11_array_vs_dict",
        [n],
        {
            "rebuild_speedup": [round(rebuild_speedup, 1)],
            "overlay_service_speedup": [round(anchor_speedup, 1)],
            "query_speedup": [round(lca_speedup, 1)],
        },
    )
    emit_bench(
        "E11",
        timings_ms={
            "rebuild_dict": round(t_rebuild_dict, 3),
            "rebuild_array": round(t_rebuild_array, 3),
            "overlay_service_dict": round(t_anchor_dict, 3),
            "overlay_service_array": round(t_anchor_array, 3),
            "query_dict": round(t_lca_dict, 3),
            "query_array": round(t_lca_array, 3),
        },
        counters={
            "n": n,
            "num_edges": graph.num_edges,
            "queries": q,
            "d_build_work": dict_metrics["d_build_work"],
            "d_batch_queries": array_metrics["d_batch_queries"],
        },
        asserts={
            "rebuild_speedup_min": SPEEDUP_MIN,
            "overlay_service_speedup_min": SPEEDUP_MIN,
            "query_speedup_min": SPEEDUP_MIN,
        },
    )

    benchmark(lambda: StructureD(agraph, tree))


@pytest.mark.skipif(
    os.environ.get("REPRO_E11_XL") != "1",
    reason="XL tier is opt-in: set REPRO_E11_XL=1 (n = 10^6, minutes of runtime)",
)
@pytest.mark.benchmark(group="E11-large-tier")
def test_array_backend_xl_tier(benchmark):
    """Opt-in n = 10^6 tier.

    Same rebuild and overlay-service comparisons as E11 with ``k=1`` timings
    (the reference side alone is tens of seconds here), plus a snapshot's
    ``lca_batch`` against the tree's scalar ``lca`` loop, both over the tree's
    one LCA index.  Results land in ``BENCH_E11_XL.json`` so the committed
    ``BENCH_E11.json`` trajectory stays byte-stable under default runs.
    """
    n = 1_000_000
    rng = random.Random(11)
    graph, agraph, tree = _workload(n)
    verts = [v for v in graph.vertices()]

    dict_metrics = MetricsRecorder()
    array_metrics = MetricsRecorder()
    t_rebuild_dict, d_dict = timed_median(
        lambda: _SortedListD(graph, tree, metrics=dict_metrics), k=1,
    )
    t_rebuild_array, d_array = timed_median(
        lambda: StructureD(agraph, tree, metrics=array_metrics), k=1,
    )
    assert d_dict.size() == d_array.size()
    assert dict_metrics["d_build_work"] == array_metrics["d_build_work"]
    rebuild_speedup = t_rebuild_dict / t_rebuild_array
    assert rebuild_speedup >= XL_SPEEDUP_MIN

    q = 200_000  # capped: the reference's scalar loops dominate the runtime
    us, los, his = [], [], []
    for _ in range(q):
        t_star = verts[rng.randrange(len(verts))]
        root = verts[rng.randrange(len(verts))]
        hi = tree.postorder(root)
        lo = hi - tree.subtree_size(root) + 1
        us.append(t_star)
        los.append(lo)
        his.append(hi)
    los = np.asarray(los, dtype=np.int64)
    his = np.asarray(his, dtype=np.int64)
    t_anchor_dict, (ans_dict, _) = timed_median(
        lambda: d_dict.min_post_alive_neighbor_batch(us, los, his),
        k=1,
    )
    t_anchor_array, (ans_array, _) = timed_median(
        lambda: d_array.min_post_alive_neighbor_batch(us, los, his), k=1,
    )
    assert ans_dict == ans_array
    anchor_speedup = t_anchor_dict / t_anchor_array
    assert anchor_speedup >= XL_SPEEDUP_MIN

    tree.lca_index()
    snap = TreeSnapshot(0, tree)
    avs = np.asarray([verts[rng.randrange(len(verts))] for _ in range(q)], dtype=np.int64)
    bvs = np.asarray([verts[rng.randrange(len(verts))] for _ in range(q)], dtype=np.int64)
    t_lca_scalar, lcas_scalar = timed_median(
        lambda: [tree.lca(a, b) for a, b in zip(avs, bvs)], k=1,
    )
    t_lca_batch, lcas_batch = timed_median(
        lambda: snap.lca_batch(avs, bvs), k=1,
    )
    assert lcas_scalar == lcas_batch
    lca_batch_speedup = t_lca_scalar / t_lca_batch

    # Routed straight through emit_bench: record_table() would file the table
    # under experiment "E11" and dirty the committed trajectory.
    emit_bench(
        "E11_XL",
        timings_ms={
            "rebuild_dict": round(t_rebuild_dict, 3),
            "rebuild_array": round(t_rebuild_array, 3),
            "overlay_service_dict": round(t_anchor_dict, 3),
            "overlay_service_array": round(t_anchor_array, 3),
            "query_scalar_loop": round(t_lca_scalar, 3),
            "query_batch": round(t_lca_batch, 3),
        },
        counters={
            "n": n,
            "num_edges": graph.num_edges,
            "queries": q,
            "d_build_work": dict_metrics["d_build_work"],
        },
        tables={
            "E11_XL_array_vs_dict": {
                "sizes": [n],
                "rebuild_speedup": [round(rebuild_speedup, 1)],
                "overlay_service_speedup": [round(anchor_speedup, 1)],
                "lca_batch_vs_scalar_speedup": [round(lca_batch_speedup, 1)],
            }
        },
        asserts={
            "rebuild_speedup_min": XL_SPEEDUP_MIN,
            "overlay_service_speedup_min": XL_SPEEDUP_MIN,
        },
    )
    benchmark(lambda: snap.lca_batch(avs, bvs))
