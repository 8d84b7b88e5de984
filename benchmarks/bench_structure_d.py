"""E5 — Theorems 8–9: building and querying the data structure D.

Documented in ``docs/benchmarks.md`` (E5).

Claims: ``D`` occupies ``O(m)`` space and is built with ``O(m log n)`` work in
``O(log n)`` parallel depth (sorting adjacency lists); a batch of independent
queries is answered with one post-order range search per source vertex; after
``k`` overlaid updates a query costs ``O(log n + k)`` probes.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import record_table, scale_sizes
from repro.constants import VIRTUAL_ROOT
from repro.core.queries import DQueryService, EdgeQuery
from repro.core.structure_d import StructureD
from repro.graph.generators import gnp_random_graph
from repro.graph.traversal import static_dfs_forest
from repro.metrics.counters import MetricsRecorder
from repro.pram.machine import PRAM
from repro.pram.sort import parallel_merge_sort
from repro.tree.dfs_tree import DFSTree
from repro.tree.tree_utils import hanging_subtrees


def _build(n, seed=0):
    graph = gnp_random_graph(n, 6.0 / n, seed=seed, connected=True)
    tree = DFSTree(static_dfs_forest(graph), root=VIRTUAL_ROOT)
    return graph, tree


@pytest.mark.benchmark(group="E5-structure-d")
def test_build_cost_and_query_probes(benchmark):
    sizes = scale_sizes([512, 1024, 2048, 4096], [256, 512])
    build_work, size_ratio, probes_per_query, sort_depth = [], [], [], []
    for n in sizes:
        graph, tree = _build(n)
        metrics = MetricsRecorder()
        d = StructureD(graph, tree, metrics=metrics)
        build_work.append(metrics["d_build_work"])
        size_ratio.append(round(d.size() / (2 * graph.num_edges), 3))

        # Parallel depth of sorting one (the largest) adjacency list.
        hub = max(graph.vertices(), key=graph.degree)
        pram = PRAM()
        parallel_merge_sort(pram, graph.neighbor_list(hub), key=tree.postorder)
        sort_depth.append(pram.depth)

        # One batch of independent subtree queries against the root path of
        # the deepest vertex: one per subtree hanging from it.
        service = DQueryService(d, metrics=metrics)
        root = tree.children(VIRTUAL_ROOT)[0]
        deepest = max(tree.subtree_vertices(root), key=tree.level)
        target = tuple(reversed(tree.ancestor_path(deepest, root)))
        queries = [
            EdgeQuery.from_tree(h, target, prefer_last=True)
            for h in hanging_subtrees(tree, target)
        ]
        before = metrics.as_dict()
        service.answer_batch(queries)
        delta = metrics.snapshot_delta(before)
        probes_per_query.append(
            round(delta.get("d_probes", 0) / max(delta.get("d_vertex_queries", 1), 1), 2)
        )

    record_table(
        benchmark,
        "E5_build_and_query",
        sizes,
        {
            "build_work": build_work,
            "size_over_2m": size_ratio,
            "probes_per_vertex_query": probes_per_query,
            "adjacency_sort_depth": sort_depth,
        },
    )

    graph, tree = _build(sizes[-1])
    benchmark(lambda: StructureD(graph, tree))


@pytest.mark.benchmark(group="E5-structure-d")
def test_query_cost_grows_linearly_with_overlayed_updates(benchmark):
    n = scale_sizes([1024], [256])[0]
    graph, tree = _build(n, seed=3)
    ks = scale_sizes([0, 2, 4, 8, 16], [0, 2, 4])
    probes = []
    for k in ks:
        metrics = MetricsRecorder()
        d = StructureD(graph, tree, metrics=metrics)
        verts = [v for v in graph.vertices()][:k]
        for i, v in enumerate(verts):
            # overlay k inserted edges touching a fixed hub vertex
            hub = next(iter(graph.vertices()))
            if v != hub and not graph.has_edge(hub, v):
                d.note_edge_inserted(hub, v)
        hub = next(iter(graph.vertices()))
        target = tuple(tree.ancestor_path(hub, VIRTUAL_ROOT)[1:-1]) or (hub,)
        before = metrics.as_dict()
        for v in list(graph.vertices())[:200]:
            if v == hub:
                continue
            d.neighbor_on_segment(v, target[-1] if target else hub, target[0] if target else hub,
                                  prefer_bottom=True)
        delta = metrics.snapshot_delta(before)
        probes.append(round(delta.get("d_probes", 0) / max(delta.get("d_vertex_queries", 1), 1), 2))
    record_table(benchmark, "E5_probes_vs_k_overlays", [k + 1 for k in ks], {"probes_per_query": probes})

    benchmark(lambda: StructureD(graph, tree))
