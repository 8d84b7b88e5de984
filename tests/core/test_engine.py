"""Tests for the shared :class:`~repro.core.engine.UpdateEngine` pipeline and
its rebuild-policy semantics across backends."""

from __future__ import annotations

from collections import Counter

import pytest

import repro.core.engine as engine_module
import repro.tree.lca as lca_module
from repro.baselines.static_recompute import StaticRecomputeDFS
from repro.constants import VIRTUAL_ROOT
from repro.core.dynamic_dfs import FullyDynamicDFS
from repro.core.engine import Backend, UpdateEngine, update_words
from repro.core.fault_tolerant import FaultTolerantDFS
from repro.core.updates import EdgeDeletion, EdgeInsertion, VertexDeletion, VertexInsertion
from repro.distributed.distributed_dfs import DistributedDynamicDFS
from repro.exceptions import GraphError, UpdateError
from repro.graph.generators import gnp_random_graph, path_graph
from repro.metrics.counters import MetricsRecorder
from repro.service import DFSTreeService
from repro.streaming.semi_streaming_dfs import SemiStreamingDynamicDFS
from repro.tree.dfs_tree import DFSTree
from repro.workloads.updates import edge_churn, mixed_updates


def test_rebuild_every_validation():
    g = path_graph(6)
    for bad in (0, -3, 2.5, "7"):
        with pytest.raises(ValueError):
            FullyDynamicDFS(g, rebuild_every=bad)
        with pytest.raises(ValueError):
            SemiStreamingDynamicDFS(g, rebuild_every=bad)
        with pytest.raises(ValueError):
            DistributedDynamicDFS(g, rebuild_every=bad)


def test_engine_counts_service_rebuilds_per_policy():
    g = gnp_random_graph(40, 0.1, seed=2, connected=True)
    updates = edge_churn(g, 12, seed=5)
    counts = {}
    for k in (1, 4):
        metrics = MetricsRecorder()
        FullyDynamicDFS(g, rebuild_every=k, metrics=metrics).apply_all(updates)
        counts[k] = metrics
    # +1 for the initial build at construction.
    assert counts[1]["service_rebuilds"] == len(updates) + 1
    assert counts[1]["overlay_served_updates"] == 0
    assert counts[4]["service_rebuilds"] == 1 + len(updates) // 4
    assert counts[4]["overlay_served_updates"] == len(updates) - len(updates) // 4
    # The D backend mirrors the engine counter for backward compatibility.
    assert counts[4]["d_rebuilds"] == counts[4]["service_rebuilds"]


def test_brute_backend_never_amortizes():
    g = gnp_random_graph(30, 0.12, seed=3, connected=True)
    updates = edge_churn(g, 8, seed=1)
    metrics = MetricsRecorder()
    # rebuild_every is a no-op for a backend without reusable state.
    FullyDynamicDFS(g, service="brute", rebuild_every=50, metrics=metrics).apply_all(updates)
    assert metrics["service_rebuilds"] == len(updates) + 1
    assert metrics["overlay_served_updates"] == 0


def test_validation_precedes_metrics_across_adapters():
    g = path_graph(8)
    malformed = (
        EdgeInsertion(0, 0),
        EdgeDeletion(0, 5),
        VertexInsertion(3, ()),
        VertexDeletion("nope"),
        VertexInsertion(VIRTUAL_ROOT, (0,)),  # the sentinel is no vertex id
    )
    for driver in (
        FullyDynamicDFS(g),
        SemiStreamingDynamicDFS(g),
        DistributedDynamicDFS(g),
        StaticRecomputeDFS(g),
    ):
        before = driver.metrics.as_dict()
        for bad in malformed:
            with pytest.raises(UpdateError):
                driver.apply(bad)
        delta = driver.metrics.snapshot_delta(before)
        assert all(v == 0 for v in delta.values()), f"failed updates skewed counters: {delta}"
        assert driver.graph == g and driver.graph.num_vertices == 8


def test_drivers_reject_a_graph_holding_the_virtual_root():
    """The virtual-root sentinel is reserved for the augmented tree: every
    driver refuses a graph that holds it, before recording any metric."""
    g = path_graph(4)
    g.add_vertex_with_edges(VIRTUAL_ROOT, (0, 2))
    for factory in (
        FullyDynamicDFS,
        SemiStreamingDynamicDFS,
        DistributedDynamicDFS,
        StaticRecomputeDFS,
        FaultTolerantDFS,
    ):
        metrics = MetricsRecorder()
        with pytest.raises(GraphError):
            factory(g, metrics=metrics)
        assert metrics.as_dict() == {}, factory.__name__


#: Every driver on one UpdateEngine, both graph stores under auto and
#: rebuild_every=1, plus the fault-tolerant driver's per-query engine.
TREE_KEEPING_DRIVERS = [
    ("core_dict_auto", lambda g: FullyDynamicDFS(g, backend="dict")),
    ("core_dict_every_1", lambda g: FullyDynamicDFS(g, backend="dict", rebuild_every=1)),
    ("core_array_auto", lambda g: FullyDynamicDFS(g, backend="array")),
    ("core_array_every_1", lambda g: FullyDynamicDFS(g, backend="array", rebuild_every=1)),
    ("stream", SemiStreamingDynamicDFS),
    ("dist", DistributedDynamicDFS),
    ("fault_tolerant", FaultTolerantDFS),
]


@pytest.mark.parametrize("factory", [f for _, f in TREE_KEEPING_DRIVERS], ids=[l for l, _ in TREE_KEEPING_DRIVERS])
def test_a_tree_keeping_update_commits_the_same_tree(factory, monkeypatch):
    """Deleting a non-tree edge and inserting it again as a back edge keeps
    the tree (Theorem 2): the engine copies no parent map and builds no
    ``DFSTree``, the driver keeps the same tree object, and the attached
    service's next snapshot wraps it, so no second LCA index is built."""
    g = gnp_random_graph(40, 0.15, seed=3, connected=True)
    driver = factory(g)
    svc = DFSTreeService(driver)
    tree = svc.snapshot().tree
    u, v = next((a, b) for a, b in g.edges() if tree.parent(a) != b and tree.parent(b) != a)

    calls = Counter()

    def spy(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    monkeypatch.setattr(DFSTree, "parent_map", spy("parent_map", DFSTree.parent_map))
    monkeypatch.setattr(engine_module, "DFSTree", spy("DFSTree", DFSTree))
    monkeypatch.setattr(lca_module, "ArrayLCAIndex", spy("ArrayLCAIndex", lca_module.ArrayLCAIndex))
    svc.lca(u, v)  # the first read builds the tree's LCA index
    built_ms = svc.metrics["snapshot_build_ms"]
    assert calls == {"ArrayLCAIndex": 1} and built_ms > 0

    updates = [EdgeDeletion(u, v), EdgeInsertion(u, v)]
    if isinstance(driver, FaultTolerantDFS):
        assert driver.query(updates) is driver.base_tree is tree
    else:
        for update in updates:
            assert driver.apply(update) is tree
        assert driver.tree is tree
    snap = svc.snapshot()
    assert snap.version == 2 and snap.tree is tree
    svc.lca(u, v)
    assert calls == {"ArrayLCAIndex": 1}, calls
    assert svc.metrics["snapshot_build_ms"] == built_ms


def test_update_words_accounting():
    g = path_graph(5)
    assert update_words(EdgeInsertion(0, 4), g) == 2
    assert update_words(EdgeDeletion(0, 1), g) == 2
    assert update_words(VertexInsertion(9, (0, 2, 4)), g) == 4
    assert update_words(VertexDeletion(2), g) == 3  # 1 + degree on the pre-deletion graph


def test_custom_backend_minimal_protocol():
    """A minimal third-party backend only needs mutate/rebuild/make_query_service."""
    from repro.constants import VIRTUAL_ROOT
    from repro.core.overlay import apply_update
    from repro.core.queries import BruteForceQueryService
    from repro.graph.traversal import static_dfs_forest
    from repro.tree.dfs_tree import DFSTree

    g = gnp_random_graph(25, 0.15, seed=8, connected=True)

    class MiniBackend(Backend):
        name = "mini"

        def __init__(self, graph):
            self.graph = graph

        def rebuild(self, tree, update):
            pass

        def mutate(self, update):
            apply_update(self.graph, update)

        def make_query_service(self, tree):
            return BruteForceQueryService(self.graph, tree)

    graph = g.copy()
    tree = DFSTree(static_dfs_forest(graph), root=VIRTUAL_ROOT)
    engine = UpdateEngine(MiniBackend(graph), tree, validate=True)
    reference = FullyDynamicDFS(g, validate=True)
    for upd in mixed_updates(g, 15, seed=4):
        engine.apply(upd)
        reference.apply(upd)
        assert engine.parent_map() == reference.parent_map()
    assert engine.is_valid()


def test_batch_metrics_consistent_across_adapters():
    g = gnp_random_graph(30, 0.12, seed=1, connected=True)
    updates = edge_churn(g, 6, seed=2)
    for factory in (
        lambda m: FullyDynamicDFS(g, metrics=m),
        lambda m: SemiStreamingDynamicDFS(g, metrics=m),
        lambda m: DistributedDynamicDFS(g, metrics=m),
    ):
        metrics = MetricsRecorder()
        factory(metrics).apply_all(updates)
        assert metrics["update_batches"] == 1
        assert metrics["max_update_batch_size"] == len(updates)
        assert metrics["updates"] == len(updates)


# --------------------------------------------------------------------------- #
# Commit-listener isolation and detach (PR 8 writer-path fixes)
# --------------------------------------------------------------------------- #
def test_raising_commit_listener_does_not_poison_writer():
    """Regression: a listener that raises used to abort the commit tail —
    ``end_update`` never ran (breaking overlay-budget accounting) and every
    listener registered after it starved.  Now each listener is isolated:
    the error is counted under ``commit_listener_errors``, later listeners
    (here a healthy DFSTreeService) still run, and the maintained tree stays
    byte-identical to an undisturbed reference."""
    from repro.service import DFSTreeService

    g = gnp_random_graph(36, 0.12, seed=9, connected=True)
    updates = edge_churn(g, 16, seed=3)
    metrics = MetricsRecorder("poisoned", strict=True)
    driver = FullyDynamicDFS(g, rebuild_every=4, metrics=metrics)

    def bad_listener(tree):
        raise RuntimeError("boom")

    driver.add_commit_listener(bad_listener)
    svc = DFSTreeService(driver, metrics=metrics)  # registered after the bomb

    reference = FullyDynamicDFS(g, rebuild_every=4)
    for update in updates:
        driver.apply(update)
        reference.apply(update)
        # The healthy service keeps observing every commit...
        assert svc.committed_version == reference.metrics["updates"]
        # ...and the writer's tree is unharmed.
        assert driver.parent_map() == reference.parent_map()
    assert metrics["commit_listener_errors"] == len(updates)
    # end_update kept running: the amortized budget accounting still rebuilt
    # on the same cadence as the undisturbed reference.
    assert metrics["service_rebuilds"] == reference.metrics["service_rebuilds"]


def test_remove_commit_listener_detaches_and_is_idempotent():
    g = gnp_random_graph(24, 0.15, seed=2, connected=True)
    driver = FullyDynamicDFS(g)
    engine = driver._engine
    base = engine.commit_listener_count
    seen = []
    listener = seen.append
    driver.add_commit_listener(listener)
    assert engine.commit_listener_count == base + 1
    driver.apply(next(iter(edge_churn(g, 1, seed=1))))
    assert len(seen) == 1
    driver.remove_commit_listener(listener)
    assert engine.commit_listener_count == base
    driver.apply(next(iter(edge_churn(g, 1, seed=7))))
    assert len(seen) == 1  # detached: no further commits observed
    # Unknown listeners are ignored (idempotent detach).
    driver.remove_commit_listener(listener)
    assert engine.commit_listener_count == base


def test_listener_may_detach_itself_mid_commit():
    """A listener that removes itself while the commit fan-out is running
    (exactly what ``DFSTreeService.close`` does from inside a drain) must not
    skip the listeners after it."""
    g = path_graph(8)
    driver = FullyDynamicDFS(g)
    order = []

    def self_removing(tree):
        order.append("first")
        driver.remove_commit_listener(self_removing)

    driver.add_commit_listener(self_removing)
    driver.add_commit_listener(lambda tree: order.append("second"))
    driver.apply(EdgeInsertion(0, 5))
    driver.apply(EdgeDeletion(0, 5))
    assert order == ["first", "second", "second"]


def test_end_update_guaranteed_when_the_pipeline_raises():
    """Regression: ``begin_update`` was only closed on the success path, so a
    raise anywhere in the pipeline (policy, rebuild, mutate, commit) left the
    backend mid-update forever.  The writer protocol now closes in a
    ``finally`` (statically enforced by repro-lint's writer-pairing rule):
    every begin has its end, the error still propagates, and the engine keeps
    working once the fault clears."""
    from repro.constants import VIRTUAL_ROOT
    from repro.core.overlay import apply_update
    from repro.core.queries import BruteForceQueryService
    from repro.graph.traversal import static_dfs_forest
    from repro.tree.dfs_tree import DFSTree

    g = gnp_random_graph(20, 0.15, seed=5, connected=True)

    class RecordingBackend(Backend):
        name = "recording"

        def __init__(self, graph):
            self.graph = graph
            self.log = []
            self.explode = False

        def rebuild(self, tree, update):
            pass

        def mutate(self, update):
            if self.explode:
                raise RuntimeError("mid-update failure")
            apply_update(self.graph, update)

        def make_query_service(self, tree):
            return BruteForceQueryService(self.graph, tree)

        def begin_update(self, update):
            self.log.append("begin")

        def end_update(self, update):
            self.log.append("end")

    graph = g.copy()
    tree = DFSTree(static_dfs_forest(graph), root=VIRTUAL_ROOT)
    backend = RecordingBackend(graph)
    engine = UpdateEngine(backend, tree)
    updates = mixed_updates(g, 2, seed=1)

    engine.apply(updates[0])
    backend.explode = True
    with pytest.raises(RuntimeError):
        engine.apply(updates[1])
    # mutate raised before touching the graph, so the same update replays
    # cleanly once the fault clears.
    backend.explode = False
    engine.apply(updates[1])

    assert backend.log == ["begin", "end"] * 3
    assert engine.is_valid()
