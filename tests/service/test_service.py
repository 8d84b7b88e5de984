"""DFSTreeService: versioned publication over every driver, MVCC invariants.

The tentpole contract: every committed update bumps the version, snapshots are
published by an atomic pointer swap, held snapshots stay frozen while the
writer churns, and the published parent map is byte-identical to a dict
reference driver replaying the same updates at the same version.  All
recorders are ``strict=True``, so the service counters must be registered in
``WELL_KNOWN_COUNTERS``.
"""

from __future__ import annotations

import pytest

from repro.core.dynamic_dfs import FullyDynamicDFS
from repro.core.fault_tolerant import FaultTolerantDFS
from repro.core.updates import EdgeDeletion
from repro.distributed.distributed_dfs import DistributedDynamicDFS
from repro.graph.generators import gnp_random_graph, path_graph
from repro.metrics.counters import MetricsRecorder
from repro.service import DFSTreeService
from repro.shard import ShardRouter
from repro.streaming.semi_streaming_dfs import SemiStreamingDynamicDFS
from repro.workloads.scenarios import build_scenario

from tests.helpers import make_updates


def _scenario(n=48, seed=1, updates=24):
    scenario = build_scenario("sustained_churn", n=n, seed=seed, updates=updates)
    return scenario.graph, scenario.updates[:updates]


ENGINE_DRIVERS = [
    ("core", lambda g, m: FullyDynamicDFS(g, rebuild_every=4, metrics=m)),
    ("core_auto", lambda g, m: FullyDynamicDFS(g, rebuild_every=None, metrics=m)),
    ("stream", lambda g, m: SemiStreamingDynamicDFS(g, rebuild_every=4, metrics=m)),
    ("dist", lambda g, m: DistributedDynamicDFS(g, rebuild_every=4, metrics=m)),
]


@pytest.mark.parametrize("label,factory", ENGINE_DRIVERS, ids=[l for l, _ in ENGINE_DRIVERS])
def test_every_driver_publishes_per_commit(label, factory):
    graph, updates = _scenario()
    metrics = MetricsRecorder(label, strict=True)
    driver = factory(graph.copy(), metrics)
    svc = DFSTreeService(driver, metrics=metrics)
    assert svc.version == 0 and svc.committed_version == 0
    reference = FullyDynamicDFS(graph.copy(), rebuild_every=1)
    for step, update in enumerate(updates, start=1):
        driver.apply(update)
        reference.apply(update)
        assert svc.version == svc.committed_version == step
        assert svc.snapshot().parent_map() == reference.tree.parent_map()
    assert metrics["snapshots_published"] == len(updates)


def test_mixed_updates_published_maps_match_reference():
    graph = gnp_random_graph(40, 0.12, seed=9, connected=True)
    updates = make_updates(graph, 30, seed=4)
    metrics = MetricsRecorder("svc", strict=True)
    driver = FullyDynamicDFS(graph.copy(), rebuild_every=3, metrics=metrics)
    svc = DFSTreeService(driver, metrics=metrics)
    reference = FullyDynamicDFS(graph.copy(), rebuild_every=1)
    for update in updates:
        driver.apply(update)
        reference.apply(update)
        assert svc.snapshot().parent_map() == reference.tree.parent_map()


def test_held_snapshots_stay_frozen_under_churn():
    graph, updates = _scenario(seed=3)
    driver = FullyDynamicDFS(graph.copy(), rebuild_every=2)
    svc = DFSTreeService(driver)
    held = []
    for update in updates:
        driver.apply(update)
        snap = svc.snapshot()
        held.append((snap, snap.parent_map()))
    for version, (snap, frozen_map) in enumerate(held, start=1):
        assert snap.version == version
        assert snap.parent_map() == frozen_map  # churn never mutated it


def test_publish_every_widens_staleness_and_publish_now_closes_it():
    graph, updates = _scenario(seed=5, updates=10)
    metrics = MetricsRecorder("svc", strict=True)
    driver = FullyDynamicDFS(graph.copy(), rebuild_every=2, metrics=metrics)
    svc = DFSTreeService(driver, metrics=metrics, publish_every=4)
    for update in updates[:3]:
        driver.apply(update)
    assert svc.committed_version == 3 and svc.version == 0
    answer, version = svc.connected(*_two_vertices(graph))
    assert version == 0
    assert metrics["snapshot_staleness_updates"] == 3  # one query, 3 behind
    driver.apply(updates[3])
    assert svc.version == 4  # cadence point reached
    for update in updates[4:7]:
        driver.apply(update)
    assert svc.version == 4 and svc.committed_version == 7
    snap = svc.publish_now()
    assert snap.version == svc.committed_version == 7
    assert svc.snapshot() is snap


def test_fault_tolerant_driver_versions_accumulate_across_queries():
    graph = gnp_random_graph(30, 0.15, seed=7, connected=True)
    metrics = MetricsRecorder("ft", strict=True)
    ft = FaultTolerantDFS(graph, metrics=metrics)
    svc = DFSTreeService(ft, metrics=metrics)
    edges = list(graph.edges())
    ft.query([EdgeDeletion(*edges[0]), EdgeDeletion(*edges[1])])
    assert svc.version == 2
    ft.query([EdgeDeletion(*edges[2])])
    assert svc.version == 3
    assert metrics["snapshots_published"] == 3


def test_batched_reads_account_batches_and_staleness():
    graph, updates = _scenario(seed=8, updates=8)
    # The service gets its own recorder: the driver's internal query services
    # also emit ``query_batches``, which would fold into the same counter.
    metrics = MetricsRecorder("svc", strict=True)
    driver = FullyDynamicDFS(graph.copy(), rebuild_every=2)
    svc = DFSTreeService(driver, metrics=metrics)
    for update in updates:
        driver.apply(update)
    held = svc.snapshot()
    a, b = _two_vertices(graph)
    answers, version = svc.lca_batch([a] * 10, [b] * 10)
    assert version == svc.committed_version and len(answers) == 10
    base_batches = metrics["query_batches"]
    # answering against a held (now stale) snapshot accounts the staleness
    driver.apply(EdgeDeletion(*next(iter(driver.graph.edges()))))
    answers2, version2 = svc.lca_batch([a] * 5, [b] * 5, snapshot=held)
    assert version2 == held.version == svc.committed_version - 1
    assert answers2 == answers[:5]
    assert metrics["query_batches"] == base_batches + 1
    assert metrics["max_query_batch_size"] == 10
    assert metrics["queries_served"] == 15  # the two batches: 10 + 5
    assert metrics["snapshot_staleness_updates"] == 5


@pytest.mark.parametrize("kind", ["lca", "is_ancestor", "connected", "path_length"])
def test_pairwise_batches_reject_inputs_of_different_lengths(kind):
    """A pairwise batch answers ``zip(avs, bvs)``: unequal lengths raise
    ``ValueError`` on the snapshot and on the service (which then records
    nothing) instead of broadcasting a one-element side, and a routed
    pairwise query without ``bvs`` is rejected."""
    metrics = MetricsRecorder("svc", strict=True)
    svc = DFSTreeService(FullyDynamicDFS(path_graph(6)), metrics=metrics)
    method = f"{kind}_batch"
    for avs, bvs in (([5], [0, 1, 2]), ([5], []), ([5, 4], [0, 1, 2])):
        with pytest.raises(ValueError, match="equal-length"):
            getattr(svc.snapshot(), method)(avs, bvs)
        with pytest.raises(ValueError, match="equal-length"):
            getattr(svc, method)(avs, bvs)
    assert metrics["queries_served"] == metrics["query_batches"] == 0
    assert len(getattr(svc, method)([5, 4], [0, 1])[0]) == 2
    with ShardRouter(num_workers=1, num_shards=1, mode="inline") as router:
        router.create_tenant("t", path_graph(6))
        with pytest.raises(ValueError, match="needs bvs"):
            router.query("t", kind, [5])
        with pytest.raises(ValueError, match="equal-length"):
            router.query("t", kind, [5], [0, 1, 2])


def test_publish_every_validation():
    graph, _ = _scenario()
    driver = FullyDynamicDFS(graph.copy())
    with pytest.raises(ValueError):
        DFSTreeService(driver, publish_every=0)


def _two_vertices(graph):
    it = iter(graph.vertices())
    return next(it), next(it)


# --------------------------------------------------------------------------- #
# publish_now no-op and close() (PR 8 writer-path fixes)
# --------------------------------------------------------------------------- #
def test_publish_now_is_noop_at_committed_version():
    """Regression: ``publish_now`` used to republish unconditionally, throwing
    away the snapshot's lazily built indices and inflating
    ``snapshots_published``.  At the committed version it must return the
    *same object* (warm LCA/component indices preserved)."""
    graph, updates = _scenario(seed=5, updates=10)
    metrics = MetricsRecorder("svc", strict=True)
    driver = FullyDynamicDFS(graph.copy(), rebuild_every=2)
    svc = DFSTreeService(driver, metrics=metrics, publish_every=4)
    for update in updates[:6]:
        driver.apply(update)
    snap = svc.publish_now()  # committed=6, published cadence point was 4
    assert snap.version == 6
    it = iter(driver.graph.vertices())
    a, b = next(it), next(it)
    snap.lca(a, b)  # warm the lazy index
    published = metrics["snapshots_published"]
    again = svc.publish_now()
    assert again is snap  # the exact object, warm indices and all
    assert metrics["snapshots_published"] == published
    # After the next commit it is no longer a no-op.
    driver.apply(updates[6])
    fresh = svc.publish_now()
    assert fresh is not snap and fresh.version == 7
    assert metrics["snapshots_published"] == published + 1


def test_close_detaches_service_from_driver():
    """Regression: a discarded service kept snapshotting every future commit
    forever (listener leak on the writer's commit path).  ``close()`` must
    deregister the listener, freeze the service, shrink the engine's listener
    list, and stay idempotent; reads keep answering from the last snapshot."""
    graph, updates = _scenario(seed=7, updates=12)
    driver = FullyDynamicDFS(graph.copy(), rebuild_every=3)
    engine = driver._engine
    base_listeners = engine.commit_listener_count
    svc = DFSTreeService(driver)
    assert engine.commit_listener_count == base_listeners + 1
    for update in updates[:5]:
        driver.apply(update)
    frozen_map = svc.snapshot().parent_map()
    assert not svc.closed
    svc.close()
    assert svc.closed
    assert engine.commit_listener_count == base_listeners
    for update in updates[5:]:
        driver.apply(update)
    # Frozen: the writer moved on, the closed service did not.
    assert svc.version == svc.committed_version == 5
    assert svc.snapshot().parent_map() == frozen_map
    svc.close()  # idempotent
    assert engine.commit_listener_count == base_listeners
    it = iter(frozen_map)
    v = next(it)
    assert svc.subtree_size(v)[1] == 5  # reads still answer, at the frozen version
