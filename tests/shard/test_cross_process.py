"""Cross-process determinism: a tenant behind a forked shard worker is
byte-identical to the same updates applied in process — on both storage
backends, and across a mid-sequence drain/rebalance.

This is the canonical-answers guarantee stretched over a process boundary:
placement hashes are process-stable (BLAKE2b), updates and graphs pickle
losslessly, and replay-from-genesis is exact, so nothing about living in a
worker process may change a single parent pointer.
"""

from __future__ import annotations

import os
import signal

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.backends import BACKENDS
from repro.core.dynamic_dfs import FullyDynamicDFS
from repro.core.updates import EdgeInsertion
from repro.exceptions import WorkerDied
from repro.graph.generators import gnm_random_graph, path_graph
from repro.shard import ShardRouter
from repro.workloads.multi_tenant import multi_tenant_churn, round_items
from tests.helpers import decode_ops


@pytest.mark.parametrize("backend", BACKENDS)
def test_process_fleet_matches_in_process_reference(backend):
    """A small fleet in real worker processes, with one worker drained midway:
    every tenant's parent map equals its in-process reference at every round."""
    tenants = multi_tenant_churn(5, n=24, rounds=4, updates_per_round=3, seed=11)
    refs = {t.tenant_id: FullyDynamicDFS(t.graph.copy(), backend=backend) for t in tenants}
    with ShardRouter(num_workers=2, num_shards=8, mode="process", backend=backend) as router:
        for t in tenants:
            router.create_tenant(t.tenant_id, t.graph)
        for rnd in range(4):
            if rnd == 2:  # drain one worker mid-churn
                router.drain_worker(router.worker_of_tenant(tenants[0].tenant_id))
            router.apply_many(round_items(tenants, rnd))
            for t in tenants:
                refs[t.tenant_id].apply_all(t.rounds[rnd])
                assert router.parent_map(t.tenant_id) == refs[t.tenant_id].parent_map()
        fleet = router.fleet_metrics()
        assert fleet["shard_replayed_updates"] > 0  # the drain really replayed
        # Counters are charged where the work ran: the drain's replay applied
        # its updates again on the destination worker's shard recorder.
        assert fleet["updates"] == 5 * 4 * 3 + fleet["shard_replayed_updates"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_process_worker_error_does_not_kill_the_worker(backend):
    from repro.core.updates import EdgeDeletion
    from repro.exceptions import UpdateError

    tenants = multi_tenant_churn(2, n=16, rounds=1, updates_per_round=2, seed=3)
    with ShardRouter(num_workers=2, num_shards=4, mode="process", backend=backend) as router:
        for t in tenants:
            router.create_tenant(t.tenant_id, t.graph)
        with pytest.raises(UpdateError):
            router.apply(tenants[0].tenant_id, [EdgeDeletion("ghost-a", "ghost-b")])
        # The command loop survived the forwarded error: writes still land.
        for t in tenants:
            router.apply(t.tenant_id, t.rounds[0])
            assert router.committed_version(t.tenant_id) == 2


def test_a_dead_worker_leaves_the_live_workers_in_sync():
    """Worker 1's process is killed: ``apply_many`` over a tenant on each
    worker raises ``WorkerDied`` only after reading worker 0's reply, so
    worker 0's next answers are the answers to the next commands, and
    ``close()`` still returns."""
    with ShardRouter(num_workers=2, num_shards=4, mode="process") as router:
        tenant_of = {}
        for i in range(64):
            tenant_of.setdefault(router.worker_of_tenant(f"t{i}"), f"t{i}")
        live, dead = tenant_of[0], tenant_of[1]
        for tenant in (live, dead):
            router.create_tenant(tenant, path_graph(6))
        victim = router._workers[1]._process
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5)
        update = EdgeInsertion(0, 5)
        with pytest.raises(WorkerDied):
            router.apply_many([(live, [update]), (dead, [update])])
        reference = FullyDynamicDFS(path_graph(6))
        reference.apply(update)
        assert router.committed_version(live) == 1
        assert router.parent_map(live) == reference.parent_map()
        with pytest.raises(WorkerDied):
            router.committed_version(dead)
    # the with block's close() returned despite the dead worker


@st.composite
def shard_cases(draw):
    n = draw(st.integers(min_value=4, max_value=10))
    max_m = n * (n - 1) // 2
    m = draw(st.integers(min_value=0, max_value=min(2 * n, max_m)))
    seed = draw(st.integers(min_value=0, max_value=99))
    ops = draw(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 15), st.integers(0, 63)),
            min_size=1,
            max_size=5,
        )
    )
    move_at = draw(st.integers(min_value=0, max_value=4))
    return gnm_random_graph(n, m, seed=seed), ops, move_at


@settings(max_examples=8, deadline=None)
@given(shard_cases())
@pytest.mark.parametrize("backend", BACKENDS)
def test_tenant_through_worker_process_is_byte_identical(backend, case):
    """Property: any replayable update sequence (the cross-driver harness's
    ``(kind, a, b)`` encodings) applied to a tenant in a worker process — with
    a shard move injected mid-sequence — yields the exact parent map of the
    same sequence applied in process."""
    graph, ops, move_at = case
    updates = decode_ops(graph, ops)
    assume(updates)
    reference = FullyDynamicDFS(graph.copy(), backend=backend)
    with ShardRouter(num_workers=2, num_shards=2, mode="process", backend=backend) as router:
        router.create_tenant("t", graph)
        shard = router.shard_of("t")
        for i, update in enumerate(updates):
            if i == move_at % len(updates):
                router.move_shard(shard, 1 - router.worker_of_shard(shard))
            router.apply("t", [update])
            reference.apply(update)
            assert router.parent_map("t") == reference.parent_map(), (i, update.describe())
