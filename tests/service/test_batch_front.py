"""BatchingQueryFront: coalescing, versions, error isolation, churn overlap.

No pytest-asyncio dependency: each test drives its own loop via
``asyncio.run``.  The load-bearing claims are that one burst of concurrent
awaits becomes ONE flush (one ``query_batches`` increment, one shared
version), that ``max_batch`` bounds flush size, and that readers awaiting
mid-churn get answers consistent with *some* published version — MVCC, not
torn state.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.core.dynamic_dfs import FullyDynamicDFS
from repro.exceptions import VertexNotFound
from repro.metrics.counters import MetricsRecorder
from repro.service import BatchingQueryFront, DFSTreeService, QueryResult
from repro.workloads.scenarios import build_scenario


def _setup(n=48, seed=2, updates=20, **front_kw):
    scenario = build_scenario("sustained_churn", n=n, seed=seed, updates=updates)
    metrics = MetricsRecorder("front", strict=True)
    driver = FullyDynamicDFS(scenario.graph.copy(), rebuild_every=4, metrics=metrics)
    svc = DFSTreeService(driver, metrics=metrics)
    front = BatchingQueryFront(svc, **front_kw)
    return driver, svc, front, metrics, scenario.updates[:updates]


def test_gather_burst_coalesces_into_one_flush():
    driver, svc, front, metrics, updates = _setup()
    for update in updates:
        driver.apply(update)
    verts = [v for v in driver.graph.vertices()]
    rng = random.Random(5)
    pairs = [(rng.choice(verts), rng.choice(verts)) for _ in range(40)]

    async def run():
        return await asyncio.gather(
            *[front.lca(a, b) for a, b in pairs],
            *[front.connected(a, b) for a, b in pairs[:10]],
            *[front.subtree_size(a) for a, _ in pairs[:7]],
        )

    base = metrics["query_batches"]
    results = asyncio.run(run())
    assert metrics["query_batches"] == base + 1  # one flush for the burst
    assert metrics["max_query_batch_size"] == 57
    versions = {r.version for r in results}
    assert versions == {svc.version}
    snap = svc.snapshot()
    expected = snap.lca_batch([a for a, _ in pairs], [b for _, b in pairs])
    assert [r.answer for r in results[:40]] == expected
    assert all(isinstance(r, QueryResult) for r in results)


def test_max_batch_flushes_early():
    driver, svc, front, metrics, updates = _setup(max_batch=8)
    for update in updates[:4]:
        driver.apply(update)
    verts = list(driver.graph.vertices())

    async def run():
        return await asyncio.gather(*[front.subtree_size(verts[i % len(verts)]) for i in range(20)])

    base = metrics["query_batches"]
    asyncio.run(run())
    # 20 queries with max_batch=8: two full early flushes + the tick's tail
    assert metrics["query_batches"] == base + 3
    assert metrics["max_query_batch_size"] == 8


def test_coalescing_window_tick():
    driver, svc, front, metrics, updates = _setup(tick=0.01)
    driver.apply(updates[0])
    verts = list(driver.graph.vertices())

    async def run():
        first = asyncio.ensure_future(front.lca(verts[0], verts[1]))
        await asyncio.sleep(0)  # first enqueued, timer armed
        second = asyncio.ensure_future(front.lca(verts[2], verts[3]))
        return await asyncio.gather(first, second)

    base = metrics["query_batches"]
    asyncio.run(run())
    assert metrics["query_batches"] == base + 1  # both inside one window


def test_bad_query_fails_only_its_own_future():
    driver, svc, front, metrics, updates = _setup()
    driver.apply(updates[0])
    verts = list(driver.graph.vertices())

    async def run():
        good = front.lca(verts[0], verts[1])
        bad = front.lca(verts[0], "missing-vertex")
        good2 = front.subtree_size(verts[2])
        results = await asyncio.gather(good, bad, good2, return_exceptions=True)
        return results

    r_good, r_bad, r_good2 = asyncio.run(run())
    assert isinstance(r_bad, VertexNotFound)
    assert isinstance(r_good, QueryResult)
    assert r_good.answer == svc.snapshot().lca(verts[0], verts[1])
    assert r_good2.answer == svc.snapshot().subtree_size(verts[2])


def test_readers_overlapping_churn_see_consistent_versions():
    """Readers awaiting while the writer commits between bursts: every answer
    matches a recomputation against the *published map of its version* — the
    MVCC guarantee the service exists for."""
    driver, svc, front, metrics, updates = _setup(seed=6, updates=16)
    maps_by_version = {0: svc.snapshot().parent_map()}
    rng = random.Random(11)

    async def run():
        results = []
        verts = list(driver.graph.vertices())
        for update in updates:
            driver.apply(update)
            maps_by_version[svc.version] = svc.snapshot().parent_map()
            live = [v for v in driver.graph.vertices()]
            pairs = [(rng.choice(live), rng.choice(live)) for _ in range(6)]
            answers = await asyncio.gather(*[front.path_length(a, b) for a, b in pairs])
            results.append((pairs, answers))
        return results

    results = asyncio.run(run())
    from repro.service.snapshot import TreeSnapshot
    from repro.tree.dfs_tree import DFSTree
    from repro.constants import VIRTUAL_ROOT

    for pairs, answers in results:
        version = answers[0].version
        assert {r.version for r in answers} == {version}
        replay = TreeSnapshot(version, DFSTree(maps_by_version[version], root=VIRTUAL_ROOT))
        for (a, b), got in zip(pairs, answers):
            assert got.answer == replay.path_length(a, b)


def test_max_batch_validation():
    driver, svc, front, metrics, _ = _setup()
    with pytest.raises(ValueError):
        BatchingQueryFront(svc, max_batch=0)
    # A tick must be a finite duration >= 0: a string would fail every read
    # after parking it, and NaN or inf would never flush.
    for tick in ("0", None, True, float("nan"), float("inf"), float("-inf"), -0.01):
        with pytest.raises(ValueError):
            BatchingQueryFront(svc, tick=tick)
    for tick in (0, 0.0, 0.01, 2):
        assert BatchingQueryFront(svc, tick=tick).tick == tick


_KINDS = ("lca", "connected", "is_ancestor", "subtree_size", "path_length")


def _call(front, kind, a, b):
    return front.subtree_size(a) if kind == "subtree_size" else getattr(front, kind)(a, b)


def test_query_methods_park_and_return_futures_so_a_burst_creates_no_task():
    """Each query method parks its query when called and returns the future
    itself: a gathered burst over all five kinds wraps nothing in a Task,
    still lands in one flush, and equals the snapshot's batched answers."""
    driver, svc, front, metrics, updates = _setup()
    for update in updates:
        driver.apply(update)
    verts = list(driver.graph.vertices())
    rng = random.Random(8)
    pairs = [(rng.choice(verts), rng.choice(verts)) for _ in range(6)]
    tasks = []

    def counting_factory(loop, coro, **kwargs):
        tasks.append(coro)
        return asyncio.Task(coro, loop=loop, **kwargs)

    async def run():
        asyncio.get_running_loop().set_task_factory(counting_factory)
        futs = []
        for kind in _KINDS:
            for a, b in pairs:
                fut = _call(front, kind, a, b)
                assert isinstance(fut, asyncio.Future) and not isinstance(fut, asyncio.Task)
                futs.append(fut)
                assert front.pending == len(futs)  # parked before any await
        results = await asyncio.gather(*futs)
        return results, len(tasks)  # before asyncio.run's shutdown tasks

    base = metrics["query_batches"]
    results, burst_tasks = asyncio.run(run())
    assert burst_tasks == 0
    assert metrics["query_batches"] == base + 1
    assert {r.version for r in results} == {svc.version}
    snap = svc.snapshot()
    avs, bvs = [a for a, _ in pairs], [b for _, b in pairs]
    expected = []
    for kind in _KINDS:
        batch = getattr(snap, f"{kind}_batch")
        expected += batch(avs) if kind == "subtree_size" else batch(avs, bvs)
    assert [r.answer for r in results] == expected


def test_query_methods_without_a_running_loop_raise_and_park_nothing():
    driver, svc, front, metrics, _ = _setup()
    a, b = list(driver.graph.vertices())[:2]
    for kind in _KINDS:
        with pytest.raises(RuntimeError):
            _call(front, kind, a, b)
    assert front.pending == 0


# --------------------------------------------------------------------------- #
# Cancelled futures must not skew accounting (PR 8 writer-path fixes)
# --------------------------------------------------------------------------- #
def _stale_setup(n=40, seed=3, updates=14):
    """A service whose published snapshot lags the writer (publish_every=3),
    so staleness accounting is non-zero and observable."""
    scenario = build_scenario("sustained_churn", n=n, seed=seed, updates=updates)
    metrics = MetricsRecorder("front", strict=True)
    driver = FullyDynamicDFS(scenario.graph.copy(), rebuild_every=4)
    svc = DFSTreeService(driver, metrics=metrics, publish_every=3)
    for update in scenario.updates[:updates]:
        driver.apply(update)
    assert svc.committed_version > svc.version  # genuinely stale
    # A long tick: flushes in these tests happen only when called explicitly.
    front = BatchingQueryFront(svc, tick=60.0)
    return driver, svc, front, metrics


def _run_with_cancellation(front, pairs, cancel_mask):
    """Enqueue one lca per pair, cancel the masked subset while parked, flush,
    and return the gathered outcomes."""

    async def run():
        tasks = [asyncio.ensure_future(front.lca(a, b)) for a, b in pairs]
        await asyncio.sleep(0)  # let every query park its future
        for task, cancel in zip(tasks, cancel_mask):
            if cancel:
                task.cancel()
        front.flush()
        return await asyncio.gather(*tasks, return_exceptions=True)

    return asyncio.run(run())


def test_flush_drops_cancelled_futures_from_accounting():
    """Regression: a flush used to count *every* parked query — cancelled
    ones included — into ``queries_served`` and the staleness totals, so
    batched accounting drifted from what the same live queries record
    scalar-by-scalar."""
    driver, svc, front, metrics = _stale_setup()
    verts = sorted(v for v in driver.graph.vertices())
    pairs = [(verts[i], verts[-1 - i]) for i in range(8)]
    cancel_mask = [i % 2 == 0 for i in range(8)]  # cancel half
    live = [p for p, c in zip(pairs, cancel_mask) if not c]

    # Scalar reference: the same live queries, one by one, on the same service.
    before = metrics.as_dict()
    scalar_answers = [svc.lca(a, b)[0] for a, b in live]
    scalar_delta = metrics.snapshot_delta(before)

    before = metrics.as_dict()
    results = _run_with_cancellation(front, pairs, cancel_mask)
    batched_delta = metrics.snapshot_delta(before)

    for key in ("queries_served", "snapshot_staleness_updates"):
        assert batched_delta.get(key, 0) == scalar_delta.get(key, 0), key
    assert batched_delta.get("queries_served") == len(live)
    answered = [r for r in results if isinstance(r, QueryResult)]
    assert [r.answer for r in answered] == scalar_answers


def test_flush_of_only_cancelled_queries_records_nothing():
    driver, svc, front, metrics = _stale_setup()
    verts = sorted(v for v in driver.graph.vertices())
    pairs = [(verts[0], verts[1]), (verts[2], verts[3])]
    before = metrics.as_dict()
    results = _run_with_cancellation(front, pairs, [True, True])
    delta = metrics.snapshot_delta(before)
    assert all(v == 0 for v in delta.values()), delta  # not even query_batches
    assert all(isinstance(r, asyncio.CancelledError) for r in results)
    assert front.pending == 0


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=12, deadline=None)
@given(
    mask=st.lists(st.booleans(), min_size=1, max_size=10),
    seed=st.integers(min_value=0, max_value=50),
)
def test_batched_accounting_equals_scalar_under_cancellation(mask, seed):
    """Property: for any cancellation pattern, the flush's counter deltas for
    ``queries_served`` and ``snapshot_staleness_updates`` equal what the same
    *surviving* queries record scalar-by-scalar."""
    driver, svc, front, metrics = _stale_setup(seed=seed % 7)
    rng = random.Random(seed)
    verts = sorted(v for v in driver.graph.vertices())
    pairs = [(rng.choice(verts), rng.choice(verts)) for _ in mask]
    live = [p for p, c in zip(pairs, mask) if not c]

    before = metrics.as_dict()
    scalar_answers = [svc.lca(a, b)[0] for a, b in live]
    scalar_delta = metrics.snapshot_delta(before)

    before = metrics.as_dict()
    results = _run_with_cancellation(front, pairs, mask)
    batched_delta = metrics.snapshot_delta(before)

    for key in ("queries_served", "snapshot_staleness_updates"):
        assert batched_delta.get(key, 0) == scalar_delta.get(key, 0), key
    answered = [r for r in results if isinstance(r, QueryResult)]
    assert [r.answer for r in answered] == scalar_answers


def test_degraded_batch_bumps_fallback_and_error_counters():
    """Regression companion to ``test_bad_query_fails_only_its_own_future``:
    the degraded path is now observable.  One poisoned batch = one
    ``query_batch_fallbacks`` bump; each future that still fails after the
    scalar retry = one ``query_errors`` bump.  Healthy flushes touch
    neither."""
    driver, svc, front, metrics, updates = _setup()
    driver.apply(updates[0])
    verts = list(driver.graph.vertices())

    async def run(pairs):
        futs = [front.lca(a, b) for a, b in pairs]
        return await asyncio.gather(*futs, return_exceptions=True)

    healthy = asyncio.run(run([(verts[0], verts[1]), (verts[1], verts[2])]))
    assert all(isinstance(r, QueryResult) for r in healthy)
    assert metrics["query_batch_fallbacks"] == 0
    assert metrics["query_errors"] == 0

    mixed = asyncio.run(run([(verts[0], verts[1]), (verts[0], "missing-a"),
                             (verts[1], "missing-b")]))
    assert isinstance(mixed[0], QueryResult)
    assert isinstance(mixed[1], Exception)
    assert isinstance(mixed[2], Exception)
    assert metrics["query_batch_fallbacks"] == 1
    assert metrics["query_errors"] == 2
