"""The shard router: one fleet, many tenants, many workers.

:class:`ShardRouter` is the multi-tenant front of the engine: it owns a pool
of workers (``multiprocessing`` children by default, in-process objects with
``mode="inline"``), places every tenant graph onto a logical shard by stable
hash, maps shards onto workers through a consistent-hash ring
(:mod:`repro.shard.placement`), and forwards update batches and snapshot
queries to the owning worker.  Each worker runs the unmodified single-graph
stack per tenant — :class:`~repro.core.dynamic_dfs.FullyDynamicDFS` under a
:class:`~repro.service.DFSTreeService` — so everything the repo guarantees
for one graph (canonical byte-identical trees, MVCC reads, strict metrics)
holds per tenant, and the router only adds placement, transport and rollup.

**Rebalance.**  :meth:`move_shard` drains a shard on its current worker
(every tenant's service is closed — the detach path fixed in this PR — and
its genesis graph + update log travel out) and replays it on the target
worker; the parent map of every moved tenant is asserted byte-identical
before and after the move (canonical answers make replay exact, not
approximate).  :meth:`drain_worker` removes a worker from the ring and moves
all of its shards to the survivors.

**Fleet metrics.**  Every shard has its own strict
:class:`~repro.metrics.counters.MetricsRecorder` inside its worker; the
router's :meth:`fleet_metrics` rolls all of them (plus its own routing
counters) into one view with :func:`rollup_counters` — the strict
``WELL_KNOWN_COUNTERS`` registry is what makes blind aggregation safe: every
key is known, ``max_``-prefixed keys take the maximum, everything else sums.
"""

from __future__ import annotations

import multiprocessing
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.core.updates import Update
from repro.exceptions import WorkerDied
from repro.graph.graph import UndirectedGraph
from repro.metrics.counters import WELL_KNOWN_COUNTERS, MetricsRecorder
from repro.shard.placement import HashRing, shard_of_tenant
from repro.shard.worker import ShardWorker, worker_main

TenantId = Hashable
Vertex = Hashable

__all__ = ["ShardRouter", "rollup_counters"]


def rollup_counters(dicts: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """Fold per-shard counter dicts into one fleet view.

    Aggregation is driven by the ``WELL_KNOWN_COUNTERS`` registry contract:
    every key must be registered (the per-shard recorders are strict, so an
    unknown key here is a programming error and raises ``KeyError``),
    ``max_``-prefixed keys keep the maximum across shards, and every other
    key (counts, work, accumulated timers) sums.  Gauges recorded with
    :meth:`~repro.metrics.counters.MetricsRecorder.set` sum too — meaningful
    per shard, not across the fleet; read them from
    :meth:`ShardRouter.shard_metrics` instead.
    """
    out: Dict[str, float] = {}
    for counters in dicts:
        for key, value in counters.items():
            if key not in WELL_KNOWN_COUNTERS and not (
                key.startswith("max_") and key[4:] in WELL_KNOWN_COUNTERS
            ):
                raise KeyError(
                    f"counter {key!r} is not registered in WELL_KNOWN_COUNTERS; "
                    "the fleet rollup only aggregates registered counters"
                )
            if key.startswith("max_"):
                out[key] = max(out.get(key, float("-inf")), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


class _InlineWorker:
    """In-process worker handle: dispatch is a direct method call.  ``send``
    runs the command eagerly and parks the outcome for ``recv``, so the
    send-all/recv-all pattern of the router works identically (minus the
    parallelism)."""

    def __init__(self, worker_id: Hashable, options: dict) -> None:
        self.worker_id = worker_id
        self._worker = ShardWorker(worker_id, **options)
        self._outcomes: List[Tuple[bool, object]] = []

    def send(self, command: str, args: tuple) -> None:
        try:
            self._outcomes.append((True, getattr(self._worker, command)(*args)))
        except Exception as exc:  # re-raised by recv(), mirroring the pipe protocol  # repro-lint: disable=except-swallow
            self._outcomes.append((False, exc))

    def recv(self):
        ok, payload = self._outcomes.pop(0)
        if not ok:
            raise payload
        return payload

    def request(self, command: str, args: tuple = ()):
        self.send(command, args)
        return self.recv()

    def shutdown(self) -> None:
        self._outcomes.clear()


class _ProcessWorker:
    """Handle to a ``multiprocessing`` worker running :func:`worker_main`
    behind a duplex pipe.  One in-flight request per worker (the router sends
    to many workers before collecting, which is where fleet parallelism
    comes from)."""

    def __init__(self, worker_id: Hashable, options: dict, ctx) -> None:
        self.worker_id = worker_id
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self._conn = parent_conn
        self._process = ctx.Process(
            target=worker_main,
            args=(child_conn, worker_id, options),
            name=f"repro-shard-worker-{worker_id}",
            daemon=True,
        )
        self._process.start()
        child_conn.close()

    def send(self, command: str, args: tuple) -> None:
        try:
            self._conn.send((command, args))
        except OSError as exc:  # BrokenPipeError: no process reads the pipe
            raise WorkerDied(self.worker_id) from exc

    def recv(self):
        try:
            status, payload = self._conn.recv()
        except (EOFError, OSError) as exc:  # the process closed the pipe
            raise WorkerDied(self.worker_id) from exc
        if status == "err":
            raise payload
        return payload

    def request(self, command: str, args: tuple = ()):
        self.send(command, args)
        return self.recv()

    def shutdown(self) -> None:
        try:
            self.request("shutdown")
        except WorkerDied:
            pass
        self._conn.close()
        self._process.join(timeout=5)
        if self._process.is_alive():  # pragma: no cover - defensive
            self._process.terminate()
            self._process.join(timeout=5)


class ShardRouter:
    """Routes tenants onto a worker fleet with consistent-hash placement.

    Parameters
    ----------
    num_workers:
        Size of the worker pool (ids ``0 .. num_workers-1``).
    num_shards:
        Number of logical shards — the unit of placement and rebalance.
        Fixed for the life of the fleet; choose a small multiple of the
        worker count (the default 16 suits up to ~8 workers).
    mode:
        ``"process"`` (default) — each worker is a ``multiprocessing`` child
        driven over a pipe; ``"inline"`` — workers are plain objects in this
        process (no parallelism, identical semantics; used by tests and
        platforms without a usable start method).
    backend, driver_options, publish_every:
        Forwarded to every tenant's driver/service (see
        :class:`~repro.shard.worker.ShardWorker`).
    metrics:
        Optional strict-safe recorder for the router's own routing counters
        (``shard_*``; a private one is created otherwise).
    mp_context:
        ``multiprocessing`` start method (name or context object).  Default:
        ``"fork"`` where available (cheap, inherits the parent's imports),
        else ``"spawn"``.
    """

    def __init__(
        self,
        *,
        num_workers: int = 2,
        num_shards: int = 16,
        mode: str = "process",
        backend: Optional[str] = None,
        driver_options: Optional[dict] = None,
        publish_every: int = 1,
        metrics: Optional[MetricsRecorder] = None,
        mp_context=None,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers!r}")
        if num_shards < num_workers:
            raise ValueError(
                f"num_shards ({num_shards!r}) must be >= num_workers ({num_workers!r})"
            )
        if mode not in ("process", "inline"):
            raise ValueError(f"unknown mode {mode!r}; choose 'process' or 'inline'")
        self.num_shards = num_shards
        self.mode = mode
        self.metrics = metrics or MetricsRecorder("shard_router", strict=True)
        options = {
            "backend": backend,
            "driver_options": dict(driver_options or {}),
            "publish_every": publish_every,
        }
        self._workers: Dict[Hashable, object] = {}
        if mode == "process":
            if mp_context is None or isinstance(mp_context, str):
                methods = multiprocessing.get_all_start_methods()
                name = mp_context or ("fork" if "fork" in methods else "spawn")
                ctx = multiprocessing.get_context(name)
            else:
                ctx = mp_context
            for wid in range(num_workers):
                self._workers[wid] = _ProcessWorker(wid, options, ctx)
        else:
            for wid in range(num_workers):
                self._workers[wid] = _InlineWorker(wid, options)
        self._ring = HashRing(list(self._workers))
        self._placement: Dict[int, Hashable] = {
            shard: self._ring.node_for(("shard", shard)) for shard in range(num_shards)
        }
        self._tenant_shard: Dict[TenantId, int] = {}
        self._closed = False

    # ------------------------------------------------------------------ #
    # Placement
    # ------------------------------------------------------------------ #
    def shard_of(self, tenant_id: TenantId) -> int:
        """The logical shard owning *tenant_id* (stable hash; see
        :func:`repro.shard.placement.shard_of_tenant`)."""
        return shard_of_tenant(tenant_id, self.num_shards)

    def worker_of_shard(self, shard_id: int) -> Hashable:
        """The worker currently hosting *shard_id* (ring placement plus any
        explicit moves)."""
        return self._placement[shard_id]

    def worker_of_tenant(self, tenant_id: TenantId) -> Hashable:
        """The worker currently hosting *tenant_id*."""
        return self._placement[self.shard_of(tenant_id)]

    def workers(self) -> List[Hashable]:
        """The worker ids of the fleet (drained workers included)."""
        return list(self._workers)

    def tenants(self) -> List[TenantId]:
        """Every tenant id ever placed, in placement order."""
        return list(self._tenant_shard)

    def _handle(self, worker_id: Hashable):
        return self._workers[worker_id]

    def _tenant_handle(self, tenant_id: TenantId):
        if tenant_id not in self._tenant_shard:
            raise KeyError(f"unknown tenant {tenant_id!r}")
        return self._handle(self.worker_of_tenant(tenant_id))

    # ------------------------------------------------------------------ #
    # Tenant API
    # ------------------------------------------------------------------ #
    def create_tenant(self, tenant_id: TenantId, graph: UndirectedGraph) -> Hashable:
        """Place a new tenant graph on the fleet; returns the hosting worker
        id.  The graph is copied into the worker (the caller's object is
        never mutated)."""
        if tenant_id in self._tenant_shard:
            raise ValueError(f"tenant {tenant_id!r} already exists")
        shard = self.shard_of(tenant_id)
        worker_id = self._placement[shard]
        resident = self._handle(worker_id).request("create_tenant", (shard, tenant_id, graph))
        self._tenant_shard[tenant_id] = shard
        self.metrics.inc("shard_tenants_created")
        self.metrics.observe_max("worker_tenants", resident)
        return worker_id

    def apply(self, tenant_id: TenantId, updates: Sequence[Update]) -> int:
        """Apply an update batch to one tenant; returns its committed
        version."""
        updates = list(updates)
        version = self._tenant_handle(tenant_id).request("apply", (tenant_id, updates))
        self.metrics.inc("shard_update_batches_routed")
        self.metrics.inc("shard_updates_routed", len(updates))
        return version

    def apply_many(
        self, items: Sequence[Tuple[TenantId, Sequence[Update]]]
    ) -> Dict[TenantId, int]:
        """Apply one batch per tenant across the fleet: batches are grouped
        by owning worker and each worker receives *one* command for all of
        its tenants — workers execute concurrently in process mode (this is
        the fleet's aggregate-throughput path).  Returns each tenant's
        committed version."""
        by_worker: Dict[Hashable, List[Tuple[TenantId, List[Update]]]] = {}
        total = 0
        for tenant_id, updates in items:
            if tenant_id not in self._tenant_shard:
                raise KeyError(f"unknown tenant {tenant_id!r}")
            updates = list(updates)
            total += len(updates)
            by_worker.setdefault(self.worker_of_tenant(tenant_id), []).append(
                (tenant_id, updates)
            )
        # Send everything first, then collect: process workers overlap.  A
        # worker whose send failed has no reply to read; every other one's
        # reply is read before the first error is raised, so no stale reply
        # is left in a live worker's pipe.
        errors: List[Exception] = []
        sent = []
        for worker_id, worker_items in by_worker.items():
            try:
                self._handle(worker_id).send("apply_many", (worker_items,))
            except WorkerDied as exc:
                errors.append(exc)
            else:
                sent.append(worker_id)
        versions: Dict[TenantId, int] = {}
        for worker_id in sent:
            try:
                versions.update(self._handle(worker_id).recv())
            except Exception as exc:  # re-raised after the drain so pipes stay in sync  # repro-lint: disable=except-swallow
                errors.append(exc)
        if errors:
            raise errors[0]
        self.metrics.inc("shard_update_batches_routed", len(items))
        self.metrics.inc("shard_updates_routed", total)
        return versions

    def query(
        self,
        tenant_id: TenantId,
        kind: str,
        avs: Sequence[Vertex],
        bvs: Optional[Sequence[Vertex]] = None,
    ) -> Tuple[list, int]:
        """Answer one batched snapshot query (``kind`` in
        :data:`~repro.shard.worker.QUERY_KINDS`) against the tenant's
        published snapshot; returns ``(answers, version)``."""
        result = self._tenant_handle(tenant_id).request(
            "query", (tenant_id, kind, list(avs), None if bvs is None else list(bvs))
        )
        self.metrics.inc("shard_query_batches_routed")
        return result

    def publish_now(self, tenant_id: TenantId) -> int:
        """Force-publish the tenant's current tree; returns its version."""
        return self._tenant_handle(tenant_id).request("publish_now", (tenant_id,))

    def parent_map(self, tenant_id: TenantId) -> Dict[Vertex, Optional[Vertex]]:
        """The tenant's committed parent map (fetched from its worker)."""
        return self._tenant_handle(tenant_id).request("parent_map", (tenant_id,))

    def committed_version(self, tenant_id: TenantId) -> int:
        """Number of updates committed to this tenant so far."""
        return self._tenant_handle(tenant_id).request("committed_version", (tenant_id,))

    # ------------------------------------------------------------------ #
    # Rebalance
    # ------------------------------------------------------------------ #
    def move_shard(self, shard_id: int, worker_id: Hashable) -> int:
        """Gracefully move one shard to *worker_id*: quiesce (the router is
        the only writer and stops routing during the move), drain every
        tenant on the old worker (services closed, genesis + update log
        exported), replay on the new worker, and assert each tenant's parent
        map byte-identical before and after.  Returns the number of tenants
        moved (0 moves — including a move onto the current worker — are
        no-ops)."""
        if not 0 <= shard_id < self.num_shards:
            raise ValueError(f"shard_id must be in [0, {self.num_shards}), got {shard_id!r}")
        if worker_id not in self._workers:
            raise KeyError(f"unknown worker {worker_id!r}")
        source = self._placement[shard_id]
        if source == worker_id:
            return 0
        exports = self._handle(source).request("export_shard", (shard_id,))
        self._placement[shard_id] = worker_id
        if not exports:
            return 0
        replayed = self._handle(worker_id).request("import_tenants", (shard_id, exports))
        for export in exports:
            if replayed[export.tenant_id] != export.parent_map:
                raise RuntimeError(
                    f"shard move lost determinism: tenant {export.tenant_id!r} "
                    f"replayed to a different parent map on worker {worker_id!r}"
                )
        self.metrics.inc("shard_moves")
        self.metrics.inc("shard_tenants_moved", len(exports))
        self.metrics.inc("shard_replayed_updates", sum(len(e.log) for e in exports))
        return len(exports)

    def drain_worker(self, worker_id: Hashable) -> int:
        """Remove *worker_id* from the placement ring and move all of its
        shards to the surviving workers (ring placement decides the
        targets).  The drained worker stays in the fleet for metrics history
        but receives no new placements.  Returns the number of tenants
        moved."""
        if worker_id not in self._workers:
            raise KeyError(f"unknown worker {worker_id!r}")
        if worker_id not in self._ring.nodes:
            raise ValueError(f"worker {worker_id!r} is already drained")
        if len(self._ring.nodes) == 1:
            raise ValueError("cannot drain the last worker on the ring")
        self._ring.remove_node(worker_id)
        moved = 0
        for shard_id, owner in sorted(self._placement.items()):
            if owner == worker_id:
                moved += self.move_shard(shard_id, self._ring.node_for(("shard", shard_id)))
        return moved

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    def shard_metrics(self) -> Dict[int, Dict[str, float]]:
        """Per-shard counter dicts, merged across workers (a shard that moved
        reports the sum of its history on every worker it lived on)."""
        merged: Dict[int, List[Dict[str, float]]] = {}
        for handle in self._workers.values():
            for shard_id, counters in handle.request("metrics").items():
                merged.setdefault(shard_id, []).append(counters)
        return {shard_id: rollup_counters(parts) for shard_id, parts in sorted(merged.items())}

    def fleet_metrics(self) -> Dict[str, float]:
        """The fleet view: every shard recorder on every worker plus the
        router's own routing counters, rolled up via
        :func:`rollup_counters`."""
        parts: List[Dict[str, float]] = [self.metrics.as_dict()]
        for handle in self._workers.values():
            parts.extend(handle.request("metrics").values())
        return rollup_counters(parts)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut every worker down (idempotent).  Process workers receive a
        shutdown command and are joined; tenant state is discarded."""
        if self._closed:
            return
        self._closed = True
        for handle in self._workers.values():
            handle.shutdown()

    def __enter__(self) -> "ShardRouter":
        """Context-manager entry: the router itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: :meth:`close` the fleet."""
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ShardRouter(workers={len(self._workers)}, shards={self.num_shards}, "
            f"tenants={len(self._tenant_shard)}, mode={self.mode!r})"
        )
