"""The shard worker: one tenant table, one command loop.

A worker owns every tenant placed on the shards assigned to it.  Each tenant
is one independent :class:`~repro.core.dynamic_dfs.FullyDynamicDFS` engine
(on the backend the worker is given) fronted by its own
:class:`~repro.service.DFSTreeService`, so the MVCC read path and the
amortized write path of the single-graph service carry over per tenant
unchanged.  Each *shard* gets one strict
:class:`~repro.metrics.counters.MetricsRecorder` shared by its tenants'
drivers and services; the router rolls the per-shard recorders of every
worker into a fleet view (see :func:`repro.shard.rollup_counters`).

:class:`ShardWorker` is deliberately process-agnostic — a plain object that
the router can drive **in process** (``mode="inline"``, used by tests and
platforms without ``fork``) or behind a :func:`worker_main` command loop in a
``multiprocessing`` child (``mode="process"``), one request/response pair per
command over a duplex pipe.  Both modes run the identical code, which is what
makes the cross-process determinism tests meaningful.

Drain/restore protocol: :meth:`ShardWorker.export_shard` quiesces a shard by
closing every tenant's service (the commit-listener detach fixed in this PR)
and handing back each tenant's *genesis graph + update log + current parent
map*; :meth:`ShardWorker.import_tenants` rebuilds each tenant by replaying
the log from genesis — canonical answers make the replayed parent map
byte-identical to the drained one, which the router asserts on every move.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.dynamic_dfs import FullyDynamicDFS
from repro.core.updates import Update
from repro.graph.graph import UndirectedGraph
from repro.metrics.counters import MetricsRecorder
from repro.service import DFSTreeService

TenantId = Hashable
Vertex = Hashable

__all__ = ["ShardWorker", "TenantExport", "worker_main"]

#: query kind -> (DFSTreeService batch method, takes a pair of vertex lists)
QUERY_KINDS: Dict[str, Tuple[str, bool]] = {
    "lca": ("lca_batch", True),
    "connected": ("connected_batch", True),
    "is_ancestor": ("is_ancestor_batch", True),
    "path_length": ("path_length_batch", True),
    "subtree_size": ("subtree_size_batch", False),
}


@dataclass
class TenantExport:
    """Everything needed to re-home one tenant: its genesis graph, the full
    validated update log, and the parent map it must replay back to."""

    tenant_id: TenantId
    graph: UndirectedGraph
    log: List[Update]
    parent_map: Dict[Vertex, Optional[Vertex]]


@dataclass
class _TenantRecord:
    shard_id: int
    driver: FullyDynamicDFS
    service: DFSTreeService
    genesis: UndirectedGraph
    log: List[Update] = field(default_factory=list)


class ShardWorker:
    """The tenant table of one worker (process-agnostic; see module docs).

    Parameters
    ----------
    worker_id:
        Stable id of this worker in the fleet (used in recorder names).
    backend:
        Graph store forwarded to every tenant driver (``"dict"`` /
        ``"array"`` / ``None`` = resolve ``REPRO_BACKEND`` then ``"dict"``).
    driver_options:
        Extra keyword arguments for every tenant's
        :class:`FullyDynamicDFS` (e.g. ``rebuild_every``, ``engine``).
    publish_every:
        Snapshot publication cadence of every tenant's
        :class:`DFSTreeService`.
    """

    def __init__(
        self,
        worker_id: Hashable,
        *,
        backend: Optional[str] = None,
        driver_options: Optional[dict] = None,
        publish_every: int = 1,
    ) -> None:
        self.worker_id = worker_id
        self._backend = backend
        self._driver_options = dict(driver_options or {})
        self._publish_every = publish_every
        self._tenants: Dict[TenantId, _TenantRecord] = {}
        self._recorders: Dict[int, MetricsRecorder] = {}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def tenant_count(self) -> int:
        """Number of tenants currently resident on this worker."""
        return len(self._tenants)

    def tenant_ids(self) -> List[TenantId]:
        """Resident tenant ids, in placement order."""
        return list(self._tenants)

    def shard_tenants(self, shard_id: int) -> List[TenantId]:
        """Resident tenants of one logical shard, in placement order."""
        return [t for t, rec in self._tenants.items() if rec.shard_id == shard_id]

    def _recorder(self, shard_id: int) -> MetricsRecorder:
        rec = self._recorders.get(shard_id)
        if rec is None:
            rec = MetricsRecorder(f"shard_{shard_id}@{self.worker_id}", strict=True)
            self._recorders[shard_id] = rec
        return rec

    def _record(self, tenant_id: TenantId) -> _TenantRecord:
        try:
            return self._tenants[tenant_id]
        except KeyError:
            raise KeyError(f"tenant {tenant_id!r} is not resident on worker {self.worker_id!r}") from None

    # ------------------------------------------------------------------ #
    # Tenant lifecycle
    # ------------------------------------------------------------------ #
    def create_tenant(self, shard_id: int, tenant_id: TenantId, graph: UndirectedGraph) -> int:
        """Place a new tenant graph on *shard_id*; returns the resident tenant
        count (the router's ``max_worker_tenants`` gauge)."""
        if tenant_id in self._tenants:
            raise ValueError(f"tenant {tenant_id!r} already exists on worker {self.worker_id!r}")
        metrics = self._recorder(shard_id)
        driver = FullyDynamicDFS(
            graph, backend=self._backend, metrics=metrics, **self._driver_options
        )
        service = DFSTreeService(driver, metrics=metrics, publish_every=self._publish_every)
        self._tenants[tenant_id] = _TenantRecord(
            shard_id=shard_id,
            driver=driver,
            service=service,
            genesis=graph.copy(),
        )
        return len(self._tenants)

    def apply(self, tenant_id: TenantId, updates: Sequence[Update]) -> int:
        """Apply an update batch to one tenant (appended to its replay log);
        returns the tenant's committed version.

        When an update is malformed, the updates before it stay committed
        and the batch raises; the log then holds exactly that committed
        prefix, so a replay from genesis rebuilds the committed tree."""
        record = self._record(tenant_id)
        updates = list(updates)
        before = record.service.committed_version
        try:
            record.driver.apply_all(updates)
        finally:
            record.log.extend(updates[: record.service.committed_version - before])
        return record.service.committed_version

    def apply_many(self, items: Sequence[Tuple[TenantId, Sequence[Update]]]) -> Dict[TenantId, int]:
        """Apply one batch per tenant (one command for a whole routed round);
        returns each tenant's committed version."""
        return {tenant_id: self.apply(tenant_id, updates) for tenant_id, updates in items}

    def query(
        self,
        tenant_id: TenantId,
        kind: str,
        avs: Sequence[Vertex],
        bvs: Optional[Sequence[Vertex]] = None,
    ) -> Tuple[list, int]:
        """Answer one batched snapshot query (``kind`` from
        :data:`QUERY_KINDS`) against the tenant's published snapshot; returns
        ``(answers, version)``."""
        record = self._record(tenant_id)
        try:
            method_name, pairwise = QUERY_KINDS[kind]
        except KeyError:
            raise ValueError(f"unknown query kind {kind!r}; choose from {sorted(QUERY_KINDS)}") from None
        method = getattr(record.service, method_name)
        if not pairwise:
            return method(avs)
        if bvs is None:
            raise ValueError(f"query kind {kind!r} answers pairs and needs bvs")
        return method(avs, bvs)

    def publish_now(self, tenant_id: TenantId) -> int:
        """Force-publish the tenant's current tree (no-op when already at the
        committed version); returns the published snapshot version."""
        return self._record(tenant_id).service.publish_now().version

    def parent_map(self, tenant_id: TenantId) -> Dict[Vertex, Optional[Vertex]]:
        """The tenant's *committed* parent map (from the writer's tree, not a
        possibly stale snapshot) — the byte-identity currency of the
        drain/rebalance protocol."""
        return self._record(tenant_id).driver.parent_map()

    def committed_version(self, tenant_id: TenantId) -> int:
        """Number of updates committed to this tenant so far."""
        return self._record(tenant_id).service.committed_version

    # ------------------------------------------------------------------ #
    # Drain / restore
    # ------------------------------------------------------------------ #
    def export_shard(self, shard_id: int) -> List[TenantExport]:
        """Quiesce and evict every tenant of *shard_id*: each tenant's
        service is closed (its commit listener detaches from the engine — the
        leak fixed in this PR), the tenant leaves the table, and its genesis
        graph + update log + current parent map travel to the new worker.
        The shard's recorder stays behind: counters are charged where the
        work actually ran."""
        exports: List[TenantExport] = []
        for tenant_id in self.shard_tenants(shard_id):
            record = self._tenants.pop(tenant_id)
            record.service.close()
            exports.append(
                TenantExport(
                    tenant_id=tenant_id,
                    graph=record.genesis,
                    log=list(record.log),
                    parent_map=record.driver.parent_map(),
                )
            )
        return exports

    def import_tenants(
        self, shard_id: int, exports: Sequence[TenantExport]
    ) -> Dict[TenantId, Dict[Vertex, Optional[Vertex]]]:
        """Re-home drained tenants onto *shard_id* of this worker: rebuild
        each driver from its genesis graph and replay the logged updates
        (canonical answers make the result byte-identical to the drained
        parent map — asserted by the router on every move).  Returns each
        re-homed tenant's parent map."""
        maps: Dict[TenantId, Dict[Vertex, Optional[Vertex]]] = {}
        for export in exports:
            self.create_tenant(shard_id, export.tenant_id, export.graph)
            record = self._tenants[export.tenant_id]
            if export.log:
                record.driver.apply_all(export.log)
                record.log.extend(export.log)
            maps[export.tenant_id] = record.driver.parent_map()
        return maps

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    def metrics(self) -> Dict[int, Dict[str, float]]:
        """Per-shard counter dicts (``shard_id -> as_dict()``) for the fleet
        rollup.  A shard that moved away keeps its history here; the same
        shard id may therefore report from several workers, and the rollup
        sums them."""
        return {shard_id: rec.as_dict() for shard_id, rec in self._recorders.items()}


#: Commands a worker process accepts, mapped to ShardWorker methods.
_COMMANDS = frozenset(
    {
        "tenant_count",
        "tenant_ids",
        "shard_tenants",
        "create_tenant",
        "apply",
        "apply_many",
        "query",
        "publish_now",
        "parent_map",
        "committed_version",
        "export_shard",
        "import_tenants",
        "metrics",
    }
)


def worker_main(conn, worker_id: Hashable, options: dict) -> None:
    """Command loop of a worker process: receive ``(command, args)`` pairs
    over the duplex pipe *conn*, dispatch onto a fresh :class:`ShardWorker`,
    and reply ``("ok", result)`` or ``("err", exception)``.  Exceptions are
    forwarded to the router (re-raised there); the loop itself never dies of
    a tenant error.  A ``("shutdown", ())`` message acknowledges and exits.
    """
    worker = ShardWorker(worker_id, **options)
    while True:
        try:
            command, args = conn.recv()
        except (EOFError, OSError):
            break
        if command == "shutdown":
            conn.send(("ok", None))
            break
        try:
            if command not in _COMMANDS:
                raise ValueError(f"unknown worker command {command!r}")
            result = getattr(worker, command)(*args)
            reply = ("ok", result)
        except Exception as exc:  # forwarded to the router, never fatal to the loop  # repro-lint: disable=except-swallow
            reply = ("err", exc)
        try:
            conn.send(reply)
        except Exception as exc:  # unpicklable result/exception: degrade  # repro-lint: disable=except-swallow
            conn.send(("err", RuntimeError(f"unpicklable worker reply: {exc!r}")))
