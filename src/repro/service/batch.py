"""Asyncio batching front for :class:`~repro.service.service.DFSTreeService`.

Production read traffic arrives as many tiny independent queries.  Answering
them one by one wastes the array backend's throughput — the snapshot's
``lca_batch`` answers 10^4 queries for barely more than one.  The
:class:`BatchingQueryFront` closes that gap: ``front.lca(a, b)`` parks the
query on a pending list *when it is called* and returns a plain
:class:`asyncio.Future`, and the *batch tick* (an event-loop callback —
``call_soon`` by default, ``call_later(tick)`` when a coalescing window is
configured) flushes everything that arrived in the meantime as **one
vectorized pass per query kind** over a single pinned snapshot.  The query
methods are not coroutines, so gathering a burst wraps no read in a Task;
``asyncio.ensure_future`` schedules a single read (``asyncio.create_task``
takes coroutines only).  Called with no running event loop, a query method
raises :class:`RuntimeError` and parks nothing.

Every future resolves to a :class:`QueryResult` ``(answer, version)`` — all
queries answered by one flush share the same snapshot version, so staleness
is observable per answer.  A query that raises (e.g. an unknown vertex) fails
only its own future: the flush retries the failing kind scalar-by-scalar so
one bad query cannot poison a batch.

The front is single-event-loop by design (create one per loop); the service
and its snapshots stay shareable across threads.
"""

from __future__ import annotations

import asyncio
import math
from numbers import Real
from typing import Any, Hashable, List, NamedTuple, Optional, Tuple

from repro.service.service import DFSTreeService
from repro.service.snapshot import TreeSnapshot

Vertex = Hashable

__all__ = ["BatchingQueryFront", "QueryResult"]


class QueryResult(NamedTuple):
    """One answered query: the answer plus the snapshot version it came from."""

    answer: Any
    version: int


#: kind -> (batched snapshot method name, scalar snapshot method name)
_KINDS = {
    "lca": ("lca_batch", "lca"),
    "connected": ("connected_batch", "connected"),
    "is_ancestor": ("is_ancestor_batch", "is_ancestor"),
    "subtree_size": ("subtree_size_batch", "subtree_size"),
    "path_length": ("path_length_batch", "path_length"),
}


class BatchingQueryFront:
    """Coalesces concurrent reader queries into vectorized snapshot passes.

    The query methods return futures, not coroutines (see the module
    docstring for the contract).

    Parameters
    ----------
    service:
        The :class:`DFSTreeService` to answer from.
    max_batch:
        Flush immediately once this many queries are pending (before the tick
        fires), bounding per-flush latency under heavy load.
    tick:
        Coalescing window in seconds, a finite number ``>= 0``.  ``0``
        (default) flushes on the next event-loop iteration — everything
        parked by the current burst (e.g. one ``asyncio.gather``) lands in
        one flush.

    Examples
    --------
    >>> import asyncio
    >>> from repro.core import FullyDynamicDFS
    >>> from repro.graph.generators import gnp_random_graph
    >>> from repro.service import DFSTreeService
    >>> driver = FullyDynamicDFS(gnp_random_graph(30, 0.2, seed=1, connected=True))
    >>> front = BatchingQueryFront(DFSTreeService(driver))
    >>> async def main():
    ...     burst = await asyncio.gather(
    ...         front.lca(3, 7), front.connected(0, 29), front.subtree_size(5))
    ...     single = await asyncio.ensure_future(front.lca(3, 7))
    ...     return burst, single
    >>> burst, single = asyncio.run(main())
    >>> {r.version for r in burst} == {single.version} == {front.service.version}
    True
    >>> burst[0].answer == single.answer == front.service.snapshot().lca(3, 7)
    True
    """

    def __init__(
        self,
        service: DFSTreeService,
        *,
        max_batch: int = 4096,
        tick: float = 0.0,
    ) -> None:
        if not isinstance(max_batch, int) or max_batch < 1:
            raise ValueError(f"max_batch must be a positive int, got {max_batch!r}")
        # NaN fails both comparisons; a bool is an int but not a duration.
        if isinstance(tick, bool) or not isinstance(tick, Real) or not 0 <= tick < math.inf:
            raise ValueError(f"tick must be a finite number of seconds >= 0, got {tick!r}")
        self.service = service
        self.max_batch = max_batch
        self.tick = tick
        self._pending: List[Tuple[str, tuple, asyncio.Future]] = []
        self._flush_handle: Optional[asyncio.TimerHandle] = None

    # ------------------------------------------------------------------ #
    # Query API
    # ------------------------------------------------------------------ #
    def lca(self, a: Vertex, b: Vertex) -> "asyncio.Future[QueryResult]":
        """Park the LCA of *a* and *b* now; return its future (``None`` if disconnected)."""
        return self._enqueue("lca", (a, b))

    def connected(self, a: Vertex, b: Vertex) -> "asyncio.Future[QueryResult]":
        """Park the connectivity of *a* and *b* now; return its future."""
        return self._enqueue("connected", (a, b))

    def is_ancestor(self, a: Vertex, b: Vertex) -> "asyncio.Future[QueryResult]":
        """Park the ancestor test ``a`` over ``b`` now; return its future."""
        return self._enqueue("is_ancestor", (a, b))

    def subtree_size(self, v: Vertex) -> "asyncio.Future[QueryResult]":
        """Park the subtree size of *v* now; return its future."""
        return self._enqueue("subtree_size", (v,))

    def path_length(self, a: Vertex, b: Vertex) -> "asyncio.Future[QueryResult]":
        """Park the tree-path length of *a* and *b* now; return its future
        (``None`` if disconnected)."""
        return self._enqueue("path_length", (a, b))

    @property
    def pending(self) -> int:
        """Number of queries waiting for the next flush."""
        return len(self._pending)

    def flush(self) -> None:
        """Flush the pending queries now (normally driven by the tick).

        Futures cancelled while parked (a reader timed out or its task was
        torn down) are dropped here, *before* accounting: only the queries
        actually answered count towards ``queries_served`` and the staleness
        totals, so batched accounting equals what the same live queries would
        have recorded scalar-by-scalar.  A flush whose queries were all
        cancelled records nothing."""
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        pending, self._pending = self._pending, []
        pending = [item for item in pending if not item[2].cancelled()]
        if not pending:
            return
        service = self.service
        snap = service.snapshot()
        service._note_batch(len(pending), snap)
        by_kind: dict = {}
        for item in pending:
            by_kind.setdefault(item[0], []).append(item)
        for kind, items in by_kind.items():
            self._answer_kind(snap, kind, items)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _enqueue(self, kind: str, args: tuple) -> "asyncio.Future[QueryResult]":
        loop = asyncio.get_running_loop()  # RuntimeError before anything parks
        fut: asyncio.Future = loop.create_future()
        self._pending.append((kind, args, fut))
        if len(self._pending) >= self.max_batch:
            self.flush()
        elif self._flush_handle is None:
            if self.tick <= 0:
                self._flush_handle = loop.call_soon(self._on_tick)
            else:
                self._flush_handle = loop.call_later(self.tick, self._on_tick)
        return fut

    def _on_tick(self) -> None:
        self._flush_handle = None
        self.flush()

    def _answer_kind(self, snap: TreeSnapshot, kind: str, items: list) -> None:
        batch_name, scalar_name = _KINDS[kind]
        version = snap.version
        metrics = self.service.metrics
        try:
            if kind == "subtree_size":
                answers = getattr(snap, batch_name)([args[0] for _, args, _ in items])
            else:
                avs = [args[0] for _, args, _ in items]
                bvs = [args[1] for _, args, _ in items]
                answers = getattr(snap, batch_name)(avs, bvs)
        except Exception:
            # One bad query must not poison the batch: retry scalar-by-scalar
            # so only the offending futures fail (counted so a hot path that
            # keeps degrading to scalar reads is visible on dashboards).
            metrics.inc("query_batch_fallbacks")
            scalar = getattr(snap, scalar_name)
            for _, args, fut in items:
                if fut.cancelled():
                    continue
                try:
                    fut.set_result(QueryResult(scalar(*args), version))
                except Exception as exc:
                    # The error is the caller's answer, not a swallow: it
                    # travels to exactly one awaiting reader.
                    metrics.inc("query_errors")
                    fut.set_exception(exc)
            return
        for (_, _, fut), answer in zip(items, answers):
            if not fut.cancelled():
                fut.set_result(QueryResult(answer, version))
