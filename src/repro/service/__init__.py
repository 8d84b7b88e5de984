"""MVCC snapshot query service for dynamic DFS trees.

The writer (any of the four drivers, all running one
:class:`~repro.core.engine.UpdateEngine`) keeps committing updates; on each
commit :class:`DFSTreeService` publishes an immutable versioned
:class:`TreeSnapshot` by an atomic pointer swap, and unboundedly many readers
answer LCA / path / connectivity / subtree-size / is-ancestor queries against
the last published version with zero locks and zero writer coordination.
:class:`BatchingQueryFront` fronts the service with an asyncio layer that
coalesces queries arriving within a tick into one vectorized pass over the
snapshot arrays; its query methods park a query when called and return a
plain :class:`asyncio.Future`, so a gathered burst creates no Task.  See
``docs/architecture.md`` ("Query service").
"""

from repro.service.batch import BatchingQueryFront, QueryResult
from repro.service.service import DFSTreeService
from repro.service.snapshot import TreeSnapshot

__all__ = ["BatchingQueryFront", "DFSTreeService", "QueryResult", "TreeSnapshot"]
