"""Fault tolerant DFS (Theorem 14) on the shared :class:`UpdateEngine`.

The graph is preprocessed **once**: the initial DFS forest ``T_0`` and the data
structure ``D`` (built on ``T_0``) are stored.  A query then supplies a batch of
``k`` updates (failures and/or insertions); the answer is a DFS tree of the
updated graph, computed *without ever rebuilding* ``D``:

* updates are recorded as overlays on ``D`` (deleted edges/vertices are masked,
  inserted edges/vertices get small side lists — Theorem 9);
* the intermediate trees ``T*_1, ..., T*_k`` are computed one after another
  with the parallel rerooting engine;
* every query the engine makes against a path of ``T*_{i-1}`` is decomposed by
  the query service into ancestor–descendant segments of ``T_0`` — the number
  of segments per query is the quantity that grows like ``O(log^{2(i-1)} n)``
  and gives Theorem 14 its ``k``-dependent exponent.  The per-query segment
  counts are recorded in the metrics so benchmark E2 can reproduce that growth.

In :class:`~repro.core.engine.UpdateEngine` terms the driver is simply the
``D`` pipeline with a *never-rebuild* policy: the backend keeps the default
:meth:`~repro.core.engine.Backend.rebuild_due` (never) and never vetoes, so
every update of a query batch is overlay-served against the preprocessed
structure.  Because the preprocessed state is never modified
(overlays are reset after each query), :meth:`FaultTolerantDFS.query` may be
called any number of times with independent update batches, exactly like a
fault-tolerant data structure.
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence, Tuple

from repro.backends import native_graph, resolve_backend
from repro.constants import VIRTUAL_ROOT
from repro.core.engine import Backend, UpdateEngine
from repro.core.overlay import apply_update
from repro.core.queries import DQueryService, QueryService
from repro.core.structure_d import StructureD
from repro.core.updates import Update
from repro.graph.graph import UndirectedGraph
from repro.graph.traversal import static_dfs_forest
from repro.metrics.counters import MetricsRecorder
from repro.tree.dfs_tree import DFSTree

Vertex = Hashable


class _PreprocessedDBackend(Backend):
    """Backend over a preprocessed ``D`` that is never rebuilt (Theorem 9
    with unbounded ``k``): every update is overlay-served."""

    name = "fault_tolerant_dfs"
    supports_amortization = True

    def __init__(
        self, graph: UndirectedGraph, structure: StructureD, metrics: MetricsRecorder
    ) -> None:
        self.graph = graph
        self.structure = structure
        self.metrics = metrics

    def rebuild(self, tree: DFSTree, update: Optional[Update]) -> None:  # pragma: no cover
        raise AssertionError("the fault-tolerant backend never rebuilds D")

    def mutate(self, update: Update) -> None:
        # Shared overlay bookkeeping (also used by FullyDynamicDFS between
        # amortized rebuilds): mutate the working graph and record the update
        # on the preprocessed D (Theorem 9).
        apply_update(self.graph, update, self.structure)

    def make_query_service(self, tree: DFSTree) -> QueryService:
        return DQueryService(self.structure, source_tree=tree, metrics=self.metrics)

    def begin_update(self, update: Update) -> None:
        self.metrics.inc("ft_updates")


class FaultTolerantDFS:
    """Preprocess a graph once; answer DFS trees for arbitrary update batches.

    Parameters
    ----------
    graph:
        The graph to preprocess (copied).
    backend:
        Graph store: ``"dict"`` (default), ``"array"``
        (:class:`~repro.graph.array_graph.ArrayGraph`, byte-identical
        answers) or ``None`` to read the ``REPRO_BACKEND`` environment
        variable.  Both build the same ``D``.
    validate:
        Check every produced tree with the DFS validator (tests enable this).
    metrics:
        Optional shared recorder.

    Examples
    --------
    >>> from repro.graph.generators import gnp_random_graph
    >>> from repro.core.updates import EdgeDeletion
    >>> g = gnp_random_graph(40, 0.15, seed=3, connected=True)
    >>> ft = FaultTolerantDFS(g)
    >>> e = next(iter(g.edges()))
    >>> tree = ft.query([EdgeDeletion(*e)])
    >>> tree.num_vertices == g.num_vertices + 1  # + virtual root
    True
    """

    def __init__(
        self,
        graph: UndirectedGraph,
        *,
        backend: Optional[str] = None,
        validate: bool = False,
        metrics: Optional[MetricsRecorder] = None,
    ) -> None:
        self._backend_name = resolve_backend(backend)
        self._graph0 = native_graph(graph, self._backend_name, copy=True)
        self._validate = validate
        self._commit_listeners: list = []
        self.metrics = metrics or MetricsRecorder("fault_tolerant_dfs")
        with self.metrics.timer("preprocess"):
            parent = static_dfs_forest(self._graph0)
            self._tree0 = DFSTree(parent, root=VIRTUAL_ROOT)
            self._structure = StructureD(self._graph0, self._tree0, metrics=self.metrics)

    # ------------------------------------------------------------------ #
    @property
    def backend(self) -> str:
        """The resolved graph store name (``"dict"`` or ``"array"``)."""
        return self._backend_name

    @property
    def base_tree(self) -> DFSTree:
        """The preprocessed DFS tree ``T_0``."""
        return self._tree0

    @property
    def structure(self) -> StructureD:
        """The preprocessed data structure ``D`` (never rebuilt)."""
        return self._structure

    def structure_size(self) -> int:
        """Size of the preprocessed structure (``O(m)``)."""
        return self._structure.size()

    def add_commit_listener(self, listener) -> None:
        """Register *listener* to run with each tree committed while a query
        replays its update batch (the MVCC snapshot-publication hook).  This
        driver builds a fresh throwaway engine per :meth:`query`, so listeners
        are stored here and re-registered on every query's engine; versions
        keep increasing monotonically across queries."""
        self._commit_listeners.append(listener)

    def remove_commit_listener(self, listener) -> None:
        """Deregister a commit listener (the service-detach hook): future
        :meth:`query` engines no longer re-register it.  Unknown listeners
        are ignored, keeping detach idempotent."""
        for i in range(len(self._commit_listeners) - 1, -1, -1):
            if self._commit_listeners[i] == listener:
                del self._commit_listeners[i]
                return

    # ------------------------------------------------------------------ #
    def query(self, updates: Sequence[Update]) -> DFSTree:
        """Return a DFS tree of ``graph + updates`` using only the preprocessed
        data (Theorem 14).  *updates* are applied in order."""
        tree, _ = self.query_with_graph(updates)
        return tree

    def query_with_graph(self, updates: Sequence[Update]) -> Tuple[DFSTree, UndirectedGraph]:
        """Like :meth:`query` but also returns the updated graph (useful for
        validation and for the examples)."""
        self.metrics.inc("ft_queries")
        self.metrics.observe_max("ft_batch_size", len(updates))
        graph = self._graph0.copy()
        self._structure.reset_overlays()
        backend = _PreprocessedDBackend(graph, self._structure, self.metrics)
        engine = UpdateEngine(
            backend,
            self._tree0,
            rebuild_every=None,  # the backend's rebuild_due() is never true
            validate=self._validate,
            metrics=self.metrics,
            initial_rebuild=False,
        )
        for listener in self._commit_listeners:
            engine.add_commit_listener(listener)
        try:
            for update in updates:
                engine.apply(update)
        finally:
            # The preprocessed structure must stay pristine for the next query.
            self._structure.reset_overlays()
        return engine.tree, graph
