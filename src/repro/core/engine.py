"""The shared update pipeline: :class:`UpdateEngine` over a :class:`Backend`,
and :class:`EngineDriver`, the one public surface of the drivers built on it.

Khan's framework maintains a DFS tree under updates with one conceptual
pipeline, whatever the environment:

1. **validate** the update (malformed updates raise
   :class:`~repro.exceptions.UpdateError` before any state or metric is
   touched);
2. **refresh the query-service base state** when the rebuild policy demands it
   (rebuild ``D``, snapshot the stream, rebuild the BFS/broadcast tree), or
   serve the update from the existing state plus a small overlay (Theorem 9);
3. **mutate** the graph (always through
   :func:`~repro.core.overlay.apply_update`) and the backend's bookkeeping;
4. **reduce** the update to independent rerooting tasks (Theorem 11) using the
   backend's :class:`~repro.core.queries.QueryService`;
5. **reroot** the affected subtrees (Theorem 12) and **commit** the new tree.

Historically this pipeline was implemented four times (fully dynamic,
semi-streaming, distributed, fault tolerant), and only the in-memory driver
had the amortized ``rebuild_every`` policy.  :class:`UpdateEngine` owns the
pipeline once — validation, metrics, the rebuild policy, the reduce → reroot →
commit loop — and every environment plugs in as a small :class:`Backend`.
Because query answers are *canonical* (see
:class:`~repro.core.queries.DQueryService`), all backends and all policies
maintain byte-identical trees; the policy changes the cost, never the output.
The fully dynamic, semi-streaming and distributed drivers inherit their
update, commit-listener and read API from :class:`EngineDriver`; each adds
only its knobs, its backend and its model-specific members.

**Rebuild policy** (``rebuild_every``):

* ``1`` — rebuild the service state before every update (the classic
  behaviour of all four drivers);
* ``k > 1`` — rebuild on every ``k``-th update, serve the rest from the
  backend's overlay state;
* ``None`` — auto-tuned: rebuild when the backend says a rebuild is due
  (:meth:`Backend.rebuild_due`) — for ``D``-based backends, once the overlay
  reaches its Theorem 9 budget (``~sqrt(2m)``) or, for the in-memory ``D``
  backend, once the previous update moved the committed tree away from
  ``D``'s base tree; never, for backends without such a cadence.

Under every policy a backend can veto overlay service for a specific update
(:meth:`Backend.must_rebuild`, e.g. a re-used vertex id whose stale base
entries would make overlays ambiguous, or the CONGEST backend's accumulated
broadcast depth drift outweighing an ``O(D)`` rebuild) and can declare that
its cached state became structurally invalid after a mutation
(:meth:`Backend.cache_invalid`, e.g. a deleted BFS-tree edge in the CONGEST
backend).  Vetoes are counted under ``service_rebuilds_forced``.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence

from repro.backends import native_graph, resolve_backend
from repro.constants import VIRTUAL_ROOT, is_virtual_root
from repro.core.overlay import validate_update
from repro.core.queries import QueryService
from repro.core.reduction import reduce_update
from repro.core.reroot_parallel import ParallelRerootEngine
from repro.core.reroot_sequential import SequentialRerootEngine
from repro.core.updates import (
    EdgeDeletion,
    EdgeInsertion,
    Update,
    VertexDeletion,
    VertexInsertion,
)
from repro.exceptions import NotADFSTree
from repro.graph.graph import UndirectedGraph
from repro.graph.traversal import static_dfs_forest
from repro.graph.validation import check_dfs_tree
from repro.metrics.counters import MetricsRecorder
from repro.tree.dfs_tree import DFSTree

Vertex = Hashable

__all__ = ["Backend", "EngineDriver", "UpdateEngine"]


class Backend:
    """Environment adapter for :class:`UpdateEngine`.

    A backend owns the graph representation of its environment, the query
    service that answers the rerooting engine's edge queries, and the state
    that service is based on.  Subclasses override the hooks they need; the
    defaults describe a backend with no reusable state (every update rebuilds).

    Attributes
    ----------
    name:
        Used in metrics recorder defaults and error messages.
    supports_amortization:
        When False the engine rebuilds on every update regardless of policy
        (e.g. the brute-force oracle, which reads the live graph).
    rebuild_stage:
        ``"pre"`` — the service state is rebuilt *before* the mutation (the
        ``D``-based backends: Theorem 8 rebuilds ``D`` on the pre-update graph
        and the current tree; the update itself then enters as an overlay).
        ``"post"`` — the state is rebuilt *after* the mutation (the CONGEST
        backend: the broadcast tree must span the post-update graph).
    """

    name = "backend"
    supports_amortization = False
    rebuild_stage = "pre"

    #: The environment's live graph (mutated through :meth:`mutate` only).
    graph: UndirectedGraph

    # ------------------------------------------------------------------ #
    # State refresh
    # ------------------------------------------------------------------ #
    def rebuild(self, tree: DFSTree, update: Optional[Update]) -> None:
        """Bring the query-service base state up to date against *tree*.

        *update* is the update being served (``None`` for the initial build);
        ``rebuild_stage`` decides whether the graph already reflects it.
        """
        raise NotImplementedError

    def rebuild_due(self) -> bool:
        """Auto-tuned cadence (``rebuild_every=None``): True when the cached
        state should be refreshed before the next update.  The default never
        rebuilds."""
        return False

    def must_rebuild(self, update: Update) -> bool:
        """Veto under every policy: True when *update* must not be served from
        the cached state."""
        return False

    def cache_invalid(self, update: Update) -> bool:
        """Post-mutation check (``rebuild_stage == "post"`` only): True when
        the mutation structurally invalidated the cached state."""
        return False

    # ------------------------------------------------------------------ #
    # Update plumbing
    # ------------------------------------------------------------------ #
    def mutate(self, update: Update) -> None:
        """Apply *update* to the graph (through
        :func:`~repro.core.overlay.apply_update`) and the backend's
        bookkeeping."""
        raise NotImplementedError

    def on_mutated(self, update: Update) -> None:
        """Hook after mutation and state refresh (e.g. disseminate the update
        over the broadcast tree)."""

    def make_query_service(self, tree: DFSTree) -> QueryService:
        """The query service answering this update's edge queries against the
        current *tree*."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Per-update hooks
    # ------------------------------------------------------------------ #
    def begin_update(self, update: Update) -> None:
        """Called first, before the policy decision (snapshot counters here)."""

    def on_commit(self, tree: DFSTree) -> None:
        """Called with the committed tree (e.g. re-broadcast tree summaries)."""

    def end_update(self, update: Update) -> None:
        """Called last (flush per-update counters here)."""


class UpdateEngine:
    """Drives the shared update pipeline over a :class:`Backend`.

    Parameters
    ----------
    backend:
        The environment adapter.
    initial_tree:
        The DFS tree to start from (rooted at the virtual root).
    rebuild_every:
        The rebuild policy (see the module docstring).
    reroot_engine:
        ``"parallel"`` (the paper's engine) or ``"sequential"`` (baseline).
    validate:
        Check the maintained tree after every :meth:`apply` (and after every
        :meth:`apply_all` batch) and raise :class:`NotADFSTree` on failure.
    initial_rebuild:
        Build the service state at construction (the fault-tolerant driver
        passes False: its preprocessed ``D`` is never rebuilt).
    """

    def __init__(
        self,
        backend: Backend,
        initial_tree: DFSTree,
        *,
        rebuild_every: Optional[int] = None,
        reroot_engine: str = "parallel",
        validate: bool = False,
        metrics: Optional[MetricsRecorder] = None,
        initial_rebuild: bool = True,
    ) -> None:
        self.validate_options(reroot_engine, rebuild_every)
        self.backend = backend
        self.metrics = metrics or MetricsRecorder(backend.name)
        self._tree = initial_tree
        self._rebuild_every = rebuild_every
        self._reroot_kind = reroot_engine
        self._validate = validate
        self._updates_since_rebuild = 0
        self._updates_applied = 0
        self._commit_listeners: List[Callable[[DFSTree], None]] = []
        if initial_rebuild:
            self._do_rebuild(None)
            if self._validate:
                self._check(None)

    @staticmethod
    def validate_options(reroot_engine: str, rebuild_every: Optional[int]) -> None:
        """Reject malformed engine options.  Drivers call this *before* doing
        any per-construction work (graph copy, initial DFS), keeping the
        fail-fast contract of the update API at construction time too."""
        if reroot_engine not in ("parallel", "sequential"):
            raise ValueError(f"unknown reroot engine {reroot_engine!r}")
        if rebuild_every is not None and (not isinstance(rebuild_every, int) or rebuild_every < 1):
            raise ValueError(f"rebuild_every must be a positive int or None, got {rebuild_every!r}")

    # ------------------------------------------------------------------ #
    # Read access
    # ------------------------------------------------------------------ #
    @property
    def tree(self) -> DFSTree:
        """The current DFS tree (rooted at the virtual root)."""
        return self._tree

    @property
    def rebuild_every(self) -> Optional[int]:
        """The configured rebuild period (``None`` = auto-tuned)."""
        return self._rebuild_every

    def parent_map(self, *, include_virtual_root: bool = True) -> Dict[Vertex, Optional[Vertex]]:
        """Parent map of the maintained DFS forest."""
        parent = self._tree.parent_map()
        if include_virtual_root:
            return parent
        out: Dict[Vertex, Optional[Vertex]] = {}
        for v, p in parent.items():
            if is_virtual_root(v):
                continue
            out[v] = None if p is None or is_virtual_root(p) else p
        return out

    def roots(self) -> List[Vertex]:
        """Roots of the DFS forest (children of the virtual root)."""
        return self._tree.children(VIRTUAL_ROOT)

    def is_valid(self) -> bool:
        """True iff the maintained tree is a valid DFS forest of the graph."""
        return not check_dfs_tree(self.backend.graph, self._tree.parent_map())

    def add_commit_listener(self, listener: Callable[[DFSTree], None]) -> None:
        """Register *listener* to run after every committed update.

        The listener receives the committed :class:`DFSTree` (immutable; the
        engine never mutates a committed tree) right after
        :meth:`Backend.on_commit`, once per applied update — including updates
        that left the tree object unchanged, so listeners can count commits.
        It runs on the writer's thread: keep it O(1) (publish a pointer, bump
        a counter) and defer heavy work to readers.  This is the hook the
        MVCC snapshot service (:mod:`repro.service`) builds on.

        Listeners are *isolated*: one that raises never poisons the writer —
        the exception is swallowed (counted under ``commit_listener_errors``),
        the remaining listeners still run, and the backend's
        :meth:`Backend.end_update` is still guaranteed to run, so the update
        pipeline can never be left mid-update by a misbehaving observer.
        """
        self._commit_listeners.append(listener)

    def remove_commit_listener(self, listener: Callable[[DFSTree], None]) -> None:
        """Deregister a commit listener previously added with
        :meth:`add_commit_listener`.

        Removes one registration (matched by equality — bound methods like
        ``service._on_commit`` are a fresh object per attribute access, so an
        identity match would never fire — latest first, so a listener
        registered twice needs two removals); unknown listeners are ignored,
        which makes detach paths — e.g.
        :meth:`repro.service.DFSTreeService.close` draining a shard —
        idempotent.  Without this, a discarded service would keep receiving
        (and snapshotting) every future commit forever.
        """
        for i in range(len(self._commit_listeners) - 1, -1, -1):
            if self._commit_listeners[i] == listener:
                del self._commit_listeners[i]
                return

    @property
    def commit_listener_count(self) -> int:
        """Number of currently registered commit listeners (observability for
        detach paths: a drained service must shrink this)."""
        return len(self._commit_listeners)

    # ------------------------------------------------------------------ #
    # Update API
    # ------------------------------------------------------------------ #
    def apply(self, update: Update) -> DFSTree:
        """Apply one update and return the updated DFS tree.

        Malformed updates raise :class:`~repro.exceptions.UpdateError` *before*
        any metric, timer or graph state is touched, so failed updates never
        skew per-update counters.
        """
        validate_update(self.backend.graph, update)
        self.metrics.inc("updates")
        with self.metrics.timer("update"):
            self._apply_validated(update)
        if self._validate:
            self._check(update)
        return self._tree

    def apply_all(self, updates: Sequence[Update]) -> DFSTree:
        """Apply a whole batch of updates in one pass; returns the final tree.

        The batch is served by the amortized engine: the service state is
        rebuilt only when the rebuild policy demands it, so a batch of ``b``
        updates pays ``O(b / k)`` rebuilds rather than ``b``.  With
        ``validate=True`` the resulting tree is checked once at the end of the
        batch.
        """
        updates = list(updates)
        self.metrics.inc("update_batches")
        self.metrics.observe_max("update_batch_size", len(updates))
        with self.metrics.timer("batch_update"):
            for update in updates:
                validate_update(self.backend.graph, update)
                self.metrics.inc("updates")
                with self.metrics.timer("update"):
                    self._apply_validated(update)
        if self._validate and updates:
            self._check(updates[-1])
        return self._tree

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _policy_allows_overlay(self, update: Update) -> bool:
        """True iff this update should be served from the existing service
        state instead of a rebuild, according to the rebuild policy."""
        backend = self.backend
        if not backend.supports_amortization:
            return False
        if self._rebuild_every is not None:
            if self._updates_since_rebuild + 1 >= self._rebuild_every:
                return False
        elif backend.rebuild_due():
            return False
        if backend.must_rebuild(update):
            # The veto refreshes now rather than at the next cadence point.
            # Counted only here: a veto coinciding with a cadence rebuild
            # forced nothing extra.
            self.metrics.inc("service_rebuilds_forced")
            return False
        return True

    def _do_rebuild(self, update: Optional[Update]) -> None:
        self.backend.rebuild(self._tree, update)
        self._updates_since_rebuild = 0
        self.metrics.inc("service_rebuilds")

    def _apply_validated(self, update: Update) -> None:
        backend = self.backend
        self._updates_applied += 1
        backend.begin_update(update)
        try:
            # Everything between begin_update and end_update runs under the
            # writer protocol: whatever raises, the finally below closes the
            # backend's update so the pipeline can never be left mid-update
            # (statically enforced by repro-lint's writer-pairing rule).
            serve_overlay = self._policy_allows_overlay(update)
            rebuilt = False
            if not serve_overlay and backend.rebuild_stage == "pre":
                self._do_rebuild(update)
                rebuilt = True
            backend.mutate(update)
            if backend.rebuild_stage == "post" and (
                not serve_overlay or backend.cache_invalid(update)
            ):
                self._do_rebuild(update)
                rebuilt = True
            if not rebuilt:
                self._updates_since_rebuild += 1
                self.metrics.inc("overlay_served_updates")
            backend.on_mutated(update)

            service = backend.make_query_service(self._tree)
            reduction = reduce_update(update, self._tree, service, metrics=self.metrics)

            new_parent = self._tree.parent_map()
            for v in reduction.removed_vertices:
                new_parent.pop(v, None)
            new_parent.update(reduction.parent_overrides)
            if reduction.tasks:
                engine = self._make_reroot_engine(service)
                new_parent.update(engine.reroot_many(reduction.tasks))

            if not reduction.tree_unchanged or reduction.parent_overrides or reduction.removed_vertices:
                with self.metrics.timer("rebuild_tree"):
                    self._tree = DFSTree(new_parent, root=VIRTUAL_ROOT)
            backend.on_commit(self._tree)
            # Iterate a copy: a listener may detach itself (or another) via
            # remove_commit_listener mid-commit (e.g. DFSTreeService.close).
            for listener in tuple(self._commit_listeners):
                try:
                    listener(self._tree)
                except Exception:
                    # Listener isolation: an observer that raises must never
                    # poison the writer — the remaining listeners still run
                    # and the finally below still closes the backend's update.
                    self.metrics.inc("commit_listener_errors")
        finally:
            backend.end_update(update)

    def _make_reroot_engine(self, service: QueryService):
        if self._reroot_kind == "parallel":
            return ParallelRerootEngine(self._tree, service, metrics=self.metrics)
        return SequentialRerootEngine(self._tree, service, metrics=self.metrics)

    def _check(self, update: Optional[Update]) -> None:
        problems = check_dfs_tree(self.backend.graph, self._tree.parent_map())
        if problems:
            prefix = (
                f"after update {self._updates_applied} ({update.describe()}): "
                if update is not None
                else ""
            )
            raise NotADFSTree(prefix + "; ".join(problems[:5]))


class EngineDriver:
    """The public surface shared by the drivers built on one
    :class:`UpdateEngine`: the update API, the commit-listener API and read
    access.

    A subclass checks its knobs, calls :meth:`_start` (graph store, graph
    copy, initial DFS), then sets ``_backend`` to its :class:`Backend` and
    ``_engine`` to the :class:`UpdateEngine` over it.  Every update method
    makes exactly one call into the engine.
    """

    _backend: Backend
    _engine: UpdateEngine

    def _start(
        self,
        graph: UndirectedGraph,
        backend: Optional[str],
        metrics: Optional[MetricsRecorder],
        name: str,
    ) -> DFSTree:
        """Resolve the graph store, copy *graph* into it and run the initial
        static DFS (timed as ``initial_dfs``); returns the tree rooted at the
        virtual root."""
        self._backend_name = resolve_backend(backend)
        self._graph = native_graph(graph, self._backend_name)
        self.metrics = metrics or MetricsRecorder(name)
        with self.metrics.timer("initial_dfs"):
            parent = static_dfs_forest(self._graph)
        return DFSTree(parent, root=VIRTUAL_ROOT)

    # ------------------------------------------------------------------ #
    # Read access
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> UndirectedGraph:
        """The current graph (do not mutate it directly; use the update API)."""
        return self._graph

    @property
    def tree(self) -> DFSTree:
        """The current DFS tree (rooted at the virtual root)."""
        return self._engine.tree

    @property
    def rebuild_every(self) -> Optional[int]:
        """The configured rebuild period (``None`` = auto-tuned)."""
        return self._engine.rebuild_every

    @property
    def backend(self) -> str:
        """The resolved graph store name (``"dict"`` or ``"array"``)."""
        return self._backend_name

    @property
    def update_engine(self) -> UpdateEngine:
        """The :class:`UpdateEngine` this driver forwards to."""
        return self._engine

    def parent_map(self, *, include_virtual_root: bool = True) -> Dict[Vertex, Optional[Vertex]]:
        """Parent map of the maintained DFS forest.

        Without the virtual root, component roots map to ``None`` (a plain DFS
        forest of the graph).
        """
        return self._engine.parent_map(include_virtual_root=include_virtual_root)

    def roots(self) -> List[Vertex]:
        """Roots of the DFS forest (children of the virtual root)."""
        return self._engine.roots()

    def is_valid(self) -> bool:
        """True iff the maintained tree is currently a valid DFS forest of
        the graph."""
        return self._engine.is_valid()

    def add_commit_listener(self, listener: Callable[[DFSTree], None]) -> None:
        """Register *listener* to run with the committed tree after every
        update (the MVCC snapshot-publication hook; see
        :meth:`UpdateEngine.add_commit_listener`)."""
        self._engine.add_commit_listener(listener)

    def remove_commit_listener(self, listener: Callable[[DFSTree], None]) -> None:
        """Deregister a commit listener (the service-detach hook; unknown
        listeners are ignored — see
        :meth:`UpdateEngine.remove_commit_listener`)."""
        self._engine.remove_commit_listener(listener)

    # ------------------------------------------------------------------ #
    # Update API
    # ------------------------------------------------------------------ #
    def insert_edge(self, u: Vertex, v: Vertex) -> DFSTree:
        """Insert edge ``(u, v)`` and return the updated tree."""
        return self.apply(EdgeInsertion(u, v))

    def delete_edge(self, u: Vertex, v: Vertex) -> DFSTree:
        """Delete edge ``(u, v)`` and return the updated tree."""
        return self.apply(EdgeDeletion(u, v))

    def insert_vertex(self, v: Vertex, neighbors: Iterable[Vertex] = ()) -> DFSTree:
        """Insert vertex *v* with edges to *neighbors* and return the updated tree."""
        return self.apply(VertexInsertion(v, tuple(neighbors)))

    def delete_vertex(self, v: Vertex) -> DFSTree:
        """Delete vertex *v* (and its incident edges) and return the updated tree."""
        return self.apply(VertexDeletion(v))

    def apply(self, update: Update) -> DFSTree:
        """Apply one update and return the updated DFS tree (see
        :meth:`UpdateEngine.apply`)."""
        return self._engine.apply(update)

    def apply_all(self, updates: Sequence[Update]) -> DFSTree:
        """Apply a whole batch in one pass (batch metrics, one end-of-batch
        validation; see :meth:`UpdateEngine.apply_all`); returns the final
        tree."""
        return self._engine.apply_all(updates)


def update_words(update: Update, graph: UndirectedGraph) -> int:
    """Description size of *update* in words (for dissemination accounting).

    For a vertex deletion the size is measured on the *pre-deletion* graph
    (the incident edge list travels with the announcement).
    """
    if isinstance(update, (EdgeInsertion, EdgeDeletion)):
        return 2
    if isinstance(update, VertexInsertion):
        return 1 + len(update.neighbors)
    if isinstance(update, VertexDeletion):
        return 1 + graph.degree(update.v)
    return 1
