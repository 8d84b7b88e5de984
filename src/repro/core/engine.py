"""The shared update pipeline: :class:`UpdateEngine` over a :class:`Backend`.

Khan's framework maintains a DFS tree under updates with one conceptual
pipeline, whatever the environment:

1. **validate** the update (malformed updates raise
   :class:`~repro.exceptions.UpdateError` before any state or metric is
   touched);
2. **refresh the query-service base state** when the rebuild policy demands it
   (rebuild ``D``, snapshot the stream, rebuild the BFS/broadcast tree), or
   serve the update from the existing state plus a small overlay (Theorem 9);
3. **mutate** the graph and the backend's bookkeeping;
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

**Rebuild policy** (``rebuild_every``):

* ``1`` — rebuild the service state before every update (the classic
  behaviour of all four drivers);
* ``k > 1`` — rebuild on every ``k``-th update, serve the rest from the
  backend's overlay state;
* ``None`` — auto-tuned: rebuild when the backend's overlay grows past its
  budget (``~sqrt(2m)`` for ``D``-based backends; never, for backends whose
  overlays do not decay queries).

A backend can veto overlay service for a specific update
(:meth:`Backend.must_rebuild`, e.g. a re-used vertex id whose stale base
entries would make overlays ambiguous) and can declare that its cached state
became structurally invalid after a mutation (:meth:`Backend.cache_invalid`,
e.g. a deleted BFS-tree edge in the CONGEST backend).

**Cost-model maintenance.**  A backend may attach a
:class:`~repro.core.maintenance.MaintenanceController`; the engine then
consults it at every policy decision.  Its *cadence* models implement the
auto-tuned ``rebuild_every=None`` policy (the Theorem 9 overlay budget), and
its *forcing* models veto overlay service under any policy — the absorb-mode
rebase triggers and the CONGEST depth-drift voluntary rebuild both flow
through this single path instead of per-backend trigger plumbing.
Controller-demanded refreshes are counted under ``service_rebuilds_forced``
plus ``cost_model_triggers``.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Sequence

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
from repro.graph.validation import check_dfs_tree
from repro.metrics.counters import MetricsRecorder
from repro.tree.dfs_tree import DFSTree

Vertex = Hashable

__all__ = ["Backend", "UpdateEngine"]


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

    #: Optional cost-model maintenance controller (see
    #: :mod:`repro.core.maintenance`).  Backends that attach one report
    #: :class:`~repro.core.maintenance.CostSignal` observations in
    #: :meth:`end_update`; the engine consults the controller's cadence
    #: models under the auto-tuned policy and its forcing models under every
    #: policy.  When None, the auto-tuned policy falls back to the raw
    #: :meth:`overlay_size` / :meth:`overlay_budget` comparison (the
    #: fault-tolerant backend's never-rebuild infinite budget).
    controller = None

    # ------------------------------------------------------------------ #
    # State refresh
    # ------------------------------------------------------------------ #
    def rebuild(self, tree: DFSTree, update: Optional[Update]) -> None:
        """Bring the query-service base state up to date against *tree*.

        *update* is the update being served (``None`` for the initial build);
        ``rebuild_stage`` decides whether the graph already reflects it.
        """
        raise NotImplementedError

    def must_rebuild(self, update: Update) -> bool:
        """Backend veto: True when *update* cannot be served from overlays."""
        return False

    def cache_invalid(self, update: Update) -> bool:
        """Post-mutation check (``rebuild_stage == "post"`` only): True when
        the mutation structurally invalidated the cached state."""
        return False

    def overlay_size(self) -> int:
        """Current overlay size (drives the auto-tuned policy)."""
        return 0

    def overlay_budget(self) -> float:
        """Overlay size that triggers a rebuild under the auto-tuned policy."""
        return 0

    # ------------------------------------------------------------------ #
    # Update plumbing
    # ------------------------------------------------------------------ #
    def mutate(self, update: Update) -> None:
        """Apply *update* to the graph and the backend's bookkeeping."""
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

    @property
    def storage_backend(self) -> str:
        """Storage core of the backend's live graph: ``"array"`` when the flat
        CSR mirror is present (:class:`repro.graph.array_graph.ArrayGraph`),
        ``"dict"`` otherwise.  Purely observational — the pipeline is
        backend-agnostic and both cores maintain byte-identical trees."""
        return "array" if getattr(self.backend.graph, "is_array_backend", False) else "dict"

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
        controller = backend.controller
        if self._rebuild_every is not None:
            allowed = self._updates_since_rebuild + 1 < self._rebuild_every
        elif controller is not None:
            allowed = controller.cadence_due() is None
        else:
            allowed = backend.overlay_size() < backend.overlay_budget()
        if not allowed:
            return False
        if backend.must_rebuild(update):
            # Backend veto (re-used vertex id): the refresh happens now rather
            # than at the next cadence point.  Counted only here — a veto
            # coinciding with a cadence rebuild forced nothing extra.
            self.metrics.inc("service_rebuilds_forced")
            return False
        if controller is not None and controller.forced_due() is not None:
            # Cost-model veto (due absorb-mode rebase, accumulated broadcast
            # depth-drift cost): the excess per-update cost the cached state
            # was charging has caught up with the refresh cost it avoided.
            self.metrics.inc("service_rebuilds_forced")
            self.metrics.inc("cost_model_triggers")
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
