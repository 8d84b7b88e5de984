"""Fully dynamic DFS (Theorem 13) on the shared :class:`UpdateEngine`.

:class:`FullyDynamicDFS` maintains a DFS tree of an undirected graph under an
arbitrary online sequence of edge/vertex insertions and deletions.  Each update
is processed exactly as in the paper:

1. the update is validated and applied to the graph;
2. the data structure ``D`` is brought up to date — either by a full refresh on
   the updated graph (rebuild on the current tree, Theorem 8, or an in-place
   :meth:`~repro.core.structure_d.StructureD.absorb_overlays`), or, between
   refreshes, by recording the update as a small overlay on the existing ``D``
   (the multi-update extension of Theorem 9, shared with the fault-tolerant
   driver);
3. the reduction algorithm turns the update into independent rerooting tasks
   (Theorem 11);
4. the rerooting engine (parallel by default, sequential baseline available)
   executes the tasks (Theorem 12);
5. the tree indices are rebuilt for the next update.

The pipeline itself — validation, metrics, the rebuild policy, the
reduce → reroot → commit loop — lives in
:class:`~repro.core.engine.UpdateEngine`; this module only provides the two
in-memory backends (``D`` and the brute-force oracle).

**Rebuild policy.**  Rebuilding ``D`` costs ``O(m)`` work per update, yet
Theorem 9 answers queries correctly for up to ``k`` overlaid updates without
touching the sorted lists.  The ``rebuild_every`` knob exploits that gap:

* ``rebuild_every=1`` — classic per-update rebuild (the seed behaviour);
* ``rebuild_every=k`` — every ``k``-th update rebuilds ``D``; the ``k - 1``
  updates in between are served from overlays, so the amortized rebuild work
  drops to ``O(m / k)`` per update while every query pays ``O(k)`` extra;
* ``rebuild_every=None`` (default) — auto-tuned: ``D`` is rebuilt once the
  overlay grows past ``~sqrt(2m)`` entries, balancing rebuild work against
  per-query overlay cost under the actual churn rate.

**D maintenance.**  ``d_maintenance="rebuild"`` (default) replaces ``D``
wholesale at each refresh (``O(m)`` spike, re-based on the current tree);
``d_maintenance="absorb"`` folds the overlays into the existing sorted lists
in ``O(overlay · log deg)`` (:meth:`StructureD.absorb_overlays`), keeping the
original base tree and turning the spike into a smooth amortized cost.

Because query answers are canonical (see
:class:`repro.core.queries.DQueryService`), the maintained tree is *identical*
under every policy and maintenance mode — amortization changes the cost, not
the output.

The graph is augmented with a virtual root connected to every vertex
(implicitly), so disconnected graphs are handled transparently: the children of
the virtual root are the roots of the DFS forest.
"""

from __future__ import annotations

from math import isqrt
from typing import Dict, Hashable, Iterable, List, Optional, Sequence

from repro.backends import native_graph, resolve_backend, structure_class
from repro.constants import VIRTUAL_ROOT
from repro.core.engine import Backend, UpdateEngine
from repro.core.maintenance import CostModel, CostSignal, MaintenanceController
from repro.core.overlay import (
    apply_update,
    reused_vertex_id_needs_rebuild,
    theorem9_overlay_budget,
)
from repro.core.queries import BruteForceQueryService, DQueryService, QueryService
from repro.core.structure_d import StructureD
from repro.core.updates import (
    EdgeDeletion,
    EdgeInsertion,
    Update,
    VertexDeletion,
    VertexInsertion,
)
from repro.graph.graph import UndirectedGraph
from repro.graph.traversal import static_dfs_forest
from repro.metrics.counters import MetricsRecorder
from repro.tree.dfs_tree import DFSTree

Vertex = Hashable


class DStructureBackend(Backend):
    """In-memory backend over the data structure ``D`` (Theorems 8–9).

    ``rebuild()`` refreshes ``D`` on the *pre-update* graph and the current
    tree; the update itself then enters ``D`` as an overlay, which keeps every
    vertex of the updated graph visible to ``D`` even when the update inserts
    a vertex the current tree cannot index yet.
    """

    name = "dynamic_dfs"
    supports_amortization = True
    rebuild_stage = "pre"

    def __init__(
        self,
        graph: UndirectedGraph,
        metrics: MetricsRecorder,
        *,
        d_maintenance: str = "rebuild",
        rebase_segment_threshold: Optional[float] = None,
        structure_cls: type = StructureD,
    ) -> None:
        if d_maintenance not in ("rebuild", "absorb"):
            raise ValueError(f"unknown d_maintenance {d_maintenance!r}")
        if rebase_segment_threshold is not None and rebase_segment_threshold < 1:
            raise ValueError(
                f"rebase_segment_threshold must be >= 1 or None, got {rebase_segment_threshold!r}"
            )
        self.graph = graph
        self.metrics = metrics
        self.structure: Optional[StructureD] = None
        self._structure_cls = structure_cls
        self._d_maintenance = d_maintenance
        self._rebase_segment_threshold = rebase_segment_threshold
        # Cost-model maintenance: the Theorem 9 overlay budget drives the
        # auto-tuned rebuild cadence, and in absorb mode the rebase triggers
        # (pinned side lists, then the segment EWMA — historical priority) are
        # forcing models that veto overlay service under any policy.
        self.controller = MaintenanceController(metrics=metrics)
        self.controller.add(
            CostModel("overlay", self.overlay_budget, inclusive=True)
        )
        if d_maintenance == "absorb":
            self.controller.add(
                CostModel("pinned", self.overlay_budget, forces=True)
            )
            self.controller.add(
                CostModel("segments", self.rebase_segment_threshold, forces=True)
            )

    def rebase_segment_threshold(self) -> float:
        """Segment EWMA that triggers an absorb-mode rebase (auto ~sqrt(m))."""
        if self._rebase_segment_threshold is not None:
            return self._rebase_segment_threshold
        return float(max(4, isqrt(max(self.graph.num_edges, 1))))

    def rebase_trigger(self) -> Optional[str]:
        """Which cost model (if any) demands a full rebase of absorb-mode ``D``.

        ``"segments"`` — the per-query segment EWMA crossed the threshold: the
        frozen base tree has diverged so far from the current tree that query
        decompositions have caught up with the rebuild cost it was avoiding.
        ``"pinned"`` — the pinned cross-edge side lists outgrew the overlay
        budget: their per-query scans cost more than a rebuild.  ``None`` —
        keep absorbing.  Thin wrapper over the controller's forcing models.
        """
        if self.structure is None:
            return None
        return self.controller.forced_due()

    def rebuild(self, tree: DFSTree, update: Optional[Update]) -> None:
        self.metrics.inc("d_rebuilds")
        if self._d_maintenance == "absorb" and self.structure is not None:
            trigger = self.rebase_trigger()
            if trigger is None:
                with self.metrics.timer("build_d"):
                    self.structure.absorb_overlays()
                return
            # Adaptive rebase: replace the frozen base tree with the current
            # one (a full rebuild), resetting the segment EWMA and clearing
            # the pinned side lists.  Counted separately from routine
            # d_rebuilds so benchmarks can assert the trigger bound.
            self.metrics.inc("d_rebases")
            if trigger == "segments":
                self.metrics.inc("d_rebase_trigger_segments")
            else:
                self.metrics.inc("d_rebase_trigger_pinned")
        with self.metrics.timer("build_d"):
            self.structure = self._structure_cls(self.graph, tree, metrics=self.metrics)
        self.controller.on_refresh()

    def must_rebuild(self, update: Update) -> bool:
        # Re-used vertex ids make overlays ambiguous; the rebase triggers go
        # through the controller's forcing models instead (engine-level veto).
        return reused_vertex_id_needs_rebuild(self.structure, update)

    def overlay_size(self) -> int:
        return self.structure.overlay_size()

    def overlay_budget(self) -> float:
        return theorem9_overlay_budget(self.graph.num_edges)

    def mutate(self, update: Update) -> None:
        # Theorem 9: record the update as an overlay and answer this update's
        # queries without touching the sorted lists.
        apply_update(self.graph, update, self.structure)
        self.metrics.observe_max("overlay_size", self.structure.overlay_size())

    def make_query_service(self, tree: DFSTree) -> QueryService:
        return DQueryService(self.structure, source_tree=tree, metrics=self.metrics)

    def end_update(self, update: Update) -> None:
        # One divergence sample per update: this update's mean target
        # segments per query (see StructureD.fold_segment_sample), then the
        # structure's cost signals are reported to the controller — the
        # policy decision of the next update reads them from there.
        if self.structure is not None:
            self.structure.fold_segment_sample()
            self.metrics.set("avg_target_segments", self.structure.avg_target_segments())
            for name, value in self.structure.maintenance_signals().items():
                self.controller.report(CostSignal(name, value))


class BruteBackend(Backend):
    """Oracle backend: the adjacency-scan service reads the live graph, so
    every update "rebuilds" (there is no reusable state to amortize)."""

    name = "dynamic_dfs"
    supports_amortization = False

    def __init__(self, graph: UndirectedGraph, metrics: MetricsRecorder) -> None:
        self.graph = graph
        self.metrics = metrics

    def rebuild(self, tree: DFSTree, update: Optional[Update]) -> None:
        # The oracle scans the live graph at answer time, so there is no state
        # to construct here — only the rebuild cadence is recorded.
        self.metrics.inc("d_rebuilds")

    def mutate(self, update: Update) -> None:
        apply_update(self.graph, update)

    def make_query_service(self, tree: DFSTree) -> QueryService:
        return BruteForceQueryService(self.graph, tree, metrics=self.metrics)


class FullyDynamicDFS:
    """Maintain a DFS forest of an undirected graph under updates.

    Parameters
    ----------
    graph:
        Initial graph.  It is copied unless ``copy_graph=False``.
    backend:
        Storage core: ``"dict"`` (the reference implementation, default) or
        ``"array"`` (numpy flat/CSR core — same results byte for byte, built
        for large graphs; requires numpy).  ``None`` reads the
        ``REPRO_BACKEND`` environment variable, falling back to ``"dict"``.
        With ``backend="array"`` the input graph is converted to an
        :class:`~repro.graph.array_graph.ArrayGraph` (always a copy unless it
        already is one and ``copy_graph=False``).
    engine:
        ``"parallel"`` (the paper's algorithm) or ``"sequential"`` (the Baswana
        et al. baseline).
    service:
        ``"d"`` (data structure ``D``, default) or ``"brute"`` (adjacency scan
        oracle; used for cross-validation).
    rebuild_every:
        Rebuild policy for ``D`` (only meaningful with ``service="d"``):
        ``1`` rebuilds after every update, ``k > 1`` rebuilds on every ``k``-th
        update and serves the rest from Theorem 9 overlays, ``None`` (default)
        auto-tunes the rebuild period to keep the overlay near ``sqrt(2m)``.
    d_maintenance:
        ``"rebuild"`` (default) — each refresh constructs a fresh ``D`` on the
        current tree; ``"absorb"`` — each refresh folds the overlays into the
        existing sorted lists in place (``O(overlay · log deg)`` instead of
        ``O(m)``; the base tree stays fixed until the auto-rebase policy
        replaces it).
    rebase_segment_threshold:
        Absorb mode only.  A full rebase of ``D`` (rebuild on the current
        tree) is triggered once the EWMA of target segments per query crosses
        this value, or the pinned cross-edge side lists outgrow the overlay
        budget — bounding the per-query decomposition cost that otherwise
        grows without bound as the frozen base tree diverges.  ``None``
        (default) auto-tunes to ``~sqrt(m)``.  Counted under ``d_rebases`` /
        ``d_rebase_trigger_segments`` / ``d_rebase_trigger_pinned``.
    validate:
        Check after every update that the maintained tree is a valid DFS forest
        and raise :class:`NotADFSTree` otherwise.
    metrics:
        Optional shared recorder; every model quantity (query rounds, queries,
        traversal rounds, ``D`` rebuild work, overlay sizes, ...) is
        accumulated there.

    Examples
    --------
    >>> from repro.graph.generators import gnp_random_graph
    >>> g = gnp_random_graph(50, 0.1, seed=7, connected=True)
    >>> dyn = FullyDynamicDFS(g)
    >>> _ = dyn.delete_edge(*next(iter(g.edges())))
    >>> dyn.is_valid()
    True
    """

    def __init__(
        self,
        graph: UndirectedGraph,
        *,
        backend: Optional[str] = None,
        engine: str = "parallel",
        service: str = "d",
        rebuild_every: Optional[int] = None,
        d_maintenance: str = "rebuild",
        rebase_segment_threshold: Optional[float] = None,
        validate: bool = False,
        metrics: Optional[MetricsRecorder] = None,
        copy_graph: bool = True,
    ) -> None:
        # Fail fast on every knob before copying the graph or running the
        # initial DFS, so a bad argument never records partial work.
        backend_name = resolve_backend(backend)
        UpdateEngine.validate_options(engine, rebuild_every)
        if service not in ("d", "brute"):
            raise ValueError(f"unknown service {service!r}")
        if service == "brute" and d_maintenance != "rebuild":
            raise ValueError('d_maintenance requires service="d"')
        if rebase_segment_threshold is not None and d_maintenance != "absorb":
            raise ValueError('rebase_segment_threshold requires d_maintenance="absorb"')
        self._backend_name = backend_name
        self._graph = native_graph(graph, backend_name, copy=copy_graph)
        self.metrics = metrics or MetricsRecorder("dynamic_dfs")
        with self.metrics.timer("initial_dfs"):
            parent = static_dfs_forest(self._graph)
        tree = DFSTree(parent, root=VIRTUAL_ROOT)
        if service == "d":
            backend_impl: Backend = DStructureBackend(
                self._graph,
                self.metrics,
                d_maintenance=d_maintenance,
                rebase_segment_threshold=rebase_segment_threshold,
                structure_cls=structure_class(backend_name),
            )
        else:
            backend_impl = BruteBackend(self._graph, self.metrics)
        self._backend = backend_impl
        self._engine = UpdateEngine(
            backend_impl,
            tree,
            rebuild_every=rebuild_every,
            reroot_engine=engine,
            validate=validate,
            metrics=self.metrics,
        )

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
        """The resolved storage backend name (``"dict"`` or ``"array"``)."""
        return self._backend_name

    @property
    def update_engine(self) -> UpdateEngine:
        """The shared :class:`UpdateEngine` driving this adapter."""
        return self._engine

    def add_commit_listener(self, listener) -> None:
        """Register *listener* to run with the committed tree after every
        update (the MVCC snapshot-publication hook; see
        :meth:`UpdateEngine.add_commit_listener`)."""
        self._engine.add_commit_listener(listener)

    def remove_commit_listener(self, listener) -> None:
        """Deregister a commit listener (the service-detach hook; unknown
        listeners are ignored — see
        :meth:`UpdateEngine.remove_commit_listener`)."""
        self._engine.remove_commit_listener(listener)

    def overlay_budget(self) -> int:
        """Overlay size that triggers a rebuild under the auto-tuned policy."""
        return int(self._backend.overlay_budget())

    def rebase_segment_threshold(self) -> Optional[float]:
        """Effective absorb-mode rebase threshold (None for rebuild maintenance
        or the brute oracle, which have no frozen base tree to rebase)."""
        backend = self._backend
        if isinstance(backend, DStructureBackend) and backend._d_maintenance == "absorb":
            return backend.rebase_segment_threshold()
        return None

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
        """True iff the maintained tree is currently a valid DFS forest."""
        return self._engine.is_valid()

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
        """Apply one update and return the updated DFS tree."""
        return self._engine.apply(update)

    def apply_all(self, updates: Sequence[Update]) -> DFSTree:
        """Apply a whole batch of updates in one pass; returns the final tree."""
        return self._engine.apply_all(updates)
