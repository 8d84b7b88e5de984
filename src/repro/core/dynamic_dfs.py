"""Fully dynamic DFS (Theorem 13) on the shared :class:`UpdateEngine`.

:class:`FullyDynamicDFS` maintains a DFS tree of an undirected graph under an
arbitrary online sequence of edge/vertex insertions and deletions.  Each update
is processed exactly as in the paper:

1. the update is validated and applied to the graph (through
   :func:`~repro.core.overlay.apply_update`, as in every driver);
2. the data structure ``D`` is brought up to date — either by a rebuild on
   the current tree (Theorem 8), or, between rebuilds, by recording the update
   as a small overlay on the existing ``D`` (the multi-update extension of
   Theorem 9, shared with the fault-tolerant driver);
3. the reduction algorithm turns the update into independent rerooting tasks
   (Theorem 11);
4. the rerooting engine (parallel by default, sequential baseline available)
   executes the tasks (Theorem 12);
5. the tree indices are rebuilt for the next update.

The pipeline itself — validation, metrics, the rebuild policy, the
reduce → reroot → commit loop — lives in
:class:`~repro.core.engine.UpdateEngine`, and the driver's update and read
API in :class:`~repro.core.engine.EngineDriver`; this module only provides the
two in-memory backends (``D`` and the brute-force oracle) and the driver's
knobs.

**Rebuild policy.**  Rebuilding ``D`` costs ``O(m)`` work per update, yet
Theorem 9 answers queries correctly for up to ``k`` overlaid updates without
touching the sorted lists.  The ``rebuild_every`` knob exploits that gap:

* ``rebuild_every=1`` — classic per-update rebuild (the seed behaviour);
* ``rebuild_every=k`` — every ``k``-th update rebuilds ``D``; the ``k - 1``
  updates in between are served from overlays, so the amortized rebuild work
  drops to ``O(m / k)`` per update while every query pays ``O(k)`` extra;
* ``rebuild_every=None`` (default) — auto-tuned: ``D`` is rebuilt before an
  update when the previous update moved the committed tree, or once the
  overlay grows past ``~sqrt(2m)`` entries.  Updates that keep the tree ride
  overlays on a base tree that still equals the current tree, so every query
  takes the direct range search of Theorem 8 and only tree-moving updates pay
  the ``O(m)`` rebuild.

Because query answers are canonical (see
:class:`repro.core.queries.DQueryService`), the maintained tree is *identical*
under every policy — amortization changes the cost, not the output.

The graph is augmented with a virtual root connected to every vertex
(implicitly), so disconnected graphs are handled transparently: the children of
the virtual root are the roots of the DFS forest.
"""

from __future__ import annotations

from typing import Optional

from repro.core.engine import Backend, EngineDriver, UpdateEngine
from repro.core.overlay import (
    apply_update,
    reused_vertex_id_needs_rebuild,
    theorem9_overlay_budget,
)
from repro.core.queries import BruteForceQueryService, DQueryService, QueryService
from repro.core.structure_d import StructureD
from repro.core.updates import Update
from repro.graph.graph import UndirectedGraph
from repro.metrics.counters import MetricsRecorder
from repro.tree.dfs_tree import DFSTree


class DStructureBackend(Backend):
    """In-memory backend over the data structure ``D`` (Theorems 8–9).

    ``rebuild()`` refreshes ``D`` on the *pre-update* graph and the current
    tree; the update itself then enters ``D`` as an overlay, which keeps every
    vertex of the updated graph visible to ``D`` even when the update inserts
    a vertex the current tree cannot index yet.

    Under ``rebuild_every=None``, :meth:`rebuild_due` asks for a rebuild once
    the overlay reaches its Theorem 9 budget or the committed tree has moved
    away from ``D``'s base tree (counted under ``d_stale_rebuilds``);
    :meth:`must_rebuild` vetoes overlay service for a re-used vertex id.
    """

    name = "dynamic_dfs"
    supports_amortization = True
    rebuild_stage = "pre"

    def __init__(self, graph: UndirectedGraph, metrics: MetricsRecorder) -> None:
        self.graph = graph
        self.metrics = metrics
        self.structure: Optional[StructureD] = None
        # True while the committed tree is not D's base tree (set on commit,
        # cleared when a rebuild re-bases D on the current tree).
        self._tree_moved = False

    def rebuild(self, tree: DFSTree, update: Optional[Update]) -> None:
        self.metrics.inc("d_rebuilds")
        if self._tree_moved:
            self.metrics.inc("d_stale_rebuilds")
            self._tree_moved = False
        with self.metrics.timer("build_d"):
            self.structure = StructureD(self.graph, tree, metrics=self.metrics)

    def rebuild_due(self) -> bool:
        # Rebuild D once the overlay fills the Theorem 9 budget, or once the
        # committed tree moves away from D's base tree: D on the current tree
        # answers every query by the direct range search (Theorem 8), while a
        # stale one pays the role-reversed sweep on every query (Theorem 9).
        return self._tree_moved or self.structure.overlay_size() >= self.overlay_budget()

    def must_rebuild(self, update: Update) -> bool:
        # Re-used vertex ids make overlays ambiguous.
        return reused_vertex_id_needs_rebuild(self.structure, update)

    def overlay_budget(self) -> float:
        return theorem9_overlay_budget(self.graph.num_edges)

    def mutate(self, update: Update) -> None:
        # Theorem 9: record the update as an overlay and answer this update's
        # queries without touching the sorted lists.
        apply_update(self.graph, update, self.structure)
        self.metrics.observe_max("overlay_size", self.structure.overlay_size())

    def make_query_service(self, tree: DFSTree) -> QueryService:
        return DQueryService(self.structure, source_tree=tree, metrics=self.metrics)

    def on_commit(self, tree: DFSTree) -> None:
        # The engine keeps the tree object when an update leaves the tree
        # unchanged, so identity tells whether D's base tree is still current.
        self._tree_moved = tree is not self.structure.base_tree


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


class FullyDynamicDFS(EngineDriver):
    """Maintain a DFS forest of an undirected graph under updates.

    The update, commit-listener and read API come from
    :class:`~repro.core.engine.EngineDriver`; this class adds the in-memory
    knobs and :meth:`overlay_budget`.

    Parameters
    ----------
    graph:
        Initial graph.  It is copied into the graph store.
    backend:
        Graph store: ``"dict"`` (the reference store, default) or ``"array"``
        (the input graph is converted to an
        :class:`~repro.graph.array_graph.ArrayGraph`, whose half-edge mirror
        speeds up the traversals — same results byte for byte).  Both build
        the same ``D``.  ``None`` reads the ``REPRO_BACKEND`` environment
        variable, falling back to ``"dict"``.
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
        rebuilds before an update whenever the previous update moved the
        committed tree or the overlay reached ``~sqrt(2m)`` entries.  Rebuilds
        that replaced a stale base tree are counted under
        ``d_stale_rebuilds``.
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
        validate: bool = False,
        metrics: Optional[MetricsRecorder] = None,
    ) -> None:
        # Fail fast on every knob before copying the graph or running the
        # initial DFS, so a bad argument never records partial work.
        UpdateEngine.validate_options(engine, rebuild_every)
        if service not in ("d", "brute"):
            raise ValueError(f"unknown service {service!r}")
        tree = self._start(graph, backend, metrics, "dynamic_dfs")
        if service == "d":
            self._backend = DStructureBackend(self._graph, self.metrics)
        else:
            self._backend = BruteBackend(self._graph, self.metrics)
        self._engine = UpdateEngine(
            self._backend,
            tree,
            rebuild_every=rebuild_every,
            reroot_engine=engine,
            validate=validate,
            metrics=self.metrics,
        )

    def overlay_budget(self) -> int:
        """Overlay size that triggers a rebuild under the auto-tuned policy
        (``0`` with ``service="brute"``, which keeps no overlay)."""
        if isinstance(self._backend, BruteBackend):
            return 0
        return int(self._backend.overlay_budget())
