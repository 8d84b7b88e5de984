"""Semi-streaming fully dynamic DFS (Theorem 15) on the shared
:class:`~repro.core.engine.UpdateEngine`.

The classic algorithm stores only the current tree ``T``, the partially built
tree ``T*`` and ``O(n)`` per-query state; the graph's edges are accessible
solely through :class:`~repro.streaming.stream.EdgeStream` passes.  All tree
operations are local; every batch of independent queries the rerooting engine
asks for is answered by **one pass** over the stream (each query keeps exactly
one candidate edge — its best-so-far — so the extra space is one edge per
query, ``O(n)`` in total).  The per-update pass count is therefore the number
of query batches, which the paper bounds by ``O(log^2 n)``.

**Amortized policy.**  With ``rebuild_every=k > 1`` (or ``None``) the driver
trades local memory for passes: every ``k``-th update *snapshots* the stream
into the data structure ``D`` with a single pass, and the updates in between
are served from ``D`` plus Theorem 9 overlays with **zero** passes — the
update stream itself tells the driver exactly how the graph changed.  The
amortized pass cost drops from ``O(log^2 n)`` per update to ``O(1/k)``, at the
price of ``O(m)`` local memory for the snapshot (no longer semi-streaming in
the strict sense; the classic ``rebuild_every=1`` default keeps the paper's
``O(n)`` space).  Because query answers are canonical, both policies maintain
byte-identical trees.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set

from repro.backends import graph_class, native_graph, resolve_backend, structure_class
from repro.constants import VIRTUAL_ROOT
from repro.core.engine import Backend, UpdateEngine
from repro.core.maintenance import CostModel, CostSignal, MaintenanceController
from repro.core.overlay import reused_vertex_id_needs_rebuild, theorem9_overlay_budget
from repro.core.queries import Answer, DQueryService, EdgeQuery, QueryService
from repro.core.structure_d import StructureD
from repro.core.updates import (
    EdgeDeletion,
    EdgeInsertion,
    Update,
    VertexDeletion,
    VertexInsertion,
)
from repro.exceptions import UpdateError
from repro.graph.graph import UndirectedGraph
from repro.graph.traversal import static_dfs_forest
from repro.metrics.counters import MetricsRecorder
from repro.streaming.stream import EdgeStream
from repro.tree.dfs_tree import DFSTree

Vertex = Hashable


class StreamQueryService(QueryService):
    """Answers a batch of independent edge queries with a single stream pass.

    For every query the service keeps one best-so-far edge; when the pass ends,
    the per-query candidates are the answers.  Because the queries of a batch
    have disjoint source pieces, a reverse index ``vertex -> query`` fits in
    ``O(n)`` space.  Ties on the target position are broken towards the source
    with the smallest current-tree post-order number — the same canonical rule
    as :class:`~repro.core.queries.DQueryService`, so every driver and policy
    maintains byte-identical trees.
    """

    def __init__(
        self,
        stream: EdgeStream,
        base_tree: DFSTree,
        *,
        metrics: Optional[MetricsRecorder] = None,
    ) -> None:
        self._stream = stream
        self._tree = base_tree
        self._metrics = metrics

    def answer_batch(self, queries: Sequence[EdgeQuery]) -> List[Answer]:
        if self._metrics is not None:
            self._metrics.inc("query_batches")
            self._metrics.inc("queries", len(queries))
        if not queries:
            return []

        # O(n) working state: one source-owner entry per vertex (sources are
        # disjoint across independent queries) and per-query target positions.
        source_owner: Dict[Vertex, int] = {}
        target_pos: List[Dict[Vertex, int]] = []
        best: List[Answer] = [None] * len(queries)
        for qi, q in enumerate(queries):
            for v in q.source_vertex_list(self._tree):
                source_owner[v] = qi
            target_pos.append({v: i for i, v in enumerate(q.target)})
        if self._metrics is not None:
            self._metrics.observe_max("stream_state_entries", len(source_owner) + sum(len(t) for t in target_pos))

        tree = self._tree

        def rank(v: Vertex) -> int:
            return tree.postorder(v) if v in tree else (1 << 60)

        def consider(qi: int, src: Vertex, tgt: Vertex) -> None:
            q = queries[qi]
            pos = target_pos[qi]
            cur = best[qi]
            p = pos[tgt]
            if cur is None:
                best[qi] = (src, tgt)
                return
            cur_p = pos[cur[1]]
            if (q.prefer_last and p > cur_p) or (not q.prefer_last and p < cur_p):
                best[qi] = (src, tgt)
            elif p == cur_p and rank(src) < rank(cur[0]):
                # Canonical tie-break (same rule as DQueryService /
                # BruteForceQueryService): smallest current-tree post-order
                # source, so every driver maintains byte-identical trees.
                best[qi] = (src, tgt)

        for u, v in self._stream.pass_over():
            qi = source_owner.get(u)
            if qi is not None and v in target_pos[qi]:
                consider(qi, u, v)
            qj = source_owner.get(v)
            if qj is not None and u in target_pos[qj]:
                consider(qj, v, u)
        return best


class _StreamBackendBase(Backend):
    """Shared stream bookkeeping: per-update pass accounting hooks."""

    name = "semi_streaming_dfs"

    def __init__(
        self,
        graph: UndirectedGraph,
        stream: EdgeStream,
        vertices: Set[Vertex],
        metrics: MetricsRecorder,
    ) -> None:
        self.graph = graph
        self.stream = stream
        self.vertices = vertices
        self.metrics = metrics
        self._passes_before = 0

    def begin_update(self, update: Update) -> None:
        self._passes_before = self.stream.passes

    def end_update(self, update: Update) -> None:
        self.metrics.observe_max("passes_per_update", self.stream.passes - self._passes_before)


class StreamPassBackend(_StreamBackendBase):
    """Classic semi-streaming backend: ``O(n)`` state, one pass per query
    batch, no reusable service state (every update "rebuilds" trivially)."""

    supports_amortization = False

    def rebuild(self, tree: DFSTree, update: Optional[Update]) -> None:
        pass  # the per-pass query state is rebuilt inside every answer_batch

    def mutate(self, update: Update) -> None:
        _mutate_stream(self.graph, self.stream, self.vertices, update)

    def make_query_service(self, tree: DFSTree) -> QueryService:
        return StreamQueryService(self.stream, tree, metrics=self.metrics)


class StreamSnapshotBackend(_StreamBackendBase):
    """Amortized streaming backend: every rebuild snapshots the stream into
    ``D`` with one pass; overlay-served updates between rebuilds cost zero
    passes (the update API tells the backend exactly how the stream changed)."""

    supports_amortization = True
    rebuild_stage = "pre"

    def __init__(
        self,
        graph: UndirectedGraph,
        stream: EdgeStream,
        vertices: Set[Vertex],
        metrics: MetricsRecorder,
        *,
        graph_cls: type = UndirectedGraph,
        structure_cls: type = StructureD,
    ) -> None:
        super().__init__(graph, stream, vertices, metrics)
        self.structure: Optional[StructureD] = None
        # Snapshot representation: the array backend materialises each stream
        # pass straight into an ArrayGraph/ArrayStructureD pair.
        self._graph_cls = graph_cls
        self._structure_cls = structure_cls
        # The snapshot policy on the shared cost-model controller: one
        # snapshot pass per refresh amortizes against the per-query overlay
        # scans the stale snapshot charges, so the cadence model re-snapshots
        # exactly when the Theorem 9 overlay outgrows its budget.
        self.controller = MaintenanceController(metrics=metrics)
        self.controller.add(CostModel("overlay", self.overlay_budget, inclusive=True))

    def rebuild(self, tree: DFSTree, update: Optional[Update]) -> None:
        self.metrics.inc("d_rebuilds")
        with self.metrics.timer("build_d"):
            # One pass materialises the edge set; StructureD sorts it by the
            # current tree's post-order numbers (Theorem 8 on a snapshot).
            snapshot = self._graph_cls(vertices=list(self.vertices), edges=self.stream.pass_over())
            self.structure = self._structure_cls(snapshot, tree, metrics=self.metrics)
        self.controller.on_refresh()

    def must_rebuild(self, update: Update) -> bool:
        return reused_vertex_id_needs_rebuild(self.structure, update)

    def end_update(self, update: Update) -> None:
        super().end_update(update)
        if self.structure is not None:
            self.controller.report(CostSignal("overlay", float(self.structure.overlay_size())))

    def overlay_size(self) -> int:
        return self.structure.overlay_size()

    def overlay_budget(self) -> float:
        return theorem9_overlay_budget(self.stream.num_edges)

    def mutate(self, update: Update) -> None:
        _mutate_stream(self.graph, self.stream, self.vertices, update, self.structure)
        self.metrics.observe_max("overlay_size", self.structure.overlay_size())

    def make_query_service(self, tree: DFSTree) -> QueryService:
        return DQueryService(self.structure, source_tree=tree, metrics=self.metrics)


def _mutate_stream(
    graph: UndirectedGraph,
    stream: EdgeStream,
    vertices: Set[Vertex],
    update: Update,
    structure: Optional[StructureD] = None,
) -> None:
    """Apply *update* to the reference graph, the stream, the vertex set and
    (when amortizing) the snapshot's Theorem 9 overlays."""
    if isinstance(update, EdgeInsertion):
        graph.add_edge(update.u, update.v)
        stream.insert_edge(update.u, update.v)
        if structure is not None:
            structure.note_edge_inserted(update.u, update.v)
    elif isinstance(update, EdgeDeletion):
        graph.remove_edge(update.u, update.v)
        stream.delete_edge(update.u, update.v)
        if structure is not None:
            structure.note_edge_deleted(update.u, update.v)
    elif isinstance(update, VertexInsertion):
        graph.add_vertex_with_edges(update.v, update.neighbors)
        vertices.add(update.v)
        for w in update.neighbors:
            stream.insert_edge(update.v, w)
        if structure is not None:
            structure.note_vertex_inserted(update.v, update.neighbors)
    elif isinstance(update, VertexDeletion):
        graph.remove_vertex(update.v)
        vertices.discard(update.v)
        stream.delete_vertex_edges(update.v)
        if structure is not None:
            structure.note_vertex_deleted(update.v)
    else:
        raise UpdateError(f"unknown update type {update!r}")


class SemiStreamingDynamicDFS:
    """Maintain a DFS forest with ``O(n)`` memory and stream passes only.

    The public update API mirrors :class:`~repro.core.dynamic_dfs.FullyDynamicDFS`;
    per-update pass counts are available from ``metrics["stream_passes"]`` (or
    via the convenience property :attr:`passes`).

    Parameters
    ----------
    rebuild_every:
        ``1`` (default) — the paper's pass-per-query-batch algorithm in
        ``O(n)`` space.  ``k > 1`` or ``None`` — the amortized hybrid: a
        one-pass snapshot of the stream into ``D`` every ``k``-th update
        (``None`` auto-tunes on the overlay budget), zero passes in between,
        ``O(m)`` local memory.  Both policies maintain identical trees.
    backend:
        Storage core for the reference graph and (in the amortized hybrid)
        the stream snapshots: ``"dict"`` (default), ``"array"`` (numpy
        flat/CSR core, byte-identical trees) or ``None`` to read
        ``REPRO_BACKEND``.  The classic ``rebuild_every=1`` algorithm keeps
        no snapshot, so there the knob only accelerates the initial DFS.
    """

    def __init__(
        self,
        graph: UndirectedGraph,
        *,
        rebuild_every: Optional[int] = 1,
        backend: Optional[str] = None,
        validate: bool = False,
        metrics: Optional[MetricsRecorder] = None,
    ) -> None:
        self._backend_name = resolve_backend(backend)
        UpdateEngine.validate_options("parallel", rebuild_every)  # fail fast
        self.metrics = metrics or MetricsRecorder("semi_streaming_dfs")
        # The "reference" graph exists only for the initial DFS, update
        # validation and tree checks; the algorithm itself touches edges only
        # through the stream.
        self._graph = native_graph(graph, self._backend_name, copy=True)
        self._stream = EdgeStream.from_graph(graph, metrics=self.metrics)
        self._vertices = set(graph.vertices())
        with self.metrics.timer("initial_dfs"):
            parent = static_dfs_forest(self._graph)
        tree = DFSTree(parent, root=VIRTUAL_ROOT)
        if rebuild_every == 1:
            self._backend: _StreamBackendBase = StreamPassBackend(
                self._graph, self._stream, self._vertices, self.metrics
            )
        else:
            self._backend = StreamSnapshotBackend(
                self._graph,
                self._stream,
                self._vertices,
                self.metrics,
                graph_cls=graph_class(self._backend_name),
                structure_cls=structure_class(self._backend_name),
            )
        self._engine = UpdateEngine(
            self._backend,
            tree,
            rebuild_every=rebuild_every,
            validate=validate,
            metrics=self.metrics,
        )

    # ------------------------------------------------------------------ #
    @property
    def tree(self) -> DFSTree:
        """The current DFS forest."""
        return self._engine.tree

    @property
    def passes(self) -> int:
        """Total number of stream passes performed so far."""
        return self._stream.passes

    @property
    def stream(self) -> EdgeStream:
        """The underlying edge stream."""
        return self._stream

    @property
    def rebuild_every(self) -> Optional[int]:
        """The configured rebuild policy (``1`` = classic pass-based)."""
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

    def local_space(self) -> int:
        """Vertices of state kept between passes: ``O(n)`` for the classic
        policy, plus the ``O(m)`` snapshot in the amortized hybrid."""
        extra = getattr(self._backend, "structure", None)
        return self._engine.tree.num_vertices + (extra.size() if extra is not None else 0)

    def is_valid(self) -> bool:
        """Validate the maintained forest against the reference graph."""
        return self._engine.is_valid()

    def parent_map(self, **kwargs) -> Dict[Vertex, Optional[Vertex]]:
        """Parent map of the maintained DFS forest."""
        return self._engine.parent_map(**kwargs)

    # ------------------------------------------------------------------ #
    def insert_edge(self, u: Vertex, v: Vertex) -> DFSTree:
        """Insert edge ``(u, v)`` (``O(1)`` passes amortized; ``stream_passes``)."""
        return self.apply(EdgeInsertion(u, v))

    def delete_edge(self, u: Vertex, v: Vertex) -> DFSTree:
        """Delete edge ``(u, v)`` from the stream and repair the tree."""
        return self.apply(EdgeDeletion(u, v))

    def insert_vertex(self, v: Vertex, neighbors: Iterable[Vertex] = ()) -> DFSTree:
        """Insert vertex *v* with *neighbors* appended to the stream."""
        return self.apply(VertexInsertion(v, tuple(neighbors)))

    def delete_vertex(self, v: Vertex) -> DFSTree:
        """Delete vertex *v* and every incident stream edge."""
        return self.apply(VertexDeletion(v))

    def apply(self, update: Update) -> DFSTree:
        """Apply one update; the stream is updated first, then the tree."""
        return self._engine.apply(update)

    def apply_all(self, updates: Sequence[Update]) -> DFSTree:
        """Apply a whole batch through the shared engine (batch metrics, one
        end-of-batch validation)."""
        return self._engine.apply_all(updates)
