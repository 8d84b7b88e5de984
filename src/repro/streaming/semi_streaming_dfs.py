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
update stream itself tells the driver exactly how the graph changed.  Under
``rebuild_every=None`` the snapshot is retaken once its Theorem 9 overlay
reaches ``~sqrt(2m)`` entries (:meth:`StreamSnapshotBackend.rebuild_due`).  The
amortized pass cost drops from ``O(log^2 n)`` per update to ``O(1/k)``, at the
price of ``O(m)`` local memory for the snapshot (no longer semi-streaming in
the strict sense; the classic ``rebuild_every=1`` default keeps the paper's
``O(n)`` space).  Because query answers are canonical, both policies maintain
byte-identical trees.

The driver inherits its update, commit-listener and read API from
:class:`~repro.core.engine.EngineDriver`.  Each update reaches the reference
graph (and the snapshot's overlays) through
:func:`~repro.core.overlay.apply_update`, and is then mirrored in the stream.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Set

from repro.backends import graph_class
from repro.core.engine import Backend, EngineDriver, UpdateEngine
from repro.core.overlay import (
    apply_update,
    reused_vertex_id_needs_rebuild,
    theorem9_overlay_budget,
)
from repro.core.queries import (
    Answer,
    DQueryService,
    EdgeQuery,
    QueryService,
    _better,
    _position_map,
    _postorder_rank,
)
from repro.core.structure_d import StructureD
from repro.core.updates import EdgeDeletion, EdgeInsertion, Update, VertexInsertion
from repro.graph.graph import UndirectedGraph
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
        self._rank = _postorder_rank(base_tree)

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
            target_pos.append(_position_map(q.target))
        if self._metrics is not None:
            self._metrics.observe_max("stream_state_entries", len(source_owner) + sum(len(t) for t in target_pos))

        def consider(qi: int, src: Vertex, tgt: Vertex) -> None:
            # Canonical tie-break (the rule DQueryService and
            # BruteForceQueryService keep): smallest current-tree post-order
            # source, so every driver maintains byte-identical trees.
            best[qi] = _better(
                target_pos[qi], queries[qi].prefer_last, best[qi], (src, tgt), source_rank=self._rank
            )

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
    ) -> None:
        super().__init__(graph, stream, vertices, metrics)
        self.structure: Optional[StructureD] = None
        # Snapshot graph store: the array backend materialises each stream
        # pass straight into an ArrayGraph.
        self._graph_cls = graph_cls

    def rebuild(self, tree: DFSTree, update: Optional[Update]) -> None:
        self.metrics.inc("d_rebuilds")
        with self.metrics.timer("build_d"):
            # One pass materialises the edge set; StructureD sorts it by the
            # current tree's post-order numbers (Theorem 8 on a snapshot).
            snapshot = self._graph_cls(vertices=list(self.vertices), edges=self.stream.pass_over())
            self.structure = StructureD(snapshot, tree, metrics=self.metrics)

    def rebuild_due(self) -> bool:
        # One snapshot pass per refresh amortizes against the per-query
        # overlay scans a stale snapshot charges: re-snapshot once the
        # Theorem 9 overlay fills its budget.
        return self.structure.overlay_size() >= theorem9_overlay_budget(self.stream.num_edges)

    def must_rebuild(self, update: Update) -> bool:
        return reused_vertex_id_needs_rebuild(self.structure, update)

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
    """Apply *update* to the reference graph and (when amortizing) the
    snapshot's Theorem 9 overlays through :func:`apply_update`, then mirror
    it in the stream and the vertex set.  An inserted vertex streams the
    graph's normalised neighbour set (no repeats, no self loop)."""
    apply_update(graph, update, structure)
    if isinstance(update, EdgeInsertion):
        stream.insert_edge(update.u, update.v)
    elif isinstance(update, EdgeDeletion):
        stream.delete_edge(update.u, update.v)
    elif isinstance(update, VertexInsertion):
        vertices.add(update.v)
        for w in graph.neighbors(update.v):
            stream.insert_edge(update.v, w)
    else:  # VertexDeletion: apply_update rejected every other type
        vertices.discard(update.v)
        stream.delete_vertex_edges(update.v)


class SemiStreamingDynamicDFS(EngineDriver):
    """Maintain a DFS forest with ``O(n)`` memory and stream passes only.

    The update, commit-listener and read API come from
    :class:`~repro.core.engine.EngineDriver`; :attr:`graph` is the reference
    graph, used only for the initial DFS, update validation and tree checks.
    Every update edits the stream first, then repairs the tree: an edge
    insertion costs ``O(1)`` passes amortized (``stream_passes``, or
    :attr:`passes`), a vertex insertion appends its edges to the stream, and
    a vertex deletion removes every incident stream edge.

    Parameters
    ----------
    rebuild_every:
        ``1`` (default) — the paper's pass-per-query-batch algorithm in
        ``O(n)`` space.  ``k > 1`` or ``None`` — the amortized hybrid: a
        one-pass snapshot of the stream into ``D`` every ``k``-th update
        (``None`` auto-tunes on the overlay budget), zero passes in between,
        ``O(m)`` local memory.  Both policies maintain identical trees.
    backend:
        Graph store for the reference graph and (in the amortized hybrid)
        the stream snapshots: ``"dict"`` (default), ``"array"``
        (:class:`~repro.graph.array_graph.ArrayGraph`, byte-identical trees)
        or ``None`` to read ``REPRO_BACKEND``.  The classic
        ``rebuild_every=1`` algorithm keeps no snapshot and builds no ``D``,
        so there the knob changes only the reference graph's class.
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
        UpdateEngine.validate_options("parallel", rebuild_every)  # fail fast
        tree = self._start(graph, backend, metrics, "semi_streaming_dfs")
        self._stream = EdgeStream.from_graph(graph, metrics=self.metrics)
        self._vertices = set(graph.vertices())
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
            )
        self._engine = UpdateEngine(
            self._backend,
            tree,
            rebuild_every=rebuild_every,
            validate=validate,
            metrics=self.metrics,
        )

    @property
    def passes(self) -> int:
        """Total number of stream passes performed so far."""
        return self._stream.passes

    @property
    def stream(self) -> EdgeStream:
        """The underlying edge stream."""
        return self._stream

    def local_space(self) -> int:
        """Vertices of state kept between passes: ``O(n)`` for the classic
        policy, plus the ``O(m)`` snapshot in the amortized hybrid."""
        extra = getattr(self._backend, "structure", None)
        return self._engine.tree.num_vertices + (extra.size() if extra is not None else 0)
