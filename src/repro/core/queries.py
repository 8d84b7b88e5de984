"""Query abstraction shared by the parallel, streaming and distributed engines.

The rerooting algorithm interacts with non-tree edges *only* through queries of
the form "among all edges between this unvisited piece and that path of the
partially built tree ``T*``, return the edge incident nearest to one end of the
path" (Section 2 of the paper).  The engines express those queries as
:class:`EdgeQuery` objects and submit them in *batches of independent queries*
(disjoint source pieces) to a :class:`QueryService`:

* :class:`DQueryService` answers a batch from the in-memory data structure
  ``D`` (the parallel / PRAM setting; one batch = one round of parallel
  queries, Theorem 8);
* :class:`repro.streaming.semi_streaming_dfs.StreamQueryService` answers a
  batch with a single pass over the edge stream (Theorem 15);
* :class:`repro.distributed.distributed_dfs.DistributedQueryService` answers a
  batch with one pipelined broadcast/convergecast over the network
  (Theorem 16);
* :class:`BruteForceQueryService` is the oracle used by tests to cross-check
  the fast implementations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import InvariantViolation
from repro.graph.graph import UndirectedGraph
from repro.metrics.counters import MetricsRecorder
from repro.tree.dfs_tree import DFSTree
from repro.tree.tree_utils import ancestor_descendant_segments, run_orientation, segment_orientation, vertical_runs

Vertex = Hashable
Answer = Optional[Tuple[Vertex, Vertex]]  # (source endpoint, target/path endpoint)
#: A source piece as ``(top, bottom)`` vertical runs of ``D``'s base tree,
#: with its membership test.
SourceRuns = Tuple[List[Tuple[Vertex, Vertex]], Callable[[Vertex], bool]]


@dataclass
class EdgeQuery:
    """One "lowest/highest edge from a piece to a path" query.

    Attributes
    ----------
    source_kind:
        ``"tree"`` — the piece is the full subtree of the base tree rooted at
        ``source_root``; ``"path"`` — the piece is the ancestor–descendant path
        ``source_vertices`` of the base tree; ``"vertices"`` — an explicit
        (small) vertex set.
    source_root:
        Root of the subtree piece (``source_kind == "tree"``).
    source_vertices:
        Vertices of the path / explicit piece (ordered along the path for
        ``"path"``).
    target:
        Ordered vertex list of the target path.  For queries against the newly
        traversed path of ``T*`` the order is shallow → deep in ``T*``; for
        queries against a component path ``p_c`` it is simply the path order.
    prefer_last:
        When True the answer is the edge whose target endpoint is nearest to
        ``target[-1]`` (the *lowest* edge for a ``T*`` path listed shallow →
        deep); otherwise nearest to ``target[0]``.
    """

    source_kind: str
    target: Tuple[Vertex, ...]
    prefer_last: bool = True
    source_root: Optional[Vertex] = None
    source_vertices: Tuple[Vertex, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.source_kind not in ("tree", "path", "vertices"):
            raise ValueError(f"unknown source kind {self.source_kind!r}")
        if self.source_kind == "tree" and self.source_root is None:
            raise ValueError("tree queries need source_root")
        if self.source_kind in ("path", "vertices") and not self.source_vertices:
            raise ValueError(f"{self.source_kind} queries need source_vertices")
        self.target = tuple(self.target)
        self.source_vertices = tuple(self.source_vertices)

    # Convenience constructors --------------------------------------------------
    @classmethod
    def from_tree(cls, root: Vertex, target: Sequence[Vertex], *, prefer_last: bool = True) -> "EdgeQuery":
        """Query from the subtree ``T(root)`` of the base tree."""
        return cls("tree", tuple(target), prefer_last, source_root=root)

    @classmethod
    def from_path(cls, path_vertices: Sequence[Vertex], target: Sequence[Vertex], *, prefer_last: bool = True) -> "EdgeQuery":
        """Query from an ancestor–descendant path piece."""
        return cls("path", tuple(target), prefer_last, source_vertices=tuple(path_vertices))

    @classmethod
    def from_vertices(cls, vertices: Sequence[Vertex], target: Sequence[Vertex], *, prefer_last: bool = True) -> "EdgeQuery":
        """Query from an explicit vertex set (used for single vertices)."""
        return cls("vertices", tuple(target), prefer_last, source_vertices=tuple(vertices))

    def source_vertex_list(self, base_tree: DFSTree) -> List[Vertex]:
        """Materialise the source piece as a vertex list."""
        if self.source_kind == "tree":
            return base_tree.subtree_vertices(self.source_root)
        return list(self.source_vertices)


class QueryService:
    """Interface: answer a batch of *independent* :class:`EdgeQuery` objects.

    One call corresponds to one parallel query round / streaming pass /
    broadcast round, depending on the environment.
    """

    def answer_batch(self, queries: Sequence[EdgeQuery]) -> List[Answer]:
        raise NotImplementedError

    def answer(self, query: EdgeQuery) -> Answer:
        """Convenience wrapper for a single query."""
        return self.answer_batch([query])[0]


def _position_map(target: Sequence[Vertex]) -> Dict[Vertex, int]:
    return {v: i for i, v in enumerate(target)}


def _postorder_rank(tree: DFSTree) -> Callable[[Vertex], int]:
    """The canonical ``source_rank`` for :func:`_better`: a source's
    post-order number in *tree*; a vertex outside *tree* ranks last."""

    def rank(v: Vertex) -> int:
        return tree.postorder(v) if v in tree else (1 << 60)

    return rank


def _better(
    pos: Dict[Vertex, int],
    prefer_last: bool,
    a: Answer,
    b: Answer,
    source_rank=None,
) -> Answer:
    """Pick the answer whose target endpoint is nearer the preferred end.

    When *source_rank* (a ``vertex -> sortable`` callable) is given, ties on
    the target position are broken towards the smaller source rank — the hook
    the oracle service uses to produce canonical answers directly.
    """
    if a is None:
        return b
    if b is None:
        return a
    pa, pb = pos[a[1]], pos[b[1]]
    if pa == pb and source_rank is not None:
        return a if source_rank(a[0]) <= source_rank(b[0]) else b
    if prefer_last:
        return a if pa >= pb else b
    return a if pa <= pb else b


class BruteForceQueryService(QueryService):
    """Oracle service: scans the adjacency of every source vertex.

    Used by the tests to validate :class:`DQueryService` and the streaming /
    distributed services; also a perfectly good (if slower) production fallback.
    """

    def __init__(self, graph: UndirectedGraph, base_tree: DFSTree, *, metrics: Optional[MetricsRecorder] = None) -> None:
        self._graph = graph
        self._tree = base_tree
        self._metrics = metrics
        self._rank = _postorder_rank(base_tree)

    def answer_batch(self, queries: Sequence[EdgeQuery]) -> List[Answer]:
        if self._metrics is not None:
            self._metrics.inc("query_batches")
            self._metrics.inc("queries", len(queries))
        return [self._answer_one(q) for q in queries]

    def _answer_one(self, q: EdgeQuery) -> Answer:
        pos = _position_map(q.target)
        best: Answer = None
        for u in q.source_vertex_list(self._tree):
            if not self._graph.has_vertex(u):
                continue
            for w in self._graph.neighbors(u):
                if w in pos:
                    best = _better(pos, q.prefer_last, best, (u, w), source_rank=self._rank)
        return best


class _Segment:
    """One maximal ancestor–descendant run of a target path in ``D``'s base
    tree, with what every range search against it needs: its vertices, its
    ends as tree indices, the bottom's post-order number and, per preferred
    end of the target (indexed by ``prefer_last``), whether the search
    prefers the bottom."""

    __slots__ = ("vertices", "top", "bottom", "bottom_post", "prefer_bottom")

    def __init__(self, tree: DFSTree, vertices: Sequence[Vertex], first: int, last: int) -> None:
        self.vertices = vertices
        self.top, self.bottom = run_orientation(tree, first, last)
        self.bottom_post = tree._post[self.bottom]
        # Positions on the target path are monotone inside a segment, so a
        # query preferring the target's last (first) vertex prefers the
        # segment's bottom exactly when its last (first) vertex is the bottom.
        self.prefer_bottom = (first == self.bottom, last == self.bottom)


class _TargetPlan:
    """What the queries on one target need from ``D``'s base tree.

    A pure function of the base tree and the target, so
    :meth:`DQueryService.answer_batch` builds it once per distinct target
    object and every query of the batch on that target reuses it: the
    position map, the target vertices the base tree does not know (inserted
    since ``D`` was built), the maximal ancestor–descendant segments of the
    others — both lists in target order — and, per preferred end (indexed
    by ``prefer_last``), the segments in preference order.  Each target
    vertex is resolved once, through the tree's id dict.
    """

    __slots__ = ("pos", "unknown", "segments", "orders")

    def __init__(self, tree: DFSTree, target: Sequence[Vertex]) -> None:
        self.pos = _position_map(target)
        index = list(map(tree._idx.get, target, repeat(-1)))
        known, self.unknown = target, []
        if -1 in index:
            known = [v for v, i in zip(target, index) if i >= 0]
            self.unknown = [v for v, i in zip(target, index) if i < 0]
            index = [i for i in index if i >= 0]
        self.segments = [
            _Segment(tree, known[start:stop], index[start], index[stop - 1])
            for start, stop in vertical_runs(tree, index)
        ]
        self.orders = (self.segments, self.segments[::-1])


class _Tally:
    """The counts of one :meth:`DQueryService.answer_batch` call, summed here
    and recorded once instead of one counter call per query and per range
    search."""

    __slots__ = ("queries", "segments", "max_segments", "searches", "probes", "reanchors", "reanchor_probes")

    def __init__(self) -> None:
        self.queries = self.segments = self.max_segments = 0
        self.searches = self.probes = 0
        self.reanchors = self.reanchor_probes = 0


class DQueryService(QueryService):
    """Answers query batches from the data structure ``D`` (Theorems 8–9).

    The target path is decomposed into maximal ancestor–descendant segments of
    ``D``'s base tree (a constant number for the fully dynamic algorithm, up to
    ``O(log^2 n)`` per elapsed update for the fault-tolerant / amortized
    setting — Theorem 9); inside a segment each source vertex performs one
    post-order range search.

    Cost of a query round: :meth:`answer_batch` walks each distinct target
    object of the batch once (one id look-up per vertex, and its segments
    split on the tree's parent-index list), and each query then pays its
    source size × range searches, plus its segments.  ``Process-Comp`` sends
    all of its pieces against one shared target, so a round pays that target
    once, not once per piece.  The round's subtree pieces of ``D``'s base
    tree — nearly all of its queries — go to ``D`` together.  Each piece
    costs a few list reads: its root's index, its post-order interval and,
    per layer, its search range, read from the tree's ``post``, ``size``,
    ``tin`` and ``tout`` lists.  Each segment layer is one array conversion
    and a fixed handful of array calls
    (:meth:`~repro.core.structure_d.StructureD.search_subtrees`), one
    re-anchor search over the hits' post-order numbers fixes their source
    endpoints, and the answers become vertex ids once, at the end.  Every
    other query is answered on its own.  The round's counters are summed as
    it runs and recorded once, with the totals and maxima that counting
    query by query would give.

    Answers are *canonical*: the target endpoint is the target vertex nearest
    the preferred end that has any alive edge to the source piece, and the
    source endpoint is the piece vertex with the smallest post-order number in
    the *current* tree among those with an alive edge to that target vertex.
    Both are properties of the updated graph and the current tree alone —
    independent of which base tree ``D`` happens to be built on — so every
    driver (and every rebuild policy) produces *identical* trees whether an
    update is served from a freshly rebuilt ``D``, from Theorem 9 overlays on
    a stale one, from stream passes, or from CONGEST broadcasts.
    """

    def __init__(
        self,
        structure: "StructureD",
        *,
        source_tree: Optional[DFSTree] = None,
        metrics: Optional[MetricsRecorder] = None,
    ) -> None:
        from repro.core.structure_d import StructureD  # local import to avoid cycle

        if not isinstance(structure, StructureD):
            raise TypeError("DQueryService requires a StructureD instance")
        self._d = structure
        self._tree = structure.base_tree
        # Tree used to materialise "subtree" source pieces.  For the fully
        # dynamic algorithm it equals D's base tree; the fault-tolerant driver
        # passes the *current* tree T*_{i-1} while D stays built on T*_0
        # (Theorem 9).
        self._source_tree = source_tree if source_tree is not None else structure.base_tree
        self._metrics = metrics

    @property
    def structure(self) -> "StructureD":
        return self._d

    def answer_batch(self, queries: Sequence[EdgeQuery]) -> List[Answer]:
        if self._metrics is not None:
            self._metrics.inc("query_batches")
            self._metrics.inc("queries", len(queries))
        tree = self._tree
        # Keyed by the target object: the queries hold every target alive for
        # the call, and queries sharing a target share the object.
        plans: Dict[int, _TargetPlan] = {}
        tally = _Tally()
        answers: List[Answer] = [None] * len(queries)
        pieces: List[Tuple[int, EdgeQuery, _TargetPlan]] = []
        try:
            for i, q in enumerate(queries):
                plan = plans.get(id(q.target))
                if plan is None:
                    plan = plans[id(q.target)] = _TargetPlan(tree, q.target)
                direct = q.source_kind == "tree" and self._source_tree is tree
                if direct and plan.segments and not plan.unknown:
                    pieces.append((i, q, plan))
                else:
                    answers[i] = self._answer_one(q, plan, tally)
            if pieces:
                self._answer_subtree_pieces(pieces, answers, tally)
        finally:
            self._record(tally)
        return answers

    def _record(self, tally: _Tally) -> None:
        """Record one batch's counts."""
        metrics = self._metrics
        if metrics is not None and tally.queries:
            metrics.inc("d_target_segments", tally.segments)
            metrics.observe_max("d_target_segments_per_query", tally.max_segments)
            if self._source_tree is not self._tree:
                metrics.inc("d_overlay_view_queries", tally.queries)
        self._d.count_searches(tally.searches, tally.probes)
        if metrics is not None and tally.reanchors:
            metrics.inc("d_reanchor_probes", tally.reanchor_probes)

    # ------------------------------------------------------------------ #
    def _answer_subtree_pieces(
        self,
        pieces: List[Tuple[int, EdgeQuery, _TargetPlan]],
        answers: List[Answer],
        tally: _Tally,
    ) -> None:
        """Answer the round's subtree pieces whose target ``D``'s base tree
        fully knows together (Theorem 8: one processor per source vertex,
        one range search each).

        Each piece root is resolved once, and its post-order interval
        ``[lo, hi]`` read from the tree's lists.  A piece whose root the base
        tree does not know, or that holds a target segment's bottom, is
        answered on its own.  The others take their segments in preference
        order, one layer at a time: layer ``j`` asks ``D.search_subtrees``
        for every piece still unanswered against its ``j``-th segment, and a
        piece leaves at its first hit — the same early stop, searches and
        probes as :meth:`_answer_one`.  One batched re-anchor on the hits'
        post-order numbers then fixes every hit's source endpoint; the
        target endpoints become vertex ids once, at the end.
        """
        tree = self._tree
        get = tree._idx.get
        post, size = tree._post, tree._size
        # Per piece: its answer slot, query, root index, lo, hi, segments in
        # preference order and preferred end.
        pending = []
        for i, q, plan in pieces:
            root = get(q.source_root)
            if root is not None:
                hi = post[root]
                lo = hi - size[root] + 1
            if root is None or any(lo <= seg.bottom_post <= hi for seg in plan.segments):
                answers[i] = self._answer_one(q, plan, tally)
                continue
            tally.queries += 1
            tally.segments += len(plan.segments)
            tally.max_segments = max(tally.max_segments, len(plan.segments))
            pending.append((i, q, root, lo, hi, plan.orders[q.prefer_last], q.prefer_last))
        hits = []
        reanchor: List[int] = []  # per hit: its target's post, lo, hi
        layer = 0
        while pending:
            # One layer as the flat columns search_subtrees takes: every
            # piece vertex searches [post(lca(root, bottom)), post(top)]
            # when top is an ancestor of the root, nothing otherwise.
            layer_cols: List[int] = []
            for _, _, root, lo, hi, order, last in pending:
                seg = order[layer]
                top, bottom = seg.top, seg.bottom
                if tree._is_ancestor_idx(top, root):
                    range_lo, range_hi = post[tree._lca_idx(root, bottom)], post[top]
                else:
                    range_lo, range_hi = 1, 0
                layer_cols += (lo, hi, range_lo, range_hi, top, bottom, seg.prefer_bottom[last])
                tally.searches += hi - lo + 1
            found, probes = self._d.search_subtrees(layer_cols)
            tally.probes += probes
            layer += 1
            still = []
            for item, t_post in zip(pending, found):
                if t_post >= 0:
                    hits.append(item)
                    reanchor += (t_post, item[3], item[4])
                elif layer < len(item[5]):
                    still.append(item)
            pending = still
        if not hits:
            return
        t_posts, los, his = np.array(reanchor, dtype=np.int64).reshape(-1, 3).T
        t_stars = self._d.vertex_of_post[t_posts].tolist()
        canonical, probes = self._d.search_min_post_batch(t_stars, t_posts, los, his)
        tally.reanchors += len(hits)
        tally.reanchor_probes += probes
        for (i, q, *_), t_star, source in zip(hits, t_stars, canonical):
            if source is None:
                raise InvariantViolation(
                    f"re-anchor found no vertex of T({q.source_root!r}) adjacent to {t_star!r}, "
                    "which a range search reached"
                )
            answers[i] = (source, t_star)

    def _subtree_interval(self, root: Vertex) -> Tuple[int, int]:
        """``T(root)``'s post-order interval ``[lo, hi]`` in the base tree."""
        tree = self._tree
        hi = tree.postorder(root)
        return hi - tree.subtree_size(root) + 1, hi

    def _answer_one(self, q: EdgeQuery, plan: _TargetPlan, tally: _Tally) -> Answer:
        source_list = q.source_vertex_list(self._source_tree)
        segments = max(len(plan.segments), 1)
        tally.queries += 1
        tally.segments += segments
        tally.max_segments = max(tally.max_segments, segments)

        # The role-reversed sweep (see _probe_segment) searches the source
        # piece as vertical runs of the base tree; decompose it once per query.
        reverse = None
        if plan.segments and (q.source_kind != "tree" or self._source_tree is not self._tree):
            reverse = self._source_runs(source_list)

        # Segments are contiguous runs of the target path, so their position
        # intervals are disjoint and ordered: probe them starting from the
        # preferred end and stop at the first hit — no later segment can hold
        # a better position.
        best: Answer = None
        for seg in reversed(plan.segments) if q.prefer_last else plan.segments:
            best = self._probe_segment(q, seg, plan.pos, source_list, reverse, tally)
            if best is not None:
                break

        # Target vertices that the base tree does not know about (vertices
        # inserted since D was built) are handled by scanning their overlay
        # adjacency — there are at most k of them.
        if plan.unknown:
            unknown_hit = self._probe_unknown_targets(q, plan.unknown, source_list)
            best = _better(plan.pos, q.prefer_last, best, unknown_hit)
        if best is None:
            return None
        return self._canonical_answer(q, best, source_list, tally)

    def _canonical_answer(
        self, q: EdgeQuery, best: Answer, source_list: List[Vertex], tally: _Tally
    ) -> Answer:
        """Fix the source endpoint to the piece vertex with the smallest
        post-order number (in the *current* tree) having an alive edge to the
        chosen target vertex.

        The probes above guarantee the best *target* endpoint, but which source
        vertex reported it depends on which direction (direct, reversed,
        overlay) found the edge first — i.e. on the base tree ``D`` was built
        on.  Re-anchoring the source makes the full answer a pure function of
        the updated graph and the current tree, which is what lets the
        amortized rebuild policy of
        :class:`~repro.core.dynamic_dfs.FullyDynamicDFS` (and the streaming /
        distributed adapters) reproduce the per-update-rebuild trees exactly.

        Cost: for subtree pieces of ``D``'s own base tree the piece occupies a
        contiguous post-order interval, so the re-anchor is a single binary
        search in the target's sorted list (``O(log deg)``); other piece kinds
        fall back to scanning the target's adjacency (``O(deg)``), never the
        piece.  Probes are counted under ``d_reanchor_probes``.
        """
        found_u, t_star = best
        tree = self._tree
        src_tree = self._source_tree
        probes = 0
        canonical: Optional[Vertex] = None
        if (
            q.source_kind == "tree"
            and src_tree is tree
            and q.source_root in tree
        ):
            # Postorder-interval index: T(root) occupies exactly the interval
            # [post(root) - size(root) + 1, post(root)] of the base tree.
            lo, hi = self._subtree_interval(q.source_root)
            canonical, probes = self._d.min_post_alive_neighbor(t_star, lo, hi)
        else:
            if q.source_kind == "tree" and q.source_root in src_tree:
                root = q.source_root

                def member(w: Vertex) -> bool:
                    return w in src_tree and src_tree.is_ancestor(root, w)

            else:
                src_set = set(source_list)

                def member(w: Vertex) -> bool:
                    return w in src_set

            best_rank: Optional[int] = None
            for w in self._d.neighbors_of(t_star):
                probes += 1
                if not member(w) or w not in src_tree:
                    continue
                r = src_tree.postorder(w)
                if best_rank is None or r < best_rank:
                    canonical, best_rank = w, r
        tally.reanchors += 1
        tally.reanchor_probes += max(probes, 1)
        if canonical is not None:
            return (canonical, t_star)
        return best

    def canonical_sources(
        self, items: Sequence[Tuple[Vertex, Vertex]]
    ) -> List[Optional[Vertex]]:
        """Batch canonical re-anchors for subtree pieces of the base tree.

        For each ``(t_star, source_root)`` pair, returns the vertex of the
        piece ``T(source_root)`` with the smallest base-tree post-order number
        among those with an alive edge to ``t_star`` (``None`` when the piece
        has no alive edge to it) — the same re-anchor
        :meth:`_canonical_answer` computes one query at a time, as one call
        to :meth:`StructureD.min_post_alive_neighbor_batch
        <repro.core.structure_d.StructureD.min_post_alive_neighbor_batch>`.
        Nothing in the library calls it: :meth:`answer_batch` re-anchors its
        subtree pieces through the uncounted core of that method.  Probes are
        counted once per batch under ``d_reanchor_probes`` (``max(total
        probes, 1)``); answers do not depend on the graph store.
        """
        us: List[Vertex] = []
        los: List[int] = []
        his: List[int] = []
        for t_star, root in items:
            lo, hi = self._subtree_interval(root)
            us.append(t_star)
            los.append(lo)
            his.append(hi)
        best, probes = self._d.min_post_alive_neighbor_batch(us, los, his)
        if self._metrics is not None and items:
            self._metrics.inc("d_reanchor_probes", max(probes, 1))
        return best

    def _source_runs(self, source_list: List[Vertex]) -> SourceRuns:
        """The source piece as vertical runs of the base tree."""
        tree = self._tree
        src_known = [v for v in source_list if v in tree]
        runs = [segment_orientation(tree, run) for run in ancestor_descendant_segments(tree, src_known)]
        return runs, set(source_list).__contains__

    def _probe_segment(
        self,
        q: EdgeQuery,
        seg: _Segment,
        pos: Dict[Vertex, int],
        source_list: List[Vertex],
        reverse: Optional[SourceRuns],
        tally: _Tally,
    ) -> Answer:
        search = self._d.search_segment
        prefer_last = q.prefer_last
        verts = self._tree._verts
        top, bottom = verts[seg.top], verts[seg.bottom]
        prefer_bottom = seg.prefer_bottom[prefer_last]

        best: Answer = None
        probes = 0
        # Direct direction: every source vertex searches its sorted list for a
        # neighbour on the segment (finds edges whose target endpoint is a
        # base-tree ancestor of the source vertex — the only possibility for
        # subtree sources in the fully dynamic setting).
        for u in source_list:
            w, p = search(u, top, bottom, prefer_bottom, None)
            probes += p
            if w is not None:
                best = _better(pos, prefer_last, best, (u, w))
        searches = len(source_list)

        # Reversed direction: every segment vertex searches for a neighbour on
        # the source piece.  Needed when the source may contain base-tree
        # *ancestors* of target vertices: always for path-piece sources, and for
        # every source kind in the fault-tolerant / amortized-overlay setting,
        # where pieces are subtrees/paths of the current tree T*_{i-1} rather
        # than of D's base tree (Theorem 9).  The source is decomposed into
        # vertical runs of the base tree so each probe stays a range search.
        if reverse is not None:
            src_runs, on_source = reverse
            for t in reversed(seg.vertices) if prefer_last else seg.vertices:
                hit = None
                for s_top, s_bottom in src_runs:
                    hit, p = search(t, s_top, s_bottom, True, on_source)
                    searches += 1
                    probes += p
                    if hit is not None:
                        break
                if hit is not None:
                    best = _better(pos, prefer_last, best, (hit, t))
                    break
        tally.searches += searches
        tally.probes += probes
        return best

    def _probe_unknown_targets(
        self, q: EdgeQuery, unknown: List[Vertex], source_list: List[Vertex]
    ) -> Answer:
        source_set = set(source_list)
        for t in reversed(unknown) if q.prefer_last else unknown:
            for w in self._d.neighbors_of(t):
                if w in source_set:
                    return (w, t)
        return None
