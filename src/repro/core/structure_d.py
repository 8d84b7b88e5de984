"""The data structure ``D`` (Section 5.2 of the paper, Theorems 8–9).

``D`` is deliberately simple: for every vertex ``v`` it stores the neighbours of
``v`` sorted by their post-order number in the base DFS tree ``T``.  Because a
DFS tree of an undirected graph has no cross edges, a neighbour of ``v`` with a
*larger* post-order number than ``v`` is necessarily an ancestor of ``v``, and
the ancestors of ``v`` appear in the sorted list in root-to-``v`` order.  A
query "among all edges from ``v`` incident on the ancestor–descendant path
``path(x, y)``, return the edge incident nearest to ``x``" therefore reduces to
a binary search for a post-order range followed by picking one end of the range.

The structure also supports the *multi-update extension* of Theorem 9: after the
graph has been modified by up to ``k`` updates, queries are still answered from
the original sorted lists plus small per-vertex overlays (inserted edges,
deleted edges, deleted vertices), at an extra ``O(k)`` cost per query — the
original lists are never rebuilt.  This is what the fault-tolerant driver uses.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.exceptions import VertexNotFound
from repro.graph.graph import UndirectedGraph
from repro.metrics.counters import MetricsRecorder
from repro.tree.dfs_tree import DFSTree

Vertex = Hashable

#: Weight of the newest sample in the segment EWMA.  One sample = one update's
#: mean target segments per query (see :meth:`StructureD.fold_segment_sample`);
#: sampling per update rather than per query keeps the estimate from being
#: dragged down by the cheap trailing queries every update ends with.  Large
#: enough that a sustained plateau is reflected within a handful of updates,
#: small enough that a single pathological update cannot trigger a rebase on
#: its own.
SEGMENT_EWMA_ALPHA = 0.25


class StructureD:
    """Per-vertex adjacency lists sorted by post-order number of the base tree.

    Parameters
    ----------
    graph:
        The graph whose edges the structure indexes.
    tree:
        The base DFS tree ``T`` the post-order numbers come from.  Vertices of
        *graph* that are missing from *tree* (possible only through overlays)
        are not indexed.
    metrics:
        Optional recorder; the build cost and per-query probe counts are
        reported under ``d_*`` counters.

    Notes
    -----
    The structure never mutates the graph; overlays (:meth:`note_edge_inserted`
    etc.) only affect how queries are answered, mirroring the paper's use of the
    *original* ``D`` to answer queries about the updated graph.
    """

    def __init__(
        self,
        graph: UndirectedGraph,
        tree: DFSTree,
        *,
        metrics: Optional[MetricsRecorder] = None,
    ) -> None:
        self._graph = graph
        self._tree = tree
        self._metrics = metrics
        self._post: Dict[Vertex, int] = {}
        self._sorted_posts: Dict[Vertex, List[int]] = {}
        self._sorted_nbrs: Dict[Vertex, List[Vertex]] = {}
        # Overlays for the multi-update extension (Theorem 9).
        self._extra_edges: Dict[Vertex, List[Vertex]] = {}
        self._deleted_edges: Set[frozenset] = set()
        self._deleted_vertices: Set[Vertex] = set()
        # Pinned side lists (absorb mode): inserted edges that are *cross*
        # edges w.r.t. the base tree, or incident to overlay-inserted
        # vertices, cannot enter the sorted lists without breaking the
        # back-edge property the range searches rely on; absorb_overlays()
        # parks them here and queries keep scanning them like overlays.
        self._cross_edges: Dict[Vertex, List[Vertex]] = {}
        self._next_virtual_post = tree.num_vertices  # inserted vertices go last
        # EWMA of target segments per query: the divergence signal the
        # absorb-mode auto-rebase policy watches.  A fresh structure (base
        # tree == current tree) decomposes every target into one segment.
        self._segment_ewma = 1.0
        self._segments_since = 0
        self._queries_since = 0
        self._build()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _build(self) -> None:
        tree = self._tree
        post = {v: tree.postorder(v) for v in tree.vertices()}
        self._post = post
        total_work = 0
        for v in self._graph.vertices():
            if v not in post:
                continue
            nbrs = [w for w in self._graph.neighbors(v) if w in post]
            nbrs.sort(key=post.__getitem__)
            self._sorted_nbrs[v] = nbrs
            self._sorted_posts[v] = [post[w] for w in nbrs]
            total_work += max(len(nbrs), 1)
        if self._metrics is not None:
            self._metrics.inc("d_builds")
            self._metrics.inc("d_build_work", total_work)

    def _row(self, u: Vertex):
        """Base sorted row of *u* as ``(posts, nbrs)``, or ``None`` if unindexed.

        The single access point every query goes through: the dict backend
        returns the per-vertex python lists, the array backend
        (:class:`~repro.core.array_structure_d.ArrayStructureD`) returns
        slices of its flat postorder-sorted arrays.  Both are sequences
        supporting ``len``/indexing/``bisect``, which is what keeps the scalar
        query code byte-identical across backends.
        """
        posts = self._sorted_posts.get(u)
        if posts is None:
            return None
        return posts, self._sorted_nbrs[u]

    def _base_row_neighbors(self, v: Vertex):
        """Neighbour sequence of *v*'s base row (empty if *v* is unindexed)."""
        row = self._row(v)
        return () if row is None else row[1]

    @property
    def base_tree(self) -> DFSTree:
        """The DFS tree whose post-order numbers index the structure."""
        return self._tree

    @property
    def graph(self) -> UndirectedGraph:
        """The graph the structure was built on."""
        return self._graph

    def size(self) -> int:
        """Total number of indexed adjacency entries (``O(m)``)."""
        return sum(len(lst) for lst in self._sorted_nbrs.values())

    def postorder(self, v: Vertex) -> int:
        """Post-order number of *v* (inserted vertices get fresh, maximal numbers)."""
        try:
            return self._post[v]
        except KeyError:
            raise VertexNotFound(v) from None

    def indexes_vertex(self, v: Vertex) -> bool:
        """True iff the structure has a post-order number for *v* (either from
        the base tree or from an earlier overlay insertion).  Drivers use this
        to detect re-used vertex ids, whose stale base entries make overlay
        service ambiguous."""
        return v in self._post

    # ------------------------------------------------------------------ #
    # Overlays (Theorem 9: reuse D across up to k updates)
    # ------------------------------------------------------------------ #
    def note_edge_inserted(self, u: Vertex, v: Vertex) -> None:
        """Record the insertion of edge ``(u, v)`` without rebuilding the lists."""
        key = frozenset((u, v))
        self._deleted_edges.discard(key)
        self._extra_edges.setdefault(u, []).append(v)
        self._extra_edges.setdefault(v, []).append(u)

    def note_edge_deleted(self, u: Vertex, v: Vertex) -> None:
        """Record the deletion of edge ``(u, v)``.

        The edge may live in the base sorted lists, in the overlay lists (e.g.
        the adjacency of a vertex inserted after preprocessing), or in both; the
        overlay entries are dropped and the edge is masked for the base lists.
        """
        for store in (self._extra_edges, self._cross_edges):
            lst_u = store.get(u)
            if lst_u and v in lst_u:
                lst_u.remove(v)
            lst_v = store.get(v)
            if lst_v and u in lst_v:
                lst_v.remove(u)
        self._deleted_edges.add(frozenset((u, v)))

    def note_vertex_inserted(self, v: Vertex, neighbors: Iterable[Vertex]) -> None:
        """Record the insertion of vertex *v* with the given incident edges.

        As in the paper, the new vertex receives a post-order number larger than
        every existing one and is appended (via the overlay) to its neighbours'
        lists; its own list is sorted by post-order so range queries from *v*
        keep their logarithmic cost.

        If *v* re-uses the id of a vertex the structure already knows (deleted
        earlier in the same overlay epoch), the old incarnation's edges are
        masked first: discarding *v* from the deleted-vertex set must not bring
        edges back to life that the updated graph no longer has.
        """
        for w in self._base_row_neighbors(v):
            self._deleted_edges.add(frozenset((v, w)))
        for store in (self._extra_edges, self._cross_edges):
            stale = store.get(v)
            if stale:
                for w in stale:
                    self._deleted_edges.add(frozenset((v, w)))
                store[v] = []
        self._deleted_vertices.discard(v)
        # Mirror the graph layer's normalisation: self loops dropped,
        # duplicates collapsed — otherwise the overlay's alive-edge view
        # diverges from the graph and overlay_size() over-counts.
        neighbors = [w for w in dict.fromkeys(neighbors) if w != v]
        if v in self._tree:
            # Re-used base-tree id: the base lists and post-order number are
            # kept (so reset_overlays() restores the pristine structure and
            # range searches anchored at v stay consistent) and the new
            # incident edges are recorded exactly like edge insertions.
            for w in neighbors:
                if w not in self._post:
                    continue
                self._deleted_edges.discard(frozenset((v, w)))
                self._extra_edges.setdefault(v, []).append(w)
                self._extra_edges.setdefault(w, []).append(v)
            return
        self._post[v] = self._next_virtual_post
        self._next_virtual_post += 1
        nbrs = [w for w in neighbors if w in self._post]
        nbrs.sort(key=self._post.__getitem__)
        self._sorted_nbrs[v] = nbrs
        self._sorted_posts[v] = [self._post[w] for w in nbrs]
        for w in nbrs:
            self._deleted_edges.discard(frozenset((v, w)))
            self._extra_edges.setdefault(w, []).append(v)

    def note_vertex_deleted(self, v: Vertex) -> None:
        """Record the deletion of vertex *v* (its stale entries are masked)."""
        self._deleted_vertices.add(v)

    def reset_overlays(self) -> None:
        """Forget every overlay (used by the fault-tolerant driver between
        independent batches of updates, which always start from the original
        graph again).  Must not be mixed with :meth:`absorb_overlays`, which
        folds overlays into the base lists destructively."""
        self._extra_edges.clear()
        self._cross_edges.clear()
        self._deleted_edges.clear()
        self._deleted_vertices.clear()
        # Drop sorted lists of vertices that only exist through overlays.
        for v in [v for v in self._sorted_nbrs if v not in self._tree and not self._graph.has_vertex(v)]:
            self._sorted_nbrs.pop(v, None)
            self._sorted_posts.pop(v, None)
            self._post.pop(v, None)
        self._next_virtual_post = self._tree.num_vertices

    def overlay_size(self) -> int:
        """Number of overlay entries currently masking / extending the base
        lists.  Pinned cross entries (see :meth:`absorb_overlays`) are *not*
        counted: no rebuild policy can absorb them, so counting them would
        make the auto-tuned policy rebuild forever for no gain — use
        :meth:`pinned_size` to observe them."""
        return (
            sum(len(lst) for lst in self._extra_edges.values())
            + len(self._deleted_edges)
            + len(self._deleted_vertices)
        )

    def pinned_size(self) -> int:
        """Number of pinned cross entries left behind by :meth:`absorb_overlays`."""
        return sum(len(lst) for lst in self._cross_edges.values())

    def note_query_segments(self, segments: int, queries: int) -> None:
        """Record the target-segment count of *queries* queries for the
        divergence EWMA.

        Called by :class:`~repro.core.queries.DQueryService` once per batch
        with the batch's segment total.  Under absorb maintenance the base
        tree is frozen, so as the current tree drifts away from it each
        target path shatters into more and more base-tree segments; this
        per-query cost is the signal the auto-rebase policy of
        :class:`~repro.core.dynamic_dfs.DStructureBackend` thresholds on.
        """
        self._segments_since += segments
        self._queries_since += queries

    def fold_segment_sample(self) -> None:
        """Fold the queries recorded since the last fold into the EWMA.

        Drivers call this once per update (one sample = one update's mean
        segments per query); updates that needed no queries contribute no
        sample.  Folding per update keeps one expensive decomposition burst
        from being averaged away by the cheap trailing queries of the same
        update before the policy gets to look at it.
        """
        if self._queries_since:
            sample = self._segments_since / self._queries_since
            self._segment_ewma += SEGMENT_EWMA_ALPHA * (sample - self._segment_ewma)
            self._segments_since = 0
            self._queries_since = 0

    def avg_target_segments(self) -> float:
        """EWMA of mean target segments per query since this structure was built."""
        return self._segment_ewma

    def maintenance_signals(self) -> Dict[str, float]:
        """The structure's maintenance cost signals, one value per update.

        Keys match the :class:`~repro.core.maintenance.CostModel` names the
        ``D``-based backends register: ``overlay`` (Theorem 9 entries masking
        or extending the base lists — the auto-tuned rebuild cadence),
        ``pinned`` (cross-edge side lists no absorb can retire) and
        ``segments`` (the per-query divergence EWMA).  Backends report these
        through :meth:`MaintenanceController.observe
        <repro.core.maintenance.MaintenanceController.observe>` after every
        update instead of each policy re-reading structure internals.
        """
        return {
            "overlay": float(self.overlay_size()),
            "pinned": float(self.pinned_size()),
            "segments": self._segment_ewma,
        }

    def _overlay_neighbors(self, u: Vertex):
        """All overlay-recorded neighbours of *u* (inserted + pinned)."""
        return chain(self._extra_edges.get(u, ()), self._cross_edges.get(u, ()))

    # ------------------------------------------------------------------ #
    # Incremental maintenance (absorb instead of rebuild)
    # ------------------------------------------------------------------ #
    def _remove_sorted_entry(self, u: Vertex, w: Vertex) -> int:
        """Remove *w* from *u*'s sorted lists if present; returns entries probed."""
        posts = self._sorted_posts.get(u)
        if not posts:
            return 0
        p = self._post.get(w)
        if p is None:
            return 0
        nbrs = self._sorted_nbrs[u]
        i = bisect_left(posts, p)
        probes = 1
        while i < len(posts) and posts[i] == p:
            if nbrs[i] == w:
                posts.pop(i)
                nbrs.pop(i)
                return probes
            i += 1
            probes += 1
        return probes

    def _insert_sorted_entry(self, u: Vertex, w: Vertex) -> int:
        """Insert *w* into *u*'s sorted lists (no-op when already present)."""
        posts = self._sorted_posts.setdefault(u, [])
        nbrs = self._sorted_nbrs.setdefault(u, [])
        p = self._post[w]
        i = bisect_left(posts, p)
        probes = 1
        while i < len(posts) and posts[i] == p:
            if nbrs[i] == w:
                return probes  # already absorbed (e.g. mask discarded by re-insert)
            i += 1
            probes += 1
        posts.insert(i, p)
        nbrs.insert(i, w)
        return probes

    def absorb_overlays(self) -> None:
        """Fold the accumulated overlays into the sorted base lists in place.

        The incremental alternative to a full ``_build()``: deletions are
        purged from the lists, and inserted edges whose endpoints form an
        ancestor–descendant pair of the base tree are insorted by post-order
        number — ``O(log deg)`` to locate each entry, ``O(overlay)`` entries —
        so the periodic ``O(m)`` rebuild spike becomes a smooth amortized
        cost.  Inserted edges that are *cross* edges w.r.t. the base tree (or
        incident to overlay-inserted vertices) cannot enter the sorted lists:
        the range searches would miss them because neither endpoint is a
        base-tree ancestor of the other.  They are pinned to a side list that
        queries keep scanning exactly like Theorem 9 overlays.

        After absorbing, queries answer *byte-identically* to a structure
        freshly built on the updated graph and the same base tree (the
        property the tests cross-validate); unlike a rebuild, the base tree —
        and therefore every post-order number — stays fixed.  Counted under
        ``d_absorbs`` / ``d_absorb_work``.
        """
        work = 0
        # 1. Deleted edges: purge from the sorted and side lists of both ends.
        for key in self._deleted_edges:
            pair = tuple(key)
            u, v = pair if len(pair) == 2 else (pair[0], pair[0])
            for a, b in ((u, v), (v, u)):
                work += self._remove_sorted_entry(a, b)
                for store in (self._extra_edges, self._cross_edges):
                    lst = store.get(a)
                    if lst and b in lst:
                        lst.remove(b)
                        work += 1
        self._deleted_edges.clear()
        # 2. Deleted vertices: drop their lists and their entries at every
        #    ex-neighbour.  Base-tree vertices keep their post-order number
        #    (queries still anchor ranges at them); overlay vertices vanish.
        for v in self._deleted_vertices:
            nbrs = set(self._sorted_nbrs.pop(v, ()))
            self._sorted_posts.pop(v, None)
            nbrs.update(self._extra_edges.pop(v, ()))
            nbrs.update(self._cross_edges.pop(v, ()))
            for w in nbrs:
                work += self._remove_sorted_entry(w, v)
                for store in (self._extra_edges, self._cross_edges):
                    lst = store.get(w)
                    while lst and v in lst:
                        lst.remove(v)
                        work += 1
            if v not in self._tree:
                self._post.pop(v, None)
            work += 1
        self._deleted_vertices.clear()
        # 3. Inserted edges: absorb ancestor–descendant pairs, pin the rest.
        tree = self._tree
        pinned_seen: Dict[Vertex, Set[Vertex]] = {}
        for u, lst in list(self._extra_edges.items()):
            for w in lst:  # the mirror entry handles the other endpoint
                if (
                    u in tree
                    and w in tree
                    and (tree.is_ancestor(u, w) or tree.is_ancestor(w, u))
                ):
                    work += self._insert_sorted_entry(u, w)
                else:
                    pinned = self._cross_edges.setdefault(u, [])
                    seen = pinned_seen.get(u)
                    if seen is None:
                        seen = pinned_seen[u] = set(pinned)
                    if w not in seen:
                        pinned.append(w)
                        seen.add(w)
                    work += 1
        self._extra_edges.clear()
        if self._metrics is not None:
            self._metrics.inc("d_absorbs")
            self._metrics.inc("d_absorb_work", work)
            self._metrics.observe_max("pinned_overlay_size", self.pinned_size())

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def _edge_alive(self, u: Vertex, w: Vertex) -> bool:
        if w in self._deleted_vertices or u in self._deleted_vertices:
            return False
        return frozenset((u, w)) not in self._deleted_edges

    def neighbor_on_segment(
        self,
        u: Vertex,
        top: Vertex,
        bottom: Vertex,
        *,
        prefer_bottom: bool,
        on_segment=None,
    ) -> Optional[Vertex]:
        """Neighbour of *u* lying on the ancestor–descendant segment ``top..bottom``.

        *top* must be an ancestor of *bottom* in the base tree.  Returns the
        neighbour nearest to *bottom* (``prefer_bottom=True``) or nearest to
        *top*, or ``None`` when no edge from *u* reaches the segment.

        Precondition (matching the paper's query types): the base lists can only
        report neighbours that are base-tree *ancestors* of ``u`` (plus overlay
        edges); neighbours that are descendants of ``u`` on the segment are the
        querying side's responsibility (the query service runs the role-reversed
        search in exactly those situations).

        ``on_segment(w)`` may be supplied to verify candidates (used when the
        overlay contains edges that are cross edges w.r.t. the base tree); by
        default membership is decided by the base tree's ancestor intervals.

        Counts one search under ``d_vertex_queries`` and its probes under
        ``d_probes``; :meth:`search_segment` is the same search uncounted.
        """
        best, probes = self.search_segment(u, top, bottom, prefer_bottom, on_segment)
        self.count_searches(1, probes)
        return best

    def count_searches(self, searches: int, probes: int) -> None:
        """Record *searches* range searches that charged *probes* probes.

        :class:`~repro.core.queries.DQueryService` sums what
        :meth:`search_segment` returns and records it here once per batch.
        """
        if self._metrics is not None and searches:
            self._metrics.inc("d_vertex_queries", searches)
            self._metrics.inc("d_probes", probes)

    def search_segment(
        self,
        u: Vertex,
        top: Vertex,
        bottom: Vertex,
        prefer_bottom: bool,
        on_segment,
    ) -> Tuple[Optional[Vertex], int]:
        """Uncounted core of :meth:`neighbor_on_segment`.

        Returns ``(neighbour, probes)``: the neighbour :meth:`neighbor_on_segment`
        would return and the probes the search charges — the adjacency
        entries it touched, at least 1.
        """
        tree = self._tree
        if on_segment is None:
            endpoints_known = top in tree and bottom in tree

            def on_segment(w: Vertex) -> bool:
                if not endpoints_known or w not in tree:
                    return w == top or w == bottom
                return tree.is_ancestor(top, w) and tree.is_ancestor(w, bottom)

        best: Optional[Vertex] = None
        best_level = None
        probes = 0

        row = self._row(u)
        if row is not None:
            posts, nbrs = row
            if u in tree and top in tree and bottom in tree:
                # The ancestors of u on the segment occupy the post-order range
                # [post(lca(u, bottom)), post(top)] — see the module docstring.
                if tree.is_ancestor(top, u):
                    low_anchor = tree.lca(u, bottom)
                    lo = self._post[low_anchor]
                    hi = self._post[top]
                    left = bisect_left(posts, lo)
                    right = bisect_right(posts, hi)
                    indices = range(left, right) if prefer_bottom else range(right - 1, left - 1, -1)
                    for i in indices:
                        probes += 1
                        w = nbrs[i]
                        if not self._edge_alive(u, w):
                            continue
                        if on_segment(w):
                            best = w
                            break
            else:
                # u was inserted after the base tree was built (Theorem 9
                # overlay): its sorted list is small (k updates) or freshly
                # sorted; scan it and keep the candidate nearest the preferred
                # end of the segment.
                for w in nbrs:
                    probes += 1
                    if not self._edge_alive(u, w) or not on_segment(w):
                        continue
                    w_level = self._segment_depth(w)
                    if best is None:
                        best, best_level = w, w_level
                    elif (prefer_bottom and w_level > best_level) or (
                        not prefer_bottom and w_level < best_level
                    ):
                        best, best_level = w, w_level

        # Overlay edges (few per vertex; linear scan as in Theorem 9).
        for w in self._overlay_neighbors(u):  # pragma: no branch
            probes += 1
            if not self._edge_alive(u, w):
                continue
            if not on_segment(w):
                continue
            if best is None:
                best = w
                best_level = self._segment_depth(w)
                continue
            if best_level is None:
                best_level = self._segment_depth(best)
            w_level = self._segment_depth(w)
            if (prefer_bottom and w_level > best_level) or (not prefer_bottom and w_level < best_level):
                best = w
                best_level = w_level
        return best, max(probes, 1)

    def _segment_depth(self, w: Vertex) -> int:
        try:
            return self._tree.level(w)
        except VertexNotFound:  # vertex inserted after the base tree was built
            return 1 << 30

    def min_post_alive_neighbor(
        self, u: Vertex, lo: int, hi: int
    ) -> Tuple[Optional[Vertex], int]:
        """Alive neighbour of *u* with the smallest post-order number in
        ``[lo, hi]``, together with the number of entries probed.

        Because a subtree of the base tree occupies a contiguous post-order
        interval, this answers "the piece vertex adjacent to *u* that comes
        first in post order" with one binary search plus a short scan — the
        postorder-interval index behind canonical source re-anchoring
        (:meth:`repro.core.queries.DQueryService._canonical_answer`).
        """
        probes = 0
        best: Optional[Vertex] = None
        best_post: Optional[int] = None
        row = self._row(u)
        if row is not None and len(row[0]):
            posts, nbrs = row
            i = bisect_left(posts, lo)
            while i < len(posts) and posts[i] <= hi:
                probes += 1
                w = nbrs[i]
                if self._edge_alive(u, w):
                    best, best_post = w, posts[i]
                    break
                i += 1
        for w in self._overlay_neighbors(u):  # overlay edges (few per vertex)
            probes += 1
            if not self._edge_alive(u, w):
                continue
            p = self._post.get(w)
            if p is None or p < lo or p > hi:
                continue
            if best_post is None or p < best_post:
                best, best_post = w, p
        return best, probes

    def min_post_alive_neighbor_batch(
        self, us: Sequence[Vertex], los: Sequence[int], his: Sequence[int]
    ) -> Tuple[List[Optional[Vertex]], int]:
        """Batched :meth:`min_post_alive_neighbor` over aligned query triples.

        Returns ``(answers, total_probes)`` — exactly the results of calling
        the scalar method once per triple.  The dict backend loops; the array
        backend answers all clean rows with one ``np.searchsorted`` sweep and
        falls back to the scalar path only for rows an overlay has touched.
        """
        best: List[Optional[Vertex]] = []
        probes = 0
        for u, lo, hi in zip(us, los, his):
            b, p = self.min_post_alive_neighbor(u, lo, hi)
            best.append(b)
            probes += p
        return best, probes

    def neighbors_of(self, u: Vertex) -> List[Vertex]:
        """All currently-alive neighbours of *u* according to the structure."""
        out = []
        for w in self._base_row_neighbors(u):
            if self._edge_alive(u, w):
                out.append(w)
        for w in self._overlay_neighbors(u):  # inserted + pinned edges
            if self._edge_alive(u, w):
                out.append(w)
        return out

    def has_alive_edge(self, u: Vertex, w: Vertex) -> bool:
        """True iff the edge ``(u, w)`` exists after applying the overlays."""
        if not self._edge_alive(u, w):
            return False
        if w in self._extra_edges.get(u, ()) or w in self._cross_edges.get(u, ()):
            return True
        row = self._row(u)
        if row is None or w not in self._post:
            return False
        posts, nbrs = row
        p = self._post[w]
        i = bisect_left(posts, p)
        while i < len(posts) and posts[i] == p:
            if nbrs[i] == w:
                return True
            i += 1
        return False
