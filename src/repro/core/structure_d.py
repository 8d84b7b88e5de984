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
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.exceptions import VertexNotFound
from repro.graph.graph import UndirectedGraph
from repro.metrics.counters import MetricsRecorder
from repro.tree.dfs_tree import DFSTree

Vertex = Hashable


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
        self._next_virtual_post = tree.num_vertices  # inserted vertices go last
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

        The single access point of the scalar queries: the dict backend
        returns the per-vertex python lists, the array backend
        (:class:`~repro.core.array_structure_d.ArrayStructureD`) returns
        slices of its flat postorder-sorted arrays.  Both are sequences
        supporting ``len``/indexing/``bisect``, so one scalar query code
        serves both backends.
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
        lst_u = self._extra_edges.get(u)
        if lst_u and v in lst_u:
            lst_u.remove(v)
        lst_v = self._extra_edges.get(v)
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
        stale = self._extra_edges.get(v)
        if stale:
            for w in stale:
                self._deleted_edges.add(frozenset((v, w)))
            self._extra_edges[v] = []
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
        graph again)."""
        self._extra_edges.clear()
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
        lists."""
        return (
            sum(len(lst) for lst in self._extra_edges.values())
            + len(self._deleted_edges)
            + len(self._deleted_vertices)
        )

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
        for w in self._extra_edges.get(u, ()):  # pragma: no branch
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

    def search_subtrees(
        self,
        roots: Sequence[Vertex],
        segments: Sequence[Tuple[Vertex, Vertex, Callable[[Vertex], bool], bool]],
    ) -> Tuple[List[Optional[Vertex]], int]:
        """One layer of a query round: every vertex of each subtree piece
        searches one segment.

        Piece ``i`` is the base-tree subtree ``T(roots[i])`` and
        ``segments[i]`` is ``(top, bottom, on_segment, prefer_bottom)``, the
        arguments of :meth:`search_segment`.  Returns ``(found, probes)``:
        per piece, the neighbour on the segment nearest its preferred end
        that any piece vertex reaches (``None`` when none does), and the
        probes all the searches charged — exactly what calling
        :meth:`search_segment` once per piece vertex gives.  The piece makes
        ``subtree_size(roots[i])`` searches.

        Precondition: no segment's *bottom* lies inside its piece, so the
        bounds of every search of a piece are the piece root's (the array
        backend computes them once per piece).  This reference loops the
        scalar search.
        """
        tree = self._tree
        post = self._post
        search = self.search_segment
        found: List[Optional[Vertex]] = []
        probes = 0
        for root, (top, bottom, on_segment, prefer_bottom) in zip(roots, segments):
            best: Optional[Vertex] = None
            best_post = 0
            for u in tree.subtree_vertices(root):
                w, p = search(u, top, bottom, prefer_bottom, on_segment)
                probes += p
                if w is None:
                    continue
                # A segment is a vertical path: deeper means a smaller post.
                w_post = post[w]
                if best is None or (w_post < best_post if prefer_bottom else w_post > best_post):
                    best, best_post = w, w_post
            found.append(best)
        return found, probes

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
        for w in self._extra_edges.get(u, ()):  # overlay edges (few per vertex)
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
        backend answers all clean rows with one vectorized row-bounded bisect
        and falls back to the scalar path only for rows an overlay has
        touched.
        """
        return self.search_min_post_batch(us, los, his)

    def search_min_post_batch(
        self, us: Sequence[Vertex], los: Sequence[int], his: Sequence[int]
    ) -> Tuple[List[Optional[Vertex]], int]:
        """Uncounted core of :meth:`min_post_alive_neighbor_batch` (the array
        backend counts its public calls; the query service re-anchors a whole
        query round through this one)."""
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
        for w in self._extra_edges.get(u, ()):  # overlay-inserted edges
            if self._edge_alive(u, w):
                out.append(w)
        return out

    def has_alive_edge(self, u: Vertex, w: Vertex) -> bool:
        """True iff the edge ``(u, w)`` exists after applying the overlays."""
        if not self._edge_alive(u, w):
            return False
        if w in self._extra_edges.get(u, ()):
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
