"""The data structure ``D`` (Section 5.2 of the paper, Theorems 8–9).

``D`` is deliberately simple: for every vertex ``v`` it stores the neighbours of
``v`` sorted by their post-order number in the base DFS tree ``T``.  Because a
DFS tree of an undirected graph has no cross edges, a neighbour of ``v`` with a
*larger* post-order number than ``v`` is necessarily an ancestor of ``v``, and
the ancestors of ``v`` appear in the sorted list in root-to-``v`` order.  A
query "among all edges from ``v`` incident on the ancestor–descendant path
``path(x, y)``, return the edge incident nearest to ``x``" therefore reduces to
a binary search for a post-order range followed by picking one end of the range.

The sorted lists live in one flat array of keys: row ``p`` holds the
neighbours of the base-tree vertex with post-order number ``p``, as the keys
``p * |T| + post(neighbour)``, ascending (with ``indptr`` over post-order
numbers).  The build is one sort of those keys over the graph's half-edges
(:meth:`~repro.graph.graph.UndirectedGraph.half_edges`), so both graph stores
build identical rows.  A post-order range ``[lo, hi]`` of row ``p`` is the key
range ``[p * |T| + lo, p * |T| + hi]``, so the two batched reads of a query
round are each one ``np.searchsorted`` over the keys:

* :meth:`search_subtrees` answers one layer of a round — every vertex of every
  subtree piece searching one target segment — with one search over all
  source rows and one ``np.minimum.reduceat`` over the pieces;
* :meth:`search_min_post_batch` re-anchors every hit of the round the same
  way.

The structure also supports the *multi-update extension* of Theorem 9: after the
graph has been modified by up to ``k`` updates, queries are still answered from
the original sorted lists plus small per-vertex overlays (inserted edges,
deleted edges, deleted vertices), at an extra ``O(k)`` cost per query — the
original lists are never rebuilt.  Overlays mark every row they affect dirty;
dirty rows and the rows of overlay-inserted vertices take the scalar search
(:meth:`search_segment`, :meth:`min_post_alive_neighbor`), which reads a row as
two python lists cached on its first access.  Both paths charge the same
probes, so answers and counters do not depend on which path served a row.
This is what the fault-tolerant driver uses.

``D`` is defined on its base tree ``T`` (Theorem 8), and so are its rows: a
vertex id reaches its row through ``T``'s id table and post-order.  Nothing
reads the graph after the build, so the graph may recycle a slot for a new
vertex while overlays are served.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import chain
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import VertexNotFound
from repro.graph.graph import UndirectedGraph
from repro.metrics.counters import MetricsRecorder
from repro.tree.dfs_tree import DFSTree

Vertex = Hashable

#: Key of a piece no row reached (every real key is a post-order number or
#: its negation).
_MISS = np.iinfo(np.int64).max


class StructureD:
    """Per-vertex adjacency lists sorted by post-order number of the base tree.

    Parameters
    ----------
    graph:
        The graph whose edges the structure indexes (either graph store).
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
        # Rows as (posts, nbrs) python lists for the scalar search: base rows
        # cached on first access, and the rows of overlay-inserted vertices.
        self._rows: Dict[Vertex, Tuple[List[int], List[Vertex]]] = {}
        # Overlays for the multi-update extension (Theorem 9).
        self._extra_edges: Dict[Vertex, List[Vertex]] = {}
        self._deleted_edges: Set[frozenset] = set()
        self._deleted_vertices: Set[Vertex] = set()
        self._next_virtual_post = tree.num_vertices  # inserted vertices go last
        # Vertices whose rows the overlays changed; the batched reads send
        # them to the scalar search.  ``_dirty_mask_cache`` (see
        # :meth:`_dirty_mask`) is dropped whenever ``_dirty`` changes.
        self._dirty: Set[Vertex] = set()
        self._dirty_mask_cache: Optional[np.ndarray] = None
        self._build()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _build(self) -> None:
        tree = self._tree
        k = tree.num_vertices
        ids, src, dst = self._graph.half_edges()
        index = tree.indices(ids)
        known = index >= 0
        post_of = np.full(len(index), -1, dtype=np.int64)
        post_of[known] = tree.as_arrays()["post"][index[known]]
        src_post = post_of[src]
        dst_post = post_of[dst]
        sel = (src_post >= 0) & (dst_post >= 0)
        if not sel.all():
            src_post = src_post[sel]
            dst_post = dst_post[sel]
        # Composite key: rows are contiguous blocks in post order, sorted by
        # neighbour post-order inside each block, so one sort of the keys
        # lays out every row.  A last key above every row (``_MISS``) lets a
        # search past the end, or at position -1, read a key no range holds.
        self._width = width = max(k, 1)
        self._flat_keys = keys = np.empty(len(src_post) + 1, dtype=np.int64)
        np.add(src_post * width, dst_post, out=keys[:-1])
        keys[:-1].sort()
        keys[-1] = _MISS
        counts = np.bincount(src_post, minlength=k)
        indptr = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        self._flat_indptr = indptr
        self._flat_total = len(src_post)
        if self._metrics is not None:
            indexed = np.zeros(k, dtype=bool)  # the rows of graph vertices
            indexed[post_of[known]] = True
            self._metrics.inc("d_builds")
            self._metrics.inc("d_build_work", int(np.maximum(counts[indexed], 1).sum()))

    @cached_property
    def _post(self) -> Dict[Vertex, int]:
        """Post-order numbers of the base tree, plus the fresh numbers
        overlay-inserted vertices receive; built on the first scalar access."""
        tree = self._tree
        return dict(zip(tree._verts, tree._post))

    @cached_property
    def vertex_of_post(self) -> np.ndarray:
        """Base-tree vertex with each post-order number (object array, built
        on first use; callers must not write to it)."""
        arrays = self._tree.as_arrays()
        out = np.empty(self._tree.num_vertices, dtype=object)
        out[arrays["post"]] = arrays["vertices"]
        return out

    def _row(self, u: Vertex):
        """Sorted row of *u* as ``(posts, nbrs)`` python lists, or ``None`` if
        unindexed.

        The single access point of the scalar queries: a base row is sliced
        out of the flat arrays on its first access and cached.
        """
        row = self._rows.get(u)
        if row is None:
            tree = self._tree
            i = tree._idx.get(u)
            if i is None:
                return None
            p = tree._post[i]
            posts = self._flat_keys[self._flat_indptr[p] : self._flat_indptr[p + 1]] - p * self._width
            row = self._rows[u] = (posts.tolist(), self.vertex_of_post[posts].tolist())
        return row

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
        tree = self._tree
        inserted = sum(len(posts) for v, (posts, _) in self._rows.items() if v not in tree)
        return self._flat_total + inserted

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
        self._deleted_edges.discard(frozenset((u, v)))
        self._extra_edges.setdefault(u, []).append(v)
        self._extra_edges.setdefault(v, []).append(u)
        self._mark_dirty((u, v))

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
        self._mark_dirty((u, v))

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
        self._mark_dirty([v, *neighbors])
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
        self._rows[v] = ([self._post[w] for w in nbrs], nbrs)
        for w in nbrs:
            self._deleted_edges.discard(frozenset((v, w)))
            self._extra_edges.setdefault(w, []).append(v)

    def note_vertex_deleted(self, v: Vertex) -> None:
        """Record the deletion of vertex *v* (its stale entries are masked).

        The ex-neighbours' rows now hold dead entries, so they are dirty too.
        """
        self._mark_dirty([v, *self._base_row_neighbors(v), *self._extra_edges.get(v, ())])
        self._deleted_vertices.add(v)

    def reset_overlays(self) -> None:
        """Forget every overlay (used by the fault-tolerant driver between
        independent batches of updates, which always start from the original
        graph again)."""
        self._extra_edges.clear()
        self._deleted_edges.clear()
        self._deleted_vertices.clear()
        self._dirty.clear()
        self._dirty_mask_cache = None
        # Drop the rows of vertices that only exist through overlays.
        tree = self._tree
        for v in [v for v in self._rows if v not in tree]:
            del self._rows[v]
            self._post.pop(v, None)
        self._next_virtual_post = tree.num_vertices

    def overlay_size(self) -> int:
        """Number of overlay entries currently masking / extending the base
        lists."""
        return (
            sum(len(lst) for lst in self._extra_edges.values())
            + len(self._deleted_edges)
            + len(self._deleted_vertices)
        )

    def _mark_dirty(self, vertices: Iterable[Vertex]) -> None:
        self._dirty.update(vertices)
        self._dirty_mask_cache = None

    def _dirty_mask(self) -> np.ndarray:
        """The dirty rows of base-tree vertices, as a boolean table over
        post-order numbers.  Built once per overlay change."""
        if self._dirty_mask_cache is None:
            tree = self._tree
            mask = np.zeros(tree.num_vertices, dtype=bool)
            mask[[tree.postorder(v) for v in self._dirty if v in tree]] = True
            self._dirty_mask_cache = mask
        return self._dirty_mask_cache

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

        # Overlay edges (few per vertex; linear scan as in Theorem 9).
        scan = self._extra_edges.get(u, ())
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
                # overlay): its own row is small (k updates) or freshly
                # sorted, so it is scanned with the overlay edges.
                scan = chain(nbrs, scan)

        # Keep the scanned candidate nearest the preferred end of the segment.
        for w in scan:
            probes += 1
            if not self._edge_alive(u, w) or not on_segment(w):
                continue
            w_level = self._segment_depth(w)
            if best is not None and best_level is None:
                best_level = self._segment_depth(best)
            if best is None or (w_level > best_level if prefer_bottom else w_level < best_level):
                best, best_level = w, w_level
        return best, max(probes, 1)

    def search_subtrees(self, pieces: Sequence[int]) -> Tuple[List[int], int]:
        """One layer of a query round: every vertex of each subtree piece
        searches one segment, as one search over the keys.

        *pieces* holds seven ints per piece, flat: ``lo, hi, range_lo,
        range_hi, top, bottom, prefer_bottom``.  The piece is the base-tree
        subtree with post-order interval ``[lo, hi]`` (``lo = post(root) -
        size(root) + 1``, ``hi = post(root)``); the segment runs from tree
        index *top* down to tree index *bottom*, and the search prefers its
        bottom when *prefer_bottom* is 1.  Precondition: *bottom* lies
        outside the piece, so every piece vertex ``u`` searches the same
        post-order range ``[range_lo, range_hi]`` =
        ``[post(lca(root, bottom)), post(top)]`` when *top* is an ancestor of
        the root, an empty one (``range_lo > range_hi``) otherwise.

        Returns ``(found, probes)``: per piece, the post-order number of the
        neighbour on the segment nearest its preferred end that any piece
        vertex reaches (``-1`` when none does), and the probes all the
        searches charged — exactly what calling :meth:`search_segment` once
        per piece vertex gives.  The piece makes ``hi - lo + 1`` searches.

        A clean row (no overlay touched it) needs no alive or on-segment
        check — overlays dirty every row they affect, and every base-row
        entry in the range is an ancestor of ``u`` on the vertical segment —
        so its answer is the range's first (or last) entry and it charges 1
        probe, as the scalar search does.  Pieces expand into one row per
        vertex; the piece's answer is the hit with the smallest post (nearest
        the bottom) or the largest, reduced with ``np.minimum.reduceat``.
        Dirty rows take :meth:`search_segment`, whose default on-segment test
        (the tree's ancestor intervals) is membership of the vertical segment.
        """
        table = np.array(pieces, dtype=np.int64).reshape(-1, 7)
        sizes = table[:, 1] - table[:, 0] + 1
        offsets = np.cumsum(sizes) - sizes
        probes = rows = int(sizes.sum())  # 1 per clean row; dirty rows are corrected below
        per_row = np.repeat(table, sizes, axis=0)
        # Row r of piece i is the vertex with post lo[i] + r - offsets[i].
        row = per_row[:, 0] + np.arange(rows) - np.repeat(offsets, sizes)
        _, _, range_lo, range_hi, _, _, bottom = per_row.T
        dirty = self._dirty_mask()[row] if self._dirty else np.zeros(rows, dtype=bool)
        # The first key >= range_lo (prefer bottom) or the last key <=
        # range_hi; a key inside the range of a clean row is a hit.
        base = row * self._width
        pos = self._first_key_at_least(base + np.where(bottom, range_lo, range_hi + 1))
        post = self._flat_keys[pos - 1 + bottom] - base
        hit = (post >= range_lo) & (post <= range_hi) & ~dirty
        keys = np.where(hit, np.where(bottom, post, -post), _MISS)
        verts = self._tree._verts
        for r in np.flatnonzero(dirty).tolist():
            *_, top, bottom_i, prefer = per_row[r].tolist()
            u = self.vertex_of_post[row[r]]
            w, p = self.search_segment(u, verts[top], verts[bottom_i], bool(prefer), None)
            probes += p - 1
            if w is not None:
                keys[r] = self._tree.postorder(w) if prefer else -self._tree.postorder(w)
        keys = np.minimum.reduceat(keys, offsets)
        # A key is the hit's post, negated where the piece prefers the top.
        return np.where(keys == _MISS, -1, np.abs(keys)).tolist(), probes

    def _first_key_at_least(self, values: np.ndarray) -> np.ndarray:
        """Flat position of the first key ``>= values[i]``, for all ``i``
        at once.  The values are searched in sorted order: on a large ``D``
        that walks the keys front to back, several times faster than one
        binary search per value in random order."""
        order = np.argsort(values)
        pos = np.empty_like(order)
        pos[order] = np.searchsorted(self._flat_keys, values[order])
        return pos

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
        first in post order" with one binary search plus a short scan.  It
        serves the rows :meth:`search_min_post_batch` cannot read from the
        keys (dirty or unindexed rows), and so the re-anchor of a query
        round's batched subtree pieces.
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
        the scalar method once per triple.  Counts the call under
        ``d_batch_queries``, resolves the ids to their rows with one
        :meth:`DFSTree.indices <repro.tree.dfs_tree.DFSTree.indices>` gather
        and searches through :meth:`search_min_post_batch`.
        """
        if self._metrics is not None:
            self._metrics.inc("d_batch_queries")
        tree = self._tree
        ti = tree.indices(us)
        rows = np.where(ti >= 0, tree.as_arrays()["post"][ti], -1)  # ti == -1 gathers a post, never read
        return self.search_min_post_batch(us, rows, los, his)

    def search_min_post_batch(
        self, us: Sequence[Vertex], rows: Sequence[int], los: Sequence[int], his: Sequence[int]
    ) -> Tuple[List[Optional[Vertex]], int]:
        """Uncounted core of :meth:`min_post_alive_neighbor_batch`, and the
        re-anchor of a whole query round, which hands over its hits'
        post-order numbers directly: query ``i`` asks for the
        :meth:`min_post_alive_neighbor` answer of ``us[i]`` on ``[los[i],
        his[i]]``, and ``rows[i]`` is the base-tree post-order number of
        ``us[i]`` (``-1`` when the base tree does not index it).

        One search over the keys serves every row no overlay has touched:
        the first entry of a clean row with post-order number in ``[lo,
        hi]`` is alive by definition, so the search plus one gather through
        :attr:`vertex_of_post` resolves the whole clean subset (probes: 1 per
        hit, 0 per miss — the scalar accounting).  Dirty or unindexed rows
        take :meth:`min_post_alive_neighbor`.
        """
        rows = np.asarray(rows, dtype=np.int64)
        scalar = rows < 0
        if self._dirty:
            scalar |= self._dirty_mask()[rows]  # a row of -1 is scalar already
        # Every post lies in [0, width), so clipping keeps the answers and
        # keeps each key range inside the query's row.
        base = rows * self._width
        lo_k = base + np.maximum(los, 0)
        hi_k = base + np.minimum(his, self._width - 1)
        got = self._flat_keys[self._first_key_at_least(lo_k)]
        hits = np.flatnonzero((got >= lo_k) & (got <= hi_k) & ~scalar)
        probes = len(hits)
        out = np.full(len(rows), None, dtype=object)
        out[hits] = self.vertex_of_post[got[hits] - base[hits]]
        out = out.tolist()
        for i in np.flatnonzero(scalar).tolist():
            out[i], p = self.min_post_alive_neighbor(us[i], los[i], his[i])
            probes += p
        return out, probes

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
