"""Flat array implementation of the structure ``D`` (the ``"array"`` backend).

:class:`ArrayStructureD` stores the postorder-sorted adjacency of *every*
base-tree vertex in one flat pair of numpy arrays instead of per-vertex python
lists: a CSR-style ``indptr`` over vertex slots plus parallel ``posts``
(int64) and ``ids`` (object) arrays.  Construction is a single composite-key
argsort over the graph's half-edge arrays — ``key = slot * K + post`` with
``K = |T|`` makes one global sort equivalent to sorting every row by
post-order number — which is what buys the ≥10x rebuild speedup of the E11
large tier.

Scalar queries go through the same code as the dict backend: :meth:`_row`
hands :class:`StructureD`'s bisect loops a slice of the flat arrays instead of
python lists.  The two batched reads of a query round are vectorized
overrides:

* :meth:`search_subtrees` answers one layer of a round — every vertex of every
  subtree piece searching one target segment — with one row-bounded bisect
  over all source rows and one ``np.minimum.reduceat`` over the pieces;
* :meth:`search_min_post_batch` re-anchors every hit of the round with the
  same bisect.

Both fall back to the scalar code exactly for the rows a Theorem 9 overlay has
dirtied, and charge the probes the scalar code charges, so answers and probe
counters equal the dict backend's; the differential tests pin that.

The flat arrays are immutable snapshots of the base lists: overlays mask and
extend them without touching them (as in the paper), and only mark the rows
they affect dirty.  A refresh of ``D`` builds fresh flat arrays.

``D`` is defined on its base tree ``T`` (Theorem 8), and so are its rows:
a vertex id reaches its row through ``T``'s id table
(:meth:`~repro.tree.dfs_tree.DFSTree.indices`, tree index -> row), and the
row's neighbour ids through ``T``'s post-order.  Nothing reads the graph's
slot map after the build, so the graph may recycle a slot for a new vertex
while overlays are served: the new id is not in ``T`` and has no flat row.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.structure_d import StructureD
from repro.graph.array_graph import ArrayGraph

Vertex = Hashable

#: Key of a piece no row reached (every real key is a post-order number or
#: its negation).
_MISS = np.iinfo(np.int64).max


class ArrayStructureD(StructureD):
    """``D`` over flat postorder-sorted arrays, query-identical to the dict core.

    Accepts the same ``(graph, tree, metrics=...)`` constructor as
    :class:`StructureD`, but *graph* must be an :class:`ArrayGraph` (any other
    graph raises ``TypeError``): the sorted adjacency is built by one argsort
    over its half-edge arrays.
    """

    def _build(self) -> None:
        graph = self._graph
        tree = self._tree
        if not isinstance(graph, ArrayGraph):
            raise TypeError(f"ArrayStructureD needs an ArrayGraph, got {type(graph).__name__}")
        self._dirty: Set[Vertex] = set()
        # Base-tree rows in ``_dirty`` by post-order number (see
        # :meth:`_dirty_rows`); dropped whenever ``_dirty`` changes.
        self._dirty_rows_cache: Optional[Tuple[List[int], List[Vertex], np.ndarray]] = None
        # Arm the lazy caches: ``_post`` / ``_flat_ids`` are python-level
        # dicts/object arrays the vectorized build never touches; the first
        # *scalar* access materializes them.
        self.__dict__.pop("_post", None)
        # Row r is the adjacency of the vertex in graph slot r at build time.
        # Queries find rows through the base tree (tree index -> row), never
        # through the graph's slot map, so a slot the graph later recycles for
        # a new id cannot alias an old row.
        n_slots = graph.num_slots
        index_of_slot = tree.indices(graph._slot_ids)  # -1: free slot or not in T
        indexed = index_of_slot >= 0
        post_of_slot = np.full(n_slots, -1, dtype=np.int64)
        post_of_slot[indexed] = tree.as_arrays()["post"][index_of_slot[indexed]]
        # One extra -1 entry, so that index -1 (not in T) gathers "no row".
        row_of_index = np.full(tree.num_vertices + 1, -1, dtype=np.int64)
        row_of_index[index_of_slot[indexed]] = np.flatnonzero(indexed)
        self._row_of_index = row_of_index
        src, dst, alive = graph.edge_arrays()
        psrc = post_of_slot[src]
        pdst = post_of_slot[dst]
        sel = alive & (psrc >= 0) & (pdst >= 0)
        ssel = src[sel]
        K = max(tree.num_vertices, 1)
        # Composite key: rows are contiguous slot blocks, sorted by neighbour
        # post-order inside each block.  Keys are unique (simple graph, unique
        # posts), so any sort reproduces the dict backend's per-row order; the
        # half-edge arrays are mostly slot-ordered already, which the stable
        # sort exploits.
        key = ssel * K + pdst[sel]
        order = np.argsort(key, kind="stable")
        self._flat_posts = pdst[sel][order]
        counts = np.bincount(ssel, minlength=n_slots)
        indptr = np.zeros(n_slots + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        self._flat_indptr = indptr
        self._flat_total = int(indptr[-1])
        # Row-bounded bisects converge in log2(longest row) vectorized steps.
        self._flat_bisect_iters = int(counts.max()).bit_length() if n_slots else 0
        if self._metrics is not None:
            total_work = int(np.maximum(counts[indexed], 1).sum())
            self._metrics.inc("d_builds")
            self._metrics.inc("d_build_work", total_work)

    # ------------------------------------------------------------------ #
    # Lazy python-level views of the build.  These are ``cached_property``s
    # (non-data descriptors): the base constructor's plain ``_post`` write
    # would shadow one, so the build pops/never-sets the instance slot and
    # the first scalar access pays the construction exactly once.
    # ------------------------------------------------------------------ #
    @cached_property
    def _post(self) -> Dict[Vertex, int]:
        """Base post-order map, materialized on first scalar access."""
        tree = self._tree
        return dict(zip(tree._verts, tree._post))

    @cached_property
    def _flat_ids(self) -> np.ndarray:
        """Vertex ids parallel to the flat rows (object array, built lazily)."""
        return self._vertex_of_post[self._flat_posts]

    @cached_property
    def _row_of_post(self) -> np.ndarray:
        """Flat row of the base-tree vertex with each post-order number (-1
        for a vertex without a row, such as the virtual root)."""
        out = np.empty(self._tree.num_vertices, dtype=np.int64)
        out[self._tree.as_arrays()["post"]] = self._row_of_index[:-1]
        return out

    @cached_property
    def _vertex_of_post(self) -> np.ndarray:
        """Base-tree vertex with each post-order number (object array)."""
        arrays = self._tree.as_arrays()
        out = np.empty(self._tree.num_vertices, dtype=object)
        out[arrays["post"]] = arrays["vertices"]
        return out

    # ------------------------------------------------------------------ #
    # Row access (scalar queries)
    # ------------------------------------------------------------------ #
    def _row(self, u: Vertex):
        posts = self._sorted_posts.get(u)
        if posts is not None:
            return posts, self._sorted_nbrs[u]
        r = self._row_of_index[self._tree._idx.get(u, -1)]
        if r < 0:
            return None
        lo = self._flat_indptr[r]
        hi = self._flat_indptr[r + 1]
        return self._flat_posts[lo:hi], self._flat_ids[lo:hi]

    def size(self) -> int:
        """Total number of indexed adjacency entries (``O(overlay)``)."""
        # The dict rows are exactly the overlay-inserted vertices, disjoint
        # from the flat rows.
        return sum(len(lst) for lst in self._sorted_nbrs.values()) + self._flat_total

    # ------------------------------------------------------------------ #
    # Overlay bookkeeping: track which rows the flat arrays no longer answer
    # ------------------------------------------------------------------ #
    def note_edge_inserted(self, u: Vertex, v: Vertex) -> None:
        super().note_edge_inserted(u, v)
        self._mark_dirty((u, v))

    def note_edge_deleted(self, u: Vertex, v: Vertex) -> None:
        super().note_edge_deleted(u, v)
        self._mark_dirty((u, v))

    def note_vertex_inserted(self, v: Vertex, neighbors: Iterable[Vertex]) -> None:
        neighbors = list(neighbors)
        super().note_vertex_inserted(v, neighbors)
        self._mark_dirty([v, *neighbors])

    def note_vertex_deleted(self, v: Vertex) -> None:
        # The ex-neighbours' rows now hold dead entries, so they leave the
        # vectorized fast path too.
        row = self._row(v)
        if row is not None:
            self._mark_dirty(list(row[1]))
        self._mark_dirty(self._extra_edges.get(v, ()))
        self._mark_dirty((v,))
        super().note_vertex_deleted(v)

    def reset_overlays(self) -> None:
        super().reset_overlays()
        self._dirty.clear()
        self._dirty_rows_cache = None

    def _mark_dirty(self, vertices: Iterable[Vertex]) -> None:
        self._dirty.update(vertices)
        self._dirty_rows_cache = None

    def _dirty_rows(self) -> Tuple[List[int], List[Vertex], np.ndarray]:
        """The dirty rows of base-tree vertices, as ``(posts, vertices,
        mask)``: their post-order numbers ascending, the vertices aligned
        with them, and a boolean table over post-order numbers.  Built once
        per overlay change."""
        if self._dirty_rows_cache is None:
            tree = self._tree
            rows = sorted((tree.postorder(v), v) for v in self._dirty if v in tree)
            mask = np.zeros(tree.num_vertices, dtype=bool)
            mask[[p for p, _ in rows]] = True
            self._dirty_rows_cache = ([p for p, _ in rows], [v for _, v in rows], mask)
        return self._dirty_rows_cache

    # ------------------------------------------------------------------ #
    # Vectorized bulk queries
    # ------------------------------------------------------------------ #
    def min_post_alive_neighbor_batch(
        self, us: Sequence[Vertex], los: Sequence[int], his: Sequence[int]
    ) -> Tuple[List[Optional[Vertex]], int]:
        """Batched min-post re-anchor probes; counts the call under
        ``d_batch_queries`` and returns :meth:`search_min_post_batch`."""
        if self._metrics is not None:
            self._metrics.inc("d_batch_queries")
        return self.search_min_post_batch(us, los, his)

    def search_min_post_batch(
        self, us: Sequence[Vertex], los: Sequence[int], his: Sequence[int]
    ) -> Tuple[List[Optional[Vertex]], int]:
        """Uncounted batched re-anchor: one row-bounded bisect for every row
        no overlay has touched.

        The first flat entry of a clean row with post-order number in
        ``[lo, hi]`` is alive by definition, so the bisect plus one gather
        resolves the whole clean subset (probes: 1 per hit, 0 per miss — the
        scalar accounting).  Dirty or unindexed rows take the inherited
        scalar path; answers equal the scalar method's exactly.
        """
        n = len(us)
        if n == 0:
            return super().search_min_post_batch(us, los, his)
        # A query's row is clean when the base tree indexes it and no overlay
        # dirtied it; ids only an overlay inserted are not in the tree.
        tree = self._tree
        ti = tree.indices(us)
        rows = self._row_of_index[ti]
        clean = rows >= 0
        if self._dirty:
            # ti == -1 gathers an arbitrary post; ``clean`` is False there.
            clean &= ~self._dirty_rows()[2][tree.as_arrays()["post"][ti]]
        out_arr = np.full(n, None, dtype=object)
        probes = 0
        all_clean = bool(clean.all())
        idx = None if all_clean else np.flatnonzero(clean)
        if self._flat_total and (all_clean or len(idx)):
            los_c = np.asarray(los, dtype=np.int64)
            his_c = np.asarray(his, dtype=np.int64)
            if idx is None:
                ss = rows
            else:
                los_c = los_c[idx]
                his_c = his_c[idx]
                ss = rows[idx]
            row_end = self._flat_indptr[ss + 1]
            pos = self._row_bisect_left(self._flat_indptr[ss], row_end, los_c)
            valid = (pos < row_end) & (self._flat_posts[np.minimum(pos, self._flat_total - 1)] <= his_c)
            probes += int(valid.sum())
            hits = valid if idx is None else idx[valid]
            out_arr[hits] = self._flat_ids[pos[valid]]
        if not all_clean:
            out = out_arr.tolist()
            for i in np.flatnonzero(~clean).tolist():
                b, p = self.min_post_alive_neighbor(us[i], los[i], his[i])
                out[i] = b
                probes += p
            return out, probes
        return out_arr.tolist(), probes

    def _row_bisect_left(self, starts: np.ndarray, ends: np.ndarray, values: np.ndarray) -> np.ndarray:
        """``bisect_left`` of ``values[i]`` inside the flat row
        ``[starts[i], ends[i])``, for all ``i`` at once (flat positions).

        log2(longest row) gather steps beat one global searchsorted's
        ~log2(m) random hops.  Short rows converge in the first few steps, so
        after ``PHASE1`` rounds the still-active queries (long hub rows) are
        compressed and finished on their own.  Needs a non-empty flat array.
        """
        posts = self._flat_posts
        total_m1 = self._flat_total - 1
        pos = starts
        hi_b = ends
        iters = self._flat_bisect_iters
        PHASE1 = min(4, iters)
        for _ in range(PHASE1):
            mid = (pos + hi_b) >> 1
            go_right = posts[np.minimum(mid, total_m1)] < values
            go_right &= pos < hi_b
            pos = np.where(go_right, mid + 1, pos)
            hi_b = np.where(go_right, hi_b, mid)
        if iters > PHASE1:
            act = np.flatnonzero(pos < hi_b)
            if len(act):
                pos_a = pos[act]
                hi_a = hi_b[act]
                values_a = values[act]
                for _ in range(iters - PHASE1):
                    mid = (pos_a + hi_a) >> 1
                    go_right = posts[np.minimum(mid, total_m1)] < values_a
                    go_right &= pos_a < hi_a
                    pos_a = np.where(go_right, mid + 1, pos_a)
                    hi_a = np.where(go_right, hi_a, mid)
                pos[act] = pos_a
        return pos

    def search_subtrees(
        self,
        roots: Sequence[Vertex],
        segments: Sequence[Tuple[Vertex, Vertex, Callable[[Vertex], bool], bool]],
    ) -> Tuple[List[Optional[Vertex]], int]:
        """One layer of a query round as one row-bounded bisect.

        A piece ``T(root)`` is the post-order interval ``[post(root) -
        size(root) + 1, post(root)]``.  With the segment's bottom outside the
        piece, every piece vertex ``u`` searches the same post-order range:
        ``[post(lca(root, bottom)), post(top)]`` when *top* is an ancestor of
        *root*, none otherwise.  A clean row (no overlay touched it) needs no
        alive or on-segment check — overlays dirty every row they affect, and
        every base-row entry in the range is an ancestor of ``u`` on the
        vertical segment — so its answer is the range's first (or last)
        entry and it charges 1 probe, as the scalar search does.  The
        piece's answer is the hit with the smallest post (nearest the bottom)
        or the largest, reduced with ``np.minimum.reduceat``.  Dirty rows
        take :meth:`search_segment`.
        """
        tree = self._tree
        piece_lo: List[int] = []
        sizes: List[int] = []
        seg_lo: List[int] = []
        seg_hi: List[int] = []
        prefer: List[bool] = []
        for root, (top, bottom, _, prefer_bottom) in zip(roots, segments):
            size = tree.subtree_size(root)
            piece_lo.append(tree.postorder(root) - size + 1)
            sizes.append(size)
            prefer.append(prefer_bottom)
            if tree.is_ancestor(top, root):
                seg_lo.append(tree.postorder(tree.lca(root, bottom)))
                seg_hi.append(tree.postorder(top))
            else:  # no ancestor of the piece lies on the segment
                seg_lo.append(1)
                seg_hi.append(0)
        dirty_posts, dirty_verts, dirty_mask = self._dirty_rows()
        probes = sum(sizes)  # 1 per clean row; dirty rows are corrected below
        if self._flat_total:
            best = self._search_clean_rows(piece_lo, sizes, seg_lo, seg_hi, prefer, dirty_mask)
        else:
            best = [_MISS] * len(sizes)
        if dirty_posts:
            for i, (top, bottom, on_segment, prefer_bottom) in enumerate(segments):
                first = bisect_left(dirty_posts, piece_lo[i])
                last = bisect_right(dirty_posts, piece_lo[i] + sizes[i] - 1)
                for u in dirty_verts[first:last]:
                    w, p = self.search_segment(u, top, bottom, prefer_bottom, on_segment)
                    probes += p - 1
                    if w is not None:
                        w_post = tree.postorder(w)
                        best[i] = min(best[i], w_post if prefer_bottom else -w_post)
        vertex_of_post = self._vertex_of_post
        found = [
            None if key == _MISS else vertex_of_post[key if prefer_bottom else -key]
            for key, prefer_bottom in zip(best, prefer)
        ]
        return found, probes

    def _search_clean_rows(
        self,
        piece_lo: List[int],
        sizes: List[int],
        seg_lo: List[int],
        seg_hi: List[int],
        prefer: List[bool],
        dirty_mask: np.ndarray,
    ) -> List[int]:
        """Per piece, the best key over its clean rows: the hit's post when
        the piece prefers the bottom, minus it otherwise, ``_MISS`` when no
        clean row hits."""
        lo_p, sizes_a, lo_a, hi_a, bottom_a = np.array(
            [piece_lo, sizes, seg_lo, seg_hi, prefer], dtype=np.int64
        )
        offsets = np.cumsum(sizes_a) - sizes_a
        total = int(offsets[-1] + sizes_a[-1])
        # Row r of piece i is the source vertex with post lo_p[i] + r - offsets[i].
        row_post = np.arange(total, dtype=np.int64)
        row_post += np.repeat(lo_p - offsets, sizes_a)
        piece = np.repeat(np.arange(len(sizes)), sizes_a)
        flat_rows = self._row_of_post[row_post]
        rows = np.flatnonzero((flat_rows >= 0) & (lo_a <= hi_a)[piece] & ~dirty_mask[row_post])
        keys = np.full(total, _MISS, dtype=np.int64)
        if len(rows):
            ps = piece[rows]
            ss = flat_rows[rows]
            lo_r = lo_a[ps]
            hi_r = hi_a[ps]
            bottom_r = bottom_a[ps].astype(bool)
            starts = self._flat_indptr[ss]
            ends = self._flat_indptr[ss + 1]
            # The first entry >= lo (prefer bottom) or the last entry <= hi.
            pos = self._row_bisect_left(starts, ends, np.where(bottom_r, lo_r, hi_r + 1))
            at = np.where(bottom_r, pos, pos - 1)
            inside = np.where(bottom_r, pos < ends, pos > starts)
            got = self._flat_posts[np.minimum(np.maximum(at, 0), self._flat_total - 1)]
            hit = inside & (got >= lo_r) & (got <= hi_r)
            keys[rows[hit]] = np.where(bottom_r[hit], got[hit], -got[hit])
        return np.minimum.reduceat(keys, offsets).tolist()
