"""Flat array implementation of the structure ``D`` (the ``"array"`` backend).

:class:`ArrayStructureD` stores the postorder-sorted adjacency of *every*
base-tree vertex in one flat pair of numpy arrays instead of per-vertex python
lists: a CSR-style ``indptr`` over vertex slots plus parallel ``posts``
(int64) and ``ids`` (object) arrays.  Construction is a single composite-key
argsort over the graph's half-edge arrays — ``key = slot * K + post`` with
``K = |T|`` makes one global sort equivalent to sorting every row by
post-order number — which is what buys the ≥10x rebuild speedup of the E11
large tier.

Queries go through the same scalar code as the dict backend: the only override
on the read path is :meth:`_row`, which hands :class:`StructureD`'s bisect
loops a slice of the flat arrays instead of python lists, so answers and probe
counters are **byte-identical by construction**.  Bulk work gets vectorized
fast paths: :meth:`min_post_alive_neighbor_batch` answers every
overlay-untouched row with one global ``np.searchsorted``, falling back to the
scalar path exactly for the rows a Theorem 9 overlay has dirtied.

The flat arrays are immutable snapshots of the base lists: overlays mask and
extend them without touching them (as in the paper), and only mark the rows
they affect dirty.  A refresh of ``D`` builds fresh flat arrays.
"""

from __future__ import annotations

from functools import cached_property
from itertools import repeat
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.structure_d import StructureD
from repro.graph.array_graph import _FREE, ArrayGraph

Vertex = Hashable


class ArrayStructureD(StructureD):
    """``D`` over flat postorder-sorted arrays, query-identical to the dict core.

    Accepts the same ``(graph, tree, metrics=...)`` constructor as
    :class:`StructureD`.  When *graph* is an :class:`ArrayGraph` the sorted
    adjacency is built by one argsort over its half-edge arrays; for any other
    graph (e.g. a semi-streaming snapshot materialised as a plain dict graph)
    it silently falls back to the inherited per-vertex build, so callers never
    need to special-case.
    """

    def _build(self) -> None:
        graph = self._graph
        tree = self._tree
        self._flat_posts: Optional[np.ndarray] = None
        self._flat_dst_slots: Optional[np.ndarray] = None
        self._flat_indptr: Optional[np.ndarray] = None
        self._flat_K = 1
        self._flat_total = 0
        self._flat_bisect_iters = 0
        self._post_of_slot: Optional[np.ndarray] = None
        self._frozen_slot_ids: List = []
        self._frozen_has_free = False
        self._id2slot: Optional[np.ndarray] = None  # dense int-id -> slot table
        self._dirty: Set[Vertex] = set()
        # True when the rows live in the inherited per-vertex python lists
        # (a graph that is not an ArrayGraph) instead of the flat arrays.
        self._materialized = False
        if not isinstance(graph, ArrayGraph):
            self._materialized = True
            super()._build()
            return
        # Arm the lazy caches: ``_post`` / ``_slot_of_frozen`` / ``_flat_ids``
        # are python-level dicts/object arrays the vectorized build never
        # touches; the first *scalar* access materializes them from the
        # build-time snapshots below.
        self.__dict__.pop("_post", None)
        # Freeze the slot map at build time: if the graph later recycles a
        # slot for a new vertex id, queries must keep resolving the *old*
        # vertices (masked by overlays) and treat the new id as unindexed.
        # ``list(...)`` is a C-level pointer copy, so freezing is O(n) cheap.
        self._frozen_slot_ids = list(graph._slot_ids)
        self._frozen_has_free = bool(graph._free_slots)
        n_slots = graph.num_slots
        slot_of = graph.slot_index()
        # tree._verts / tree._post are index-aligned: same mapping as
        # {v: tree.postorder(v) for v in tree.vertices()} without n method
        # calls; vertices absent from the graph (the virtual root) map to -1.
        tslots = self._tree_vertex_slots(graph, tree, slot_of)
        tposts = tree.as_arrays()["post"]
        post_of_slot = np.full(n_slots, -1, dtype=np.int64)
        mask = tslots >= 0
        post_of_slot[tslots[mask]] = tposts[mask]
        self._post_of_slot = post_of_slot
        src, dst, alive = graph.edge_arrays()
        psrc = post_of_slot[src] if len(src) else np.empty(0, dtype=np.int64)
        pdst = post_of_slot[dst] if len(dst) else np.empty(0, dtype=np.int64)
        sel = alive & (psrc >= 0) & (pdst >= 0)
        ssel = src[sel]
        K = max(tree.num_vertices, 1)
        # Composite key: rows are contiguous slot blocks, sorted by neighbour
        # post-order inside each block.  Keys are unique (simple graph, unique
        # posts), so any sort reproduces the dict backend's per-row order.
        key = ssel * K + pdst[sel]
        order = np.argsort(key, kind="stable")
        self._flat_posts = pdst[sel][order]
        self._flat_dst_slots = dst[sel][order]
        counts = np.bincount(ssel, minlength=n_slots)
        indptr = np.zeros(n_slots + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        self._flat_indptr = indptr
        self._flat_K = K
        self._flat_total = int(indptr[-1])
        # Row-bounded bisects converge in log2(longest row) vectorized steps.
        self._flat_bisect_iters = int(counts.max()).bit_length() if n_slots else 0
        if self._metrics is not None:
            indexed = np.flatnonzero(post_of_slot >= 0)
            total_work = int(np.maximum(counts[indexed], 1).sum()) if len(indexed) else 0
            self._metrics.inc("d_builds")
            self._metrics.inc("d_build_work", total_work)

    def _tree_vertex_slots(self, graph: ArrayGraph, tree, slot_of) -> np.ndarray:
        """Slot of every tree vertex (-1 when not in the graph), index-aligned
        with ``tree._verts``.

        Fast path for the common dense case — non-negative int vertex ids, no
        free slots — via one int64 conversion and a dense ``id -> slot``
        scatter table; anything else (object ids, negative/sparse ids,
        recycled slots) falls back to one python pass over the dict.
        """
        verts = tree._verts
        n = len(verts)
        if not graph._free_slots and graph.num_slots:
            try:
                root_i = verts.index(tree.root) if not isinstance(tree.root, int) else -1
                if root_i >= 0:
                    tmp = list(verts)
                    tmp[root_i] = -1  # the (non-int) root is never a graph vertex
                    tv = np.array(tmp, dtype=np.int64)
                else:
                    tv = np.array(verts, dtype=np.int64)
                sids = np.array(graph._slot_ids, dtype=np.int64)
            except (TypeError, ValueError, OverflowError):
                pass
            else:
                hi = int(sids.max()) if len(sids) else -1
                lo = int(sids.min()) if len(sids) else 0
                if lo >= 0 and hi <= 8 * (graph.num_slots + n):
                    id2slot = np.full(hi + 1, -1, dtype=np.int64)
                    id2slot[sids] = np.arange(len(sids), dtype=np.int64)
                    # Keep the dense table: it snapshots the same build-time
                    # slot map as ``_frozen_slot_ids``, and lets the batched
                    # re-anchor resolve int vertex ids without a python loop.
                    self._id2slot = id2slot
                    tslots = np.full(n, -1, dtype=np.int64)
                    in_range = (tv >= 0) & (tv <= hi)
                    tslots[in_range] = id2slot[tv[in_range]]
                    return tslots
        return np.fromiter(
            map(slot_of.get, verts, repeat(-1)), dtype=np.int64, count=n
        )

    # ------------------------------------------------------------------ #
    # Lazy python-level views of the build-time snapshots.  These are
    # ``cached_property``s (non-data descriptors): the base class's plain
    # attribute writes shadow them on the fallback paths, while the
    # vectorized build pops/never-sets the instance slot so the first scalar
    # access pays the dict construction exactly once.
    # ------------------------------------------------------------------ #
    @cached_property
    def _post(self) -> Dict[Vertex, int]:
        """Base post-order map, materialized on first scalar access."""
        tree = self._tree
        return dict(zip(tree._verts, tree._post))

    @cached_property
    def _slot_of_frozen(self) -> Dict[Vertex, int]:
        """Build-time ``vertex -> slot`` snapshot (tree-indexed slots only)."""
        pos = self._post_of_slot
        if pos is None:
            return {}
        valid = (pos >= 0).tolist()
        return {
            v: s
            for s, v in enumerate(self._frozen_slot_ids)
            if valid[s] and v is not _FREE
        }

    @cached_property
    def _flat_ids(self) -> Optional[np.ndarray]:
        """Vertex ids parallel to the flat rows (object array, built lazily)."""
        if self._flat_dst_slots is None:
            return None
        lookup = np.empty(len(self._frozen_slot_ids), dtype=object)
        if self._frozen_has_free:
            lookup[:] = [None if v is _FREE else v for v in self._frozen_slot_ids]
        elif len(self._frozen_slot_ids):
            lookup[:] = self._frozen_slot_ids
        return lookup[self._flat_dst_slots]

    # ------------------------------------------------------------------ #
    # Row access (the one read-path override)
    # ------------------------------------------------------------------ #
    def _row(self, u: Vertex):
        posts = self._sorted_posts.get(u)
        if posts is not None:
            return posts, self._sorted_nbrs[u]
        if self._materialized:
            return None
        s = self._slot_of_frozen.get(u)
        if s is None:
            return None
        lo = self._flat_indptr[s]
        hi = self._flat_indptr[s + 1]
        return self._flat_posts[lo:hi], self._flat_ids[lo:hi]

    def size(self) -> int:
        """Total number of indexed adjacency entries (``O(overlay)``)."""
        total = sum(len(lst) for lst in self._sorted_nbrs.values())
        if not self._materialized:
            # Over the flat build the dict rows are exactly the
            # overlay-inserted vertices, disjoint from the flat rows.
            total += self._flat_total
        return total

    # ------------------------------------------------------------------ #
    # Overlay bookkeeping: track which rows the flat arrays no longer answer
    # ------------------------------------------------------------------ #
    def note_edge_inserted(self, u: Vertex, v: Vertex) -> None:
        super().note_edge_inserted(u, v)
        self._dirty.add(u)
        self._dirty.add(v)

    def note_edge_deleted(self, u: Vertex, v: Vertex) -> None:
        super().note_edge_deleted(u, v)
        self._dirty.add(u)
        self._dirty.add(v)

    def note_vertex_inserted(self, v: Vertex, neighbors: Iterable[Vertex]) -> None:
        neighbors = list(neighbors)
        super().note_vertex_inserted(v, neighbors)
        self._dirty.add(v)
        self._dirty.update(neighbors)

    def note_vertex_deleted(self, v: Vertex) -> None:
        # The ex-neighbours' rows now hold dead entries, so they leave the
        # vectorized fast path too.
        row = self._row(v)
        if row is not None:
            self._dirty.update(list(row[1]))
        self._dirty.update(self._extra_edges.get(v, ()))
        self._dirty.add(v)
        super().note_vertex_deleted(v)

    def reset_overlays(self) -> None:
        super().reset_overlays()
        self._dirty.clear()

    # ------------------------------------------------------------------ #
    # Vectorized bulk queries
    # ------------------------------------------------------------------ #
    def min_post_alive_neighbor_batch(
        self, us: Sequence[Vertex], los: Sequence[int], his: Sequence[int]
    ) -> Tuple[List[Optional[Vertex]], int]:
        """Batched min-post re-anchor probes via one global ``searchsorted``.

        Rows untouched by any overlay are answered together: the first flat
        entry with post-order number in ``[lo, hi]`` is alive by definition,
        so one ``np.searchsorted`` on the composite keys plus one gather
        resolves the whole clean subset (probes: 1 per hit, 0 per miss — the
        scalar accounting).  Dirty, materialized or unindexed rows take the
        inherited scalar path; answers equal the scalar method's exactly.
        """
        if self._metrics is not None:
            self._metrics.inc("d_batch_queries")
        n = len(us)
        if self._materialized or self._flat_indptr is None or n == 0:
            if self._metrics is not None:
                self._metrics.inc("d_batch_query_fallbacks")
            return super(ArrayStructureD, self).min_post_alive_neighbor_batch(us, los, his)
        slots, clean = self._clean_query_slots(us, n)
        out_arr = np.full(n, None, dtype=object)
        probes = 0
        all_clean = bool(clean.all())
        idx = None if all_clean else np.flatnonzero(clean)
        if self._flat_total and (all_clean or len(idx)):
            los_c = np.asarray(los, dtype=np.int64)
            his_c = np.asarray(his, dtype=np.int64)
            if idx is None:
                ss = slots
            else:
                los_c = los_c[idx]
                his_c = his_c[idx]
                ss = slots[idx]
            # Vectorized bisect bounded to each query's row: log2(longest
            # row) gather steps beat one global searchsorted's ~log2(m)
            # random hops.  Same position as bisect_left on the row.  Short
            # rows converge in the first few steps, so after PHASE1 rounds
            # the still-active queries (long hub rows) are compressed and
            # finished on their own.
            posts = self._flat_posts
            total_m1 = self._flat_total - 1
            pos = self._flat_indptr[ss]
            row_end = self._flat_indptr[ss + 1]
            hi_b = row_end
            iters = self._flat_bisect_iters
            PHASE1 = min(4, iters)
            for _ in range(PHASE1):
                mid = (pos + hi_b) >> 1
                go_right = posts[np.minimum(mid, total_m1)] < los_c
                go_right &= pos < hi_b
                pos = np.where(go_right, mid + 1, pos)
                hi_b = np.where(go_right, hi_b, mid)
            if iters > PHASE1:
                act = np.flatnonzero(pos < hi_b)
                if len(act):
                    pos_a = pos[act]
                    hi_a = hi_b[act]
                    los_a = los_c[act]
                    for _ in range(iters - PHASE1):
                        mid = (pos_a + hi_a) >> 1
                        go_right = posts[np.minimum(mid, total_m1)] < los_a
                        go_right &= pos_a < hi_a
                        pos_a = np.where(go_right, mid + 1, pos_a)
                        hi_a = np.where(go_right, hi_a, mid)
                    pos[act] = pos_a
            valid = (pos < row_end) & (posts[np.minimum(pos, total_m1)] <= his_c)
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

    def _clean_query_slots(self, us: Sequence[Vertex], n: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per-query flat slot (where resolvable) and a mask of the queries the
        vectorized path may answer: base-indexed rows no overlay has dirtied.

        With the dense int-id table from the build fast path the whole marking
        is array ops; otherwise (object ids, recycled slots) it is one python
        pass over the frozen dict — answers are identical either way.
        """
        id2slot = self._id2slot
        if id2slot is not None:
            us_arr: Optional[np.ndarray] = np.asarray(us)
            # ints only — float/object dtypes would silently truncate/convert
            if us_arr.shape != (n,) or us_arr.dtype.kind not in "iub":
                us_arr = None
            else:
                us_arr = us_arr.astype(np.int64, copy=False)
            if us_arr is not None:
                if int(us_arr.min()) >= 0 and int(us_arr.max()) < len(id2slot):
                    slots = id2slot[us_arr]
                else:
                    in_range = (us_arr >= 0) & (us_arr < len(id2slot))
                    slots = np.where(in_range, id2slot[np.where(in_range, us_arr, 0)], -1)
                clean = slots >= 0
                # only rows indexed by the base tree live in the flat arrays
                if clean.all():
                    clean = self._post_of_slot[slots] >= 0
                else:
                    clean &= self._post_of_slot[np.where(clean, slots, 0)] >= 0
                for excl in (self._dirty, self._sorted_posts):
                    if not excl or not clean.any():
                        continue
                    if all(isinstance(v, int) for v in excl):
                        ids = np.fromiter(excl, dtype=np.int64, count=len(excl))
                        clean &= ~np.isin(us_arr, ids)
                    else:  # non-int overlay ids: per-element membership
                        for i in np.flatnonzero(clean).tolist():
                            if us[i] in excl:
                                clean[i] = False
                return slots, clean
        frozen = self._slot_of_frozen
        dirty = self._dirty
        overlay_rows = self._sorted_posts
        slots = np.full(n, -1, dtype=np.int64)
        clean = np.zeros(n, dtype=bool)
        for i, u in enumerate(us):
            s = frozen.get(u)
            if s is not None and u not in dirty and u not in overlay_rows:
                slots[i] = s
                clean[i] = True
        return slots, clean
