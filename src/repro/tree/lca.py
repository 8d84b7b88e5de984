"""Lowest-common-ancestor indices.

:class:`~repro.tree.dfs_tree.DFSTree` answers LCA and level-ancestor queries
itself from a lazily built binary-lifting table (``O(n log n)`` build,
``O(log n)`` query).  This module adds the constant-time indices:

* :class:`EulerTourLCA` — Euler tour + sparse table over depths, ``O(n log n)``
  build, ``O(1)`` query.  This is the classical stand-in for Schieber–Vishkin
  (Theorem 5/6 of the paper): the query bound matches and the construction
  parallelises with ``O(log n)`` depth (see :mod:`repro.pram.lca_parallel`).
* :class:`ArrayLCAIndex` — the same index over numpy arrays, with batch
  queries.
"""

from __future__ import annotations

from typing import Dict, Hashable, List

import numpy as np

from repro.exceptions import TreeError
from repro.tree.dfs_tree import DFSTree
from repro.tree.euler import euler_tour, euler_tour_arrays

Vertex = Hashable


class EulerTourLCA:
    """Constant-time LCA queries via Euler tour + sparse table (range-minimum).

    Build time and space are ``O(n log n)``; each query performs two table
    look-ups.  Only vertices of the tree containing ``root`` are indexed.
    """

    def __init__(self, tree: DFSTree, root: Vertex | None = None) -> None:
        self._tree = tree
        tour, first, depths = euler_tour(tree, root)
        self._tour = tour
        self._first = first
        m = len(tour)
        self._log_table = self._build_log_table(m)
        self._sparse = self._build_sparse(depths)

    @staticmethod
    def _build_log_table(m: int) -> List[int]:
        log = [0] * (m + 1)
        for i in range(2, m + 1):
            log[i] = log[i // 2] + 1
        return log

    def _build_sparse(self, depths: List[int]) -> List[List[int]]:
        m = len(depths)
        if m == 0:
            return [[]]
        levels = self._log_table[m] + 1
        # sparse[k][i] = index (into the tour) of the minimum-depth entry in
        # tour[i : i + 2^k].
        sparse: List[List[int]] = [list(range(m))]
        for k in range(1, levels):
            half = 1 << (k - 1)
            prev = sparse[k - 1]
            width = m - (1 << k) + 1
            row = []
            for i in range(max(width, 0)):
                left = prev[i]
                right = prev[i + half]
                row.append(left if depths[left] <= depths[right] else right)
            sparse.append(row)
        self._depths = depths
        return sparse

    def _range_min_index(self, lo: int, hi: int) -> int:
        """Index of the minimum-depth tour entry in the inclusive range [lo, hi]."""
        span = hi - lo + 1
        k = self._log_table[span]
        left = self._sparse[k][lo]
        right = self._sparse[k][hi - (1 << k) + 1]
        return left if self._depths[left] <= self._depths[right] else right

    def lca(self, a: Vertex, b: Vertex) -> Vertex:
        """Lowest common ancestor of *a* and *b* (O(1))."""
        try:
            ia, ib = self._first[a], self._first[b]
        except KeyError as exc:
            raise TreeError(f"vertex {exc.args[0]!r} is not indexed by this LCA structure") from None
        if ia > ib:
            ia, ib = ib, ia
        return self._tour[self._range_min_index(ia, ib)]

    def is_ancestor(self, a: Vertex, b: Vertex) -> bool:
        """True iff *a* is an ancestor of *b*."""
        return self.lca(a, b) == a

    def distance(self, a: Vertex, b: Vertex) -> int:
        """Number of tree edges between *a* and *b*."""
        l = self.lca(a, b)
        return self._tree.level(a) + self._tree.level(b) - 2 * self._tree.level(l)


class ArrayLCAIndex:
    """Euler-tour sparse-table LCA over numpy arrays, with batch queries.

    The vectorized counterpart of :class:`EulerTourLCA`: same tour, same
    range-minimum sparse table, same answers, but the table is a single padded
    2-D int64 array built with vectorized ``np.where`` sweeps and
    :meth:`lca_batch` answers many queries in one shot (two fancy-indexed
    table look-ups for the whole batch).
    """

    def __init__(self, tree: DFSTree, root: Vertex | None = None) -> None:
        self._tree = tree
        tour, first, depths = euler_tour_arrays(tree, root)
        self._tour = tour
        self._first = first
        self._depths = depths
        arrs = tree.as_arrays()
        self._verts = arrs["vertices"]
        self._tin = arrs["tin"]
        self._tout = arrs["tout"]
        m = len(tour)
        log = np.zeros(m + 1, dtype=np.int64)
        for k in range(1, m.bit_length()):
            log[1 << k :] = k
        self._log = log
        levels = int(log[m]) + 1 if m else 1
        # table[k][i] = tour index of the minimum-depth entry in
        # tour[i : i + 2^k]; positions past the valid width are padding
        # (copied from the previous level, never read by a query).
        table = np.empty((levels, max(m, 1)), dtype=np.int64)
        table[0] = np.arange(max(m, 1), dtype=np.int64)
        for k in range(1, levels):
            half = 1 << (k - 1)
            width = m - (1 << k) + 1
            prev = table[k - 1]
            left = prev[:width]
            right = prev[half : half + width]
            table[k, :width] = np.where(depths[left] <= depths[right], left, right)
            table[k, width:] = prev[width:]
        self._table = table
        self._vert2idx = self._build_vert2idx(tree)

    def _build_vert2idx(self, tree: DFSTree):
        """Dense int-id -> tree-index table when vertex ids allow it.

        Lets :meth:`lca_batch` replace the per-vertex dict lookups with one
        gather.  ``None`` (object ids, huge/negative ids) falls back to the
        dict path; a non-int root (e.g. the virtual root) is tolerated by
        masking its slot out.
        """
        verts = tree._verts
        n = len(verts)
        if not n:
            return None
        ids = verts
        root = tree.root
        if not isinstance(root, int):
            try:
                ri = verts.index(root)
            except ValueError:
                ri = -1
            if ri >= 0:
                ids = list(verts)
                ids[ri] = -1
        # bools are ints here, which is fine (hash(True) == hash(1)); floats
        # and other objects must NOT silently truncate into the table.
        if not all(isinstance(v, int) for v in ids):
            return None
        arr = np.array(ids, dtype=np.int64)
        mask = arr >= 0
        if not bool(mask.any()):
            return None
        pos = arr[mask]
        if int(pos.min()) < 0 or int(pos.max()) > 8 * n + 64:
            return None
        table = np.full(int(pos.max()) + 1, -1, dtype=np.int64)
        table[pos] = np.flatnonzero(mask)
        return table

    def _batch_indices(self, vs, n: int):
        """Tree indices for *vs* via the dense table, or ``None`` to signal
        the caller to use the dict path (object ids, unknown ids, no table)."""
        table = self._vert2idx
        if table is None:
            return None
        arr = np.asarray(vs)
        if arr.shape != (n,) or arr.dtype.kind not in "iub":
            return None
        arr = arr.astype(np.int64, copy=False)
        if n == 0:
            return arr
        if int(arr.min()) < 0 or int(arr.max()) >= len(table):
            return None
        out = table[arr]
        if int(out.min()) < 0:
            return None
        return out

    def _first_of(self, v: Vertex):
        try:
            f = self._first[self._tree._idx[v]]
        except KeyError:
            raise TreeError(f"vertex {v!r} is not indexed by this LCA structure") from None
        if f < 0:
            raise TreeError(f"vertex {v!r} is not indexed by this LCA structure")
        return f

    def lca(self, a: Vertex, b: Vertex) -> Vertex:
        """Lowest common ancestor of *a* and *b* (O(1))."""
        ia = self._first_of(a)
        ib = self._first_of(b)
        if ia > ib:
            ia, ib = ib, ia
        k = self._log[ib - ia + 1]
        left = self._table[k, ia]
        right = self._table[k, ib - (1 << int(k)) + 1]
        m = left if self._depths[left] <= self._depths[right] else right
        return self._verts[self._tour[m]]

    def lca_batch(self, avs, bvs) -> List[Vertex]:
        """Lowest common ancestors of the pairs ``zip(avs, bvs)``, vectorized.

        Returns a list aligned with the inputs; answers equal ``[self.lca(a,
        b) for a, b in zip(avs, bvs)]`` but the whole batch costs two sparse
        table gathers.
        """
        na = len(avs)
        ia = self._batch_indices(avs, na)
        ib = self._batch_indices(bvs, na) if ia is not None else None
        if ia is None or ib is None:
            idx = self._tree._idx
            try:
                ia = np.fromiter((idx[a] for a in avs), dtype=np.int64, count=na)
                ib = np.fromiter((idx[b] for b in bvs), dtype=np.int64, count=na)
            except KeyError as exc:
                raise TreeError(
                    f"vertex {exc.args[0]!r} is not indexed by this LCA structure"
                ) from None
        return self._verts[self.lca_indices_batch(ia, ib)].tolist()

    def lca_indices_batch(self, ia, ib):
        """Vectorized LCA core over *tree index* arrays.

        Takes two aligned int64 arrays of tree indices (as used by
        ``tree.as_arrays()``) and returns the int64 array of LCA tree indices.
        :meth:`lca_batch` is this plus the vertex-id resolution on both ends;
        callers that already hold indices (e.g. the snapshot service's
        vectorized path-length) skip the conversions entirely.
        """
        fa = self._first[ia]
        fb = self._first[ib]
        if len(ia) and (int(fa.min()) < 0 or int(fb.min()) < 0):
            bad_i = int(ia[int(np.argmin(fa))]) if int(fa.min()) < 0 else int(ib[int(np.argmin(fb))])
            raise TreeError(
                f"vertex {self._tree._verts[bad_i]!r} is not indexed by this LCA structure"
            )
        lo = np.minimum(fa, fb)
        hi = np.maximum(fa, fb)
        ks = self._log[hi - lo + 1]
        left = self._table[ks, lo]
        right = self._table[ks, hi - np.left_shift(1, ks) + 1]
        mins = np.where(self._depths[left] <= self._depths[right], left, right)
        return self._tour[mins]

    def is_ancestor(self, a: Vertex, b: Vertex) -> bool:
        """True iff *a* is an ancestor of *b* (O(1) via entry/exit intervals)."""
        ai = self._tree._i(a)
        bi = self._tree._i(b)
        return bool(self._tin[ai] <= self._tin[bi] and self._tout[bi] <= self._tout[ai])

    def distance(self, a: Vertex, b: Vertex) -> int:
        """Number of tree edges between *a* and *b*."""
        l = self.lca(a, b)
        return self._tree.level(a) + self._tree.level(b) - 2 * self._tree.level(l)
