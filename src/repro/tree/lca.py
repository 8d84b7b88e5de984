"""The tree's lowest-common-ancestor and level-ancestor index.

:class:`ArrayLCAIndex` is the classical Euler tour + sparse table over depths:
``O(n log n)`` build, ``O(1)`` LCA query.  It is the stand-in for
Schieber–Vishkin (Theorems 5–6 of the paper): the query bound matches and the
construction parallelises with ``O(log n)`` depth (the metered version is
:mod:`repro.pram.lca_parallel`).  Level-ancestor queries descend the same
table in ``O(log n)`` steps.

Each :class:`~repro.tree.dfs_tree.DFSTree` builds one index lazily
(:meth:`~repro.tree.dfs_tree.DFSTree.lca_index`); the tree's scalar ``lca`` /
``level_ancestor`` and every :class:`~repro.service.snapshot.TreeSnapshot`
of the tree read it, the snapshots through the vectorized batch queries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, List

import numpy as np

from repro.exceptions import TreeError
from repro.tree.euler import euler_tour_arrays

if TYPE_CHECKING:
    from repro.tree.dfs_tree import DFSTree

Vertex = Hashable


class ArrayLCAIndex:
    """Euler-tour sparse-table LCA over numpy arrays, with batch queries.

    The tour is the whole forest's entry/exit event array of
    :func:`~repro.tree.euler.euler_tour_arrays`, so vertex ``i`` is entered at
    tour position ``tin[i]`` and each tree's span is closed by a depth ``-1``
    entry: a range that crosses two trees has its minimum there.  The table is
    a single padded 2-D int64 array built with vectorized ``np.where`` sweeps;
    :meth:`lca_batch` answers many queries with two fancy-indexed table
    look-ups for the whole batch.

    The index copies nothing it does not need from the tree and keeps no
    reference to it.
    """

    __slots__ = ("_idx", "_verts", "_tin", "_tour", "_depths", "_log", "_table", "_vert2idx")

    def __init__(self, tree: DFSTree) -> None:
        tour, depths = euler_tour_arrays(tree)
        arrs = tree.as_arrays()
        self._idx = tree._idx
        self._verts = arrs["vertices"]
        self._tin = arrs["tin"]
        self._tour = tour
        self._depths = depths
        m = len(tour)
        log = np.zeros(m + 1, dtype=np.int64)
        for k in range(1, m.bit_length()):
            log[1 << k :] = k
        self._log = log
        levels = int(log[m]) + 1 if m else 1
        # table[k][i] = tour position of the minimum-depth entry in
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
        self._vert2idx = _dense_ids(tree._verts, tree._roots_idx)

    # ------------------------------------------------------------------ #
    # Scalar queries over tour positions (DFSTree's entry times)
    # ------------------------------------------------------------------ #
    def lca_at(self, lo: int, hi: int) -> int:
        """Tree index of the LCA of the vertices entered at tour positions
        ``lo <= hi``, or ``-1`` when they lie in different trees."""
        k = (hi - lo + 1).bit_length() - 1
        row = self._table[k]
        left = row[lo]
        right = row[hi - (1 << k) + 1]
        depths = self._depths
        return int(self._tour[left if depths[left] <= depths[right] else right])

    def level_ancestor_at(self, pos: int, depth: int) -> int:
        """Tree index of the ancestor at *depth* of the vertex entered at tour
        position *pos* (``0 <= depth <=`` that vertex's level).

        Binary descent over the table: consecutive tour depths differ by one,
        so the answer is the last entry at or before *pos* no deeper than
        *depth*; each step skips a block of ``2^k`` entries whose minimum
        depth is still deeper.
        """
        table = self._table
        depths = self._depths
        for k in range(len(table) - 1, -1, -1):
            lo = pos - (1 << k) + 1
            if lo >= 0 and depths[table[k, lo]] > depth:
                pos = lo - 1
        return int(self._tour[pos])

    def lca(self, a: Vertex, b: Vertex) -> Vertex:
        """Lowest common ancestor of *a* and *b* (O(1))."""
        ta = int(self._tin[self._index_of(a)])
        tb = int(self._tin[self._index_of(b)])
        li = self.lca_at(ta, tb) if ta <= tb else self.lca_at(tb, ta)
        if li < 0:
            raise TreeError(f"{a!r} and {b!r} are in different trees of the forest")
        return self._verts[li]

    def _index_of(self, v: Vertex) -> int:
        try:
            return self._idx[v]
        except KeyError:
            raise TreeError(f"vertex {v!r} is not indexed by this LCA structure") from None

    # ------------------------------------------------------------------ #
    # Batch queries
    # ------------------------------------------------------------------ #
    def _dense_indices(self, vs):
        """Tree indices for *vs* via the dense table, or ``None`` to signal
        the caller to use the dict path (object ids, unknown ids, no table)."""
        n = len(vs)
        table = self._vert2idx
        if table is None:
            return None
        try:
            arr = np.asarray(vs)
        except ValueError:  # ragged ids, e.g. the virtual-root tuple among ints
            return None
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

    def indices(self, vs):
        """int64 tree indices of the vertices *vs*: one gather through the
        dense id table when the ids allow it, dict look-ups otherwise.
        Raises :class:`TreeError` on an unknown vertex."""
        out = self._dense_indices(vs)
        if out is None:
            idx = self._idx
            try:
                out = np.fromiter((idx[v] for v in vs), dtype=np.int64, count=len(vs))
            except KeyError as exc:
                raise TreeError(
                    f"vertex {exc.args[0]!r} is not indexed by this LCA structure"
                ) from None
        return out

    def lca_batch(self, avs, bvs) -> List[Vertex]:
        """Lowest common ancestors of the pairs ``zip(avs, bvs)``, vectorized.

        Returns a list aligned with the inputs; answers equal ``[self.lca(a,
        b) for a, b in zip(avs, bvs)]`` but the whole batch costs two sparse
        table gathers.
        """
        li = self.lca_indices_batch(self.indices(avs), self.indices(bvs))
        if len(li) and int(li.min()) < 0:
            i = int(np.argmin(li))
            raise TreeError(f"{avs[i]!r} and {bvs[i]!r} are in different trees of the forest")
        return self._verts[li].tolist()

    def lca_indices_batch(self, ia, ib):
        """Vectorized LCA core over *tree index* arrays.

        Takes two aligned int64 arrays of tree indices (as used by
        ``tree.as_arrays()``) and returns the int64 array of LCA tree indices,
        ``-1`` for a pair in different trees.  :meth:`lca_batch` is this plus
        the vertex-id resolution on both ends; callers that already hold
        indices (e.g. the snapshot service's vectorized path-length) skip the
        conversions entirely.
        """
        fa = self._tin[ia]
        fb = self._tin[ib]
        lo = np.minimum(fa, fb)
        hi = np.maximum(fa, fb)
        ks = self._log[hi - lo + 1]
        left = self._table[ks, lo]
        right = self._table[ks, hi - np.left_shift(1, ks) + 1]
        mins = np.where(self._depths[left] <= self._depths[right], left, right)
        return self._tour[mins]


def _dense_ids(verts: List[Vertex], roots: List[int]):
    """Dense int-id -> tree-index table when vertex ids allow it.

    Lets :meth:`ArrayLCAIndex.lca_batch` replace the per-vertex dict lookups
    with one gather.  ``None`` (object ids, huge/negative ids) falls back to
    the dict path; a non-int first root (e.g. the virtual root) is tolerated
    by masking its slot out.
    """
    n = len(verts)
    if not n:
        return None
    ids = verts
    root = verts[roots[0]]
    if not isinstance(root, int):
        ids = list(verts)
        ids[roots[0]] = -1
    # bools are ints here, which is fine (hash(True) == hash(1)); floats
    # and other objects must NOT silently truncate into the table.
    if not all(isinstance(v, int) for v in ids):
        return None
    arr = np.array(ids, dtype=np.int64)
    mask = arr >= 0
    if not bool(mask.any()):
        return None
    pos = arr[mask]
    if int(pos.max()) > 8 * n + 64:
        return None
    table = np.full(int(pos.max()) + 1, -1, dtype=np.int64)
    table[pos] = np.flatnonzero(mask)
    return table
