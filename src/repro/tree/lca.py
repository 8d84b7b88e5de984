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
of the tree read it, the snapshots through the vectorized batch query.  The
index speaks tree indices only: callers resolve vertex ids with
:meth:`~repro.tree.dfs_tree.DFSTree.indices` and map answers back through
the tree's vertex array.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.tree.euler import euler_tour_arrays

if TYPE_CHECKING:
    from repro.tree.dfs_tree import DFSTree


class ArrayLCAIndex:
    """Euler-tour sparse-table LCA over numpy arrays, with batch queries.

    The tour is the whole forest's entry/exit event array of
    :func:`~repro.tree.euler.euler_tour_arrays`, so vertex ``i`` is entered at
    tour position ``tin[i]`` and each tree's span is closed by a depth ``-1``
    entry: a range that crosses two trees has its minimum there.  The table is
    a single padded 2-D int64 array built with vectorized ``np.where`` sweeps;
    :meth:`lca_indices_batch` answers many queries with two fancy-indexed
    table look-ups for the whole batch.

    The index holds no vertex ids and no reference to the tree.
    """

    __slots__ = ("_tin", "_tour", "_depths", "_log", "_table")

    def __init__(self, tree: DFSTree) -> None:
        tour, depths = euler_tour_arrays(tree)
        self._tin = tree.as_arrays()["tin"]
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

    # ------------------------------------------------------------------ #
    # Batch queries over tree indices
    # ------------------------------------------------------------------ #
    def lca_indices_batch(self, ia, ib):
        """Vectorized LCA core over *tree index* arrays.

        Takes two aligned int64 arrays of tree indices (as used by
        ``tree.as_arrays()`` and returned by ``tree.indices``) and returns
        the int64 array of LCA tree indices, ``-1`` for a pair in different
        trees.
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

