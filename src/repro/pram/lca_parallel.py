"""Parallel LCA preprocessing (stand-in for Schieber–Vishkin, Theorems 5–6).

The structure is the classical Euler-tour + sparse-table range-minimum index.
Preprocessing runs through the :class:`~repro.pram.machine.PRAM` simulator in
``O(log n)`` parallel steps of ``O(n)`` processors each (``O(n log n)`` work —
within the paper's poly-logarithmic slack, which absorbs the extra ``log n``
factor of this textbook stand-in); each query then
takes ``O(1)`` host time, and a batch of ``k`` independent queries is one more
parallel step of ``k`` processors, matching Theorem 6.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple

from repro.exceptions import TreeError
from repro.pram.machine import PRAM
from repro.tree.dfs_tree import DFSTree
from repro.tree.euler import euler_tour

Vertex = Hashable


class ParallelLCA:
    """Sparse-table LCA whose construction is metered on the PRAM simulator."""

    def __init__(self, pram: PRAM, tree: DFSTree, root: Vertex | None = None) -> None:
        self._pram = pram
        self._tree = tree
        tour, first, depths = euler_tour(tree, root)
        # Building the tour itself is an Euler-tour + list-ranking computation
        # (see repro.pram.tree_functions); charge its model cost explicitly.
        n = max(len(tour), 2)
        pram.charge(depth=max(1, (n - 1).bit_length()), work=len(tour))
        self._tour = tour
        self._first = first
        self._depths = depths
        self._log_table = self._build_log_table(len(tour))
        self._sparse = self._build_sparse_parallel(depths)

    @staticmethod
    def _build_log_table(m: int) -> List[int]:
        log = [0] * (m + 1)
        for i in range(2, m + 1):
            log[i] = log[i // 2] + 1
        return log

    def _build_sparse_parallel(self, depths: Sequence[int]) -> List[List[int]]:
        m = len(depths)
        if m == 0:
            return [[]]
        levels = self._log_table[m] + 1
        sparse: List[List[int]] = [list(range(m))]
        for k in range(1, levels):
            half = 1 << (k - 1)
            width = m - (1 << k) + 1
            prev = sparse[k - 1]
            row_arr = self._pram.zeros(max(width, 0), f"lca_sparse_{k}")

            def fill(_proc: int, i: int, *, prev=prev, half=half, row_arr=row_arr) -> None:
                left = prev[i]
                right = prev[i + half]
                row_arr.write(i, left if depths[left] <= depths[right] else right)

            if width > 0:
                self._pram.parallel_step(range(width), fill, label="lca_sparse")
            sparse.append(row_arr.to_list())
        return sparse

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def _range_min_index(self, lo: int, hi: int) -> int:
        span = hi - lo + 1
        k = self._log_table[span]
        left = self._sparse[k][lo]
        right = self._sparse[k][hi - (1 << k) + 1]
        return left if self._depths[left] <= self._depths[right] else right

    def lca(self, a: Vertex, b: Vertex) -> Vertex:
        """LCA of *a* and *b* in O(1) host time."""
        try:
            ia, ib = self._first[a], self._first[b]
        except KeyError as exc:
            raise TreeError(f"vertex {exc.args[0]!r} is not indexed") from None
        if ia > ib:
            ia, ib = ib, ia
        return self._tour[self._range_min_index(ia, ib)]

    def batch_lca(self, pairs: Sequence[Tuple[Vertex, Vertex]]) -> List[Vertex]:
        """Answer *pairs* as one parallel step of ``len(pairs)`` processors
        (Theorem 6: k LCA queries in O(log n) EREW time with k processors)."""
        results: Dict[int, Vertex] = {}

        def answer(proc: int, pair: Tuple[Vertex, Vertex]) -> None:
            results[proc] = self.lca(pair[0], pair[1])

        self._pram.parallel_step(list(pairs), answer, label="lca_batch")
        # EREW simulation of the shared index costs an extra log factor.
        self._pram.charge(depth=max(1, (len(self._tour) - 1).bit_length()))
        return [results[i] for i in range(len(pairs))]
