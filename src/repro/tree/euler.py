"""The Euler tour of a rooted forest, as arrays.

The Euler tour technique (Tarjan–Vishkin, Theorem 4 in the paper) is the basic
tool for computing tree functions in parallel: the tour linearises the tree so
that level, subtree size and post-order numbers become prefix-sum problems.
:func:`euler_tour_arrays` reads the tour off :class:`DFSTree`'s entry/exit
clock; :class:`repro.tree.lca.ArrayLCAIndex` and the metered
:class:`repro.pram.lca_parallel.ParallelLCA` build on it, and the metered
parallel constructions of the tree functions live in
:mod:`repro.pram.tree_functions`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.tree.dfs_tree import DFSTree


def euler_tour_arrays(tree: DFSTree):
    """The whole forest's entry/exit event array.

    Returns ``(tour, depths)`` as numpy int64 arrays of length ``2n``.  With
    the shared entry/exit clock of :class:`DFSTree`, the classical "walk
    around the tree" tour is exactly the event sequence ``tour[tin[v]] = v``,
    ``tour[tout[v]] = parent(v)`` (vertex *indices* into
    ``tree.as_arrays()["vertices"]``): vertex ``v`` first appears at
    ``tin[v]``, and the tour of the tree rooted at ``r`` is the slice
    ``tour[tin[r]:tout[r]]`` (``2 |T(r)| - 1`` entries).  The event closing
    each root, ``tour[tout[r]]``, is ``-1`` with depth ``-1``, so it
    separates the trees of the forest.  ``depths`` are the tour entries'
    levels.
    """
    arrs = tree.as_arrays()
    n = len(arrs["tin"])
    tour = np.empty(2 * n, dtype=np.int64)
    tour[arrs["tin"]] = np.arange(n, dtype=np.int64)
    tour[arrs["tout"]] = arrs["parent"]
    depths = np.where(tour >= 0, arrs["level"][tour], -1)
    return tour, depths
