"""Euler tours of rooted trees.

The Euler tour technique (Tarjan–Vishkin, Theorem 4 in the paper) is the basic
tool for computing tree functions in parallel: the tour linearises the tree so
that level, subtree size and post-order numbers become prefix-sum problems.  The
sequential constructions here are used by :class:`repro.tree.lca.EulerTourLCA`;
the metered parallel constructions live in :mod:`repro.pram.tree_functions`.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

import numpy as np

from repro.tree.dfs_tree import DFSTree

Vertex = Hashable


def euler_tour(tree: DFSTree, root: Vertex | None = None) -> Tuple[List[Vertex], Dict[Vertex, int], List[int]]:
    """Return the Euler tour of *tree* (one tree of the forest).

    Returns ``(tour, first_occurrence, depths)`` where ``tour`` lists the
    vertices in tour order (each vertex appears ``degree`` times, ``2n-1``
    entries in total), ``first_occurrence[v]`` is the index of the first
    appearance of ``v`` and ``depths[i]`` is the depth of ``tour[i]``.

    The tour visits a vertex, recursively tours each child and returns to the
    vertex after each child — the classical "walk around the tree" order used
    for sparse-table LCA.
    """
    if root is None:
        root = tree.root
    tour: List[Vertex] = []
    first: Dict[Vertex, int] = {}
    depths: List[int] = []

    # Iterative DFS producing the Euler tour.
    stack: List[Tuple[Vertex, int]] = [(root, 0)]
    while stack:
        v, ci = stack[-1]
        if ci == 0:
            first.setdefault(v, len(tour))
            tour.append(v)
            depths.append(tree.level(v))
        children = tree.children(v)
        if ci < len(children):
            stack[-1] = (v, ci + 1)
            stack.append((children[ci], 0))
        else:
            stack.pop()
            if stack:
                u = stack[-1][0]
                tour.append(u)
                depths.append(tree.level(u))
    return tour, first, depths


def euler_tour_arrays(tree: DFSTree, root: Vertex | None = None):
    """Vectorized Euler tour construction (array-backend fast path).

    Returns ``(tour_idx, first, depths)`` as numpy int64 arrays: ``tour_idx``
    holds vertex *indices* (into ``tree.as_arrays()["vertices"]``) in tour
    order, ``first[i]`` is the tour position of vertex index ``i``'s first
    appearance (``-1`` for vertices outside *root*'s tree) and ``depths`` are
    the tour depths.  Equivalent to :func:`euler_tour` entry for entry, but
    built by two scatter writes instead of an explicit walk: with the shared
    entry/exit clock of :class:`DFSTree`, the classical tour is exactly the
    event sequence ``ev[tin[v]] = v``, ``ev[tout[v]] = parent(v)`` sliced to
    ``[tin[root], tout[root])``.
    """
    if root is None:
        root = tree.root
    arrs = tree.as_arrays()
    tin = arrs["tin"]
    tout = arrs["tout"]
    n = len(tin)
    ri = tree._i(root)
    ev = np.empty(2 * n, dtype=np.int64)
    ev[tin] = np.arange(n, dtype=np.int64)
    # Roots scatter -1 at their exit event, but every exit event inside the
    # slice below belongs to a proper descendant of *root*, whose parent index
    # is valid.
    ev[tout] = arrs["parent"]
    lo = int(tin[ri])
    hi = int(tout[ri])
    tour_idx = ev[lo:hi].copy()
    depths = arrs["level"][tour_idx]
    first = np.where((tin >= lo) & (tout <= hi), tin - lo, -1)
    return tour_idx, first, depths


def edge_tour(tree: DFSTree, root: Vertex | None = None) -> List[Tuple[Vertex, Vertex]]:
    """Return the Euler tour as a list of directed tree edges.

    Each tree edge ``(u, v)`` appears twice: once as ``(u, v)`` when the tour
    descends into ``v`` and once as ``(v, u)`` when it returns.  This is the
    representation used by the list-ranking based parallel constructions.
    """
    if root is None:
        root = tree.root
    tour: List[Tuple[Vertex, Vertex]] = []
    stack: List[Tuple[Vertex, int]] = [(root, 0)]
    while stack:
        v, ci = stack[-1]
        children = tree.children(v)
        if ci < len(children):
            stack[-1] = (v, ci + 1)
            c = children[ci]
            tour.append((v, c))
            stack.append((c, 0))
        else:
            stack.pop()
            if stack:
                tour.append((v, stack[-1][0]))
    return tour
