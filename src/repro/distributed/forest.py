"""DFS-forest maintenance helpers for the distributed setting (Section 6.2).

After a deletion, each neighbour of the failed link/vertex must decide locally
whether its component split, which the paper does by having every node know the
articulation points and bridges of the current graph.  The computation itself
is the classical low-link DFS; in the distributed simulation its result is
disseminated with one ``O(n)``-word pipelined broadcast, which the driver
accounts for.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Hashable, List, Optional, Set, Tuple

from repro.graph.graph import UndirectedGraph
from repro.graph.traversal import bfs_tree

Vertex = Hashable
BFSResult = Tuple[Dict[Vertex, Optional[Vertex]], Dict[Vertex, int]]


def forest_roots(parent: Dict[Vertex, Optional[Vertex]]) -> Dict[Vertex, Vertex]:
    """Map every vertex of a parent-pointer forest to the root of its tree.

    Used by the per-component round ledger: a charge for a pipelined wave is
    attributed to the broadcast tree (identified by its root) that executes
    it.  Path-compressing walk, ``O(n)`` total.
    """
    root_of: Dict[Vertex, Vertex] = {}
    for v in parent:
        w = v
        path: List[Vertex] = []
        while w not in root_of and parent[w] is not None:
            path.append(w)
            w = parent[w]
        root = root_of.get(w, w)
        root_of[w] = root
        for x in path:
            root_of[x] = root
    return root_of


def two_sweep(bfs: Callable[[Vertex], BFSResult], seed: Vertex) -> Tuple[Dict[Vertex, int], Vertex]:
    """The 2-sweep: sweep 1 (``bfs(seed)``) finds a farthest vertex ``u``;
    sweep 2 (``bfs(u)``) finds a farthest vertex ``w``, and the midpoint of the
    approximate diameter path ``u → w`` — the vertex ``floor(d(w) / 2)``
    steps up from ``w`` — is the candidate center.  Returns ``(sweep 1's
    depths, midpoint)``.

    *bfs* runs one sweep: the local :func:`~repro.graph.traversal.bfs_tree`
    every node can evaluate from its stored graph, or the network's accounted
    :meth:`~repro.distributed.network.CongestNetwork.build_bfs_tree`.  A
    farthest vertex is the first at maximum depth in BFS discovery order:
    every node sees the same BFS tree, so every node picks the same one
    without extra communication.
    """
    _, d1 = bfs(seed)
    p2, d2 = bfs(max(d1, key=d1.__getitem__))
    w = max(d2, key=d2.__getitem__)
    for _ in range(d2[w] // 2):
        w = p2[w]
    return d1, w


def two_sweep_center(graph: UndirectedGraph, seed: Vertex) -> Tuple[Vertex, int]:
    """2-sweep BFS center approximation of *seed*'s connected component.

    Runs :func:`two_sweep` locally and returns ``(center,
    eccentricity_of_center)``.  Because every vertex's eccentricity is at
    most the component diameter ``D ≤ 2·radius``, the center's eccentricity
    is within a factor 2 of the true radius — and in practice the midpoint
    lands near the true center (exactly, on paths and trees).

    This is the *local* (uncharged) evaluation every node can run from its
    stored copy of the graph; the distributed backend charges the two sweeps
    through the network when a voluntary rebuild actually executes them.
    ``O(n + m)`` per call (three BFS traversals of the component).
    """
    _, center = two_sweep(partial(bfs_tree, graph), seed)
    _, d3 = bfs_tree(graph, center)
    return center, max(d3.values(), default=0)


def children_index(parent: Dict[Vertex, Optional[Vertex]]) -> Dict[Vertex, List[Vertex]]:
    """Invert a parent-pointer map into a ``vertex -> children`` index."""
    children: Dict[Vertex, List[Vertex]] = {}
    for v, p in parent.items():
        if p is not None:
            children.setdefault(p, []).append(v)
    return children


def parent_tree_subtree(
    root: Vertex, children: Dict[Vertex, List[Vertex]]
) -> Tuple[List[Vertex], Dict[Vertex, int]]:
    """Vertices of the subtree of *root* in a parent-pointer tree, in BFS
    order, together with their depths *relative to root*.

    Used by the broadcast-tree local repair: when a tree edge dies, the
    orphaned subtree is exactly the parent-pointer subtree of the severed
    child, and the relative depths bound the rounds the intra-subtree
    convergecast/broadcast of the repair costs.  *children* is the tree's
    :func:`children_index`, shared by every subtree extracted from the same
    tree; *root*'s own (dangling) parent pointer is never read.
    """
    order: List[Vertex] = [root]
    rel_depth: Dict[Vertex, int] = {root: 0}
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        for c in children.get(v, ()):
            if c not in rel_depth:
                rel_depth[c] = rel_depth[v] + 1
                order.append(c)
    return order, rel_depth


def reroot_parent_tree(
    subtree: List[Vertex],
    parent: Dict[Vertex, Optional[Vertex]],
    new_root: Vertex,
) -> Tuple[Dict[Vertex, Vertex], Dict[Vertex, int]]:
    """Re-root the parent-pointer tree spanning *subtree* at *new_root*.

    One BFS from *new_root* returns ``(new_parent, depth)``: the new parent
    of every vertex of *subtree* except *new_root* (whose parent the caller
    sets to the reattachment target), and every vertex's depth below
    *new_root*.  Only the pointers on the old-root-to-*new_root* path
    actually flip.
    """
    adjacency: Dict[Vertex, List[Vertex]] = {v: [] for v in subtree}
    members = adjacency.keys()
    for v in subtree:
        p = parent.get(v)
        if p is not None and p in members:
            adjacency[v].append(p)
            adjacency[p].append(v)
    new_parent: Dict[Vertex, Vertex] = {}
    depth = {new_root: 0}
    frontier = [new_root]
    while frontier:
        nxt: List[Vertex] = []
        for v in frontier:
            for w in adjacency[v]:
                if w not in depth:
                    depth[w] = depth[v] + 1
                    new_parent[w] = v
                    nxt.append(w)
        frontier = nxt
    return new_parent, depth


def articulation_points_and_bridges(graph: UndirectedGraph) -> Tuple[Set[Vertex], Set[frozenset]]:
    """Return ``(articulation_points, bridges)`` of *graph* (iterative Tarjan).

    Works on disconnected graphs; isolated vertices are never articulation
    points.
    """
    visited: Set[Vertex] = set()
    disc: Dict[Vertex, int] = {}
    low: Dict[Vertex, int] = {}
    parent: Dict[Vertex, Vertex] = {}
    articulation: Set[Vertex] = set()
    bridges: Set[frozenset] = set()
    timer = 0

    for start in graph.vertices():
        if start in visited:
            continue
        root_children = 0
        stack: List[Tuple[Vertex, object]] = [(start, iter(graph.neighbor_list(start)))]
        visited.add(start)
        disc[start] = low[start] = timer
        timer += 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if w not in visited:
                    visited.add(w)
                    parent[w] = v
                    disc[w] = low[w] = timer
                    timer += 1
                    if v == start:
                        root_children += 1
                    stack.append((w, iter(graph.neighbor_list(w))))
                    advanced = True
                    break
                elif w != parent.get(v):
                    low[v] = min(low[v], disc[w])
            if not advanced:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[v])
                    if low[v] >= disc[p] and p != start:
                        articulation.add(p)
                    if low[v] > disc[p]:
                        bridges.add(frozenset((p, v)))
        if root_children > 1:
            articulation.add(start)
    return articulation, bridges

