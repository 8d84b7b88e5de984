"""Static graph traversals: DFS (Tarjan's classical O(m + n) algorithm), BFS and
connected components.

These are the sequential substrates the paper builds on ([47] in the paper): the
initial DFS tree is computed once with :func:`static_dfs_tree` /
:func:`static_dfs_forest`, after which the dynamic algorithms take over.

Every traversal follows the graph's per-vertex adjacency order
(:meth:`~repro.graph.graph.UndirectedGraph.neighbors`).  The array store
(:class:`~repro.graph.array_graph.ArrayGraph`) inherits the dict adjacency,
so both graph stores give the same trees, BFS discovery orders and
components.  Callers rely on that: the distributed 2-sweep center election
tie-breaks on BFS discovery order.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from repro.constants import VIRTUAL_ROOT
from repro.exceptions import VertexNotFound
from repro.graph.graph import UndirectedGraph

Vertex = Hashable


def static_dfs_tree(
    graph: UndirectedGraph,
    root: Vertex,
    *,
    restrict_to: Optional[Iterable[Vertex]] = None,
) -> Dict[Vertex, Optional[Vertex]]:
    """Compute a DFS tree of the connected component of *root*.

    Returns a parent map ``{vertex: parent}`` with ``parent[root] is None``.
    Only vertices reachable from *root* (optionally restricted to the vertex set
    *restrict_to*) appear in the map.  The traversal is iterative, so it works
    on graphs far deeper than CPython's recursion limit.

    The traversal follows adjacency-list order, i.e. it produces the *ordered*
    DFS tree of the (restricted) graph, which is convenient for reproducible
    tests; any DFS tree is acceptable for the dynamic algorithms.
    """
    if not graph.has_vertex(root):
        raise VertexNotFound(root)
    allowed = None if restrict_to is None else set(restrict_to)
    if allowed is not None and root not in allowed:
        raise VertexNotFound(root)

    parent: Dict[Vertex, Optional[Vertex]] = {root: None}
    # Each stack frame is (vertex, iterator over its neighbours).
    stack: List[Tuple[Vertex, object]] = [(root, graph.neighbors(root))]
    while stack:
        v, it = stack[-1]
        advanced = False
        for w in it:
            if w in parent:
                continue
            if allowed is not None and w not in allowed:
                continue
            parent[w] = v
            stack.append((w, graph.neighbors(w)))
            advanced = True
            break
        if not advanced:
            stack.pop()
    return parent


def static_dfs_forest(graph: UndirectedGraph) -> Dict[Vertex, Optional[Vertex]]:
    """Compute a DFS forest covering every vertex of *graph*.

    The forest is returned as a single parent map in which each component root
    has parent :data:`VIRTUAL_ROOT`, matching the paper's augmentation of the
    graph with a virtual root connected to every vertex (Section 2).  The
    virtual root itself maps to ``None``.  Components are started in vertex
    insertion order.
    """
    parent: Dict[Vertex, Optional[Vertex]] = {VIRTUAL_ROOT: None}
    for r in graph.vertices():
        if r in parent:
            continue
        comp_parent = static_dfs_tree(graph, r)
        for v, p in comp_parent.items():
            if v in parent:
                continue
            parent[v] = VIRTUAL_ROOT if p is None else p
    return parent


def bfs_tree(
    graph: UndirectedGraph, root: Vertex
) -> Tuple[Dict[Vertex, Optional[Vertex]], Dict[Vertex, int]]:
    """Compute a BFS tree from *root*.

    Returns ``(parent, depth)`` maps for the component of *root*.  Used by the
    distributed simulator to build the broadcast tree of Section 6.2.
    """
    if not graph.has_vertex(root):
        raise VertexNotFound(root)
    parent: Dict[Vertex, Optional[Vertex]] = {root: None}
    depth: Dict[Vertex, int] = {root: 0}
    frontier: List[Vertex] = [root]
    while frontier:
        nxt: List[Vertex] = []
        for v in frontier:
            for w in graph.neighbors(v):
                if w not in parent:
                    parent[w] = v
                    depth[w] = depth[v] + 1
                    nxt.append(w)
        frontier = nxt
    return parent, depth


def connected_components(graph: UndirectedGraph) -> List[List[Vertex]]:
    """Return the connected components of *graph* as lists of vertices.

    Components are listed in order of their first vertex (insertion order), and
    vertices inside a component are listed in BFS order from that vertex.
    """
    seen: set = set()
    components: List[List[Vertex]] = []
    for start in graph.vertices():
        if start in seen:
            continue
        comp: List[Vertex] = [start]
        seen.add(start)
        frontier = [start]
        while frontier:
            nxt: List[Vertex] = []
            for v in frontier:
                for w in graph.neighbors(v):
                    if w not in seen:
                        seen.add(w)
                        comp.append(w)
                        nxt.append(w)
            frontier = nxt
        components.append(comp)
    return components


def component_of(graph: UndirectedGraph, vertex: Vertex) -> List[Vertex]:
    """Return the connected component containing *vertex* (BFS order)."""
    if not graph.has_vertex(vertex):
        raise VertexNotFound(vertex)
    seen = {vertex}
    comp = [vertex]
    frontier = [vertex]
    while frontier:
        nxt: List[Vertex] = []
        for v in frontier:
            for w in graph.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    nxt.append(w)
        frontier = nxt
    return comp
