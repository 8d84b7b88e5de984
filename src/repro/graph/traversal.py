"""Static graph traversals: DFS (Tarjan's classical O(m + n) algorithm), BFS and
connected components.

These are the sequential substrates the paper builds on ([47] in the paper): the
initial DFS tree is computed once with :func:`static_dfs_tree` /
:func:`static_dfs_forest`, after which the dynamic algorithms take over.

When the graph carries the flat array core (``is_array_backend``, see
:mod:`repro.graph.array_graph`), BFS floods run as frontier-array sweeps over
the CSR snapshot and DFS runs over plain int lists instead of dict lookups.
The array paths reproduce the dict traversal **byte-identically** — the CSR
rows preserve per-vertex insertion order, candidate gathering visits them in
frontier order, and first-occurrence deduplication matches the dict's
first-discovery rule — so every caller (including the distributed 2-sweep
center election, which tie-breaks on BFS discovery order) sees the same
result on both backends.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Tuple

import numpy as np

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
    if allowed is None and getattr(graph, "is_array_backend", False):
        return _static_dfs_tree_array(graph, root)

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


def static_dfs_forest(
    graph: UndirectedGraph,
    *,
    roots: Optional[Iterable[Vertex]] = None,
) -> Dict[Vertex, Optional[Vertex]]:
    """Compute a DFS forest covering every vertex of *graph*.

    The forest is returned as a single parent map in which each component root
    has parent :data:`VIRTUAL_ROOT`, matching the paper's augmentation of the
    graph with a virtual root connected to every vertex (Section 2).  The
    virtual root itself maps to ``None``.

    *roots* optionally fixes the order in which components are started.
    """
    parent: Dict[Vertex, Optional[Vertex]] = {VIRTUAL_ROOT: None}
    start_order: List[Vertex] = list(roots) if roots is not None else []
    started = set(start_order)
    start_order.extend(v for v in graph.vertices() if v not in started)
    for r in start_order:
        if r in parent:
            continue
        comp_parent = static_dfs_tree(graph, r)
        for v, p in comp_parent.items():
            if v in parent:
                continue
            parent[v] = VIRTUAL_ROOT if p is None else p
    return parent


def dfs_preorder(graph: UndirectedGraph, root: Vertex) -> List[Vertex]:
    """Return the vertices of *root*'s component in DFS preorder."""
    parent = static_dfs_tree(graph, root)
    children: Dict[Vertex, List[Vertex]] = {v: [] for v in parent}
    for v, p in parent.items():
        if p is not None:
            children[p].append(v)
    order: List[Vertex] = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(reversed(children[v]))
    return order


def bfs_tree(
    graph: UndirectedGraph, root: Vertex
) -> Tuple[Dict[Vertex, Optional[Vertex]], Dict[Vertex, int]]:
    """Compute a BFS tree from *root*.

    Returns ``(parent, depth)`` maps for the component of *root*.  Used by the
    distributed simulator to build the broadcast tree of Section 6.2.
    """
    if not graph.has_vertex(root):
        raise VertexNotFound(root)
    if getattr(graph, "is_array_backend", False):
        return _bfs_tree_array(graph, root)
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
    if getattr(graph, "is_array_backend", False):
        return _connected_components_array(graph)
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
    if getattr(graph, "is_array_backend", False):
        _, layers, ids = _bfs_layers_array(graph, graph.slot(vertex), None)
        return [ids[s] for layer in layers for s in layer]
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


# --------------------------------------------------------------------------- #
# Array-backend fast paths (byte-identical to the dict traversals above)
# --------------------------------------------------------------------------- #
def _bfs_layers_array(graph, root_slot, seen):
    """Frontier-array BFS from *root_slot* over the CSR snapshot.

    Returns ``(parent_slot, layers, ids)``: the per-slot parent array, the
    list of frontier arrays (layer 0 = the root) and the slot -> vertex-id
    object array.  *seen* may carry a shared per-slot visited mask (used by
    :func:`_connected_components_array` across components).

    Candidate neighbours are gathered frontier-order × row-order and the first
    occurrence of each slot wins — exactly the dict BFS's first-discovery
    rule, so parents and discovery order match the dict backend entry for
    entry.
    """
    indptr, indices = graph.csr()
    ids = graph.ids_array()
    if seen is None:
        seen = np.zeros(len(ids), dtype=bool)
    seen[root_slot] = True
    parent_slot = np.full(len(ids), -1, dtype=np.int64)
    frontier = np.array([root_slot], dtype=np.int64)
    layers = [frontier]
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        # Ragged gather: positions of every neighbour entry of the frontier,
        # laid out frontier-order x row-order.
        out_starts = np.zeros(len(frontier), dtype=np.int64)
        np.cumsum(counts[:-1], out=out_starts[1:])
        pos = np.arange(total, dtype=np.int64) + np.repeat(starts - out_starts, counts)
        cand = indices[pos]
        src = np.repeat(frontier, counts)
        unseen = ~seen[cand]
        cand = cand[unseen]
        src = src[unseen]
        if cand.size == 0:
            break
        _, first = np.unique(cand, return_index=True)
        first.sort()
        nxt = cand[first]
        parent_slot[nxt] = src[first]
        seen[nxt] = True
        layers.append(nxt)
        frontier = nxt
    return parent_slot, layers, ids


def _bfs_tree_array(graph, root):
    parent_slot, layers, ids = _bfs_layers_array(graph, graph.slot(root), None)
    parent: Dict[Vertex, Optional[Vertex]] = {root: None}
    depth: Dict[Vertex, int] = {root: 0}
    for d, layer in enumerate(layers[1:], start=1):
        for s in layer.tolist():
            parent[ids[s]] = ids[parent_slot[s]]
            depth[ids[s]] = d
    return parent, depth


def _connected_components_array(graph):
    seen = np.zeros(graph.num_slots, dtype=bool)
    components: List[List[Vertex]] = []
    for start in graph.vertices():
        s = graph.slot(start)
        if seen[s]:
            continue
        _, layers, ids = _bfs_layers_array(graph, s, seen)
        components.append([ids[x] for layer in layers for x in layer])
    return components


def _static_dfs_tree_array(graph, root):
    """Adjacency-order iterative DFS over plain int lists (CSR rows).

    Same traversal as the dict path — each row is scanned left to right, the
    first unvisited neighbour is descended into — but membership tests are a
    bytearray over slots and rows are python ints, which avoids the dict
    hashing on every probe.
    """
    indptr, indices = graph.csr()
    iptr = indptr.tolist()
    idx = indices.tolist()
    ids = graph.ids_array()
    visited = bytearray(graph.num_slots)
    r = graph.slot(root)
    visited[r] = 1
    parent: Dict[Vertex, Optional[Vertex]] = {root: None}
    # Each frame is [slot, next position in its CSR row].
    stack: List[List[int]] = [[r, iptr[r]]]
    while stack:
        frame = stack[-1]
        v, i = frame
        end = iptr[v + 1]
        advanced = False
        while i < end:
            w = idx[i]
            i += 1
            if not visited[w]:
                visited[w] = 1
                parent[ids[w]] = ids[v]
                frame[1] = i
                stack.append([w, iptr[w]])
                advanced = True
                break
        if not advanced:
            frame[1] = i
            stack.pop()
    return parent
