"""Dynamic undirected graph store.

The store supports the paper's extended update model (Section 1.2): insertion or
deletion of a single edge, and insertion or deletion of a vertex *together with
any set of incident edges*.  Adjacency is kept as an insertion-ordered mapping so
that traversals are deterministic, while membership tests stay O(1).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Hashable, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.exceptions import (
    DuplicateEdge,
    DuplicateVertex,
    EdgeNotFound,
    VertexNotFound,
)

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]


class UndirectedGraph:
    """A simple dynamic undirected graph (no self loops, no parallel edges).

    Parameters
    ----------
    vertices:
        Optional iterable of initial vertices.
    edges:
        Optional iterable of initial edges ``(u, v)``.  Endpoints that are not
        already present are added automatically.

    Examples
    --------
    >>> g = UndirectedGraph(edges=[(0, 1), (1, 2)])
    >>> sorted(g.vertices())
    [0, 1, 2]
    >>> g.has_edge(2, 1)
    True
    """

    __slots__ = ("_adj", "_num_edges")

    def __init__(
        self,
        vertices: Iterable[Vertex] | None = None,
        edges: Iterable[Edge] | None = None,
    ) -> None:
        self._adj: Dict[Vertex, Dict[Vertex, None]] = {}
        self._num_edges = 0
        if vertices is not None:
            for v in vertices:
                if v not in self._adj:
                    self._adj[v] = {}
        if edges is not None:
            for u, v in edges:
                if u not in self._adj:
                    self._adj[u] = {}
                if v not in self._adj:
                    self._adj[v] = {}
                if v not in self._adj[u] and u != v:
                    self._add_edge_unchecked(u, v)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of edges ``m``."""
        return self._num_edges

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over vertices in insertion order."""
        return iter(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterate over each edge exactly once, as ``(u, v)`` with ``u`` the
        endpoint inserted first."""
        seen = set()
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if v not in seen:
                    yield (u, v)
            seen.add(u)

    def neighbors(self, v: Vertex) -> Iterator[Vertex]:
        """Iterate over the neighbours of *v* in insertion order."""
        try:
            return iter(self._adj[v])
        except KeyError:
            raise VertexNotFound(v) from None

    def neighbor_list(self, v: Vertex) -> List[Vertex]:
        """Return the neighbours of *v* as a list."""
        try:
            return list(self._adj[v])
        except KeyError:
            raise VertexNotFound(v) from None

    def degree(self, v: Vertex) -> int:
        """Return the degree of *v*."""
        try:
            return len(self._adj[v])
        except KeyError:
            raise VertexNotFound(v) from None

    def has_vertex(self, v: Vertex) -> bool:
        """Return True iff *v* is a vertex of the graph."""
        return v in self._adj

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Return True iff the edge ``(u, v)`` is present."""
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    def __contains__(self, v: Vertex) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"{type(self).__name__}(n={self.num_vertices}, m={self.num_edges})"
        )

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add_vertex(self, v: Vertex) -> None:
        """Insert an isolated vertex *v*.

        Raises :class:`DuplicateVertex` if *v* already exists.
        """
        if v in self._adj:
            raise DuplicateVertex(v)
        self._adj[v] = {}

    def add_vertex_with_edges(self, v: Vertex, neighbors: Iterable[Vertex]) -> List[Vertex]:
        """Insert vertex *v* together with edges to every vertex in *neighbors*.

        This mirrors the paper's vertex-insertion update, where the inserted
        vertex may arrive with an arbitrary set of incident edges.  Returns the
        list of neighbours actually connected (duplicates collapsed).

        The operation is atomic: every neighbour is checked before the first
        mutation, so a missing neighbour raises :class:`VertexNotFound` and
        leaves the graph untouched (no partial vertex or edge set).
        """
        if v in self._adj:
            raise DuplicateVertex(v)
        nbr_list: List[Vertex] = []
        for w in neighbors:
            if w == v:
                continue
            if w not in self._adj:
                raise VertexNotFound(w)
            if w not in nbr_list:
                nbr_list.append(w)
        self._adj[v] = {}
        for w in nbr_list:
            self._add_edge_unchecked(v, w)
        return nbr_list

    def remove_vertex(self, v: Vertex) -> List[Vertex]:
        """Delete vertex *v* and all incident edges; return its former neighbours."""
        if v not in self._adj:
            raise VertexNotFound(v)
        nbrs = list(self._adj[v])
        for w in nbrs:
            del self._adj[w][v]
        self._num_edges -= len(nbrs)
        del self._adj[v]
        return nbrs

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Insert the edge ``(u, v)``.

        Both endpoints must already exist.  Raises :class:`DuplicateEdge` for an
        existing edge and :class:`ValueError` for a self loop.
        """
        if u == v:
            raise ValueError(f"self loops are not supported: ({u!r}, {v!r})")
        if u not in self._adj:
            raise VertexNotFound(u)
        if v not in self._adj:
            raise VertexNotFound(v)
        if v in self._adj[u]:
            raise DuplicateEdge(u, v)
        self._add_edge_unchecked(u, v)

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Delete the edge ``(u, v)``; raises :class:`EdgeNotFound` if absent."""
        if u not in self._adj or v not in self._adj or v not in self._adj[u]:
            raise EdgeNotFound(u, v)
        del self._adj[u][v]
        del self._adj[v][u]
        self._num_edges -= 1

    def _add_edge_unchecked(self, u: Vertex, v: Vertex) -> None:
        self._adj[u][v] = None
        self._adj[v][u] = None
        self._num_edges += 1

    # ------------------------------------------------------------------ #
    # Copies / views
    # ------------------------------------------------------------------ #
    def copy(self) -> "UndirectedGraph":
        """Return a deep copy of the graph."""
        g = UndirectedGraph()
        g._adj = {v: dict(nbrs) for v, nbrs in self._adj.items()}
        g._num_edges = self._num_edges
        return g

    def subgraph(self, vertices: Iterable[Vertex]) -> "UndirectedGraph":
        """Return the induced subgraph on *vertices*."""
        keep = set(vertices)
        g = UndirectedGraph(vertices=keep)
        for u in keep:
            if u not in self._adj:
                raise VertexNotFound(u)
            for v in self._adj[u]:
                if v in keep and not g.has_edge(u, v):
                    g._add_edge_unchecked(u, v)
        return g

    def adjacency(self) -> Dict[Vertex, List[Vertex]]:
        """Return a plain ``dict`` copy of the adjacency lists."""
        return {v: list(nbrs) for v, nbrs in self._adj.items()}

    def half_edges(self) -> Tuple[Sequence[Vertex], np.ndarray, np.ndarray]:
        """Every edge as two directed half-edges, for bulk readers such as
        the structure ``D``'s build.

        Returns ``(ids, src, dst)``: half-edge ``i`` runs from ``ids[src[i]]``
        to ``ids[dst[i]]`` (``src`` and ``dst`` are int64 arrays).  Every
        vertex appears in ``ids`` at least once; an id may repeat, and
        ``ids`` may hold placeholders that name no vertex.  Here ``ids`` is
        one flatten of the adjacency: the vertices, then every row's
        neighbours.
        """
        adj = self._adj
        n = len(adj)
        ids = list(chain(adj, chain.from_iterable(adj.values())))
        degrees = np.fromiter(map(len, adj.values()), dtype=np.int64, count=n)
        src = np.repeat(np.arange(n, dtype=np.int64), degrees)
        return ids, src, np.arange(n, len(ids), dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Equality (structural)
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UndirectedGraph):
            return NotImplemented
        if set(self._adj) != set(other._adj):
            return False
        return all(
            set(self._adj[v]) == set(other._adj[v]) for v in self._adj
        )

    def __hash__(self) -> int:  # graphs are mutable: identity hash
        return id(self)
