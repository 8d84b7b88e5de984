"""Flat array core for the dynamic graph store (the ``"array"`` backend).

:class:`ArrayGraph` is an :class:`~repro.graph.graph.UndirectedGraph` that
keeps the dict adjacency as the source of truth for the public API — so every
traversal, validation and equality check behaves identically to the reference
implementation — while *additionally* maintaining a flat edge-array mirror:

* vertices are mapped to dense integer **slots** (``slot_of``); freed slots are
  recycled through a free-list so sustained vertex churn cannot grow the
  arrays beyond the peak live vertex count;
* edges are two **append-only directed half-edge arrays** (``int64`` source /
  destination slots) with an alive mask; deletions mark entries dead and the
  arrays are compacted once dead entries outnumber live ones;
* a **CSR snapshot** (``indptr``/``indices``) is built on demand with one
  stable argsort and cached until the next mutation.

Because half-edges are appended in exactly the order the dict adjacency
inserts them (and a deletion + re-insertion moves the entry to the end of the
row in both representations), the CSR rows reproduce the dict's per-vertex
iteration order byte-for-byte — the property the vectorized BFS/DFS floods in
:mod:`repro.graph.traversal` rely on to stay differentially identical to the
dict backend.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Tuple

import numpy as np

from repro.graph.graph import Edge, UndirectedGraph, Vertex

#: Sentinel stored in ``slot_ids`` for recycled (currently unused) slots.
_FREE = object()

#: Initial capacity of the half-edge arrays (doubled on demand).
_MIN_EDGE_CAPACITY = 16


class ArrayGraph(UndirectedGraph):
    """Dynamic undirected graph with an int-slot / CSR edge-array mirror.

    Drop-in replacement for :class:`UndirectedGraph` (same constructor, same
    update and query API, same iteration order); the extra accessors
    (:meth:`edge_arrays`, :meth:`csr`, :meth:`ids_array`, :meth:`slot`) expose
    the flat mirror to the vectorized hot paths.  ``is_array_backend`` is the
    duck-typed dispatch flag those hot paths test for.
    """

    is_array_backend = True

    __slots__ = (
        "_slot_of",
        "_slot_ids",
        "_free_slots",
        "_esrc",
        "_edst",
        "_ealive",
        "_elen",
        "_edead",
        "_edge_pos",
        "_csr",
        "_ids_cache",
        "csr_builds",
    )

    def __init__(
        self,
        vertices: Iterable[Vertex] | None = None,
        edges: Iterable[Edge] | None = None,
    ) -> None:
        self._init_array_state()
        super().__init__(vertices, edges)
        # The base constructor adds vertices by writing the adjacency dict
        # directly; edges flowed through _add_edge_unchecked (which assigns
        # slots lazily), so only isolated vertices still need one.
        for v in self._adj:
            self._ensure_slot(v)

    def _init_array_state(self) -> None:
        self._slot_of: Dict[Vertex, int] = {}
        self._slot_ids: List[object] = []
        self._free_slots: List[int] = []
        self._esrc = np.empty(_MIN_EDGE_CAPACITY, dtype=np.int64)
        self._edst = np.empty(_MIN_EDGE_CAPACITY, dtype=np.int64)
        self._ealive = np.zeros(_MIN_EDGE_CAPACITY, dtype=bool)
        self._elen = 0
        self._edead = 0
        self._edge_pos: Dict[Tuple[int, int], int] = {}
        self._csr: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._ids_cache: Optional[np.ndarray] = None
        self.csr_builds = 0

    # ------------------------------------------------------------------ #
    # Slot management (vertex-id recycling)
    # ------------------------------------------------------------------ #
    def _ensure_slot(self, v: Vertex) -> int:
        s = self._slot_of.get(v)
        if s is None:
            if self._free_slots:
                s = self._free_slots.pop()
                self._slot_ids[s] = v
            else:
                s = len(self._slot_ids)
                self._slot_ids.append(v)
            self._slot_of[v] = s
        return s

    def _invalidate(self) -> None:
        self._csr = None
        self._ids_cache = None

    def slot(self, v: Vertex) -> int:
        """Dense integer slot of vertex *v* (stable until *v* is removed)."""
        return self._slot_of[v]

    def slot_id(self, s: int) -> Optional[Vertex]:
        """Vertex currently occupying slot *s* (``None`` for a free slot)."""
        v = self._slot_ids[s]
        return None if v is _FREE else v

    @property
    def num_slots(self) -> int:
        """Allocated slots (peak live vertex count; freed slots are recycled)."""
        return len(self._slot_ids)

    def ids_array(self) -> np.ndarray:
        """Object ndarray mapping slot -> vertex id (``None`` for free slots).

        Cached; invalidated together with the CSR snapshot on any mutation.
        """
        if self._ids_cache is None:
            ids = np.empty(len(self._slot_ids), dtype=object)
            for i, v in enumerate(self._slot_ids):
                ids[i] = None if v is _FREE else v
            self._ids_cache = ids
        return self._ids_cache

    # ------------------------------------------------------------------ #
    # Half-edge array maintenance
    # ------------------------------------------------------------------ #
    def _grow_edges(self, need: int) -> None:
        cap = len(self._esrc)
        if need <= cap:
            return
        new_cap = max(need, cap * 2)
        for name in ("_esrc", "_edst"):
            old = getattr(self, name)
            fresh = np.empty(new_cap, dtype=np.int64)
            fresh[: self._elen] = old[: self._elen]
            setattr(self, name, fresh)
        alive = np.zeros(new_cap, dtype=bool)
        alive[: self._elen] = self._ealive[: self._elen]
        self._ealive = alive

    def _append_half_edge(self, su: int, sv: int) -> None:
        i = self._elen
        self._grow_edges(i + 1)
        self._esrc[i] = su
        self._edst[i] = sv
        self._ealive[i] = True
        self._edge_pos[(su, sv)] = i
        self._elen = i + 1

    def _kill_half_edge(self, su: int, sv: int) -> None:
        i = self._edge_pos.pop((su, sv))
        self._ealive[i] = False
        self._edead += 1

    def _maybe_compact(self) -> None:
        if self._edead * 2 <= self._elen or self._elen <= _MIN_EDGE_CAPACITY:
            return
        keep = np.flatnonzero(self._ealive[: self._elen])
        src = self._esrc[: self._elen][keep]
        dst = self._edst[: self._elen][keep]
        n = len(keep)
        self._esrc[:n] = src
        self._edst[:n] = dst
        self._ealive[:n] = True
        self._ealive[n : self._elen] = False
        self._elen = n
        self._edead = 0
        self._edge_pos = {
            (s, d): i for i, (s, d) in enumerate(zip(src.tolist(), dst.tolist()))
        }

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(src, dst, alive)`` half-edge array views in append order.

        Each undirected edge contributes two directed entries.  The views are
        read-only by contract; the append order of the alive entries equals
        the dict adjacency's insertion order per vertex.
        """
        return (
            self._esrc[: self._elen],
            self._edst[: self._elen],
            self._ealive[: self._elen],
        )

    def half_edges(self) -> Tuple[List[object], np.ndarray, np.ndarray]:
        """``(ids, src, dst)`` as :meth:`UndirectedGraph.half_edges
        <repro.graph.graph.UndirectedGraph.half_edges>`, read off the mirror:
        ``ids`` is the slot table and ``src``/``dst`` are the alive
        half-edges' slots.  No alive half-edge touches a free slot, so a free
        slot repeats a live vertex's id: int vertex ids keep ``ids`` all-int,
        which :meth:`~repro.tree.dfs_tree.DFSTree.indices` resolves with one
        gather."""
        src, dst, alive = self.edge_arrays()
        ids = self._slot_ids
        if self._free_slots:
            ids = list(ids)
            live = next(iter(self._slot_of), None)
            for s in self._free_slots:
                ids[s] = live
        return ids, src[alive], dst[alive]

    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR snapshot ``(indptr, indices)`` over slots (cached until mutated).

        ``indices[indptr[s]:indptr[s+1]]`` are the neighbour slots of the
        vertex in slot ``s``, in exactly its dict insertion order (stable
        argsort of the append-ordered half-edge arrays).
        """
        if self._csr is None:
            n = len(self._slot_ids)
            src, dst, alive = self.edge_arrays()
            live = np.flatnonzero(alive)
            s = src[live]
            order = np.argsort(s, kind="stable")
            indices = dst[live][order]
            counts = np.bincount(s, minlength=n)
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            self._csr = (indptr, indices)
            self.csr_builds += 1
        return self._csr

    # ------------------------------------------------------------------ #
    # Mutation overrides (keep the mirror in sync with the dict adjacency)
    # ------------------------------------------------------------------ #
    def add_vertex(self, v: Vertex) -> None:
        """Insert an isolated vertex *v* (recycles a freed slot if available)."""
        super().add_vertex(v)
        self._ensure_slot(v)
        self._invalidate()

    def add_vertex_with_edges(self, v: Vertex, neighbors: Iterable[Vertex]) -> List[Vertex]:
        """Insert vertex *v* with edges to *neighbors* (atomic, as in the base)."""
        nbrs = super().add_vertex_with_edges(v, neighbors)
        self._ensure_slot(v)  # edges already assigned a slot unless isolated
        self._invalidate()
        return nbrs

    def remove_vertex(self, v: Vertex) -> List[Vertex]:
        """Delete vertex *v*; its slot goes to the free-list for recycling."""
        nbrs = super().remove_vertex(v)
        s = self._slot_of.pop(v)
        for w in nbrs:
            sw = self._slot_of[w]
            self._kill_half_edge(s, sw)
            self._kill_half_edge(sw, s)
        self._slot_ids[s] = _FREE
        self._free_slots.append(s)
        self._invalidate()
        self._maybe_compact()
        return nbrs

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Delete the edge ``(u, v)``; the half-edge entries are masked dead."""
        super().remove_edge(u, v)
        su, sv = self._slot_of[u], self._slot_of[v]
        self._kill_half_edge(su, sv)
        self._kill_half_edge(sv, su)
        self._invalidate()
        self._maybe_compact()

    def _add_edge_unchecked(self, u: Vertex, v: Vertex) -> None:
        super()._add_edge_unchecked(u, v)
        su = self._ensure_slot(u)
        sv = self._ensure_slot(v)
        self._append_half_edge(su, sv)
        self._append_half_edge(sv, su)
        self._invalidate()

    # ------------------------------------------------------------------ #
    # Copies / conversion
    # ------------------------------------------------------------------ #
    def copy(self) -> "ArrayGraph":
        """Deep copy (dict adjacency, slot map and half-edge arrays)."""
        g = ArrayGraph()
        g._adj = {v: dict(nbrs) for v, nbrs in self._adj.items()}
        g._num_edges = self._num_edges
        g._slot_of = dict(self._slot_of)
        g._slot_ids = list(self._slot_ids)
        g._free_slots = list(self._free_slots)
        g._esrc = self._esrc[: self._elen].copy()
        g._edst = self._edst[: self._elen].copy()
        g._ealive = self._ealive[: self._elen].copy()
        g._elen = self._elen
        g._edead = self._edead
        g._edge_pos = dict(self._edge_pos)
        g._csr = self._csr  # snapshots are immutable once built
        return g

    @classmethod
    def from_graph(cls, graph: UndirectedGraph) -> "ArrayGraph":
        """Convert any :class:`UndirectedGraph` (always a copy).

        The dict adjacency is copied row by row — *not* replayed through
        ``edges()`` — so the per-vertex insertion order survives exactly (an
        ``edges()`` replay would reorder rows whose entries were interleaved
        with other edges).
        """
        if isinstance(graph, ArrayGraph):
            return graph.copy()
        g = cls()
        g._adj = {v: dict(nbrs) for v, nbrs in graph._adj.items()}
        g._num_edges = graph.num_edges
        for v in g._adj:
            g._ensure_slot(v)
        slot_of = g._slot_of
        srcs: List[int] = []
        dsts: List[int] = []
        for u, nbrs in g._adj.items():
            su = slot_of[u]
            for w in nbrs:
                srcs.append(su)
                dsts.append(slot_of[w])
        m2 = len(srcs)
        cap = max(m2, _MIN_EDGE_CAPACITY)
        g._esrc = np.empty(cap, dtype=np.int64)
        g._edst = np.empty(cap, dtype=np.int64)
        g._ealive = np.zeros(cap, dtype=bool)
        g._esrc[:m2] = srcs
        g._edst[:m2] = dsts
        g._ealive[:m2] = True
        g._elen = m2
        g._edge_pos = {(s, d): i for i, (s, d) in enumerate(zip(srcs, dsts))}
        return g
