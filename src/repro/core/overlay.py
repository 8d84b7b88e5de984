"""Shared update/overlay bookkeeping for the dynamic and fault-tolerant drivers.

Both :class:`repro.core.dynamic_dfs.FullyDynamicDFS` (between amortized rebuilds
of ``D``) and :class:`repro.core.fault_tolerant.FaultTolerantDFS` (always) serve
updates the same way: the update is applied to the graph *and* recorded as an
overlay on the preprocessed :class:`~repro.core.structure_d.StructureD`, so the
sorted lists never have to be rebuilt for the update itself (Theorem 9).  This
module is the single implementation of that bookkeeping.

It also owns the update-validation boundary: callers of the drivers' update APIs
get :class:`~repro.exceptions.UpdateError` for every malformed update (missing
edge, duplicate vertex, self loop, the virtual-root sentinel as a vertex id,
...), never a bare graph-layer exception.  :func:`validate_update` performs the
full check *without mutating anything*, so drivers can reject an update before
any metrics, timers or graph state are touched; :func:`validate_graph` is its
construction-time counterpart.
"""

from __future__ import annotations

from math import isqrt
from typing import Optional

from repro.constants import VIRTUAL_ROOT, is_virtual_root
from repro.core.structure_d import StructureD
from repro.core.updates import (
    EdgeDeletion,
    EdgeInsertion,
    Update,
    VertexDeletion,
    VertexInsertion,
)
from repro.exceptions import GraphError, UpdateError
from repro.graph.graph import UndirectedGraph


def theorem9_overlay_budget(num_edges: int) -> int:
    """Overlay size that triggers a ``D`` refresh under the auto-tuned policy.

    Chosen as ``~sqrt(2m)``: a rebuild costs ``O(m)`` and is amortized over the
    ``~sqrt(2m)`` overlay-served updates it absorbs, while each query pays at
    most ``O(sqrt(2m))`` extra overlay probes (Theorem 9's ``k``).  Shared by
    every backend that amortizes over a :class:`StructureD`.
    """
    return max(8, isqrt(2 * max(num_edges, 1)))


def reused_vertex_id_needs_rebuild(structure: StructureD, update: Update) -> bool:
    """True when *update* re-inserts a vertex id the structure still indexes.

    The stale base entries of the previous incarnation make overlay service
    ambiguous, so amortizing backends must force a rebuild before recording
    the insertion.
    """
    return isinstance(update, VertexInsertion) and structure.indexes_vertex(update.v)


def validate_graph(graph: UndirectedGraph) -> None:
    """Reject a driver's initial *graph* with :class:`GraphError` when it
    holds the virtual-root sentinel, which the augmented tree reserves
    (Section 2).  Drivers call this before copying the graph or recording
    any metric."""
    if graph.has_vertex(VIRTUAL_ROOT):
        raise GraphError(f"vertex id {VIRTUAL_ROOT!r} is reserved for the virtual root")


def validate_update(graph: UndirectedGraph, update: Update) -> None:
    """Check that *update* can be applied to *graph*; raise :class:`UpdateError`
    otherwise.

    The check is side-effect free: neither the graph nor any overlay is touched,
    so a driver can call it before recording metrics for the update (a failed
    update must not skew per-update counters and benchmark denominators).
    """
    if isinstance(update, EdgeInsertion):
        u, v = update.u, update.v
        if u == v:
            raise UpdateError(f"cannot insert self loop ({u!r}, {v!r})")
        for w in (u, v):
            if not graph.has_vertex(w):
                raise UpdateError(f"edge insertion endpoint {w!r} is not in the graph")
        if graph.has_edge(u, v):
            raise UpdateError(f"edge ({u!r}, {v!r}) is already present")
    elif isinstance(update, EdgeDeletion):
        if not graph.has_edge(update.u, update.v):
            raise UpdateError(f"edge ({update.u!r}, {update.v!r}) is not in the graph")
    elif isinstance(update, VertexInsertion):
        if is_virtual_root(update.v):
            raise UpdateError(f"vertex id {update.v!r} is reserved for the virtual root")
        if graph.has_vertex(update.v):
            raise UpdateError(f"vertex {update.v!r} is already present")
        for w in update.neighbors:
            if w != update.v and not graph.has_vertex(w):
                raise UpdateError(f"vertex insertion neighbor {w!r} is not in the graph")
    elif isinstance(update, VertexDeletion):
        if not graph.has_vertex(update.v):
            raise UpdateError(f"vertex {update.v!r} is not in the graph")
    else:
        raise UpdateError(f"unknown update type {update!r}")


def apply_update(
    graph: UndirectedGraph,
    update: Update,
    structure: Optional[StructureD] = None,
) -> None:
    """Apply *update* to *graph* and, when *structure* is given, record it as an
    overlay on ``D`` (Theorem 9) so queries keep answering without a rebuild.

    Graph-layer failures (which should not occur after :func:`validate_update`)
    are re-raised as :class:`UpdateError` so the exception taxonomy of the
    update API never leaks storage-level types.
    """
    try:
        if isinstance(update, EdgeInsertion):
            graph.add_edge(update.u, update.v)
            if structure is not None:
                structure.note_edge_inserted(update.u, update.v)
        elif isinstance(update, EdgeDeletion):
            graph.remove_edge(update.u, update.v)
            if structure is not None:
                structure.note_edge_deleted(update.u, update.v)
        elif isinstance(update, VertexInsertion):
            graph.add_vertex_with_edges(update.v, update.neighbors)
            if structure is not None:
                structure.note_vertex_inserted(update.v, update.neighbors)
        elif isinstance(update, VertexDeletion):
            graph.remove_vertex(update.v)
            if structure is not None:
                structure.note_vertex_deleted(update.v)
        else:
            raise UpdateError(f"unknown update type {update!r}")
    except (GraphError, ValueError) as exc:
        raise UpdateError(f"cannot apply {update.describe()}: {exc}") from exc
