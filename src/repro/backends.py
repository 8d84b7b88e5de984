"""Backend selection: the dict reference core vs. the numpy array core.

Every driver accepts ``backend="dict" | "array"`` (default ``None`` = read the
``REPRO_BACKEND`` environment variable, falling back to ``"dict"``):

* ``"dict"`` — the reference implementation: insertion-ordered dict adjacency
  (:class:`repro.graph.graph.UndirectedGraph`) and per-vertex python lists in
  ``D`` (:class:`repro.core.structure_d.StructureD`).
* ``"array"`` — the flat array core: int-slot vertices with CSR edge arrays
  (:class:`repro.graph.array_graph.ArrayGraph`) and one postorder-sorted flat
  adjacency array in ``D``
  (:class:`repro.core.array_structure_d.ArrayStructureD`).  It produces
  **byte-identical** trees, query answers and probe counters — the
  cross-driver differential harness runs every driver×policy combo on both
  backends and compares parent maps after every update.

This module is the single gate: :func:`resolve_backend` validates the knob,
and :func:`structure_class` / :func:`native_graph` hand drivers the matching
implementations.
"""

from __future__ import annotations

import os
from typing import Optional, Type

from repro.graph.graph import UndirectedGraph

#: Environment variable consulted when a driver is constructed with
#: ``backend=None`` — lets CI run the whole tier-1 suite on the array core
#: (``REPRO_BACKEND=array``) without touching a single test.
BACKEND_ENV_VAR = "REPRO_BACKEND"

BACKENDS = ("dict", "array")


def resolve_backend(backend: Optional[str]) -> str:
    """Validate *backend* and resolve ``None`` through ``REPRO_BACKEND``.

    Raises ``ValueError`` for unknown names.
    """
    if backend is None:
        backend = os.environ.get(BACKEND_ENV_VAR, "dict") or "dict"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


def structure_class(backend: str) -> Type:
    """The :class:`StructureD` implementation for a resolved *backend*."""
    if backend == "array":
        from repro.core.array_structure_d import ArrayStructureD

        return ArrayStructureD
    from repro.core.structure_d import StructureD

    return StructureD


def graph_class(backend: str) -> Type[UndirectedGraph]:
    """The graph store implementation for a resolved *backend*."""
    if backend == "array":
        from repro.graph.array_graph import ArrayGraph

        return ArrayGraph
    return UndirectedGraph


def native_graph(graph: UndirectedGraph, backend: str, *, copy: bool = True) -> UndirectedGraph:
    """Return *graph* in the representation the resolved *backend* expects.

    For ``"dict"`` this is a plain :meth:`~UndirectedGraph.copy` (or the graph
    itself with ``copy=False``).  For ``"array"`` the graph is converted to an
    :class:`~repro.graph.array_graph.ArrayGraph` — a conversion is always a
    copy, except that with ``copy=False`` an existing ``ArrayGraph`` is used
    as-is.  Per-vertex adjacency insertion order is preserved exactly in both
    directions, which is what keeps traversals byte-identical.
    """
    if backend == "array":
        from repro.graph.array_graph import ArrayGraph

        if not copy and isinstance(graph, ArrayGraph):
            return graph
        return ArrayGraph.from_graph(graph)
    return graph.copy() if copy else graph
