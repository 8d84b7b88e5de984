"""Backend selection: which graph store a driver keeps.

Every driver accepts ``backend="dict" | "array"`` (default ``None`` = read the
``REPRO_BACKEND`` environment variable, falling back to ``"dict"``):

* ``"dict"`` — the reference store: insertion-ordered dict adjacency
  (:class:`repro.graph.graph.UndirectedGraph`).
* ``"array"`` — the same adjacency plus an int-slot / CSR half-edge mirror
  (:class:`repro.graph.array_graph.ArrayGraph`) that the vectorized
  traversals read.

Both stores feed the one structure ``D``
(:class:`repro.core.structure_d.StructureD`) through
:meth:`~repro.graph.graph.UndirectedGraph.half_edges`, so they produce
**byte-identical** trees, query answers and probe counters — the
cross-driver differential harness runs every driver×policy combo on both
stores and compares parent maps after every update.

This module is the single gate: :func:`resolve_backend` validates the knob,
and :func:`graph_class` / :func:`native_graph` hand drivers the matching
graph store.
"""

from __future__ import annotations

import os
from typing import Optional, Type

from repro.graph.graph import UndirectedGraph

#: Environment variable consulted when a driver is constructed with
#: ``backend=None`` — lets CI run the whole tier-1 suite on the array store
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
