"""Baseline: recompute the DFS forest from scratch after every update.

This is the classical ``O(m + n)`` static algorithm ([47] in the paper) applied
per update — the obvious competitor the dynamic algorithm must beat once the
graph is large.  The class exposes the same update API as
:class:`~repro.core.dynamic_dfs.FullyDynamicDFS` so benchmarks can drive both
with identical workloads (experiment E7).  Updates are checked by
:func:`~repro.core.overlay.validate_update` and applied by
:func:`~repro.core.overlay.apply_update`, as in every driver: a malformed
update raises :class:`~repro.exceptions.UpdateError` before any counter moves.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional, Sequence

from repro.constants import VIRTUAL_ROOT
from repro.core.overlay import apply_update, validate_graph, validate_update
from repro.core.updates import (
    EdgeDeletion,
    EdgeInsertion,
    Update,
    VertexDeletion,
    VertexInsertion,
)
from repro.graph.graph import UndirectedGraph
from repro.graph.traversal import static_dfs_forest
from repro.graph.validation import check_dfs_tree
from repro.metrics.counters import MetricsRecorder
from repro.tree.dfs_tree import DFSTree

Vertex = Hashable


class StaticRecomputeDFS:
    """Maintain a DFS forest by full recomputation after every update."""

    def __init__(
        self,
        graph: UndirectedGraph,
        *,
        metrics: Optional[MetricsRecorder] = None,
    ) -> None:
        validate_graph(graph)
        self._graph = graph.copy()
        self.metrics = metrics or MetricsRecorder("static_recompute")
        self._tree = self._recompute()

    @property
    def graph(self) -> UndirectedGraph:
        """The current graph."""
        return self._graph

    @property
    def tree(self) -> DFSTree:
        """The current DFS forest (rooted at the virtual root)."""
        return self._tree

    def parent_map(self) -> Dict[Vertex, Optional[Vertex]]:
        """Parent map of the current forest."""
        return self._tree.parent_map()

    def is_valid(self) -> bool:
        """True iff the current tree is a valid DFS forest (it always is)."""
        return not check_dfs_tree(self._graph, self._tree.parent_map())

    # ------------------------------------------------------------------ #
    def insert_edge(self, u: Vertex, v: Vertex) -> DFSTree:
        return self.apply(EdgeInsertion(u, v))

    def delete_edge(self, u: Vertex, v: Vertex) -> DFSTree:
        return self.apply(EdgeDeletion(u, v))

    def insert_vertex(self, v: Vertex, neighbors: Iterable[Vertex] = ()) -> DFSTree:
        return self.apply(VertexInsertion(v, tuple(neighbors)))

    def delete_vertex(self, v: Vertex) -> DFSTree:
        return self.apply(VertexDeletion(v))

    def apply_all(self, updates: Sequence[Update]) -> DFSTree:
        for upd in updates:
            self.apply(upd)
        return self._tree

    def apply(self, update: Update) -> DFSTree:
        """Apply *update* and recompute the whole forest."""
        validate_update(self._graph, update)
        self.metrics.inc("updates")
        with self.metrics.timer("update"):
            apply_update(self._graph, update)
            self._tree = self._recompute()
        return self._tree

    # ------------------------------------------------------------------ #
    def _recompute(self) -> DFSTree:
        self.metrics.inc("full_recomputations")
        self.metrics.inc("static_work", self._graph.num_edges + self._graph.num_vertices)
        parent = static_dfs_forest(self._graph)
        return DFSTree(parent, root=VIRTUAL_ROOT)
