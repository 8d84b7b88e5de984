"""Baseline: naive subtree rerooting by re-running a static DFS on the subtree.

Given a rerooting task (the primitive both the paper and Baswana et al. reduce
updates to), the naive approach simply runs a fresh DFS of the subgraph induced
by the subtree's vertices from the new root.  Its cost is ``O(m_τ + n_τ)``
*sequential* work with a dependency chain as long as the produced tree is deep —
the strawman both rerooting engines are measured against.  Only the tests use
it; no benchmark does.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from repro.core.reduction import RerootTask
from repro.graph.graph import UndirectedGraph
from repro.graph.traversal import static_dfs_tree
from repro.metrics.counters import MetricsRecorder
from repro.tree.dfs_tree import DFSTree

Vertex = Hashable


def naive_reroot_subtree(
    graph: UndirectedGraph,
    tree: DFSTree,
    task: RerootTask,
    *,
    metrics: Optional[MetricsRecorder] = None,
) -> Dict[Vertex, Vertex]:
    """Reroot ``T(task.subtree_root)`` at ``task.new_root`` by re-running DFS.

    Returns the new parent assignment for every vertex of the subtree (the new
    root's parent is ``task.attach``).  The result is a valid DFS tree of the
    induced subgraph but is computed with zero reuse of the existing tree.
    """
    vertices = tree.subtree_vertices(task.subtree_root)
    if metrics is not None:
        metrics.inc("naive_reroots")
        metrics.inc("naive_reroot_vertices", len(vertices))
    parent = static_dfs_tree(graph, task.new_root, restrict_to=vertices)
    out: Dict[Vertex, Vertex] = {}
    for v, p in parent.items():
        out[v] = task.attach if p is None else p
    return out
