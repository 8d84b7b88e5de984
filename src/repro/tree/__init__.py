"""Rooted-tree substrate: the DFS tree structure (with its one Euler-tour LCA
index, :mod:`repro.tree.lca`) and the path/subtree utilities used by the
rerooting algorithms."""

from repro.tree.dfs_tree import DFSTree
from repro.tree.tree_utils import (
    ancestor_descendant_segments,
    hanging_subtrees,
    heavy_vertex,
)

__all__ = [
    "DFSTree",
    "hanging_subtrees",
    "heavy_vertex",
    "ancestor_descendant_segments",
]
