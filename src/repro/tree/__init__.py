"""Rooted-tree substrate: the DFS tree structure, Euler tours, LCA indices and
path/subtree utilities used by the rerooting algorithms."""

from repro.tree.dfs_tree import DFSTree
from repro.tree.euler import euler_tour
from repro.tree.lca import EulerTourLCA
from repro.tree.tree_utils import (
    ancestor_descendant_segments,
    hanging_subtrees,
    heavy_vertex,
    tree_path,
)

__all__ = [
    "DFSTree",
    "euler_tour",
    "EulerTourLCA",
    "tree_path",
    "hanging_subtrees",
    "heavy_vertex",
    "ancestor_descendant_segments",
]
