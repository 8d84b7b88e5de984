"""Tests for the LCA indices (binary lifting and Euler tour + sparse table)."""

import random

import pytest

from repro.exceptions import TreeError
from repro.graph.generators import path_graph, random_tree
from repro.graph.traversal import static_dfs_tree
from repro.tree.dfs_tree import DFSTree
from repro.tree.lca import EulerTourLCA


def _tree(seed=0, n=50):
    g = random_tree(n, seed=seed)
    return DFSTree(static_dfs_tree(g, 0), root=0)


def test_both_indices_agree_with_tree_lca():
    rng = random.Random(1)
    for seed in range(3):
        tree = _tree(seed=seed)
        et = EulerTourLCA(tree)
        verts = list(tree.vertices())
        for _ in range(300):
            a, b = rng.choice(verts), rng.choice(verts)
            expected = tree.lca(a, b)
            assert et.lca(a, b) == expected


def test_euler_tour_lca_on_path():
    g = path_graph(20)
    tree = DFSTree(static_dfs_tree(g, 0), root=0)
    et = EulerTourLCA(tree)
    assert et.lca(19, 5) == 5
    assert et.lca(7, 7) == 7
    assert et.is_ancestor(0, 19)
    assert not et.is_ancestor(19, 0)
    assert et.distance(3, 10) == 7


def test_euler_tour_lca_unknown_vertex_raises():
    tree = _tree()
    et = EulerTourLCA(tree)
    with pytest.raises(TreeError):
        et.lca(0, "nope")


def test_binary_lifting_level_ancestor():
    tree = _tree(seed=4)
    for v in list(tree.vertices())[:20]:
        lvl = tree.level(v)
        if lvl >= 1:
            assert tree.level(tree.level_ancestor(v, lvl - 1)) == lvl - 1
        assert tree.level_ancestor(v, 0) == tree.root


def test_single_vertex_tree():
    tree = DFSTree({0: None})
    et = EulerTourLCA(tree)
    assert et.lca(0, 0) == 0
