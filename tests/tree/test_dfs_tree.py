"""Tests for the DFSTree structure (indices, ancestry, paths, subtrees)."""

import random

import pytest

from repro.exceptions import TreeError, VertexNotFound
from repro.graph.generators import gnp_random_graph, random_tree
from repro.graph.traversal import static_dfs_tree
from repro.tree.dfs_tree import DFSTree


def build_random_dfs_tree(n=40, seed=0):
    g = gnp_random_graph(n, 0.12, seed=seed, connected=True)
    return g, DFSTree(static_dfs_tree(g, 0), root=0)


def brute_force_ancestors(tree, v):
    out = []
    while v is not None:
        out.append(v)
        v = tree.parent(v)
    return out


def test_basic_indices_on_small_tree():
    #        0
    #       / \
    #      1   4
    #     / \
    #    2   3
    t = DFSTree({0: None, 1: 0, 2: 1, 3: 1, 4: 0})
    assert t.root == 0
    assert t.level(0) == 0 and t.level(2) == 2
    assert t.subtree_size(1) == 3 and t.subtree_size(0) == 5
    assert t.children(1) == [2, 3]
    assert t.parent(4) == 0 and t.parent(0) is None
    # Post-order: 2, 3, 1, 4, 0
    assert t.postorder(2) == 0 and t.postorder(3) == 1 and t.postorder(1) == 2
    assert t.postorder(4) == 3 and t.postorder(0) == 4


def test_ancestry_and_lca():
    t = DFSTree({0: None, 1: 0, 2: 1, 3: 1, 4: 0, 5: 4})
    assert t.is_ancestor(0, 5) and t.is_ancestor(1, 3)
    assert not t.is_ancestor(1, 5)
    assert t.lca(2, 3) == 1
    assert t.lca(3, 5) == 0
    assert t.lca(1, 2) == 1
    assert t.child_towards(0, 5) == 4
    with pytest.raises(TreeError):
        t.child_towards(1, 5)


def test_lca_matches_brute_force_on_random_trees():
    rng = random.Random(3)
    for seed in range(3):
        g = random_tree(60, seed=seed)
        tree = DFSTree(static_dfs_tree(g, 0), root=0)
        for _ in range(200):
            a, b = rng.randrange(60), rng.randrange(60)
            anc_a = brute_force_ancestors(tree, a)
            anc_b = set(brute_force_ancestors(tree, b))
            expected = next(x for x in anc_a if x in anc_b)
            assert tree.lca(a, b) == expected


def test_level_ancestor_and_on_path():
    t = DFSTree({0: None, 1: 0, 2: 1, 3: 2, 4: 3})
    assert t.level_ancestor(4, 0) == 0
    assert t.level_ancestor(4, 2) == 2
    with pytest.raises(TreeError):
        t.level_ancestor(2, 5)
    assert t.on_path(2, 0, 4)
    assert not t.on_path(4, 0, 2)


def test_paths_and_lengths():
    t = DFSTree({0: None, 1: 0, 2: 1, 3: 1, 4: 3, 5: 0})
    assert t.path(2, 4) == [2, 1, 3, 4]
    assert t.path(4, 2) == [4, 3, 1, 2]
    assert t.path(5, 5) == [5]
    assert t.path_length(2, 4) == 3
    assert t.ancestor_path(4, 0) == [4, 3, 1, 0]
    with pytest.raises(TreeError):
        t.ancestor_path(0, 4)


def test_subtree_vertices_and_preorder():
    t = DFSTree({0: None, 1: 0, 2: 1, 3: 1, 4: 0})
    assert t.subtree_vertices(1) == [1, 2, 3]
    assert t.preorder() == [0, 1, 2, 3, 4]
    assert len(t.subtree_vertices(0)) == 5


def test_forest_support_and_roots():
    t = DFSTree({0: None, 1: 0, 10: None, 11: 10})
    assert set(t.roots()) == {0, 10}
    with pytest.raises(TreeError):
        t.lca(1, 11)


def test_error_cases():
    with pytest.raises(TreeError):
        DFSTree({0: 1, 1: 0})  # cycle
    with pytest.raises(TreeError):
        DFSTree({0: None, 1: 5})  # dangling parent
    t = DFSTree({0: None, 1: 0})
    with pytest.raises(VertexNotFound):
        t.level(42)
    with pytest.raises(TreeError):
        DFSTree({0: None, 1: 0}, root=1)  # 1 is not a root


def test_indices_consistent_on_random_dfs_trees():
    g, tree = build_random_dfs_tree(seed=5)
    # subtree sizes sum along children, levels increase by one
    for v in tree.vertices():
        kids = tree.children(v)
        assert tree.subtree_size(v) == 1 + sum(tree.subtree_size(c) for c in kids)
        for c in kids:
            assert tree.level(c) == tree.level(v) + 1
            assert tree.is_ancestor(v, c)
    # postorder of a parent is larger than all descendants
    for v in tree.vertices():
        for c in tree.children(v):
            assert tree.postorder(v) > tree.postorder(c)


def test_parent_map_round_trip():
    g, tree = build_random_dfs_tree(seed=8)
    clone = DFSTree(tree.parent_map(), root=tree.root)
    for v in tree.vertices():
        assert clone.parent(v) == tree.parent(v)
        assert clone.level(v) == tree.level(v)
        assert clone.subtree_size(v) == tree.subtree_size(v)
