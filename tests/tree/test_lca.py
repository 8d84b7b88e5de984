"""Tests for the tree's one LCA index (Euler tour + sparse table) and the
DFSTree queries that read it, against the parent-walk oracle."""

import gc
import random

import pytest

import repro.tree.lca as lca_module
from repro.constants import VIRTUAL_ROOT, is_virtual_root
from repro.exceptions import TreeError, VertexNotFound
from repro.graph.generators import gnp_random_graph, path_graph, random_tree
from repro.graph.traversal import static_dfs_forest, static_dfs_tree
from repro.pram.lca_parallel import ParallelLCA
from repro.pram.machine import PRAM
from repro.service import TreeSnapshot
from repro.tree.dfs_tree import DFSTree
from repro.tree.lca import ArrayLCAIndex
from tests.helpers import ParentWalk, assert_tree_matches_oracle, lca_through_index


def _forest(seed):
    """A plain multi-root forest: the DFS forest of a sparse graph without
    its virtual root."""
    parent = static_dfs_forest(gnp_random_graph(40, 0.05, seed=seed))
    return DFSTree({
        v: (None if is_virtual_root(p) else p) for v, p in parent.items() if not is_virtual_root(v)
    })


def _pairs(tree, count, seed):
    rng = random.Random(seed)
    verts = list(tree.vertices())
    return [(rng.choice(verts), rng.choice(verts)) for _ in range(count)]


def test_tree_queries_match_oracle_on_single_trees():
    trees = [DFSTree(static_dfs_tree(random_tree(50, seed=s), 0), root=0) for s in range(3)]
    trees.append(DFSTree(static_dfs_tree(path_graph(20), 0), root=0))
    g = gnp_random_graph(40, 0.12, seed=5, connected=True)
    trees.append(DFSTree(static_dfs_forest(g), root=VIRTUAL_ROOT))
    for seed, tree in enumerate(trees):
        assert_tree_matches_oracle(tree, _pairs(tree, 150, seed))


def test_tree_queries_match_oracle_on_forests():
    for seed in range(4):
        tree = _forest(seed)
        assert len(tree.roots()) > 1
        pairs = _pairs(tree, 150, seed)
        assert any(ParentWalk(tree.parent_map()).lca(a, b) is None for a, b in pairs)
        assert_tree_matches_oracle(tree, pairs)


def test_index_scalar_and_batch_match_oracle():
    for seed in range(3):
        tree = _forest(seed)
        oracle = ParentWalk(tree.parent_map())
        same_tree = [(a, b) for a, b in _pairs(tree, 200, seed) if oracle.lca(a, b) is not None]
        for a, b in same_tree:
            assert tree.lca(a, b) == oracle.lca(a, b)
        avs, bvs = zip(*same_tree)
        assert lca_through_index(tree, list(avs), list(bvs)) == [oracle.lca(a, b) for a, b in same_tree]
        a, b = next((a, b) for a, b in _pairs(tree, 200, seed) if oracle.lca(a, b) is None)
        with pytest.raises(TreeError):
            tree.lca(a, b)
        assert lca_through_index(tree, [a], [b]) == [None]


def test_both_indices_agree_with_tree_lca():
    # The tree's ArrayLCAIndex and the PRAM-metered ParallelLCA are two
    # sparse tables over the same Euler tour.
    rng = random.Random(1)
    for seed in range(3):
        tree = DFSTree(static_dfs_tree(random_tree(50, seed=seed), 0), root=0)
        oracle = ParentWalk(tree.parent_map())
        metered = ParallelLCA(PRAM(), tree)
        verts = list(tree.vertices())
        for _ in range(300):
            a, b = rng.choice(verts), rng.choice(verts)
            expected = oracle.lca(a, b)
            assert tree.lca(a, b) == expected
            assert lca_through_index(tree, [a], [b]) == [expected]
            assert metered.lca(a, b) == expected


def test_euler_tour_lca_on_path():
    tree = DFSTree(static_dfs_tree(path_graph(20), 0), root=0)
    assert tree.lca(19, 5) == 5
    assert tree.lca(7, 7) == 7
    assert lca_through_index(tree, [19, 7, 3], [5, 7, 10]) == [5, 7, 3]
    assert tree.path_length(3, 10) == 7
    assert tree.level_ancestor(19, 4) == 4


def test_euler_tour_lca_unknown_vertex_raises():
    tree = DFSTree(static_dfs_tree(random_tree(30, seed=1), 0), root=0)
    with pytest.raises(VertexNotFound):
        tree.lca(0, "nope")
    assert tree.indices([0, "nope"]).tolist() == [tree._idx[0], -1]


def test_level_ancestor_matches_oracle():
    tree = DFSTree(static_dfs_tree(random_tree(50, seed=4), 0), root=0)
    oracle = ParentWalk(tree.parent_map())
    for v in tree.vertices():
        for level in range(tree.level(v) + 1):
            assert tree.level_ancestor(v, level) == oracle.level_ancestor(v, level)
        with pytest.raises(TreeError):
            tree.level_ancestor(v, tree.level(v) + 1)


def test_single_vertex_tree():
    tree = DFSTree({0: None})
    assert tree.lca(0, 0) == 0
    assert lca_through_index(tree, [0], [0]) == [0]
    assert tree.level_ancestor(0, 0) == 0


def test_index_built_once_per_tree_through_the_module_attribute(monkeypatch):
    built = []
    original = lca_module.ArrayLCAIndex

    def counting(tree):
        built.append(tree)
        return original(tree)

    monkeypatch.setattr(lca_module, "ArrayLCAIndex", counting)
    g = gnp_random_graph(40, 0.1, seed=3)
    tree = DFSTree(static_dfs_forest(g), root=VIRTUAL_ROOT)
    assert tree.lca(VIRTUAL_ROOT, 0) == VIRTUAL_ROOT  # ancestor pairs need no index
    assert built == []
    verts = [v for v in tree.vertices() if tree.level(v) >= 2]
    tree.level_ancestor(verts[0], 1)
    tree.lca(verts[0], verts[-1])
    TreeSnapshot(1, tree).lca_batch(verts[:3], verts[-3:])
    assert built == [tree]


def test_dropped_tree_frees_its_index_without_the_cyclic_gc():
    def live_indices():
        return {id(o) for o in gc.get_objects() if isinstance(o, ArrayLCAIndex)}

    gc.collect()
    gc.disable()
    try:
        before = live_indices()
        g = gnp_random_graph(40, 0.1, seed=3)
        tree = DFSTree(static_dfs_forest(g), root=VIRTUAL_ROOT)
        index = tree.lca_index()
        assert id(index) not in before
        del tree, index
        assert live_indices() <= before
    finally:
        gc.enable()
