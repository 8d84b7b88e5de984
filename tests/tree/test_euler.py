"""Tests for the Euler tour (the forest's entry/exit event array)."""

from collections import Counter

from repro.graph.generators import random_tree
from repro.graph.traversal import static_dfs_tree
from repro.tree.dfs_tree import DFSTree
from repro.tree.euler import euler_tour_arrays


def _tree(seed=0, n=30):
    g = random_tree(n, seed=seed)
    return DFSTree(static_dfs_tree(g, 0), root=0)


def _tour(tree):
    """The tour as vertex ids (``None`` for a root's closing event)."""
    tour, depths = euler_tour_arrays(tree)
    verts = list(tree.as_arrays()["vertices"])
    return [verts[i] if i >= 0 else None for i in tour.tolist()], depths.tolist()


def test_euler_tour_length_and_first_occurrence():
    tree = _tree(n=25)
    tour, depths = _tour(tree)
    assert len(tour) == len(depths) == 2 * 25
    # One walk around the tree, closed by the root's exit event.
    assert tour[0] == tree.root and tour[-2] == tree.root
    assert tour[-1] is None and depths[-1] == -1
    tin = tree.as_arrays()["tin"]
    for i, v in enumerate(tree.as_arrays()["vertices"]):
        assert tour.index(v) == int(tin[i])
    # Depths recorded along the tour match the tree levels.
    for pos, v in enumerate(tour[:-1]):
        assert depths[pos] == tree.level(v)
    # Consecutive tour entries are tree neighbours.
    for a, b in zip(tour[:-1], tour[1:-1]):
        assert tree.parent(a) == b or tree.parent(b) == a


def test_euler_tour_single_vertex():
    tour, depths = _tour(DFSTree({0: None}))
    assert tour == [0, None] and depths == [0, -1]


def test_edge_tour_traverses_each_edge_twice():
    # Read as arcs between consecutive entries, the tour crosses every tree
    # edge once down and once up; on a forest each tree's walk is closed by a
    # separator, so no arc joins two trees.
    forest = DFSTree({0: None, 1: 0, 2: 1, 3: 0, 10: None, 11: 10, 20: None})
    for tree in (_tree(n=20, seed=3), forest):
        tour, _ = _tour(tree)
        arcs = [(a, b) for a, b in zip(tour, tour[1:]) if a is not None and b is not None]
        assert len(arcs) == 2 * (len(tree) - len(tree.roots()))
        assert Counter(arcs) == Counter(
            arc for v in tree.vertices() if tree.parent(v) is not None
            for arc in ((tree.parent(v), v), (v, tree.parent(v)))
        )
        assert tour.count(None) == len(tree.roots())
