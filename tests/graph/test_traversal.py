"""Tests for static DFS / BFS / connected components."""

import pytest

from repro.constants import VIRTUAL_ROOT
from repro.exceptions import VertexNotFound
from repro.graph.array_graph import ArrayGraph
from repro.graph.generators import gnp_random_graph, path_graph, star_graph
from repro.graph.graph import UndirectedGraph
from repro.graph.traversal import (
    bfs_tree,
    component_of,
    connected_components,
    static_dfs_forest,
    static_dfs_tree,
)
from repro.graph.validation import is_valid_dfs_forest, is_valid_dfs_tree


def test_static_dfs_tree_on_path():
    g = path_graph(6)
    parent = static_dfs_tree(g, 0)
    assert parent == {0: None, 1: 0, 2: 1, 3: 2, 4: 3, 5: 4}
    assert is_valid_dfs_tree(g, parent, 0)


def test_static_dfs_tree_is_valid_on_random_graphs():
    for seed in range(5):
        g = gnp_random_graph(40, 0.1, seed=seed, connected=True)
        parent = static_dfs_tree(g, 0)
        assert is_valid_dfs_tree(g, parent, 0)
        assert len(parent) == 40


def test_static_dfs_tree_restricted():
    g = star_graph(10)
    parent = static_dfs_tree(g, 0, restrict_to=[0, 1, 2, 3])
    assert set(parent) == {0, 1, 2, 3}
    with pytest.raises(VertexNotFound):
        static_dfs_tree(g, 99)
    with pytest.raises(VertexNotFound):
        static_dfs_tree(g, 5, restrict_to=[0, 1])


def test_static_dfs_tree_handles_deep_graphs():
    # Far beyond the recursion limit: the implementation must be iterative.
    g = path_graph(5000)
    parent = static_dfs_tree(g, 0)
    assert len(parent) == 5000


def test_static_dfs_forest_covers_disconnected_graphs():
    g = UndirectedGraph(vertices=range(6), edges=[(0, 1), (2, 3)])
    parent = static_dfs_forest(g)
    assert parent[VIRTUAL_ROOT] is None
    assert set(parent) == set(range(6)) | {VIRTUAL_ROOT}
    assert is_valid_dfs_forest(g, parent)
    roots = [v for v, p in parent.items() if p == VIRTUAL_ROOT]
    assert len(roots) == 4  # components {0,1}, {2,3}, {4}, {5}


def test_bfs_tree_depths_are_shortest_path_distances():
    g = path_graph(8)
    parent, depth = bfs_tree(g, 0)
    assert depth[7] == 7
    g2 = star_graph(9)
    _, depth2 = bfs_tree(g2, 1)
    assert depth2[0] == 1 and all(depth2[v] == 2 for v in range(2, 9))


def test_connected_components_and_component_of():
    g = UndirectedGraph(vertices=range(7), edges=[(0, 1), (1, 2), (4, 5)])
    comps = connected_components(g)
    assert sorted(sorted(c) for c in comps) == [[0, 1, 2], [3], [4, 5], [6]]
    assert sorted(component_of(g, 2)) == [0, 1, 2]
    with pytest.raises(VertexNotFound):
        component_of(g, 100)


def test_array_store_traversals_equal_the_dict_store():
    """Both graph stores give the same forests, BFS trees and components,
    entry for entry and in order, on a graph of hundreds of components
    (862 here: 680 isolated vertices, small trees and a giant component)."""
    g = gnp_random_graph(3000, 1.5 / 3000, seed=3)
    ag = ArrayGraph.from_graph(g)
    comps = connected_components(g)
    assert len(comps) > 500
    assert connected_components(ag) == comps
    assert list(static_dfs_forest(ag).items()) == list(static_dfs_forest(g).items())
    for comp in comps:
        for v in (comp[0], comp[-1]):
            assert component_of(ag, v) == component_of(g, v)
            parent, depth = bfs_tree(ag, v)
            ref_parent, ref_depth = bfs_tree(g, v)
            assert list(parent.items()) == list(ref_parent.items())
            assert list(depth.items()) == list(ref_depth.items())
