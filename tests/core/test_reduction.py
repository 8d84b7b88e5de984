"""Tests for the reduction algorithm — the four cases of Figure 2."""

import pytest

from repro.constants import VIRTUAL_ROOT
from repro.core.queries import BruteForceQueryService
from repro.core.reduction import ReductionResult, reduce_update
from repro.core.updates import EdgeDeletion, EdgeInsertion, VertexDeletion, VertexInsertion
from repro.exceptions import UpdateError
from repro.graph.generators import gnp_random_graph, path_graph
from repro.graph.graph import UndirectedGraph
from repro.graph.traversal import static_dfs_forest
from repro.tree.dfs_tree import DFSTree


def build(graph):
    tree = DFSTree(static_dfs_forest(graph), root=VIRTUAL_ROOT)
    service = BruteForceQueryService(graph, tree)
    return tree, service


def test_back_edge_insertion_and_deletion_touch_nothing():
    g = path_graph(6)
    g.add_edge(0, 5)  # back edge w.r.t. the path DFS tree
    tree, service = build(g)
    res = reduce_update(EdgeDeletion(0, 5), tree, service)
    assert res == ReductionResult()

    g2 = path_graph(6)
    tree2, service2 = build(g2)
    g2.add_edge(1, 4)
    res2 = reduce_update(EdgeInsertion(1, 4), tree2, service2)
    assert res2 == ReductionResult()


def test_figure2_case_i_tree_edge_deletion():
    # Path 0-1-2-3-4 plus a back edge (1, 4); deleting tree edge (2, 3) must
    # reroot T(3) at 4 and hang it from 1 via the lowest edge (1, 4).
    g = path_graph(5)
    g.add_edge(1, 4)
    tree, _ = build(g)
    g.remove_edge(2, 3)
    service = BruteForceQueryService(g, tree)
    res = reduce_update(EdgeDeletion(2, 3), tree, service)
    assert len(res.tasks) == 1
    task = res.tasks[0]
    assert task.subtree_root == 3
    assert task.new_root == 4
    assert task.attach == 1


def test_tree_edge_deletion_disconnecting_component():
    g = path_graph(5)
    tree, _ = build(g)
    g.remove_edge(2, 3)
    service = BruteForceQueryService(g, tree)
    res = reduce_update(EdgeDeletion(2, 3), tree, service)
    task = res.tasks[0]
    assert task.subtree_root == 3
    assert task.attach == VIRTUAL_ROOT  # no remaining connection


def test_figure2_case_ii_cross_edge_insertion():
    # Star-ish tree: 0 is the root with children 1 and 3; 1 has child 2.
    g = UndirectedGraph(edges=[(0, 1), (1, 2), (0, 3)])
    tree, service = build(g)
    g.add_edge(2, 3)
    service = BruteForceQueryService(g, tree)
    res = reduce_update(EdgeInsertion(2, 3), tree, service)
    assert len(res.tasks) == 1
    task = res.tasks[0]
    # LCA(2, 3) = 0, its child towards 3 is 3: reroot T(3) at 3, hang from 2
    # (or the symmetric reduction, depending on endpoint ordering).
    assert {task.subtree_root, task.new_root} == {3} or task.new_root == 3
    assert task.attach == 2


def test_figure2_case_iii_vertex_deletion():
    # Vertex 1 has two child subtrees {2} and {3,4}; 2 has a back edge to 0,
    # the subtree {3,4} has none and must fall to the virtual root.
    g = UndirectedGraph(edges=[(0, 1), (1, 2), (1, 3), (3, 4), (0, 2)])
    tree, _ = build(g)
    g.remove_vertex(1)
    service = BruteForceQueryService(g, tree)
    res = reduce_update(VertexDeletion(1), tree, service)
    assert res.removed_vertices == [1]
    assert len(res.tasks) == 2
    by_root = {t.subtree_root: t for t in res.tasks}
    assert by_root[2].new_root == 2 and by_root[2].attach == 0
    assert by_root[3].attach == VIRTUAL_ROOT


def test_figure2_case_iv_vertex_insertion():
    # Path 0-1-2-3 and a new vertex 9 adjacent to 1 and 3: 9 hangs from the
    # shallower neighbour (1) and T(2) (containing 3) is rerooted at 3 under 9.
    g = path_graph(4)
    tree, service = build(g)
    g.add_vertex_with_edges(9, [1, 3])
    service = BruteForceQueryService(g, tree)
    res = reduce_update(VertexInsertion(9, (1, 3)), tree, service)
    assert res.parent_overrides == {9: 1}
    assert len(res.tasks) == 1
    task = res.tasks[0]
    assert task.subtree_root == 2 and task.new_root == 3 and task.attach == 9


def test_vertex_insertion_isolated_and_back_edges_only():
    g = path_graph(4)
    tree, service = build(g)
    res = reduce_update(VertexInsertion(7, ()), tree, service)
    assert res.parent_overrides == {7: VIRTUAL_ROOT} and not res.tasks

    g2 = path_graph(4)
    tree2, service2 = build(g2)
    g2.add_vertex_with_edges(8, [0, 2])
    service2 = BruteForceQueryService(g2, tree2)
    # 0 is an ancestor of 2, so attaching at 0 makes (8, 2)... the reduction
    # attaches at the shallower neighbour and must produce tasks only for
    # neighbours outside the root path.
    res2 = reduce_update(VertexInsertion(8, (0, 2)), tree2, service2)
    assert res2.parent_overrides == {8: 0}
    assert len(res2.tasks) == 1  # subtree containing 2 is rerooted at 2


def test_vertex_insertion_groups_neighbors_by_subtree():
    # Root 0 with child 1; 1 has children 2 and 3 in one subtree.
    g = UndirectedGraph(edges=[(0, 1), (1, 2), (2, 3)])
    tree, service = build(g)
    g.add_vertex_with_edges(5, [0, 2, 3])
    service = BruteForceQueryService(g, tree)
    res = reduce_update(VertexInsertion(5, (0, 2, 3)), tree, service)
    assert res.parent_overrides == {5: 0}
    # 2 and 3 live in the same subtree hanging from path(0, r): single task.
    assert len(res.tasks) == 1
    assert res.tasks[0].subtree_root == 1
    assert res.tasks[0].new_root in (2, 3)


def test_error_cases():
    g = path_graph(4)
    tree, service = build(g)
    with pytest.raises(UpdateError):
        reduce_update(EdgeInsertion(0, 99), tree, service)
    with pytest.raises(UpdateError):
        reduce_update(VertexDeletion(99), tree, service)
    with pytest.raises(UpdateError):
        reduce_update(VertexInsertion(2, ()), tree, service)  # already exists


def test_reduction_tasks_are_disjoint_on_random_graphs():
    for seed in range(3):
        g = gnp_random_graph(40, 0.12, seed=seed, connected=True)
        tree, _ = build(g)
        victim = max(g.vertices(), key=g.degree)
        g.remove_vertex(victim)
        service = BruteForceQueryService(g, tree)
        res = reduce_update(VertexDeletion(victim), tree, service)
        seen = set()
        for task in res.tasks:
            vertices = set(tree.subtree_vertices(task.subtree_root))
            assert not (vertices & seen)
            seen |= vertices
            assert task.new_root in vertices
            assert task.attach not in vertices
