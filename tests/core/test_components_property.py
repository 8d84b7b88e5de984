"""Figure 1: the components property.

When the partially built tree reaches vertex ``v`` and an unvisited component
``C`` has edges both to ``v`` and to an ancestor ``w`` of ``v``, only the edge
at ``v`` needs to be considered: attaching ``C`` there turns the ancestor edge
into a back edge.  The engines implement this by always attaching a component
through its *lowest* edge to the traversed path; these tests reconstruct the
figure and check both the attachment choice and the resulting back edge.
"""

from repro.constants import VIRTUAL_ROOT
from repro.core.queries import BruteForceQueryService, EdgeQuery
from repro.core.reduction import RerootTask
from repro.core.reroot_parallel import ParallelRerootEngine
from repro.graph.graph import UndirectedGraph
from repro.graph.traversal import static_dfs_forest
from repro.graph.validation import check_dfs_tree, is_back_edge
from repro.tree.dfs_tree import DFSTree


def figure1_graph():
    # Path r=0 - 1 - 2 (w=1 an ancestor of v=2), one unvisited component
    # C = {3, 4, 5} with an edge e from 2 into C and an edge e' from 1 into C.
    g = UndirectedGraph(
        edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
    )
    return g


def test_lowest_edge_is_preferred():
    g = figure1_graph()
    tree = DFSTree(static_dfs_forest(g), root=VIRTUAL_ROOT)
    service = BruteForceQueryService(g, tree)
    # Component {3,4,5} queried against the path 0-1-2 (shallow -> deep): the
    # lowest edge is (3, 2), not the ancestor edge (5, 1).
    answer = service.answer(EdgeQuery.from_tree(3, (0, 1, 2), prefer_last=True))
    assert answer is not None
    assert answer[1] == 2


def test_ignored_edge_becomes_back_edge():
    g = figure1_graph()
    tree = DFSTree(static_dfs_forest(g), root=VIRTUAL_ROOT)
    service = BruteForceQueryService(g, tree)
    engine = ParallelRerootEngine(tree, service)
    # Reroot the component subtree T(3) at 3, hanging from vertex 2 (its lowest
    # edge on the path), as the components property dictates.
    assignment = engine.reroot_many([RerootTask(subtree_root=3, new_root=3, attach=2)])
    parent = tree.parent_map()
    parent.update(assignment)
    assert check_dfs_tree(g, parent) == []
    # The ignored edge (1, 5) is now a back edge of the new tree.
    assert is_back_edge(parent, 1, 5)
    # And the component indeed hangs from vertex 2.
    assert parent[3] == 2


def test_attaching_at_the_ancestor_would_be_wrong():
    g = figure1_graph()
    tree = DFSTree(static_dfs_forest(g), root=VIRTUAL_ROOT)
    # Hang the component from the *ancestor* endpoint instead: the edge (2, 3)
    # becomes a cross edge, so the result is not a DFS tree — which is exactly
    # why the components property keeps the lowest edge.
    parent = tree.parent_map()
    parent.update({5: 1, 4: 5, 3: 4})
    problems = check_dfs_tree(g, parent)
    assert any("cross edge" in p for p in problems)
