"""Tests for the component/piece model (C1/C2 invariant bookkeeping)."""

import pytest

from repro.core.components import (
    Component,
    PathPiece,
    TreePiece,
    assert_disjoint_pieces,
    component_from_subtree,
)
from repro.exceptions import InvariantViolation
from repro.tree.dfs_tree import DFSTree


@pytest.fixture
def tree():
    # 0 -> 1 -> {2 -> {3,4}, 5}, 0 -> 6 -> 7
    return DFSTree({0: None, 1: 0, 2: 1, 3: 2, 4: 2, 5: 1, 6: 0, 7: 6})


def test_tree_piece(tree):
    piece = TreePiece(2)
    assert piece.size(tree) == 3
    assert set(piece.vertices(tree)) == {2, 3, 4}
    assert piece.contains(tree, 4) and not piece.contains(tree, 5)
    assert "T(2)" in piece.describe()


def test_path_piece(tree):
    piece = PathPiece([5, 1, 0])
    assert len(piece) == 3 and piece.size(tree) == 3
    assert piece.contains(tree, 1) and not piece.contains(tree, 2)
    assert piece.endpoints() == (5, 0)
    assert piece.top_bottom(tree) == (0, 5)
    with pytest.raises(InvariantViolation):
        PathPiece([])


def test_component_typing_and_sizes(tree):
    c1 = Component(trees=[TreePiece(2)], rc=3)
    assert c1.kind == "C1"
    assert c1.size(tree) == 3 and c1.path_length() == 0
    c2 = Component(trees=[TreePiece(6)], path=PathPiece([1, 2]), rc=1)
    assert c2.kind == "C2"
    assert c2.size(tree) == 4 and c2.path_length() == 2
    assert c2.heaviest_tree(tree).root == 6
    assert [t.root for t in c2.heavy_trees(tree, 1)] == [6]
    assert c2.heavy_trees(tree, 5) == []
    assert [type(p) for p in c2.pieces()] == [PathPiece, TreePiece]


def test_piece_containing_and_vertices(tree):
    comp = Component(trees=[TreePiece(6)], path=PathPiece([2, 3]), rc=2)
    assert isinstance(comp.piece_containing(tree, 7), TreePiece)
    assert isinstance(comp.piece_containing(tree, 3), PathPiece)
    assert comp.piece_containing(tree, 5) is None
    assert set(comp.vertices(tree)) == {2, 3, 6, 7}
    assert comp.contains(tree, 6) and not comp.contains(tree, 0)
    assert "C2" in comp.describe(tree)


def test_component_from_subtree_checks_root(tree):
    comp = component_from_subtree(tree, 1, rc=4, attach=0)
    assert comp.kind == "C1" and comp.rc == 4 and comp.attach == 0
    with pytest.raises(InvariantViolation):
        component_from_subtree(tree, 6, rc=3, attach=0)


def test_assert_disjoint_pieces(tree):
    a = Component(trees=[TreePiece(2)])
    b = Component(trees=[TreePiece(6)])
    assert_disjoint_pieces(tree, [a, b])
    c = Component(path=PathPiece([4]))
    with pytest.raises(InvariantViolation):
        assert_disjoint_pieces(tree, [a, c])
