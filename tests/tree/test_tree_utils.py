"""Tests for path/subtree utilities (hanging subtrees, heavy vertex, segments)."""

import pytest

from repro.exceptions import TreeError
from repro.graph.generators import random_tree
from repro.graph.traversal import static_dfs_tree
from repro.tree.dfs_tree import DFSTree
from repro.tree.tree_utils import (
    ancestor_descendant_segments,
    hanging_subtrees,
    heavy_vertex,
    run_orientation,
)


@pytest.fixture
def caterpillar_tree():
    # Spine 0-1-2-3 with legs: 0->10, 1->11, 2->12,13, 3->14
    parent = {0: None, 1: 0, 2: 1, 3: 2, 10: 0, 11: 1, 12: 2, 13: 2, 14: 3}
    return DFSTree(parent, root=0)


def test_is_vertical_path(caterpillar_tree):
    # A vertical path is exactly a sequence the segmenter keeps whole.
    t = caterpillar_tree
    for seq in ([0, 1, 2, 3], [3, 2, 1], [2]):
        assert ancestor_descendant_segments(t, seq) == [seq]
    assert len(ancestor_descendant_segments(t, [1, 2, 13, 12])) > 1  # sibling hop
    assert len(ancestor_descendant_segments(t, [0, 2])) > 1  # not adjacent


def test_hanging_subtrees(caterpillar_tree):
    t = caterpillar_tree
    for path in ([0, 1, 2, 3], (0, 1, 2, 3), iter([0, 1, 2, 3])):
        assert hanging_subtrees(t, path) == [10, 11, 12, 13, 14]


def test_heavy_vertex_and_chain():
    # A path tree: every prefix is heavy, v_H is the deepest vertex whose
    # subtree still exceeds the threshold.
    parent = {i: (i - 1 if i else None) for i in range(10)}
    t = DFSTree(parent, root=0)
    assert heavy_vertex(t, 0, 3) == 6  # |T(6)| = 4 > 3, |T(7)| = 3
    # Every vertex of the heavy chain 0..6 leads down to the same v_H.
    assert {heavy_vertex(t, v, 3) for v in range(7)} == {6}
    with pytest.raises(TreeError):
        heavy_vertex(t, 7, 5)


def test_heavy_vertex_on_balanced_tree():
    parent = {0: None, 1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 2}
    t = DFSTree(parent, root=0)
    # threshold 3: only the root exceeds it
    assert heavy_vertex(t, 0, 3) == 0
    # threshold 2: children of the root have size 3 > 2, pick one chain end
    assert heavy_vertex(t, 0, 2) in (1, 2)


def test_ancestor_descendant_segments(caterpillar_tree):
    t = caterpillar_tree
    # A path of T* glued from two vertical runs by a back-edge jump.
    seq = [11, 1, 0, 14, 3, 2]
    segs = ancestor_descendant_segments(t, seq)
    assert segs == [[11, 1, 0], [14, 3, 2]]
    assert ancestor_descendant_segments(t, []) == []
    assert ancestor_descendant_segments(t, [2]) == [[2]]
    # Direction flip splits a segment.
    segs2 = ancestor_descendant_segments(t, [1, 2, 3, 2])
    assert segs2 == [[1, 2, 3], [2]]


def test_run_orientation_and_split(caterpillar_tree):
    t = caterpillar_tree

    def orient(segment):
        top, bottom = run_orientation(t, t._i(segment[0]), t._i(segment[-1]))
        return t._verts[top], t._verts[bottom]

    assert orient([3, 2, 1]) == (1, 3)
    assert orient([1, 2, 3]) == (1, 3)
    # The pieces a path of T* splits into orient top-down.
    segs = ancestor_descendant_segments(t, [11, 1, 0, 14, 3, 2])
    assert [orient(s) for s in segs] == [(0, 11), (2, 14)]


def _is_vertical(tree, vertices):
    """True iff consecutive *vertices* are parent/child pairs, all stepping
    the same way (down or up)."""
    steps = {1 if tree.parent(b) == a else -1 if tree.parent(a) == b else 0
             for a, b in zip(vertices, vertices[1:])}
    return steps in (set(), {1}, {-1})


def test_segments_on_random_trees_cover_and_are_vertical():
    from random import Random

    rng = Random(7)
    g = random_tree(40, seed=2)
    t = DFSTree(static_dfs_tree(g, 0), root=0)
    verts = list(t.vertices())
    for _ in range(50):
        seq = rng.sample(verts, rng.randint(1, 10))
        segs = ancestor_descendant_segments(t, seq)
        assert [v for s in segs for v in s] == seq
        for s in segs:
            assert _is_vertical(t, s)
