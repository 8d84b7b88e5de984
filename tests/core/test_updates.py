"""Tests for the update vocabulary."""

import pytest

from repro.core.updates import (
    EdgeDeletion,
    EdgeInsertion,
    VertexDeletion,
    VertexInsertion,
    inverse,
)


def test_descriptions_and_kinds():
    assert "insert edge" in EdgeInsertion(1, 2).describe()
    assert "delete edge" in EdgeDeletion(1, 2).describe()
    assert "insert vertex" in VertexInsertion(3, (1, 2)).describe()
    assert "delete vertex" in VertexDeletion(3).describe()


def test_vertex_insertion_neighbors_are_normalised_to_tuple():
    upd = VertexInsertion(5, [1, 2, 3])
    assert upd.neighbors == (1, 2, 3)
    assert EdgeInsertion(1, 2).endpoints() == (1, 2)


def test_updates_are_hashable_and_equal_by_value():
    assert EdgeInsertion(1, 2) == EdgeInsertion(1, 2)
    assert len({EdgeDeletion(0, 1), EdgeDeletion(0, 1), VertexDeletion(9)}) == 2


def test_inverse():
    assert inverse(EdgeInsertion(1, 2)) == EdgeDeletion(1, 2)
    assert inverse(EdgeDeletion(1, 2)) == EdgeInsertion(1, 2)
    assert inverse(VertexInsertion(5, (1,))) == VertexDeletion(5)
    with pytest.raises(ValueError):
        inverse(VertexDeletion(5))
