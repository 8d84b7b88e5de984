"""ArrayGraph: the flat int-slot / CSR mirror of the dict graph store."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import DuplicateEdge, EdgeNotFound, VertexNotFound
from repro.graph.array_graph import ArrayGraph
from repro.graph.generators import gnp_random_graph
from repro.graph.graph import UndirectedGraph


def _assert_mirror_consistent(g: ArrayGraph) -> None:
    """The CSR snapshot must reproduce the dict adjacency rows exactly."""
    indptr, indices = g.csr()
    for v in g.vertices():
        s = g.slot(v)
        row = [g.slot_id(int(t)) for t in indices[indptr[s] : indptr[s + 1]]]
        assert row == g.neighbor_list(v), v


def test_same_public_api_as_dict_graph():
    g = ArrayGraph(edges=[(0, 1), (1, 2), (2, 3)])
    assert g.num_vertices == 4
    assert g.num_edges == 3
    assert g.has_edge(2, 1)
    assert not g.has_edge(0, 3)
    assert g.neighbor_list(1) == [0, 2]
    assert g.degree(2) == 2
    with pytest.raises(VertexNotFound):
        g.degree("nope")
    with pytest.raises(DuplicateEdge):
        g.add_edge(0, 1)
    with pytest.raises(EdgeNotFound):
        g.remove_edge(0, 3)


def test_equals_dict_graph_and_from_graph_preserves_row_order():
    base = UndirectedGraph(edges=[(0, 1), (2, 1), (0, 3)])
    base.add_edge(1, 3)
    ag = ArrayGraph.from_graph(base)
    assert ag == base
    for v in base.vertices():
        assert ag.neighbor_list(v) == base.neighbor_list(v)
    _assert_mirror_consistent(ag)


def test_csr_rows_match_insertion_order_after_mutations():
    g = ArrayGraph(edges=[(0, 1), (0, 2), (0, 3)])
    g.remove_edge(0, 2)
    g.add_edge(0, 2)  # re-insertion moves the entry to the end of the row
    assert g.neighbor_list(0) == [1, 3, 2]
    _assert_mirror_consistent(g)


def test_slot_recycling_regression():
    """Freed slots are recycled through the free-list: sustained vertex churn
    must not grow the arrays past the peak live vertex count."""
    g = ArrayGraph(edges=[(0, 1), (1, 2)])
    peak = g.num_slots
    assert peak == 3
    for i in range(100):
        v = f"churn{i}"
        g.add_vertex_with_edges(v, [0, 1])
        g.remove_vertex(v)
    # one extra slot for the single transient vertex alive at a time
    assert g.num_slots <= peak + 1
    assert g.num_edges == 2
    _assert_mirror_consistent(g)


def test_slot_recycling_reuses_the_freed_slot_id():
    g = ArrayGraph(vertices=[0, 1, 2])
    s = g.slot(1)
    g.remove_vertex(1)
    assert g.slot_id(s) is None
    g.add_vertex("new")
    assert g.slot("new") == s  # the freed slot, not a fresh one
    assert g.num_slots == 3


def test_edge_array_compaction_under_churn():
    g = ArrayGraph(vertices=list(range(8)))
    rng = random.Random(5)
    for _ in range(600):
        u, v = rng.sample(range(8), 2)
        if g.has_edge(u, v):
            g.remove_edge(u, v)
        else:
            g.add_edge(u, v)
        src, dst, alive = g.edge_arrays()
        # dead entries never outnumber live ones for long (compaction)
        assert len(src) <= 4 * (2 * g.num_edges) + 32
    _assert_mirror_consistent(g)
    src, dst, alive = g.edge_arrays()
    assert int(alive.sum()) == 2 * g.num_edges


def test_copy_is_independent():
    g = ArrayGraph(edges=[(0, 1), (1, 2)])
    h = g.copy()
    h.remove_edge(0, 1)
    h.add_vertex(99)
    assert g.has_edge(0, 1)
    assert not g.has_vertex(99)
    _assert_mirror_consistent(g)
    _assert_mirror_consistent(h)


def test_random_differential_against_dict_graph():
    """Random mutation stream: ArrayGraph stays structurally equal to the dict
    reference, with identical per-row iteration order throughout."""
    rng = random.Random(17)
    ref = gnp_random_graph(12, 0.3, seed=3)
    arr = ArrayGraph.from_graph(ref)
    next_vertex = 1000
    for step in range(300):
        verts = sorted(ref.vertices())
        op = rng.randrange(4)
        if op == 0 and len(verts) >= 2:
            u, v = rng.sample(verts, 2)
            if ref.has_edge(u, v):
                ref.remove_edge(u, v)
                arr.remove_edge(u, v)
            else:
                ref.add_edge(u, v)
                arr.add_edge(u, v)
        elif op == 1 and len(verts) > 4:
            v = verts[rng.randrange(len(verts))]
            assert ref.remove_vertex(v) == arr.remove_vertex(v)
        elif op == 2:
            nbrs = [w for w in verts if rng.random() < 0.3]
            assert ref.add_vertex_with_edges(next_vertex, nbrs) == arr.add_vertex_with_edges(
                next_vertex, nbrs
            )
            next_vertex += 1
        else:
            src, dst, alive = arr.edge_arrays()
            assert int(alive.sum()) == 2 * ref.num_edges
        assert arr == ref
        for v in ref.vertices():
            assert arr.neighbor_list(v) == ref.neighbor_list(v), (step, v)
    _assert_mirror_consistent(arr)
