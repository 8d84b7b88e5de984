"""ArrayStructureD: the flat postorder-sorted core behind ``backend="array"``.

Everything here is differential against the dict reference ``StructureD`` —
identical rows, identical query answers, identical probe counters — plus the
array-only machinery: the batched re-anchor path and its scalar fallbacks,
including the per-vertex build over a graph that is not an ``ArrayGraph``.
"""

from __future__ import annotations

import random

import pytest

np = pytest.importorskip("numpy")

from repro.constants import VIRTUAL_ROOT
from repro.core.array_structure_d import ArrayStructureD
from repro.core.structure_d import StructureD
from repro.graph.array_graph import ArrayGraph
from repro.graph.generators import gnp_random_graph
from repro.graph.traversal import static_dfs_forest
from repro.metrics.counters import MetricsRecorder
from repro.tree.dfs_tree import DFSTree


def _pair(n=24, p=0.25, seed=3):
    g = gnp_random_graph(n, p, seed=seed)
    ag = ArrayGraph.from_graph(g)
    tree = DFSTree(static_dfs_forest(g), root=VIRTUAL_ROOT)
    return g, ag, tree


def _interval(tree, root):
    hi = tree.postorder(root)
    return hi - tree.subtree_size(root) + 1, hi


def test_build_matches_dict_reference_exactly():
    g, ag, tree = _pair()
    md, ma = MetricsRecorder(), MetricsRecorder()
    dd = StructureD(g, tree, metrics=md)
    da = ArrayStructureD(ag, tree, metrics=ma)
    assert da.size() == dd.size()
    assert ma["d_build_work"] == md["d_build_work"]
    for v in g.vertices():
        row_d = dd._row(v)
        row_a = da._row(v)
        if row_d is None:
            assert row_a is None, v
        else:
            assert list(row_a[0]) == list(row_d[0]), v  # postorders
            assert list(row_a[1]) == list(row_d[1]), v  # neighbour ids


def test_scalar_queries_identical_with_and_without_overlays():
    rng = random.Random(9)
    g, ag, tree = _pair(seed=11)
    dd = StructureD(g, tree)
    da = ArrayStructureD(ag, tree)
    verts = list(g.vertices())
    for round_ in range(3):
        for _ in range(80):
            u = verts[rng.randrange(len(verts))]
            lo, hi = _interval(tree, verts[rng.randrange(len(verts))])
            assert da.min_post_alive_neighbor(u, lo, hi) == dd.min_post_alive_neighbor(u, lo, hi)
        # dirty some rows between rounds; answers must keep matching
        for v in rng.sample(verts, 3):
            dd.note_vertex_deleted(v)
            da.note_vertex_deleted(v)


def test_batch_reanchor_identical_and_counts_fallbacks():
    rng = random.Random(21)
    g, ag, tree = _pair(n=40, seed=5)
    dd = StructureD(g, tree)
    ma = MetricsRecorder()
    da = ArrayStructureD(ag, tree, metrics=ma)
    verts = list(g.vertices())
    for v in rng.sample(verts, 4):
        dd.note_vertex_deleted(v)
        da.note_vertex_deleted(v)
    us, los, his = [], [], []
    for _ in range(200):
        us.append(verts[rng.randrange(len(verts))])
        lo, hi = _interval(tree, verts[rng.randrange(len(verts))])
        los.append(lo)
        his.append(hi)
    expect = StructureD.min_post_alive_neighbor_batch(dd, us, los, his)
    got_lists = da.min_post_alive_neighbor_batch(us, los, his)
    got_arrays = da.min_post_alive_neighbor_batch(
        us, np.asarray(los, dtype=np.int64), np.asarray(his, dtype=np.int64)
    )
    assert got_lists == expect  # answers AND probe count
    assert got_arrays == expect
    assert ma["d_batch_queries"] == 2
    assert ma["d_batch_query_fallbacks"] == 0


def test_batch_falls_back_after_materialization():
    """Built over a plain ``UndirectedGraph`` (not an ``ArrayGraph``), the
    rows are the inherited python lists and every batched call takes the
    scalar path."""
    g, _, tree = _pair()
    ma = MetricsRecorder()
    da = ArrayStructureD(g, tree, metrics=ma)
    dd = StructureD(g, tree)
    assert da._materialized
    verts = list(g.vertices())
    u, w = verts[0], verts[1]
    dd.note_vertex_deleted(u)
    da.note_vertex_deleted(u)
    lo, hi = _interval(tree, w)
    assert da.min_post_alive_neighbor_batch([w], [lo], [hi]) == StructureD.min_post_alive_neighbor_batch(
        dd, [w], [lo], [hi]
    )
    assert ma["d_batch_query_fallbacks"] == 1


def test_non_int_vertices_take_the_python_path():
    g = gnp_random_graph(10, 0.4, seed=2)
    relabel = {v: f"v{v}" for v in g.vertices()}
    h = type(g)(edges=[(relabel[u], relabel[v]) for u, v in g.edges()])
    ah = ArrayGraph.from_graph(h)
    tree = DFSTree(static_dfs_forest(h), root=VIRTUAL_ROOT)
    dd = StructureD(h, tree)
    da = ArrayStructureD(ah, tree)
    verts = list(h.vertices())
    us = verts * 2
    los, his = [], []
    rng = random.Random(0)
    for _ in us:
        lo, hi = _interval(tree, verts[rng.randrange(len(verts))])
        los.append(lo)
        his.append(hi)
    assert da.min_post_alive_neighbor_batch(us, los, his) == StructureD.min_post_alive_neighbor_batch(
        dd, us, los, his
    )


def test_batch_rejects_silently_truncating_inputs():
    """Float vertex queries must not be truncated into the int fast path."""
    g, ag, tree = _pair(n=12, seed=8)
    dd = StructureD(g, tree)
    da = ArrayStructureD(ag, tree)
    verts = list(g.vertices())
    lo, hi = _interval(tree, verts[0])
    us = [float(verts[0]) + 0.5, verts[1]]
    expect = StructureD.min_post_alive_neighbor_batch(dd, us, [lo, lo], [hi, hi])
    assert da.min_post_alive_neighbor_batch(us, [lo, lo], [hi, hi]) == expect


def test_differential_fuzz_scalar_and_batch():
    rng = random.Random(77)
    for trial in range(40):
        n = rng.randrange(2, 30)
        g, ag, tree = _pair(n=n, p=rng.uniform(0.05, 0.6), seed=rng.randrange(10**6))
        dd = StructureD(g, tree)
        da = ArrayStructureD(ag, tree)
        verts = list(g.vertices())
        for v in rng.sample(verts, rng.randrange(0, min(4, len(verts)) + 1)):
            dd.note_vertex_deleted(v)
            da.note_vertex_deleted(v)
        us, los, his = [], [], []
        for _ in range(50):
            us.append(verts[rng.randrange(len(verts))])
            lo, hi = _interval(tree, verts[rng.randrange(len(verts))])
            los.append(lo)
            his.append(hi)
        assert da.min_post_alive_neighbor_batch(us, los, his) == StructureD.min_post_alive_neighbor_batch(
            dd, us, los, his
        ), trial
