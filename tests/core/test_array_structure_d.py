"""ArrayStructureD: the flat postorder-sorted core behind ``backend="array"``.

Everything here is differential against the dict reference ``StructureD`` —
identical rows, identical query answers, identical probe counters — plus the
array-only machinery: the batched re-anchor path, the row-batched subtree
search of a query round, and their scalar fallbacks for overlay-dirtied rows.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.constants import VIRTUAL_ROOT
from repro.core.array_structure_d import ArrayStructureD
from repro.core.dynamic_dfs import FullyDynamicDFS
from repro.core.overlay import apply_update
from repro.core.queries import DQueryService, EdgeQuery
from repro.core.structure_d import StructureD
from repro.core.updates import EdgeDeletion, EdgeInsertion, VertexDeletion, VertexInsertion
from repro.graph.array_graph import ArrayGraph
from repro.graph.generators import gnp_random_graph
from repro.graph.traversal import static_dfs_forest, static_dfs_tree
from repro.metrics.counters import MetricsRecorder
from repro.service import TreeSnapshot
from repro.tree.dfs_tree import DFSTree
from tests.helpers import assert_snapshot_matches_oracle

#: The counters a query round records; both cores must agree on each.
ROUND_COUNTERS = ("queries", "d_vertex_queries", "d_probes", "d_target_segments", "d_reanchor_probes")


def _pair(n=24, p=0.25, seed=3):
    g = gnp_random_graph(n, p, seed=seed)
    ag = ArrayGraph.from_graph(g)
    tree = DFSTree(static_dfs_forest(g), root=VIRTUAL_ROOT)
    return g, ag, tree


def _interval(tree, root):
    hi = tree.postorder(root)
    return hi - tree.subtree_size(root) + 1, hi


def _overlay_every_kind(rng, g, structures, new_id):
    """Record the same overlays on every structure: an edge insertion, an
    edge deletion, a vertex insertion (id *new_id*), a vertex deletion and a
    re-used id (a base vertex deleted, then inserted again with new edges)."""
    verts = list(g.vertices())
    edges = list(g.edges())
    u, v = rng.sample(verts, 2)
    gone, reused = rng.sample(verts, 2)
    new_nbrs = rng.sample(verts, min(3, len(verts)))
    reused_nbrs = [w for w in rng.sample(verts, min(3, len(verts))) if w != reused]
    deleted = rng.choice(edges) if edges else None
    for d in structures:
        if not g.has_edge(u, v):
            d.note_edge_inserted(u, v)
        if deleted is not None:
            d.note_edge_deleted(*deleted)
        d.note_vertex_inserted(new_id, new_nbrs)
        d.note_vertex_deleted(gone)
        d.note_vertex_deleted(reused)
        d.note_vertex_inserted(reused, reused_nbrs)


def _random_layer(rng, tree, k):
    """*k* random ``(root, segment)`` pieces for ``search_subtrees``: the
    segment is a vertical path ``top..bottom`` with its bottom outside
    ``T(root)``, preferring either end."""
    verts = [v for v in tree.vertices() if v != tree.root]
    roots, segments = [], []
    while len(roots) < k:
        bottom = rng.choice(verts)
        chain = tree.ancestor_path(bottom, tree.root)  # bottom .. tree root
        path = chain[: rng.randrange(len(chain)) + 1]
        root = rng.choice(verts)
        if tree.is_ancestor(root, bottom):
            continue
        roots.append(root)
        segments.append((path[-1], bottom, set(path).__contains__, rng.random() < 0.5))
    return roots, segments


def _mixes_dirty_and_clean(tree, da, roots):
    rows = [u for r in roots for u in tree.subtree_vertices(r) if u != tree.root]
    dirty = sum(u in da._dirty for u in rows)
    return 0 < dirty < len(rows)


def _composite_queries(rng, tree, count):
    """Subtree-piece queries whose targets glue two or three vertical paths
    (so a target has several segments), preferring either end."""
    verts = [v for v in tree.vertices() if v != tree.root]
    queries = []
    while len(queries) < count:
        root = rng.choice(verts)
        target = []
        for _ in range(rng.randrange(2, 4)):
            bottom = rng.choice(verts)
            chain = tree.ancestor_path(bottom, tree.root)
            for v in reversed(chain[: rng.randrange(len(chain)) + 1]):
                if v not in target and not tree.is_ancestor(root, v):
                    target.append(v)
        if target:
            queries.append(EdgeQuery.from_tree(root, tuple(target), prefer_last=rng.random() < 0.5))
    return queries


def _same_rounds(dd, da, queries):
    """Both cores answer the batch alike and record the same round counters."""
    md, ma = MetricsRecorder(), MetricsRecorder()
    expect = DQueryService(dd, metrics=md).answer_batch(queries)
    assert DQueryService(da, metrics=ma).answer_batch(queries) == expect
    for key in ROUND_COUNTERS:
        assert ma[key] == md[key], key
    return expect


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


def test_requires_an_array_graph():
    """The flat build reads an ``ArrayGraph``'s half-edge arrays; any other
    graph is rejected instead of silently taking a per-vertex build."""
    g, _, tree = _pair()
    with pytest.raises(TypeError, match="ArrayGraph"):
        ArrayStructureD(g, tree)


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
    _overlay_every_kind(rng, h, (dd, da), "new")
    for _ in range(10):
        roots, segments = _random_layer(rng, tree, 5)
        assert da.search_subtrees(roots, segments) == StructureD.search_subtrees(dd, roots, segments)
    _same_rounds(dd, da, _composite_queries(rng, tree, 30))


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
    """The batched re-anchor, ``search_subtrees`` and the query rounds it
    serves: answers, probes and round counters equal the dict reference's,
    before and after overlays of every kind, with calls that mix dirty and
    clean rows."""
    rng = random.Random(77)
    mixed = hits = 0
    ends = set()
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
        for overlaid in (False, True):
            if overlaid:
                _overlay_every_kind(rng, g, (dd, da), n + rng.randrange(3))
            for _ in range(4):
                roots, segments = _random_layer(rng, tree, rng.randrange(1, 8))
                got = da.search_subtrees(roots, segments)
                assert got == StructureD.search_subtrees(dd, roots, segments), trial
                mixed += _mixes_dirty_and_clean(tree, da, roots)
                hits += sum(w is not None for w in got[0])
                ends.update(seg[3] for seg in segments)
            answers = _same_rounds(dd, da, _composite_queries(rng, tree, 12))
            hits += sum(a is not None for a in answers)
    assert mixed > 100 and hits > 1000 and ends == {True, False}


def test_overlay_inserted_id_beyond_int64_is_excluded():
    """An overlay-inserted id too large for int64 must not break the dense
    id table's dirty-row exclusion."""
    g = gnp_random_graph(40, 0.15, seed=3, connected=True)
    t = DFSTree(static_dfs_tree(g, 0), root=0)
    dd = StructureD(g, t)
    da = ArrayStructureD(ArrayGraph.from_graph(g), t)
    for d in (dd, da):
        d.note_vertex_inserted(2**70, [1, 2])
    his = [t.postorder(0)] * 2
    assert da.min_post_alive_neighbor_batch([5, 1], [0, 0], his) == ([24, 37], 3)
    assert StructureD.min_post_alive_neighbor_batch(dd, [5, 1], [0, 0], his) == ([24, 37], 3)


def test_driver_inserts_a_vertex_id_beyond_int64_on_both_cores():
    g = gnp_random_graph(60, 0.08, seed=1, connected=True)
    verts = sorted(g.vertices())
    update = VertexInsertion(2**70, (verts[0], verts[-1], verts[len(verts) // 2]))
    results = {}
    for backend in ("dict", "array"):
        metrics = MetricsRecorder()
        driver = FullyDynamicDFS(g, backend=backend, rebuild_every=1, validate=True, metrics=metrics)
        driver.apply(update)
        results[backend] = driver.parent_map(), [metrics[key] for key in ROUND_COUNTERS]
    assert results["array"] == results["dict"]
    assert results["dict"][0][2**70] is not None


def test_a_vertex_id_beyond_int64_keeps_updates_and_snapshot_reads_working():
    """With a tree vertex id beyond int64, the tree's id table falls back to
    the dict: later updates touching the vertex (the first one builds the LCA
    index) stay valid, and snapshot reads answer on both cores."""
    g = gnp_random_graph(60, 0.08, seed=1, connected=True)
    verts = sorted(g.vertices())
    big = 2**70
    updates = [
        VertexInsertion(big, (verts[0], verts[-1], verts[30])),
        EdgeDeletion(verts[0], big),
        EdgeInsertion(big, verts[10]),
        VertexDeletion(verts[30]),
        EdgeDeletion(verts[-1], big),
    ]
    others = verts[1:60:6]
    maps = {}
    for backend in ("dict", "array"):
        driver = FullyDynamicDFS(g, backend=backend, rebuild_every=1, validate=True)
        maps[backend] = []
        for version, update in enumerate(updates, 1):
            driver.apply(update)
            maps[backend].append(driver.parent_map())
            snap = TreeSnapshot(version, driver.tree)
            assert_snapshot_matches_oracle(snap, [big] * len(others), others)
        assert driver.is_valid()
    assert maps["array"] == maps["dict"]


def test_a_recycled_graph_slot_keeps_serving_the_base_rows():
    """A base vertex deleted from the ArrayGraph frees its slot and a new id
    inserted next takes it, both recorded as overlays on ``D``: rows, scalar
    and batched re-anchors and subtree searches equal the dict core's,
    answers and probes."""
    rng = random.Random(5)
    g, ag, tree = _pair(n=30, p=0.2, seed=7)
    dd = StructureD(g, tree)
    da = ArrayStructureD(ag, tree)
    verts = sorted(g.vertices())
    gone = max(verts, key=g.degree)
    slot = ag.slot(gone)
    nbrs = [v for v in (verts[0], verts[3], verts[-1]) if v != gone]
    for graph, d in ((g, dd), (ag, da)):
        apply_update(graph, VertexDeletion(gone), d)
        apply_update(graph, VertexInsertion(100, nbrs), d)
    assert ag.slot(100) == slot
    for v in [*verts, 100]:
        row_d, row_a = dd._row(v), da._row(v)
        assert (row_a is None) == (row_d is None), v
        if row_d is not None:
            assert (list(row_a[0]), list(row_a[1])) == (list(row_d[0]), list(row_d[1])), v
    us, los, his = [], [], []
    for _ in range(120):
        us.append(rng.choice([*verts, 100]))
        lo, hi = _interval(tree, rng.choice(verts))
        los.append(lo)
        his.append(hi)
    for u, lo, hi in zip(us, los, his):
        assert da.min_post_alive_neighbor(u, lo, hi) == dd.min_post_alive_neighbor(u, lo, hi)
    assert da.min_post_alive_neighbor_batch(us, los, his) == StructureD.min_post_alive_neighbor_batch(
        dd, us, los, his
    )
    for _ in range(10):
        roots, segments = _random_layer(rng, tree, 5)
        assert da.search_subtrees(roots, segments) == StructureD.search_subtrees(dd, roots, segments)


def test_a_recycled_graph_slot_under_overlays_through_the_driver():
    """The same slot recycling through ``FullyDynamicDFS(rebuild_every=4)``:
    updates 1-3 and 5-7 are served as overlays on a ``D`` built before a
    slot was freed and taken again; both cores commit identical trees."""
    g = gnp_random_graph(40, 0.12, seed=3, connected=True)
    verts = sorted(g.vertices())
    hub = max(verts, key=g.degree)
    rest = [v for v in verts if v != hub]
    updates = [
        VertexDeletion(hub),
        VertexInsertion(100, (rest[0], rest[5], rest[-1])),
        EdgeInsertion(100, rest[9]),
        EdgeDeletion(rest[0], 100),  # D rebuilt: slot recycled before the build
        VertexDeletion(rest[5]),
        VertexInsertion(101, (100, rest[2], rest[20])),
        EdgeDeletion(100, rest[9]),
    ]
    maps = {}
    for backend in ("dict", "array"):
        metrics = MetricsRecorder()
        driver = FullyDynamicDFS(g, backend=backend, rebuild_every=4, validate=True, metrics=metrics)
        maps[backend] = []
        for update in updates:
            driver.apply(update)
            maps[backend].append(driver.parent_map())
        assert metrics["overlay_served_updates"] == 6, backend
    assert maps["array"] == maps["dict"]
