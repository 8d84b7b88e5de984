"""The flat postorder-sorted ``D`` on both graph stores.

``StructureD`` builds its rows from either graph store's half-edges; the two
builds are identical, row for row.  Its batched reads — the row-batched
subtree search of a query round and the batched re-anchor — are checked
against their scalar-loop references in ``tests.helpers`` (answers and
probes), before and after overlays of every kind, with calls that mix
overlay-dirtied rows (the scalar fallback) and clean ones.  Query rounds are
checked against the brute-force oracle, and their counters against a service
over the scalar-loop references.
"""

from __future__ import annotations

import random

import numpy as np

from repro.constants import VIRTUAL_ROOT
from repro.core.dynamic_dfs import FullyDynamicDFS
from repro.core.overlay import apply_update
from repro.core.queries import BruteForceQueryService, DQueryService, EdgeQuery
from repro.core.structure_d import StructureD
from repro.core.updates import EdgeDeletion, EdgeInsertion, VertexDeletion, VertexInsertion
from repro.graph.array_graph import ArrayGraph
from repro.graph.generators import gnp_random_graph
from repro.graph.traversal import static_dfs_forest, static_dfs_tree
from repro.metrics.counters import MetricsRecorder
from repro.service import TreeSnapshot
from repro.tree.dfs_tree import DFSTree
from tests.helpers import (
    ScalarLoopD,
    assert_snapshot_matches_oracle,
    min_post_batch_reference,
    search_subtrees_reference,
)

#: The counters a query round records; the vectorized reads and the scalar
#: loops must agree on each.
ROUND_COUNTERS = ("queries", "d_vertex_queries", "d_probes", "d_target_segments", "d_reanchor_probes")


def _pair(n=24, p=0.25, seed=3):
    g = gnp_random_graph(n, p, seed=seed)
    ag = ArrayGraph.from_graph(g)
    tree = DFSTree(static_dfs_forest(g), root=VIRTUAL_ROOT)
    return g, ag, tree


def _interval(tree, root):
    hi = tree.postorder(root)
    return hi - tree.subtree_size(root) + 1, hi


def _overlay_every_kind(rng, pairs, new_id):
    """Apply the same updates to every ``(graph, D)`` pair, recording them as
    overlays: an edge insertion, an edge deletion, a vertex insertion (id
    *new_id*), a vertex deletion and a re-used id (a base vertex deleted,
    then inserted again with new edges)."""
    g = pairs[0][0]
    verts = list(g.vertices())
    edges = list(g.edges())
    u, v = rng.sample(verts, 2)
    gone, reused = rng.sample(verts, 2)
    new_nbrs = rng.sample(verts, min(3, len(verts)))
    reused_nbrs = [w for w in rng.sample(verts, min(3, len(verts))) if w not in (reused, gone)]
    deleted = rng.choice(edges) if edges else None
    updates = [EdgeInsertion(u, v)] if not g.has_edge(u, v) else []
    if deleted is not None:
        updates.append(EdgeDeletion(*deleted))
    updates += [
        VertexInsertion(new_id, new_nbrs),
        VertexDeletion(gone),
        VertexDeletion(reused),
        VertexInsertion(reused, reused_nbrs),
    ]
    for graph, d in pairs:
        for update in updates:
            apply_update(graph, update, d)


def _random_layer(rng, tree, k):
    """*k* random ``(piece, segment)`` pairs for ``search_subtrees``: the
    piece is ``(root index, lo, hi)``, the segment a vertical path
    ``top..bottom`` (ends as tree indices) with its bottom outside
    ``T(root)``, preferring either end."""
    verts = [v for v in tree.vertices() if v != tree.root]
    pieces, segments = [], []
    while len(pieces) < k:
        bottom = rng.choice(verts)
        chain = tree.ancestor_path(bottom, tree.root)  # bottom .. tree root
        path = chain[: rng.randrange(len(chain)) + 1]
        root = rng.choice(verts)
        if tree.is_ancestor(root, bottom):
            continue
        root_i, top_i, bottom_i = tree.indices([root, path[-1], bottom]).tolist()
        pieces.append((root_i, *_interval(tree, root)))
        segments.append((top_i, bottom_i, set(path).__contains__, rng.random() < 0.5))
    return pieces, segments


def _mixes_dirty_and_clean(tree, d, pieces):
    ids = list(tree.vertices())
    rows = [u for p in pieces for u in tree.subtree_vertices(ids[p[0]]) if u != tree.root]
    dirty = sum(u in d._dirty for u in rows)
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


def _same_rounds(d, ref, graph, queries):
    """A service over *d* answers the batch as the brute-force oracle on
    *graph* does, and records the round counters a service over the
    scalar-loop references (*ref*, a ``ScalarLoopD`` with the same
    overlays) records."""
    m, mr = MetricsRecorder(), MetricsRecorder()
    answers = DQueryService(d, metrics=m).answer_batch(queries)
    assert answers == BruteForceQueryService(graph, d.base_tree).answer_batch(queries)
    assert DQueryService(ref, metrics=mr).answer_batch(queries) == answers
    for key in ROUND_COUNTERS:
        assert m[key] == mr[key], key
    return answers


def _brute_min_post(graph, tree, u, lo, hi):
    """The neighbour of *u* in *graph* with the smallest base-tree post-order
    number in ``[lo, hi]`` (``None`` when there is none)."""
    if not graph.has_vertex(u):
        return None
    inside = [(tree.postorder(w), w) for w in graph.neighbors(u) if w in tree]
    inside = [(p, w) for p, w in inside if lo <= p <= hi]
    return min(inside)[1] if inside else None


def _rows_from_graph(graph, tree):
    """Every graph vertex's row, from the graph: its neighbours sorted by
    base-tree post-order, as ``(posts, neighbours)``."""
    rows = {}
    for v in graph.vertices():
        nbrs = sorted((w for w in graph.neighbors(v) if w in tree), key=tree.postorder)
        rows[v] = ([tree.postorder(w) for w in nbrs], nbrs)
    return rows


def _assert_same_rows(d1, d2, vertices):
    for v in vertices:
        row1, row2 = d1._row(v), d2._row(v)
        assert (row1 is None) == (row2 is None), v
        if row1 is not None:
            assert (list(row1[0]), list(row1[1])) == (list(row2[0]), list(row2[1])), v


def test_build_matches_dict_reference_exactly():
    """On either graph store, every row is the vertex's neighbours sorted by
    base-tree post-order, and the build charges one unit per entry (at least
    one per vertex)."""
    g, ag, tree = _pair()
    expect = _rows_from_graph(g, tree)
    work = sum(max(len(posts), 1) for posts, _ in expect.values())
    for graph in (g, ag):
        metrics = MetricsRecorder()
        d = StructureD(graph, tree, metrics=metrics)
        assert d.size() == 2 * g.num_edges
        assert metrics["d_build_work"] == work
        for v, row in expect.items():
            assert d._row(v) == row, v


def test_scalar_queries_identical_with_and_without_overlays():
    """The scalar re-anchor answers what the graph gives, before and after
    vertex deletions dirty some rows."""
    rng = random.Random(9)
    g, ag, tree = _pair(seed=11)
    d = StructureD(ag, tree)
    verts = list(g.vertices())
    for round_ in range(3):
        for _ in range(80):
            u = verts[rng.randrange(len(verts))]
            lo, hi = _interval(tree, verts[rng.randrange(len(verts))])
            assert d.min_post_alive_neighbor(u, lo, hi)[0] == _brute_min_post(ag, tree, u, lo, hi)
        # dirty some rows between rounds; answers must keep matching
        for v in rng.sample([v for v in verts if ag.has_vertex(v)], 3):
            apply_update(ag, VertexDeletion(v), d)


def test_batch_reanchor_identical_and_counts_fallbacks():
    rng = random.Random(21)
    g, ag, tree = _pair(n=40, seed=5)
    metrics = MetricsRecorder()
    d = StructureD(ag, tree, metrics=metrics)
    verts = list(g.vertices())
    for v in rng.sample(verts, 4):
        d.note_vertex_deleted(v)
    us, los, his = [], [], []
    for _ in range(200):
        us.append(verts[rng.randrange(len(verts))])
        lo, hi = _interval(tree, verts[rng.randrange(len(verts))])
        los.append(lo)
        his.append(hi)
    expect = min_post_batch_reference(d, us, los, his)
    got_lists = d.min_post_alive_neighbor_batch(us, los, his)
    got_arrays = d.min_post_alive_neighbor_batch(
        us, np.asarray(los, dtype=np.int64), np.asarray(his, dtype=np.int64)
    )
    assert got_lists == expect  # answers AND probe count
    assert got_arrays == expect
    assert metrics["d_batch_queries"] == 2


def _pairs_with_a_free_slot():
    """Two ``(graph, ArrayGraph, tree)`` inputs whose ``ArrayGraph`` has a
    free slot: one after a ``remove_vertex``, and one where a second removal's
    slot was recycled by a new vertex; each tree is built on the changed
    graph."""
    out = []
    for recycle in (False, True):
        g = gnp_random_graph(30, 0.15, seed=6 + recycle)
        ag = ArrayGraph.from_graph(g)
        freed, recycled = ag.slot(3), ag.slot(7)
        for graph in (g, ag):
            graph.remove_vertex(3)
            if recycle:
                graph.remove_vertex(7)
                graph.add_vertex_with_edges(300, (0, 10, 20))
        assert ag.slot_id(freed) is None
        assert not recycle or ag.slot(300) == recycled
        out.append((g, ag, DFSTree(static_dfs_forest(g), root=VIRTUAL_ROOT)))
    return out


class _CountingIds(dict):
    """A tree's id dict that counts ``get`` calls: the per-id look-ups of
    :meth:`DFSTree.indices` when it cannot gather through the dense table."""

    lookups = 0

    def get(self, *args):
        self.lookups += 1
        return super().get(*args)


def _build_by_gather(graph, tree, metrics):
    """``D`` on *graph*, asserting that its build resolved every id with
    one gather (no dict look-up)."""
    ids = tree._idx
    tree._idx = spy = _CountingIds(ids)
    try:
        d = StructureD(graph, tree, metrics=metrics)
    finally:
        tree._idx = ids
    assert spy.lookups == 0, type(graph).__name__
    return d


def test_both_graph_stores_build_the_same_d():
    """``D`` on an ``UndirectedGraph`` and on its ``ArrayGraph`` copy: the
    same rows, size and build work, and — under overlays of every kind —
    the same answers and probes from the scalar queries, ``search_subtrees``
    and the batched re-anchor.  Both builds resolve ids with one gather, also
    when the ``ArrayGraph`` has a free slot."""
    rng = random.Random(13)
    inputs = [_pair(n=30, p=0.15, seed=trial) for trial in range(6)]
    for trial, (g, ag, tree) in enumerate([*inputs, *_pairs_with_a_free_slot()]):
        md, ma = MetricsRecorder(), MetricsRecorder()
        dd, da = _build_by_gather(g, tree, md), _build_by_gather(ag, tree, ma)
        assert da.size() == dd.size()
        assert ma["d_build_work"] == md["d_build_work"]
        verts = list(g.vertices())
        _assert_same_rows(dd, da, verts)
        for overlaid in (False, True):
            if overlaid:
                _overlay_every_kind(rng, [(g, dd), (ag, da)], 100 + trial)
                _assert_same_rows(dd, da, [*verts, 100 + trial])
                assert da.size() == dd.size()
            us, los, his = [], [], []
            for _ in range(60):
                us.append(rng.choice(verts))
                lo, hi = _interval(tree, rng.choice(verts))
                los.append(lo)
                his.append(hi)
            for u, lo, hi in zip(us, los, his):
                assert da.min_post_alive_neighbor(u, lo, hi) == dd.min_post_alive_neighbor(u, lo, hi)
            assert da.min_post_alive_neighbor_batch(us, los, his) == dd.min_post_alive_neighbor_batch(
                us, los, his
            )
            for _ in range(4):
                pieces, segments = _random_layer(rng, tree, 5)
                assert da.search_subtrees(pieces, segments) == dd.search_subtrees(pieces, segments)
                top_i, bottom_i, on_segment, prefer_bottom = segments[0]
                ids = list(tree.vertices())
                top, bottom = ids[top_i], ids[bottom_i]
                for u in verts:
                    assert da.search_segment(u, top, bottom, prefer_bottom, on_segment) == dd.search_segment(
                        u, top, bottom, prefer_bottom, on_segment
                    )


def test_non_int_vertices_take_the_python_path():
    g = gnp_random_graph(10, 0.4, seed=2)
    relabel = {v: f"v{v}" for v in g.vertices()}
    h = type(g)(edges=[(relabel[u], relabel[v]) for u, v in g.edges()])
    ah = ArrayGraph.from_graph(h)
    tree = DFSTree(static_dfs_forest(h), root=VIRTUAL_ROOT)
    d = StructureD(ah, tree)
    ref = ScalarLoopD(h, tree)
    verts = list(h.vertices())
    us = verts * 2
    los, his = [], []
    rng = random.Random(0)
    for _ in us:
        lo, hi = _interval(tree, verts[rng.randrange(len(verts))])
        los.append(lo)
        his.append(hi)
    assert d.min_post_alive_neighbor_batch(us, los, his) == min_post_batch_reference(d, us, los, his)
    _overlay_every_kind(rng, [(ah, d), (h, ref)], "new")
    for _ in range(10):
        pieces, segments = _random_layer(rng, tree, 5)
        assert d.search_subtrees(pieces, segments) == search_subtrees_reference(d, pieces, segments)
    _same_rounds(d, ref, h, _composite_queries(rng, tree, 30))


def test_batch_rejects_silently_truncating_inputs():
    """Float vertex queries must not be truncated into the int fast path."""
    g, ag, tree = _pair(n=12, seed=8)
    d = StructureD(ag, tree)
    verts = list(g.vertices())
    lo, hi = _interval(tree, verts[0])
    us = [float(verts[0]) + 0.5, verts[1]]
    expect = min_post_batch_reference(d, us, [lo, lo], [hi, hi])
    assert expect[0][0] is None
    assert d.min_post_alive_neighbor_batch(us, [lo, lo], [hi, hi]) == expect


def test_differential_fuzz_scalar_and_batch():
    """The batched re-anchor, ``search_subtrees`` and the query rounds it
    serves: answers and probes equal the scalar-loop references', rounds
    answer as the brute-force oracle and count as the scalar loops, before
    and after overlays of every kind, with calls that mix dirty and clean
    rows."""
    rng = random.Random(77)
    mixed = hits = 0
    ends = set()
    for trial in range(40):
        n = rng.randrange(2, 30)
        g, ag, tree = _pair(n=n, p=rng.uniform(0.05, 0.6), seed=rng.randrange(10**6))
        d = StructureD(ag, tree)
        ref = ScalarLoopD(g, tree)
        verts = list(g.vertices())
        for v in rng.sample(verts, rng.randrange(0, min(4, len(verts)) + 1)):
            apply_update(ag, VertexDeletion(v), d)
            apply_update(g, VertexDeletion(v), ref)
        us, los, his = [], [], []
        for _ in range(50):
            us.append(verts[rng.randrange(len(verts))])
            lo, hi = _interval(tree, verts[rng.randrange(len(verts))])
            los.append(lo)
            his.append(hi)
        assert d.min_post_alive_neighbor_batch(us, los, his) == min_post_batch_reference(
            d, us, los, his
        ), trial
        for overlaid in (False, True):
            if overlaid and g.num_vertices >= 2:
                _overlay_every_kind(rng, [(ag, d), (g, ref)], n + rng.randrange(3))
            for _ in range(4):
                pieces, segments = _random_layer(rng, tree, rng.randrange(1, 8))
                got = d.search_subtrees(pieces, segments)
                assert got == search_subtrees_reference(d, pieces, segments), trial
                mixed += _mixes_dirty_and_clean(tree, d, pieces)
                hits += sum(w is not None for w in got[0])
                ends.update(seg[3] for seg in segments)
            answers = _same_rounds(d, ref, g, _composite_queries(rng, tree, 12))
            hits += sum(a is not None for a in answers)
    assert mixed > 100 and hits > 1000 and ends == {True, False}


def test_overlay_inserted_id_beyond_int64_is_excluded():
    """An overlay-inserted id too large for int64 must not break the dense
    id table's dirty-row exclusion."""
    g = gnp_random_graph(40, 0.15, seed=3, connected=True)
    t = DFSTree(static_dfs_tree(g, 0), root=0)
    d = StructureD(ArrayGraph.from_graph(g), t)
    d.note_vertex_inserted(2**70, [1, 2])
    his = [t.postorder(0)] * 2
    assert d.min_post_alive_neighbor_batch([5, 1], [0, 0], his) == ([24, 37], 3)
    assert min_post_batch_reference(d, [5, 1], [0, 0], his) == ([24, 37], 3)


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
    inserted next takes it, both recorded as overlays on ``D``: rows equal
    those of ``D`` on the dict graph, and the scalar and batched re-anchors
    and subtree searches equal their scalar-loop references, answers and
    probes."""
    rng = random.Random(5)
    g, ag, tree = _pair(n=30, p=0.2, seed=7)
    dd = StructureD(g, tree)
    da = StructureD(ag, tree)
    verts = sorted(g.vertices())
    gone = max(verts, key=g.degree)
    slot = ag.slot(gone)
    nbrs = [v for v in (verts[0], verts[3], verts[-1]) if v != gone]
    for graph, d in ((g, dd), (ag, da)):
        apply_update(graph, VertexDeletion(gone), d)
        apply_update(graph, VertexInsertion(100, nbrs), d)
    assert ag.slot(100) == slot
    _assert_same_rows(dd, da, [*verts, 100])
    us, los, his = [], [], []
    for _ in range(120):
        us.append(rng.choice([*verts, 100]))
        lo, hi = _interval(tree, rng.choice(verts))
        los.append(lo)
        his.append(hi)
    for u, lo, hi in zip(us, los, his):
        assert da.min_post_alive_neighbor(u, lo, hi)[0] == _brute_min_post(ag, tree, u, lo, hi)
    assert da.min_post_alive_neighbor_batch(us, los, his) == min_post_batch_reference(da, us, los, his)
    for _ in range(10):
        pieces, segments = _random_layer(rng, tree, 5)
        assert da.search_subtrees(pieces, segments) == search_subtrees_reference(da, pieces, segments)


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
