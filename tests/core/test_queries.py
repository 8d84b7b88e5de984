"""DQueryService must agree with the brute-force oracle on random queries,
with ``D`` built on either graph store, and answer a batch exactly as it
answers its queries one at a time."""

import random

import pytest

from repro.backends import BACKENDS, native_graph
from repro.core.overlay import apply_update
from repro.core.queries import BruteForceQueryService, DQueryService, EdgeQuery
from repro.core.structure_d import StructureD
from repro.core.updates import EdgeDeletion, EdgeInsertion, VertexInsertion
from repro.exceptions import InvariantViolation
from repro.graph.generators import gnp_random_graph
from repro.graph.graph import UndirectedGraph
from repro.graph.traversal import static_dfs_tree
from repro.metrics.counters import MetricsRecorder
from repro.tree.dfs_tree import DFSTree
from repro.tree.tree_utils import hanging_subtrees


def build(seed=0, n=45, p=0.1):
    """Graph, tree, one DQueryService per graph store, and the oracle."""
    g = gnp_random_graph(n, p, seed=seed, connected=True)
    tree = DFSTree(static_dfs_tree(g, 0), root=0)
    fast = [DQueryService(StructureD(native_graph(g, b), tree)) for b in BACKENDS]
    return g, tree, fast, BruteForceQueryService(g, tree)


def random_vertical_path(tree, rng):
    verts = list(tree.vertices())
    bottom = rng.choice(verts)
    chain = [bottom]
    while tree.parent(chain[-1]) is not None:
        chain.append(tree.parent(chain[-1]))
    top_idx = rng.randrange(len(chain))
    seg = chain[: top_idx + 1]  # bottom .. top
    return list(reversed(seg))  # top .. bottom


def assert_same_answers(queries, fast, brute):
    """Canonical answers fix both endpoints, so each backend's answers equal
    the oracle's exactly."""
    expected = brute.answer_batch(queries)
    for service in fast:
        for q, got, want in zip(queries, service.answer_batch(queries), expected):
            assert got == want, (q, got, want)


def test_edge_query_validation():
    with pytest.raises(ValueError):
        EdgeQuery("tree", (1, 2))
    with pytest.raises(ValueError):
        EdgeQuery("path", (1, 2))
    with pytest.raises(ValueError):
        EdgeQuery("bogus", (1, 2), source_vertices=(3,))


def test_tree_source_queries_match_oracle():
    rng = random.Random(4)
    for seed in range(3):
        g, tree, fast, brute = build(seed=seed)
        verts = list(tree.vertices())
        queries = []
        for _ in range(150):
            root = rng.choice(verts)
            target_path = random_vertical_path(tree, rng)
            target = [v for v in target_path if not tree.is_ancestor(root, v)]
            if not target:
                continue
            queries.append(
                EdgeQuery.from_tree(root, tuple(target), prefer_last=rng.random() < 0.5)
            )
        assert_same_answers(queries, fast, brute)


def test_path_source_queries_match_oracle():
    rng = random.Random(5)
    for seed in range(3):
        g, tree, fast, brute = build(seed=seed + 10)
        queries = []
        for _ in range(150):
            src = random_vertical_path(tree, rng)
            tgt_full = random_vertical_path(tree, rng)
            src_set = set(src)
            tgt = [v for v in tgt_full if v not in src_set]
            if not tgt:
                continue
            queries.append(EdgeQuery.from_path(tuple(src), tuple(tgt), prefer_last=rng.random() < 0.5))
        assert_same_answers(queries, fast, brute)


def test_composite_target_paths():
    # Targets glued from several vertical runs (as produced by the traversals).
    rng = random.Random(6)
    g, tree, fast, brute = build(seed=21)
    queries = []
    for _ in range(100):
        part1 = random_vertical_path(tree, rng)
        part2 = random_vertical_path(tree, rng)
        root = rng.choice(list(tree.vertices()))
        target = []
        seen = set()
        for v in part1 + part2:
            if v not in seen and not tree.is_ancestor(root, v):
                seen.add(v)
                target.append(v)
        if not target:
            continue
        queries.append(EdgeQuery.from_tree(root, tuple(target), prefer_last=True))
    assert_same_answers(queries, fast, brute)


def test_single_vertex_source():
    g, tree, fast, brute = build(seed=33)
    rng = random.Random(7)
    queries = []
    for _ in range(100):
        v = rng.choice(list(tree.vertices()))
        target = [w for w in random_vertical_path(tree, rng) if w != v]
        if not target:
            continue
        queries.append(EdgeQuery.from_path((v,), tuple(target), prefer_last=rng.random() < 0.5))
    assert_same_answers(queries, fast, brute)


def test_metrics_counting():
    g, tree, _, _ = build(seed=2)
    d = StructureD(g, tree)
    metrics = MetricsRecorder()
    service = DQueryService(d, metrics=metrics)
    q = EdgeQuery.from_tree(list(tree.vertices())[5], (0,), prefer_last=True)
    service.answer_batch([q, q])
    assert metrics["query_batches"] == 1
    assert metrics["queries"] == 2


def test_a_subtree_piece_holding_its_own_target_raises():
    # Every caller asks about an unvisited piece against a path outside it;
    # T(1) of the path 0..4 holds its target (2, 3), so D refuses the query.
    g = UndirectedGraph(edges=[(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
    service = DQueryService(StructureD(g, DFSTree(static_dfs_tree(g, 0), root=0)))
    with pytest.raises(InvariantViolation, match="its own target"):
        service.answer(EdgeQuery.from_tree(1, (2, 3)))


def test_unknown_targets_answer_from_the_preferred_end():
    # Two vertices inserted after D was built: the base tree knows neither,
    # so both are answered from the overlay scan, nearest the preferred end.
    g = UndirectedGraph(edges=[(0, 1), (1, 2), (2, 3)])
    d = StructureD(g, DFSTree(static_dfs_tree(g, 0), root=0))
    for update in (VertexInsertion("a", (3,)), VertexInsertion("b", ("a", 3))):
        apply_update(g, update, d)
    current = DFSTree(static_dfs_tree(g, 0), root=0)
    service = DQueryService(d, source_tree=current)
    for prefer_last, expected in ((True, (3, "b")), (False, (3, "a"))):
        q = EdgeQuery.from_path((3,), ("a", "b"), prefer_last=prefer_last)
        assert service.answer(q) == expected
        assert BruteForceQueryService(g, current).answer(q) == expected


# --------------------------------------------------------------------------- #
# Batches whose pieces share a target
# --------------------------------------------------------------------------- #
NEW_VERTEX = 100


def shared_target_service(backend, overlay):
    """A fresh ``D``, its query service and their recorder.

    With *overlay*, ``D`` first records two edge deletions, two edge
    insertions and one vertex insertion as Theorem 9 overlays, and the
    service takes its pieces from a DFS tree of the updated graph rooted
    elsewhere, so targets split into several base-tree segments and one
    target vertex is unknown to the base tree.
    """
    g = native_graph(gnp_random_graph(40, 0.1, seed=8, connected=True), backend)
    base = DFSTree(static_dfs_tree(g, 0), root=0)
    metrics = MetricsRecorder(strict=True)
    d = StructureD(g, base, metrics=metrics)
    current = base
    if overlay:
        back_edges = [(u, v) for u, v in g.edges() if base.parent(u) != v and base.parent(v) != u]
        absent = [(u, u + 9) for u in range(0, 30, 3) if not g.has_edge(u, u + 9)]
        updates = [
            EdgeDeletion(*back_edges[0]),
            EdgeDeletion(*back_edges[-1]),
            EdgeInsertion(*absent[0]),
            EdgeInsertion(*absent[-1]),
            VertexInsertion(NEW_VERTEX, (4, 17, 33)),
        ]
        for update in updates:
            apply_update(g, update, d)
        current = DFSTree(static_dfs_tree(g, 17), root=17)
    service = DQueryService(d, source_tree=current, metrics=metrics)
    return g, current, d, service, metrics


def shared_target_batch(tree, starts):
    """One batch: per start vertex, tree, path and single-vertex pieces (the
    subtrees hanging off the start's root path) query that root path — half
    of them through the same tuple object, half through an equal but
    distinct tuple — with mixed ``prefer_last``."""
    queries = []
    for start in starts:
        target = tuple(tree.ancestor_path(start, tree.root))
        twin = tuple(list(target))
        assert twin == target and twin is not target
        for i, h in enumerate(hanging_subtrees(tree, target)):
            piece = tree.subtree_vertices(h)
            shared = target if i % 2 else twin
            prefer_last = i % 4 < 2
            if i % 3 == 0:
                queries.append(EdgeQuery.from_tree(h, shared, prefer_last=prefer_last))
            elif i % 3 == 1:
                bottom = max(piece, key=tree.level)
                queries.append(EdgeQuery.from_path(tree.ancestor_path(bottom, h), shared, prefer_last=prefer_last))
            else:
                queries.append(EdgeQuery.from_path(piece[-1:], shared, prefer_last=prefer_last))
    return queries


def batch_and_counts(backend, overlay, one_at_a_time):
    g, tree, _, service, metrics = shared_target_service(backend, overlay)
    # The two root paths with the most hanging subtrees; in the overlay view
    # the second is the inserted vertex's root path.
    starts = sorted(
        tree.vertices(), key=lambda v: -len(hanging_subtrees(tree, tree.ancestor_path(v, tree.root)))
    )[:2]
    if overlay:
        starts[1] = NEW_VERTEX
    queries = shared_target_batch(tree, starts)
    if one_at_a_time:
        answers = [service.answer(q) for q in queries]
    else:
        answers = service.answer_batch(queries)
    return g, tree, queries, answers, metrics.as_dict()


@pytest.mark.parametrize("overlay", [False, True], ids=["fresh", "overlay_view"])
@pytest.mark.parametrize("backend", ["dict", "array"])
def test_shared_target_batch_equals_one_query_at_a_time(backend, overlay):
    g, tree, queries, batched, counts = batch_and_counts(backend, overlay, False)
    _, _, _, single, single_counts = batch_and_counts(backend, overlay, True)

    assert {q.source_kind for q in queries} == {"tree", "path"}
    assert any(len(q.source_vertices) == 1 for q in queries)  # single-vertex pieces
    assert {q.prefer_last for q in queries} == {True, False}
    assert len({id(q.target) for q in queries}) == 4  # two targets, each as two tuples
    assert batched == single
    assert batched == BruteForceQueryService(g, tree).answer_batch(queries)
    assert sum(a is not None for a in batched) > len(queries) // 2

    # One batch, or one batch per query: every other count agrees exactly.
    assert counts.pop("query_batches") == 1
    assert single_counts.pop("query_batches") == len(queries)
    assert counts == single_counts
    assert counts["queries"] == len(queries)
    assert counts["d_probes"] >= counts["d_vertex_queries"] > 0  # a search charges >= 1 probe
    if overlay:
        assert counts["max_d_target_segments_per_query"] > 1
        assert counts["d_overlay_view_queries"] == len(queries)
    else:
        assert "d_overlay_view_queries" not in counts
