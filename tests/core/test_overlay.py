"""Tests for the shared overlay module and the StructureD overlay path outside
the fault-tolerant driver (Theorem 9 used directly)."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constants import VIRTUAL_ROOT
from repro.core.overlay import apply_update, validate_update
from repro.core.queries import BruteForceQueryService, DQueryService, EdgeQuery
from repro.core.structure_d import StructureD
from repro.core.updates import (
    EdgeDeletion,
    EdgeInsertion,
    VertexDeletion,
    VertexInsertion,
)
from repro.exceptions import UpdateError
from repro.graph.generators import gnp_random_graph, path_graph
from repro.graph.traversal import static_dfs_forest
from repro.tree.dfs_tree import DFSTree
from repro.workloads.updates import UpdateSequenceGenerator


def build(seed=0, n=40, p=0.12):
    g = gnp_random_graph(n, p, seed=seed, connected=True)
    tree = DFSTree(static_dfs_forest(g), root=VIRTUAL_ROOT)
    return g, tree, StructureD(g, tree)


# --------------------------------------------------------------------------- #
# validate_update / apply_update
# --------------------------------------------------------------------------- #
def test_validate_update_rejects_malformed_updates_without_mutation():
    g = path_graph(5)
    before = g.copy()
    bad = [
        EdgeInsertion(0, 0),          # self loop
        EdgeInsertion(0, 1),          # duplicate edge
        EdgeInsertion(0, "ghost"),    # missing endpoint
        EdgeDeletion(0, 4),           # missing edge
        VertexInsertion(3),           # duplicate vertex
        VertexInsertion("v", ["ghost"]),  # missing neighbor
        VertexDeletion("ghost"),      # missing vertex
        "not-an-update",              # unknown type
    ]
    for upd in bad:
        with pytest.raises(UpdateError):
            validate_update(g, upd)
    assert g == before


def test_apply_update_wraps_graph_errors():
    g = path_graph(4)
    with pytest.raises(UpdateError):
        apply_update(g, EdgeDeletion(0, 3))
    with pytest.raises(UpdateError):
        apply_update(g, EdgeInsertion(1, 1))


def test_apply_update_mirrors_graph_and_overlay():
    g, tree, d = build(seed=5)
    gen = UpdateSequenceGenerator(g, seed=9)
    for upd in gen.sequence(15):
        validate_update(g, upd)
        apply_update(g, upd, d)
    # After replay, D's alive-edge view equals the updated graph exactly.
    for u in g.vertices():
        if not d.indexes_vertex(u):
            continue
        graph_nbrs = {w for w in g.neighbors(u) if d.indexes_vertex(w)}
        alive = {w for w in set(d.neighbors_of(u)) if g.has_vertex(w)}
        assert alive == graph_nbrs, u


# --------------------------------------------------------------------------- #
# Interleaved overlays
# --------------------------------------------------------------------------- #
def test_interleaved_edge_overlays():
    g = path_graph(8)
    tree = DFSTree(static_dfs_forest(g), root=VIRTUAL_ROOT)
    d = StructureD(g, tree)
    # delete a base edge, insert a brand new one, then undo both — the alive
    # view must track every step.
    d.note_edge_deleted(3, 4)
    assert not d.has_alive_edge(3, 4)
    d.note_edge_inserted(2, 6)
    assert d.has_alive_edge(2, 6) and d.has_alive_edge(6, 2)
    d.note_edge_inserted(3, 4)  # re-insert the deleted base edge
    assert d.has_alive_edge(3, 4)
    d.note_edge_deleted(2, 6)  # delete the overlay edge again
    assert not d.has_alive_edge(2, 6)
    assert 6 not in d.neighbors_of(2)


def test_vertex_insertion_overlay_normalizes_neighbors():
    # The graph layer drops self loops and collapses duplicate neighbours;
    # the overlay must mirror that, or D's alive-edge view diverges.
    g, tree, d = build(seed=11)
    apply_update(g, VertexInsertion("x", ["x", 0, 0, 1]), d)
    assert sorted(g.neighbor_list("x")) == [0, 1]
    assert sorted(d.neighbors_of("x")) == [0, 1]
    assert not d.has_alive_edge("x", "x")


def test_vertex_reinsertion_does_not_resurrect_old_edges():
    g, tree, d = build(seed=7)
    victim = next(v for v in g.vertices() if g.degree(v) >= 3)
    old_nbrs = g.neighbor_list(victim)
    d.note_vertex_deleted(victim)
    for w in old_nbrs:
        assert victim not in [x for x in d.neighbors_of(w) if d.has_alive_edge(w, x)]
    # Re-insert the same id with a strict subset of its old neighbours: the
    # other old edges must stay dead.
    keep, dead = old_nbrs[0], old_nbrs[1:]
    d.note_vertex_inserted(victim, [keep])
    assert d.has_alive_edge(victim, keep)
    for w in dead:
        assert not d.has_alive_edge(victim, w), w
        assert not d.has_alive_edge(w, victim), w


def test_reset_overlays_is_idempotent_and_restores_pristine_state():
    g, tree, d = build(seed=3)
    pristine_size = d.size()
    gen = UpdateSequenceGenerator(g.copy(), seed=4)
    scratch = g.copy()
    for upd in gen.sequence(12):
        apply_update(scratch, upd, d)
    assert d.overlay_size() > 0
    d.reset_overlays()
    assert d.overlay_size() == 0
    assert d.size() == pristine_size
    first = (dict(d._rows), dict(d._post))
    d.reset_overlays()  # idempotent: a second reset changes nothing
    assert d.overlay_size() == 0
    assert (dict(d._rows), dict(d._post)) == first
    # The pristine structure answers base-graph queries again.
    service = DQueryService(d)
    brute = BruteForceQueryService(g, d.base_tree)
    verts = [v for v in d.base_tree.vertices() if v != VIRTUAL_ROOT]
    chain = [verts[-1]]
    while d.base_tree.parent(chain[-1]) not in (None, VIRTUAL_ROOT):
        chain.append(d.base_tree.parent(chain[-1]))
    target = tuple(reversed(chain))
    for root in verts[:10]:
        tgt = tuple(v for v in target if not d.base_tree.is_ancestor(root, v))
        if not tgt:
            continue
        q = EdgeQuery.from_tree(root, tgt, prefer_last=True)
        a, b = service.answer(q), brute.answer(q)
        pos = {v: i for i, v in enumerate(tgt)}
        assert (a is None) == (b is None)
        if a is not None:
            assert pos[a[1]] == pos[b[1]]


# --------------------------------------------------------------------------- #
# Property-based: overlay-served D vs freshly built D
# --------------------------------------------------------------------------- #
SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _random_tree_queries(tree, rng, rounds=10):
    verts = [v for v in tree.vertices() if v != VIRTUAL_ROOT]
    out = []
    for _ in range(rounds):
        bottom = rng.choice(verts)
        chain = [bottom]
        while tree.parent(chain[-1]) not in (None, VIRTUAL_ROOT):
            chain.append(tree.parent(chain[-1]))
        root = rng.choice(verts)
        target = tuple(v for v in reversed(chain) if not tree.is_ancestor(root, v))
        if target:
            out.append(EdgeQuery.from_tree(root, target, prefer_last=rng.random() < 0.5))
    return out


@SETTINGS
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=12),
)
def test_overlay_answers_equal_fresh_structure_answers(seed, count):
    """After k overlaid *deletions*, the stale D + overlays returns the same
    canonical answers as a D built from scratch on the updated graph and the
    same base tree.  (Deletions never create cross edges w.r.t. the base tree,
    so the freshly-built D is a fair comparison point — insertions are covered
    by the oracle test below and the driver-level cross-validation tests.)"""
    rng = random.Random(seed)
    g = gnp_random_graph(24, 0.15, seed=seed, connected=True)
    tree = DFSTree(static_dfs_forest(g), root=VIRTUAL_ROOT)
    stale = StructureD(g.copy(), tree)
    current = g.copy()
    gen = UpdateSequenceGenerator(current, seed=seed + 1)
    for upd in gen.sequence(count, weights={"edge_del": 1.0, "vertex_del": 0.4}):
        apply_update(current, upd, stale)
    fresh = StructureD(current, tree)
    overlay_service = DQueryService(stale)
    fresh_service = DQueryService(fresh)
    brute = BruteForceQueryService(current, tree)

    for q in _random_tree_queries(tree, rng):
        a = overlay_service.answer(q)
        b = fresh_service.answer(q)
        c = brute.answer(q)
        pos = {v: i for i, v in enumerate(q.target)}
        assert (a is None) == (b is None) == (c is None)
        if a is not None:
            # Same canonical position — and the same canonical edge.
            assert pos[a[1]] == pos[b[1]] == pos[c[1]]
            assert a == b


@SETTINGS
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=12),
)
def test_overlay_answers_match_oracle_under_mixed_churn(seed, count):
    """Under interleaved insertions and deletions, overlay-served answers stay
    exactly equal (both endpoints) to the brute-force oracle on the updated
    graph — the canonical-answer guarantee the amortized engine relies on."""
    rng = random.Random(seed)
    g = gnp_random_graph(24, 0.15, seed=seed, connected=True)
    tree = DFSTree(static_dfs_forest(g), root=VIRTUAL_ROOT)
    stale = StructureD(g.copy(), tree)
    current = g.copy()
    gen = UpdateSequenceGenerator(current, seed=seed + 1)
    for upd in gen.sequence(count, weights={"edge_del": 1.0, "edge_ins": 1.0}):
        apply_update(current, upd, stale)
    overlay_service = DQueryService(stale)
    brute = BruteForceQueryService(current, tree)

    for q in _random_tree_queries(tree, rng):
        a = overlay_service.answer(q)
        c = brute.answer(q)
        assert a == c
