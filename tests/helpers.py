"""Shared helpers for the test suite (importable as ``tests.helpers``)."""

from __future__ import annotations

from typing import List, Tuple

from repro.constants import is_virtual_root
from repro.core.overlay import apply_update
from repro.core.updates import (
    EdgeDeletion,
    EdgeInsertion,
    Update,
    VertexDeletion,
    VertexInsertion,
)
from repro.graph.generators import (
    broom_graph,
    caterpillar_graph,
    comb_with_back_edges,
    complete_binary_tree,
    cycle_graph,
    gnp_random_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graph.graph import UndirectedGraph
from repro.workloads.updates import UpdateSequenceGenerator


def small_graph_family() -> List[Tuple[str, UndirectedGraph]]:
    """A deterministic zoo of small graphs covering all the structural cases the
    rerooting algorithm distinguishes (deep paths, wide stars, heavy subtrees,
    brooms/combs with back edges, random graphs, disconnected graphs)."""
    graphs: List[Tuple[str, UndirectedGraph]] = [
        ("path", path_graph(24)),
        ("cycle", cycle_graph(17)),
        ("star", star_graph(20)),
        ("grid", grid_graph(5, 5)),
        ("binary_tree", complete_binary_tree(4)),
        ("broom", broom_graph(12, 12)),
        ("caterpillar", caterpillar_graph(10, 3)),
        ("comb", comb_with_back_edges(8, 4)),
    ]
    for seed in range(4):
        graphs.append((f"gnp_{seed}", gnp_random_graph(30, 0.12, seed=seed, connected=True)))
    graphs.append(("sparse_disconnected", gnp_random_graph(30, 0.04, seed=99)))
    return graphs


def make_updates(graph: UndirectedGraph, count: int, seed: int, *, vertex_updates: bool = True) -> List[Update]:
    """A valid random update sequence for *graph* (replayable)."""
    gen = UpdateSequenceGenerator(graph, seed=seed)
    weights = (
        {"edge_del": 1.0, "edge_ins": 1.0, "vertex_del": 0.4, "vertex_ins": 0.4}
        if vertex_updates
        else {"edge_del": 1.0, "edge_ins": 1.0}
    )
    return gen.sequence(count, weights=weights)


def decode_ops(graph: UndirectedGraph, ops) -> List[Update]:
    """Decode shrinking-friendly integer triples into a valid update sequence.

    Each op is ``(kind, a, b)`` interpreted against an evolving scratch copy of
    *graph*, so the produced sequence is always replayable verbatim: an edge op
    toggles the edge between the ``a``-th and ``b``-th live vertex, a vertex
    deletion removes the ``a``-th live vertex, and a vertex insertion attaches
    a fresh vertex to the neighbour subset encoded by ``b``'s bits.  Undecodable
    ops (self loops, too-small graphs) are skipped rather than failing, so
    hypothesis can shrink the integers freely.  Shared by the cross-driver
    differential harness and the shard cross-process determinism tests.
    """
    scratch = graph.copy()
    next_vertex = 10**9
    updates: List[Update] = []
    for kind, a, b in ops:
        verts = sorted(scratch.vertices())
        kind %= 4
        if kind in (0, 3):  # edge toggle (twice the weight: churn dominates)
            if len(verts) < 2:
                continue
            u = verts[a % len(verts)]
            v = verts[b % len(verts)]
            if u == v:
                v = verts[(b + 1) % len(verts)]
                if u == v:
                    continue
            update = EdgeDeletion(u, v) if scratch.has_edge(u, v) else EdgeInsertion(u, v)
        elif kind == 1:  # vertex deletion
            if len(verts) <= 3:
                continue
            update = VertexDeletion(verts[a % len(verts)])
        else:  # vertex insertion with a bitmask-chosen neighbourhood
            neighbors = tuple(verts[i] for i in range(min(len(verts), 6)) if (b >> i) & 1)
            update = VertexInsertion(next_vertex, neighbors)
            next_vertex += 1
        apply_update(scratch, update)
        updates.append(update)
    return updates


def assert_snapshot_batches_match_tree(snap, avs, bvs) -> None:
    """Every ``TreeSnapshot`` batch query on the pairs ``zip(avs, bvs)``
    answers what the snapshot tree's own accessors give (the virtual root
    surfacing as ``None``)."""
    tree = snap.tree
    pairs = list(zip(avs, bvs))
    lcas = [None if is_virtual_root(x) else x for x in (tree.lca(a, b) for a, b in pairs)]
    comp = {v: tree.level_ancestor(v, 1) for v in [*avs, *bvs]}
    assert snap.lca_batch(avs, bvs) == lcas
    assert snap.connected_batch(avs, bvs) == [comp[a] == comp[b] for a, b in pairs]
    assert snap.is_ancestor_batch(avs, bvs) == [tree.is_ancestor(a, b) for a, b in pairs]
    assert snap.path_length_batch(avs, bvs) == [
        None if l is None else tree.level(a) + tree.level(b) - 2 * tree.level(l)
        for (a, b), l in zip(pairs, lcas)
    ]
    assert snap.subtree_size_batch(avs) == [tree.subtree_size(v) for v in avs]
    assert snap.component_batch(avs) == [comp[v] for v in avs]
