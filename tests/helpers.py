"""Shared helpers for the test suite (importable as ``tests.helpers``)."""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.constants import is_virtual_root
from repro.core.overlay import apply_update
from repro.core.structure_d import StructureD
from repro.core.updates import (
    EdgeDeletion,
    EdgeInsertion,
    Update,
    VertexDeletion,
    VertexInsertion,
)
from repro.exceptions import TreeError
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


class ParentWalk:
    """Tree answers by walking parent pointers: the independent oracle the
    tree's LCA index and the snapshot queries are checked against.

    Built from a plain parent map (roots map to ``None``; a forest is fine),
    it shares no code with :class:`~repro.tree.dfs_tree.DFSTree`.
    """

    def __init__(self, parent) -> None:
        self.parent = dict(parent)

    def ancestors(self, v) -> list:
        """*v*, its parent, ..., up to its root."""
        out = [v]
        while self.parent[out[-1]] is not None:
            out.append(self.parent[out[-1]])
        return out

    def level(self, v) -> int:
        return len(self.ancestors(v)) - 1

    def is_ancestor(self, a, b) -> bool:
        return a in self.ancestors(b)

    def lca(self, a, b):
        """The lowest common ancestor, or ``None`` across two trees."""
        up_b = set(self.ancestors(b))
        return next((x for x in self.ancestors(a) if x in up_b), None)

    def level_ancestor(self, v, level: int):
        up = self.ancestors(v)
        return up[len(up) - 1 - level]

    def child_towards(self, ancestor, descendant):
        return self.level_ancestor(descendant, self.level(ancestor) + 1)

    def path(self, a, b) -> list:
        l = self.lca(a, b)
        up_a = self.ancestors(a)
        up_b = self.ancestors(b)
        return up_a[: up_a.index(l) + 1] + up_b[: up_b.index(l)][::-1]

    def subtree_size(self, v) -> int:
        return sum(1 for x in self.parent if self.is_ancestor(v, x))


def assert_tree_matches_oracle(tree, pairs) -> None:
    """Every LCA-index-backed :class:`DFSTree` query on *pairs* answers what
    the parent-walk oracle gives; a pair in two trees raises ``TreeError``."""
    oracle = ParentWalk(tree.parent_map())
    for a, b in pairs:
        l = oracle.lca(a, b)
        if l is None:
            for query in (tree.lca, tree.path, tree.path_length):
                with pytest.raises(TreeError):
                    query(a, b)
            continue
        assert tree.lca(a, b) == l
        path = oracle.path(a, b)
        assert tree.path(a, b) == path
        assert tree.path_length(a, b) == len(path) - 1
        for v in (a, b, l, oracle.ancestors(a)[-1]):
            assert tree.on_path(v, a, b) == (v in path)
        for v, w in ((a, b), (b, a)):
            level = oracle.level(v)
            assert tree.level(v) == level
            for target in {0, level // 2, max(level - 1, 0), level}:
                assert tree.level_ancestor(v, target) == oracle.level_ancestor(v, target)
            if w != v and oracle.is_ancestor(w, v):
                assert tree.child_towards(w, v) == oracle.child_towards(w, v)


def lca_through_index(tree, avs, bvs) -> list:
    """LCAs of the pairs ``zip(avs, bvs)`` through the tree's id table and
    its LCA index's batch query (``None`` for a pair in different trees)."""
    li = tree.lca_index().lca_indices_batch(tree.indices(avs), tree.indices(bvs))
    verts = tree.as_arrays()["vertices"]
    return [None if i < 0 else verts[i] for i in li.tolist()]


def assert_snapshot_matches_oracle(snap, avs, bvs) -> None:
    """Every ``TreeSnapshot`` query, scalar and batched, on the pairs
    ``zip(avs, bvs)`` answers what the parent-walk oracle gives (the virtual
    root surfacing as ``None``)."""
    oracle = ParentWalk(snap.tree.parent_map())
    pairs = list(zip(avs, bvs))
    comp = {v: oracle.level_ancestor(v, 1) for v in [*avs, *bvs]}
    lcas = [None if is_virtual_root(x) else x for x in (oracle.lca(a, b) for a, b in pairs)]
    lengths = [
        None if l is None else oracle.level(a) + oracle.level(b) - 2 * oracle.level(l)
        for (a, b), l in zip(pairs, lcas)
    ]
    ancestry = [oracle.is_ancestor(a, b) for a, b in pairs]
    connected = [comp[a] == comp[b] for a, b in pairs]
    sizes = [oracle.subtree_size(v) for v in avs]
    assert snap.lca_batch(avs, bvs) == lcas
    assert [snap.lca(a, b) for a, b in pairs] == lcas
    assert snap.path_length_batch(avs, bvs) == lengths
    assert [snap.path_length(a, b) for a, b in pairs] == lengths
    assert snap.is_ancestor_batch(avs, bvs) == ancestry
    assert [snap.is_ancestor(a, b) for a, b in pairs] == ancestry
    assert snap.connected_batch(avs, bvs) == connected
    assert [snap.connected(a, b) for a, b in pairs] == connected
    assert snap.subtree_size_batch(avs) == sizes
    assert [snap.subtree_size(v) for v in avs] == sizes
    assert snap.component_batch(avs) == [comp[v] for v in avs]
    assert [snap.component(v) for v in avs] == [comp[v] for v in avs]
    assert [snap.depth(v) for v in avs] == [oracle.level(v) for v in avs]


# --------------------------------------------------------------------------- #
# Scalar-loop references for the batched reads of D
# --------------------------------------------------------------------------- #
def search_subtrees_reference(d: StructureD, roots, segments):
    """``d.search_subtrees(roots, segments)`` as a loop of scalar searches:
    every vertex of each piece ``T(root)`` calls ``d.search_segment``, and
    the piece keeps the hit nearest its preferred end.  Returns ``(found,
    probes)``."""
    tree = d.base_tree
    found = []
    probes = 0
    for root, (top, bottom, on_segment, prefer_bottom) in zip(roots, segments):
        best = None
        best_post = 0
        for u in tree.subtree_vertices(root):
            w, p = d.search_segment(u, top, bottom, prefer_bottom, on_segment)
            probes += p
            if w is None:
                continue
            # A segment is a vertical path: deeper means a smaller post.
            w_post = d.postorder(w)
            if best is None or (w_post < best_post if prefer_bottom else w_post > best_post):
                best, best_post = w, w_post
        found.append(best)
    return found, probes


def min_post_batch_reference(d: StructureD, us, los, his):
    """``d.search_min_post_batch(us, los, his)`` as a loop of
    ``d.min_post_alive_neighbor`` calls.  Returns ``(answers, probes)``."""
    best = []
    probes = 0
    for u, lo, hi in zip(us, los, his):
        b, p = d.min_post_alive_neighbor(u, lo, hi)
        best.append(b)
        probes += p
    return best, probes


class ScalarLoopD(StructureD):
    """``D`` whose batched reads are the scalar-loop references, so a query
    service over it counts what one scalar search per piece vertex counts."""

    def search_subtrees(self, roots, segments):
        return search_subtrees_reference(self, roots, segments)

    def search_min_post_batch(self, us, los, his):
        return min_post_batch_reference(self, us, los, his)
