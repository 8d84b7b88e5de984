"""Tests for the data structure D (sorted adjacency + overlays)."""

import random

import pytest

from repro.constants import VIRTUAL_ROOT
from repro.core.structure_d import StructureD
from repro.exceptions import VertexNotFound
from repro.graph.generators import gnp_random_graph, path_graph
from repro.graph.graph import UndirectedGraph
from repro.graph.traversal import static_dfs_forest, static_dfs_tree
from repro.tree.dfs_tree import DFSTree


def build(seed=0, n=40, p=0.12):
    g = gnp_random_graph(n, p, seed=seed, connected=True)
    tree = DFSTree(static_dfs_tree(g, 0), root=0)
    return g, tree, StructureD(g, tree)


def brute_neighbor_on_segment(graph, tree, u, top, bottom, prefer_bottom):
    seg = set(tree.path(top, bottom))
    candidates = [w for w in graph.neighbors(u) if w in seg]
    if not candidates:
        return None
    return max(candidates, key=tree.level) if prefer_bottom else min(candidates, key=tree.level)


def test_size_matches_edge_count():
    g, tree, d = build()
    assert d.size() == 2 * g.num_edges
    assert d.postorder(0) == tree.postorder(0)
    with pytest.raises(VertexNotFound):
        d.postorder("nope")


def test_neighbor_on_segment_matches_brute_force():
    rng = random.Random(9)
    for seed in range(4):
        g, tree, d = build(seed=seed)
        verts = list(tree.vertices())
        for _ in range(300):
            u = rng.choice(verts)
            bottom = rng.choice(verts)
            # pick a random ancestor of bottom as the segment top
            anc = [bottom]
            while tree.parent(anc[-1]) is not None:
                anc.append(tree.parent(anc[-1]))
            top = rng.choice(anc)
            if any(tree.is_ancestor(u, x) for x in tree.path(top, bottom)):
                # The primitive's precondition (see its docstring): u must not
                # be an ancestor of the segment; the query service handles that
                # case with the role-reversed search.
                continue
            prefer_bottom = rng.random() < 0.5
            expected = brute_neighbor_on_segment(g, tree, u, top, bottom, prefer_bottom)
            got = d.neighbor_on_segment(u, top, bottom, prefer_bottom=prefer_bottom)
            if expected is None:
                assert got is None
            else:
                assert got is not None
                assert tree.level(got) == tree.level(expected)


def test_path_graph_segments():
    g = path_graph(10)
    tree = DFSTree(static_dfs_tree(g, 0), root=0)
    d = StructureD(g, tree)
    # Neighbours of 5 on the segment 0..4: only vertex 4.
    assert d.neighbor_on_segment(5, 0, 4, prefer_bottom=True) == 4
    assert d.neighbor_on_segment(5, 0, 3, prefer_bottom=True) is None


def test_overlay_edge_insert_and_delete():
    g, tree, d = build(seed=2)
    # Find a non-edge whose endpoints are ancestor-related.
    target = None
    for u in tree.vertices():
        for w in tree.vertices():
            if u != w and tree.is_ancestor(w, u) and not g.has_edge(u, w) and tree.parent(u) != w:
                target = (u, w)
                break
        if target:
            break
    assert target is not None
    u, w = target
    assert d.neighbor_on_segment(u, w, w, prefer_bottom=True) is None
    d.note_edge_inserted(u, w)
    assert d.neighbor_on_segment(u, w, w, prefer_bottom=True) == w
    assert w in d.neighbors_of(u)
    d.note_edge_deleted(u, w)
    assert d.neighbor_on_segment(u, w, w, prefer_bottom=True) is None
    assert w not in d.neighbors_of(u)
    assert d.overlay_size() >= 1
    d.reset_overlays()
    assert d.overlay_size() == 0


def test_overlay_masks_existing_edge():
    g = path_graph(6)
    tree = DFSTree(static_dfs_tree(g, 0), root=0)
    d = StructureD(g, tree)
    assert d.neighbor_on_segment(3, 0, 2, prefer_bottom=True) == 2
    d.note_edge_deleted(2, 3)
    assert d.neighbor_on_segment(3, 0, 2, prefer_bottom=True) is None
    d.note_edge_inserted(2, 3)  # re-insertion revives it
    assert d.neighbor_on_segment(3, 0, 2, prefer_bottom=True) == 2


def test_overlay_vertex_insertion_and_deletion():
    g = path_graph(6)
    tree = DFSTree(static_dfs_forest(g), root=VIRTUAL_ROOT)
    d = StructureD(g, tree)
    d.note_vertex_inserted("new", [2, 4])
    # The inserted vertex can be queried as a source over base-tree segments.
    assert d.neighbor_on_segment("new", 0, 4, prefer_bottom=True) == 4
    assert d.neighbor_on_segment("new", 0, 3, prefer_bottom=True) == 2
    # Existing vertices see the new vertex through their overlay lists.
    assert "new" in d.neighbors_of(2)
    d.note_vertex_deleted("new")
    assert d.neighbor_on_segment(2, *(["new"] * 2), prefer_bottom=True) is None
    assert "new" not in d.neighbors_of(2)


def test_deleted_vertex_masks_all_edges():
    g, tree, d = build(seed=3)
    victim = next(v for v in g.vertices() if g.degree(v) >= 2)
    nbr = g.neighbor_list(victim)[0]
    d.note_vertex_deleted(victim)
    assert victim not in d.neighbors_of(nbr)


def test_segment_depth_narrows_to_vertex_not_found():
    """Regression: ``_segment_depth`` used to catch *Exception*, so a broken
    ``tree.level`` (a typo, a corrupted tree) was silently mapped to the
    late-insert sentinel and the neighbour search kept going on garbage.
    Only the documented miss is narrowed; anything else propagates."""
    g, tree, d = build()
    v = next(iter(g.vertices()))
    assert d._segment_depth(v) == tree.level(v)
    # A vertex inserted after the base build: the documented sentinel.
    assert d._segment_depth("never-inserted") == 1 << 30
    with pytest.raises(VertexNotFound):
        tree.level("never-inserted")

    class BrokenTree:
        def level(self, w):
            raise RuntimeError("corrupt tree")

    d._tree = BrokenTree()
    with pytest.raises(RuntimeError):
        d._segment_depth(v)
