"""Array constructors for the tree layer: snapshots, Euler tours, LCA."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.constants import VIRTUAL_ROOT
from repro.exceptions import TreeError
from repro.graph.generators import gnp_random_graph
from repro.graph.traversal import static_dfs_forest
from repro.tree.dfs_tree import DFSTree
from repro.tree.euler import euler_tour, euler_tour_arrays
from repro.tree.lca import ArrayLCAIndex, EulerTourLCA


def _tree(n=30, p=0.2, seed=4):
    g = gnp_random_graph(n, p, seed=seed)
    return g, DFSTree(static_dfs_forest(g), root=VIRTUAL_ROOT)


def test_as_arrays_matches_scalar_accessors():
    g, tree = _tree()
    arrs = tree.as_arrays()
    verts = list(arrs["vertices"])
    for i, v in enumerate(verts):
        assert int(arrs["post"][i]) == tree.postorder(v)
        assert int(arrs["level"][i]) == tree.level(v)
        assert int(arrs["size"][i]) == tree.subtree_size(v)
        p = tree.parent(v)
        pi = int(arrs["parent"][i])
        assert (p is None and pi == -1) or verts[pi] == p
    # snapshot is cached (same objects on second call)
    assert tree.as_arrays()["post"] is arrs["post"]


def test_euler_tour_arrays_equals_scalar_tour():
    for seed in (1, 5, 9):
        g, tree = _tree(seed=seed)
        tour, first, depths = euler_tour(tree)
        tour_idx, first_arr, depths_arr = euler_tour_arrays(tree)
        verts = list(tree.as_arrays()["vertices"])
        assert [verts[i] for i in tour_idx.tolist()] == tour
        assert depths_arr.tolist() == depths
        for v, f in first.items():
            assert int(first_arr[tree._i(v)]) == f


def test_array_lca_matches_scalar_lca():
    rng = random.Random(6)
    g, tree = _tree(n=40, seed=12)
    scalar = EulerTourLCA(tree)
    arr = ArrayLCAIndex(tree)
    verts = list(g.vertices())
    pairs = [(verts[rng.randrange(len(verts))], verts[rng.randrange(len(verts))]) for _ in range(150)]
    for a, b in pairs:
        assert arr.lca(a, b) == scalar.lca(a, b)
        assert arr.is_ancestor(a, b) == scalar.is_ancestor(a, b)
        assert arr.distance(a, b) == scalar.distance(a, b)
    avs, bvs = zip(*pairs)
    expect = [scalar.lca(a, b) for a, b in pairs]
    assert arr.lca_batch(list(avs), list(bvs)) == expect
    # int-array inputs take the dense-table fast path; same answers
    assert arr.lca_batch(np.asarray(avs), np.asarray(bvs)) == expect


def test_array_lca_batch_object_vertices_fall_back():
    g = gnp_random_graph(12, 0.3, seed=2)
    h = type(g)(edges=[(f"v{u}", f"v{v}") for u, v in g.edges()])
    for v in g.vertices():
        if not h.has_vertex(f"v{v}"):
            h.add_vertex(f"v{v}")
    tree = DFSTree(static_dfs_forest(h), root=VIRTUAL_ROOT)
    scalar = EulerTourLCA(tree)
    arr = ArrayLCAIndex(tree)
    verts = list(h.vertices())
    rng = random.Random(8)
    avs = [verts[rng.randrange(len(verts))] for _ in range(40)]
    bvs = [verts[rng.randrange(len(verts))] for _ in range(40)]
    assert arr.lca_batch(avs, bvs) == [scalar.lca(a, b) for a, b in zip(avs, bvs)]


def test_array_lca_unknown_vertex_raises():
    _, tree = _tree(n=8, seed=1)
    arr = ArrayLCAIndex(tree)
    some = next(iter(tree.as_arrays()["vertices"]))
    with pytest.raises(TreeError):
        arr.lca("ghost", some)
    with pytest.raises(TreeError):
        arr.lca_batch([10**9], [some])
