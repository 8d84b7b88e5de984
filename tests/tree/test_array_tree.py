"""Array constructors for the tree layer: the index arrays and the LCA
index's batch queries, against the parent-walk oracle."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.constants import VIRTUAL_ROOT
from repro.exceptions import TreeError
from repro.graph.generators import gnp_random_graph
from repro.graph.traversal import static_dfs_forest
from repro.tree.dfs_tree import DFSTree
from repro.tree.euler import euler_tour_arrays
from repro.tree.lca import ArrayLCAIndex
from tests.helpers import ParentWalk


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


def _walk_around(tree, root):
    """The classical Euler tour by an explicit walk: enter a vertex, tour each
    child, return to the vertex after each child."""
    tour = [root]
    for child in tree.children(root):
        tour += _walk_around(tree, child) + [root]
    return tour


def test_euler_tour_arrays_equals_scalar_tour():
    for seed in (1, 5, 9):
        g, tree = _tree(seed=seed)
        tour, depths = euler_tour_arrays(tree)
        arrs = tree.as_arrays()
        verts = list(arrs["vertices"])
        ri = verts.index(tree.root)
        lo, hi = int(arrs["tin"][ri]), int(arrs["tout"][ri])
        walk = _walk_around(tree, tree.root)
        assert [verts[i] for i in tour[lo:hi].tolist()] == walk
        assert depths[lo:hi].tolist() == [tree.level(v) for v in walk]
        for v in tree.vertices():
            assert walk.index(v) == int(arrs["tin"][verts.index(v)]) - lo


def test_array_lca_matches_scalar_lca():
    rng = random.Random(6)
    g, tree = _tree(n=40, seed=12)
    oracle = ParentWalk(tree.parent_map())
    arr = ArrayLCAIndex(tree)
    verts = list(g.vertices())
    pairs = [(verts[rng.randrange(len(verts))], verts[rng.randrange(len(verts))]) for _ in range(150)]
    expect = [oracle.lca(a, b) for a, b in pairs]
    assert [arr.lca(a, b) for a, b in pairs] == expect
    assert [tree.lca(a, b) for a, b in pairs] == expect
    avs, bvs = zip(*pairs)
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
    oracle = ParentWalk(tree.parent_map())
    arr = ArrayLCAIndex(tree)
    verts = list(h.vertices())
    rng = random.Random(8)
    avs = [verts[rng.randrange(len(verts))] for _ in range(40)]
    bvs = [verts[rng.randrange(len(verts))] for _ in range(40)]
    assert arr.lca_batch(avs, bvs) == [oracle.lca(a, b) for a, b in zip(avs, bvs)]


def test_array_lca_unknown_vertex_raises():
    _, tree = _tree(n=8, seed=1)
    arr = ArrayLCAIndex(tree)
    some = next(iter(tree.as_arrays()["vertices"]))
    with pytest.raises(TreeError):
        arr.lca("ghost", some)
    with pytest.raises(TreeError):
        arr.lca_batch([10**9], [some])


def test_array_lca_batch_mixed_ids_fall_back():
    # The virtual-root tuple among int ids cannot form an int array.
    g, tree = _tree(n=12, seed=3)
    oracle = ParentWalk(tree.parent_map())
    arr = ArrayLCAIndex(tree)
    avs, bvs = [VIRTUAL_ROOT, 1, 2], [3, VIRTUAL_ROOT, 4]
    assert arr.lca_batch(avs, bvs) == [oracle.lca(a, b) for a, b in zip(avs, bvs)]
