"""Array constructors for the tree layer: the index arrays, the tree's one
vertex-id table and the LCA index's batch query, against the dict and the
parent-walk oracle."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.constants import VIRTUAL_ROOT
from repro.exceptions import VertexNotFound
from repro.graph.generators import gnp_random_graph
from repro.graph.traversal import static_dfs_forest
from repro.service import TreeSnapshot
from repro.tree.dfs_tree import DFSTree
from repro.tree.euler import euler_tour_arrays
from tests.helpers import ParentWalk, lca_through_index


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
    verts = list(g.vertices())
    pairs = [(verts[rng.randrange(len(verts))], verts[rng.randrange(len(verts))]) for _ in range(150)]
    expect = [oracle.lca(a, b) for a, b in pairs]
    assert [tree.lca(a, b) for a, b in pairs] == expect
    avs, bvs = zip(*pairs)
    assert lca_through_index(tree, list(avs), list(bvs)) == expect
    # int-array inputs take the dense-table fast path; same answers
    assert lca_through_index(tree, np.asarray(avs), np.asarray(bvs)) == expect


def test_array_lca_batch_object_vertices_fall_back():
    g = gnp_random_graph(12, 0.3, seed=2)
    h = type(g)(edges=[(f"v{u}", f"v{v}") for u, v in g.edges()])
    for v in g.vertices():
        if not h.has_vertex(f"v{v}"):
            h.add_vertex(f"v{v}")
    tree = DFSTree(static_dfs_forest(h), root=VIRTUAL_ROOT)
    oracle = ParentWalk(tree.parent_map())
    verts = list(h.vertices())
    rng = random.Random(8)
    avs = [verts[rng.randrange(len(verts))] for _ in range(40)]
    bvs = [verts[rng.randrange(len(verts))] for _ in range(40)]
    assert lca_through_index(tree, avs, bvs) == [oracle.lca(a, b) for a, b in zip(avs, bvs)]


def test_array_lca_unknown_vertex_raises():
    _, tree = _tree(n=8, seed=1)
    snap = TreeSnapshot(1, tree)
    some = next(iter(tree.as_arrays()["vertices"]))
    with pytest.raises(VertexNotFound):
        snap.lca("ghost", some)
    with pytest.raises(VertexNotFound):
        snap.lca_batch([10**9], [some])


def test_array_lca_batch_mixed_ids_fall_back():
    # The virtual-root tuple among int ids cannot form an int array.
    g, tree = _tree(n=12, seed=3)
    oracle = ParentWalk(tree.parent_map())
    avs, bvs = [VIRTUAL_ROOT, 1, 2], [3, VIRTUAL_ROOT, 4]
    assert lca_through_index(tree, avs, bvs) == [oracle.lca(a, b) for a, b in zip(avs, bvs)]


def test_indices_equal_the_dict_on_every_kind_of_id():
    """``DFSTree.indices`` answers ``tree._idx.get(v, -1)`` per id, whether
    the dense table serves the ids or the dict does."""
    _, dense = _tree(n=30, seed=4)  # int ids under the virtual-root tuple
    trees = {
        "dense": dense,
        "signed": DFSTree({-3: None, -1: -3, 0: -1, 2: 0, 5: 2, 7: 5}),
        "beyond_int64": DFSTree({0: None, 1: 0, 5: 1, 2**70: 0}),
        "sparse": DFSTree({0: None, 5: 0, 10**6: 0}),
        "objects": DFSTree({"a": None, "b": "a", ("t", 1): "b", 5: "a"}),
    }
    queries = [
        [VIRTUAL_ROOT, 0, 5, 29],  # the virtual-root tuple among ints
        [0, 5, 7, 2, 1],  # ints inside every table, some unknown
        [0, 5, 7, 29, 31],  # ints, some beyond a table
        [10**6, 10**9, 5],  # sparse ids above any table bound
        [5.5, 5.0, 2.0],  # 5.5 is no vertex; 5.0 resolves as the dict does
        [True, False],  # bools are the ints 1 and 0
        [-3, -1, 0, 2],  # negative ids stay out of the table
        [2**70, 1, 2**64 - 1],  # ids beyond int64
        np.arange(8),  # numpy ints
        np.arange(-2, 40),
        np.asarray([1, 5, 2**63], dtype=np.uint64),
        ["a", "b", ("t", 1), "zz"],  # object ids
        [],
    ]
    for name, tree in trees.items():
        for vs in queries:
            got = tree.indices(vs)
            assert got.dtype == np.int64
            assert got.tolist() == [tree._idx.get(v, -1) for v in vs], (name, vs)
    # The dense table serves int trees; the others fall back to the dict.
    assert len(dense._id_table) and len(trees["signed"]._id_table)
    for name in ("beyond_int64", "sparse", "objects"):
        assert not len(trees[name]._id_table), name
