"""TreeSnapshot unit tests: scalar semantics, batch answers, error types.

The snapshot is the MVCC read currency, so these tests pin the semantics the
service and the asyncio front build on: virtual-root sentinels never leak
(``None``/``False`` instead), every ``*_batch`` method answers element for
element what the tree's own accessors give, and every query on an unknown
vertex raises :class:`VertexNotFound`.
"""

from __future__ import annotations

import random

import pytest

from repro.constants import VIRTUAL_ROOT, is_virtual_root
from repro.core import FullyDynamicDFS
from repro.exceptions import VertexNotFound
from repro.graph.generators import gnp_random_graph
from repro.graph.graph import UndirectedGraph
from repro.graph.traversal import static_dfs_forest
from repro.service import DFSTreeService, TreeSnapshot
from repro.tree.dfs_tree import DFSTree
from tests.helpers import assert_snapshot_matches_oracle


def _snapshot(n=40, p=0.08, seed=5, version=7):
    g = gnp_random_graph(n, p, seed=seed)  # sparse: usually disconnected
    tree = DFSTree(static_dfs_forest(g), root=VIRTUAL_ROOT)
    return g, tree, TreeSnapshot(version, tree)


def test_scalar_queries_match_tree_semantics():
    g, tree, snap = _snapshot()
    assert snap.version == 7
    verts = [v for v in tree.vertices() if not is_virtual_root(v)]
    for v in verts:
        p = snap.parent(v)
        tp = tree.parent(v)
        assert p == (None if tp is None or is_virtual_root(tp) else tp)
    rng = random.Random(3)
    avs = [rng.choice(verts) for _ in range(150)]
    bvs = [rng.choice(verts) for _ in range(150)]
    assert_snapshot_matches_oracle(snap, avs, bvs)


@pytest.mark.parametrize("backend", ["dict", "array"])
def test_empty_graph_virtual_root_is_in_no_component(backend):
    """With no vertex but the virtual root there is no component root; the
    virtual root still answers ``None`` / ``False``, as on a non-empty graph."""
    snap = DFSTreeService(FullyDynamicDFS(UndirectedGraph(), backend=backend)).snapshot()
    assert snap.component(VIRTUAL_ROOT) is None
    assert snap.component_batch([VIRTUAL_ROOT]) == [None]
    assert snap.connected(VIRTUAL_ROOT, VIRTUAL_ROOT) is False
    assert snap.connected_batch([VIRTUAL_ROOT], [VIRTUAL_ROOT]) == [False]


def test_batch_equals_scalar_all_kinds():
    _, tree, snap = _snapshot(seed=11)
    verts = [v for v in tree.vertices() if not is_virtual_root(v)]
    rng = random.Random(17)
    avs = [rng.choice(verts) for _ in range(120)]
    bvs = [rng.choice(verts) for _ in range(120)]
    assert_snapshot_matches_oracle(snap, avs, bvs)


#: Every snapshot query -> its arguments around a known id *k* and a probe *x*.
QUERY_ARGS = {
    "parent": lambda k, x: (x,),
    "depth": lambda k, x: (x,),
    "subtree_size": lambda k, x: (x,),
    "component": lambda k, x: (x,),
    "is_ancestor": lambda k, x: (k, x),
    "lca": lambda k, x: (k, x),
    "connected": lambda k, x: (k, x),
    "path_length": lambda k, x: (k, x),
    "subtree_size_batch": lambda k, x: ([k, x],),
    "component_batch": lambda k, x: ([k, x],),
    "lca_batch": lambda k, x: ([k], [x]),
    "is_ancestor_batch": lambda k, x: ([k], [x]),
    "connected_batch": lambda k, x: ([k], [x]),
    "path_length_batch": lambda k, x: ([k], [x]),
}


@pytest.mark.parametrize("unknown", ["nope", 10**6])
@pytest.mark.parametrize("method", sorted(QUERY_ARGS))
def test_unknown_vertex_raises_vertex_not_found(method, unknown):
    _, tree, snap = _snapshot()
    known = next(v for v in tree.vertices() if not is_virtual_root(v))
    with pytest.raises(VertexNotFound) as excinfo:
        getattr(snap, method)(*QUERY_ARGS[method](known, unknown))
    assert excinfo.value.vertex == unknown


def test_snapshot_rejects_a_tree_not_rooted_at_the_virtual_root():
    for parent in ({0: None, 1: 0, 2: 0, 10: None, 11: 10}, {0: None, 1: 0}):
        with pytest.raises(ValueError, match="virtual root"):
            TreeSnapshot(1, DFSTree(parent))


def test_parent_map_is_the_trees_parent_map():
    _, tree, snap = _snapshot()
    assert snap.parent_map() == tree.parent_map()


def test_lazy_index_built_once_and_reports_cost():
    costs = []
    g = gnp_random_graph(30, 0.1, seed=2)
    tree = DFSTree(static_dfs_forest(g), root=VIRTUAL_ROOT)
    snap = TreeSnapshot(1, tree, on_build_ms=costs.append)
    assert costs == []  # publication is O(1): nothing built yet
    verts = [v for v in tree.vertices() if not is_virtual_root(v)]
    snap.lca(verts[0], verts[1])
    snap.lca_batch(verts[:4], verts[4:8])
    assert len(costs) == 1 and costs[0] >= 0.0
    # The index is the tree's own: a second snapshot of the same tree reads
    # it and reports no build of its own.
    again = TreeSnapshot(2, tree, on_build_ms=costs.append)
    again.path_length_batch(verts[:4], verts[4:8])
    assert len(costs) == 1
    assert again._index() is snap._index() is tree.lca_index()


def test_snapshot_reads_the_index_the_writer_built():
    costs = []
    g = gnp_random_graph(30, 0.1, seed=2)
    tree = DFSTree(static_dfs_forest(g), root=VIRTUAL_ROOT)
    verts = [v for v in tree.vertices() if not is_virtual_root(v)]
    index = tree.lca_index()
    snap = TreeSnapshot(1, tree, on_build_ms=costs.append)
    snap.lca(verts[0], verts[1])
    assert costs == [] and snap._index() is index
