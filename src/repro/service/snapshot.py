"""Versioned immutable read views of committed DFS trees.

A :class:`TreeSnapshot` is the MVCC currency of :mod:`repro.service`: the
writer publishes one per committed version, readers answer every query against
the snapshot they hold and never coordinate with the writer.  Immutability is
structural — a snapshot wraps a committed :class:`~repro.tree.dfs_tree.DFSTree`
(which the engine never mutates; every update commits a *fresh* tree), so a
published version can never change underneath a reader.

Publication must be O(1) on the writer's commit path, so the heavy read
indices are built *lazily* by the first reader that needs them.  The LCA
index is the tree's own (:meth:`~repro.tree.dfs_tree.DFSTree.lca_index`, one
per tree, shared with the writer's scalar LCA queries); the component
intervals are the snapshot's.  Builds are serialized per snapshot by a small
internal lock (steady-state reads take no lock at all), and a reader that
performs the LCA index build reports its cost through the
``snapshot_build_ms`` counter rather than charging it to the writer.

The ``*_batch`` methods all resolve vertex ids one way, through the tree's
id table (:meth:`~repro.tree.dfs_tree.DFSTree.indices`), and answer whole
query batches with :class:`~repro.tree.lca.ArrayLCAIndex` gathers and
tin/tout/size array fancy-indexing; each scalar method answers like its
batch counterpart.  Every query on a vertex outside the tree raises
:class:`~repro.exceptions.VertexNotFound`.

Forest semantics: a snapshot wraps a tree rooted at the virtual root, whose
children are the component roots.  A pair in different components has the
virtual root as its tree LCA; snapshot queries surface that as ``None`` (LCA /
path length) or ``False`` (connectivity) instead of leaking the sentinel.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Hashable, List, Optional, Sequence

import numpy as np

from repro.constants import is_virtual_root
from repro.exceptions import VertexNotFound
from repro.tree.dfs_tree import DFSTree

Vertex = Hashable

__all__ = ["TreeSnapshot"]


def check_pair_lengths(avs: Sequence[Vertex], bvs: Sequence[Vertex]) -> None:
    """Raise ``ValueError`` unless *avs* and *bvs* have equal lengths: a
    pairwise batch answers the pairs ``zip(avs, bvs)``, and numpy would
    otherwise broadcast a one-element side across the other."""
    if len(avs) != len(bvs):
        raise ValueError(f"a pairwise batch needs equal-length inputs, got {len(avs)} and {len(bvs)}")


class TreeSnapshot:
    """One immutable, versioned, queryable view of a committed DFS forest.

    Parameters
    ----------
    version:
        The monotonically increasing commit sequence number this snapshot
        corresponds to (0 = the initial tree, before any update).
    tree:
        The committed :class:`DFSTree` (immutable by contract), rooted at the
        virtual root; any other root raises ``ValueError``.
    on_build_ms:
        Optional callback receiving the milliseconds one lazy index build
        took (the service wires this to the ``snapshot_build_ms`` counter).
    """

    __slots__ = (
        "version",
        "tree",
        "_build_lock",
        "_comp_data",
        "_on_build_ms",
        "_vr_idx",
    )

    def __init__(
        self,
        version: int,
        tree: DFSTree,
        *,
        on_build_ms: Optional[Callable[[float], None]] = None,
    ) -> None:
        roots = tree._roots_idx
        if len(roots) != 1 or not is_virtual_root(tree.root):
            raise ValueError("a TreeSnapshot needs a tree rooted at the virtual root")
        self.version = version
        self.tree = tree
        self._build_lock = threading.Lock()
        self._comp_data = None
        self._on_build_ms = on_build_ms
        self._vr_idx = roots[0]

    # ------------------------------------------------------------------ #
    # Lazy indices
    # ------------------------------------------------------------------ #
    def _index(self):
        """The tree's :class:`~repro.tree.lca.ArrayLCAIndex`.  Once the tree
        holds it, reads take no lock; otherwise the first reader builds it
        under the snapshot's lock and reports the cost of that build."""
        tree = self.tree
        index = tree._lca
        if index is None:
            with self._build_lock:
                index = tree._lca
                if index is None:
                    start = time.perf_counter()
                    index = tree.lca_index()
                    if self._on_build_ms is not None:
                        self._on_build_ms((time.perf_counter() - start) * 1e3)
        return index

    def _components(self):
        """Sorted component-root interval data ``(root_tins, root_idx)`` for
        the vectorized membership searchsorted."""
        data = self._comp_data
        if data is None:
            with self._build_lock:
                data = self._comp_data
                if data is None:
                    arrs = self.tree.as_arrays()
                    roots = np.flatnonzero(arrs["level"] == 1)
                    order = np.argsort(arrs["tin"][roots], kind="stable")
                    roots = roots[order]
                    data = (arrs["tin"][roots], roots)
                    self._comp_data = data
        return data

    def _indices(self, vs: Sequence[Vertex]):
        """int64 tree indices for *vs* through the tree's one id table
        (:meth:`~repro.tree.dfs_tree.DFSTree.indices`); raises
        ``VertexNotFound`` on the first id not in the tree, like the scalar
        accessors."""
        out = self.tree.indices(vs)
        if len(out) and int(out.min()) < 0:
            raise VertexNotFound(vs[int(np.argmin(out))])
        return out

    def _pair_indices(self, avs: Sequence[Vertex], bvs: Sequence[Vertex]):
        """:meth:`_indices` of both sides of a pairwise batch, after
        :func:`check_pair_lengths`."""
        check_pair_lengths(avs, bvs)
        return self._indices(avs), self._indices(bvs)

    # ------------------------------------------------------------------ #
    # Scalar queries
    # ------------------------------------------------------------------ #
    def parent(self, v: Vertex) -> Optional[Vertex]:
        """Parent of *v* in the snapshot's tree (``None`` for component roots;
        the virtual-root sentinel never leaks)."""
        p = self.tree.parent(v)
        return None if p is None or is_virtual_root(p) else p

    def depth(self, v: Vertex) -> int:
        """Depth of *v* (the virtual root sits at 0, component roots at 1)."""
        return self.tree.level(v)

    def subtree_size(self, v: Vertex) -> int:
        """Number of vertices in the subtree rooted at *v*."""
        return self.tree.subtree_size(v)

    def is_ancestor(self, a: Vertex, b: Vertex) -> bool:
        """True iff *a* is an ancestor of *b* (not necessarily proper)."""
        return self.tree.is_ancestor(a, b)

    def lca(self, a: Vertex, b: Vertex) -> Optional[Vertex]:
        """Lowest common ancestor of *a* and *b*, or ``None`` when they sit in
        different components (their tree LCA is the virtual root)."""
        self._index()  # build (and report) the index as lca_batch does
        answer = self.tree.lca(a, b)
        return None if is_virtual_root(answer) else answer

    def component(self, v: Vertex) -> Optional[Vertex]:
        """Component id of *v* — the root of its DFS component (``None`` for
        the virtual root itself)."""
        return self.component_batch([v])[0]

    def connected(self, a: Vertex, b: Vertex) -> bool:
        """True iff *a* and *b* lie in the same component of the snapshot."""
        ca = self.component(a)
        cb = self.component(b)
        return ca is not None and ca == cb

    def path_length(self, a: Vertex, b: Vertex) -> Optional[int]:
        """Number of tree edges between *a* and *b*, or ``None`` when they are
        not connected."""
        l = self.lca(a, b)
        if l is None:
            return None
        tree = self.tree
        return tree.level(a) + tree.level(b) - 2 * tree.level(l)

    def parent_map(self) -> Dict[Vertex, Optional[Vertex]]:
        """A plain parent-map copy of the snapshot's tree, virtual root
        included — the byte-identity currency the property tests compare."""
        return self.tree.parent_map()

    # ------------------------------------------------------------------ #
    # Batch queries
    # ------------------------------------------------------------------ #
    def lca_batch(self, avs: Sequence[Vertex], bvs: Sequence[Vertex]) -> List[Optional[Vertex]]:
        """LCAs of the pairs ``zip(avs, bvs)`` in one vectorized pass
        (``None`` per disconnected pair); equals the scalar :meth:`lca` answers."""
        index = self._index()
        li = index.lca_indices_batch(*self._pair_indices(avs, bvs))
        out = self.tree.as_arrays()["vertices"][li].tolist()
        for i in np.flatnonzero(li == self._vr_idx).tolist():
            out[i] = None
        return out

    def is_ancestor_batch(self, avs: Sequence[Vertex], bvs: Sequence[Vertex]) -> List[bool]:
        """Batched :meth:`is_ancestor` over the pairs ``zip(avs, bvs)``."""
        ia, ib = self._pair_indices(avs, bvs)
        arrs = self.tree.as_arrays()
        tin, tout = arrs["tin"], arrs["tout"]
        return ((tin[ia] <= tin[ib]) & (tout[ib] <= tout[ia])).tolist()

    def subtree_size_batch(self, vs: Sequence[Vertex]) -> List[int]:
        """Batched :meth:`subtree_size` over *vs*."""
        return self.tree.as_arrays()["size"][self._indices(vs)].tolist()

    def component_batch(self, vs: Sequence[Vertex]) -> List[Optional[Vertex]]:
        """Batched :meth:`component` over *vs* (one searchsorted over the
        component roots' entry intervals)."""
        arrs = self.tree.as_arrays()
        root_tins, roots = self._components()
        iv = self._indices(vs)
        if not len(roots):  # an empty graph: only the virtual root exists
            return [None] * len(iv)
        pos = np.searchsorted(root_tins, arrs["tin"][iv], side="right") - 1
        comp = roots[np.maximum(pos, 0)]
        out = arrs["vertices"][comp].tolist()
        for i in np.flatnonzero(pos < 0).tolist():  # the virtual root itself
            out[i] = None
        return out

    def connected_batch(self, avs: Sequence[Vertex], bvs: Sequence[Vertex]) -> List[bool]:
        """Batched :meth:`connected` over the pairs ``zip(avs, bvs)``."""
        ia, ib = self._pair_indices(avs, bvs)
        root_tins, roots = self._components()
        tin = self.tree.as_arrays()["tin"]
        pa = np.searchsorted(root_tins, tin[ia], side="right") - 1
        pb = np.searchsorted(root_tins, tin[ib], side="right") - 1
        return ((pa == pb) & (pa >= 0)).tolist()

    def path_length_batch(
        self, avs: Sequence[Vertex], bvs: Sequence[Vertex]
    ) -> List[Optional[int]]:
        """Batched :meth:`path_length` over the pairs ``zip(avs, bvs)``
        (``None`` per disconnected pair)."""
        index = self._index()
        ia, ib = self._pair_indices(avs, bvs)
        li = index.lca_indices_batch(ia, ib)
        level = self.tree.as_arrays()["level"]
        out = (level[ia] + level[ib] - 2 * level[li]).tolist()
        for i in np.flatnonzero(li == self._vr_idx).tolist():
            out[i] = None
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"TreeSnapshot(version={self.version}, n={len(self.tree)})"
