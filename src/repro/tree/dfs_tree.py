"""The :class:`DFSTree` structure.

A :class:`DFSTree` is an immutable snapshot of a rooted spanning tree/forest
(usually a DFS tree) together with the per-vertex tree indices the paper's
algorithms rely on (Theorem 4/10): post-order number, level (depth), subtree
size and entry/exit intervals for O(1) ancestor tests.  LCA and
level-ancestor queries read the tree's one
:class:`~repro.tree.lca.ArrayLCAIndex` (Euler tour + sparse table, the
stand-in for Schieber–Vishkin in Theorems 5–6), built lazily on the first
query that needs it and shared with every
:class:`~repro.service.snapshot.TreeSnapshot` of the tree.

:meth:`DFSTree.indices` is the one vertex-id -> tree-index table for array
readers: the snapshots' batch queries and the structure ``D``
(:class:`~repro.core.structure_d.StructureD`, whose build and batched reads
find its rows through its base tree) resolve ids through it, with one gather
through a dense int table when the ids allow it.

The dynamic algorithms never mutate a :class:`DFSTree`; they produce a new
parent map and build a fresh snapshot (mirroring the paper, where the data
structures on ``T`` are rebuilt in ``O(log n)`` parallel time after an update).
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Hashable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import TreeError, VertexNotFound
from repro.tree import lca as lca_module

Vertex = Hashable
ParentMap = Mapping[Vertex, Optional[Vertex]]


class DFSTree:
    """Immutable rooted forest with O(1) structural queries.

    Parameters
    ----------
    parent:
        Mapping from every vertex to its parent; roots map to ``None``.  Several
        roots are allowed (a forest), although the dynamic-DFS driver always
        passes a single-root tree rooted at the virtual root.
    root:
        Optional explicit root.  If given, it must be a root of *parent*.

    Examples
    --------
    >>> t = DFSTree({0: None, 1: 0, 2: 1, 3: 1})
    >>> t.level(3), t.subtree_size(1), t.is_ancestor(0, 3)
    (2, 3, True)
    """

    __slots__ = (
        "_verts",
        "_idx",
        "_parent_idx",
        "_children_idx",
        "_roots_idx",
        "_tin",
        "_tout",
        "_post",
        "_level",
        "_size",
        "_arrays",
        "_lca",
        "_id_table",
    )

    def __init__(self, parent: ParentMap, *, root: Optional[Vertex] = None) -> None:
        verts: List[Vertex] = list(parent)
        idx: Dict[Vertex, int] = {v: i for i, v in enumerate(verts)}
        if len(idx) != len(verts):
            raise TreeError("duplicate vertices in parent map")
        n = len(verts)
        parent_idx: List[int] = [-1] * n
        children_idx: List[List[int]] = [[] for _ in range(n)]
        roots: List[int] = []
        for v, p in parent.items():
            vi = idx[v]
            if p is None:
                roots.append(vi)
            else:
                if p not in idx:
                    raise TreeError(f"parent {p!r} of {v!r} is not a tree vertex")
                pi = idx[p]
                parent_idx[vi] = pi
                children_idx[pi].append(vi)
        if not roots and n:
            raise TreeError("parent map has no root")
        if root is not None:
            if root not in idx:
                raise VertexNotFound(root)
            if parent_idx[idx[root]] != -1:
                raise TreeError(f"{root!r} is not a root of the parent map")
            # Put the explicit root first so preorder starts there.
            roots.remove(idx[root])
            roots.insert(0, idx[root])

        self._verts = verts
        self._idx = idx
        self._parent_idx = parent_idx
        self._children_idx = children_idx
        self._roots_idx = roots
        self._compute_indices()
        self._arrays: Optional[Dict[str, object]] = None
        self._lca = None
        self._id_table: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Index computation
    # ------------------------------------------------------------------ #
    def _compute_indices(self) -> None:
        n = len(self._verts)
        tin = [0] * n
        tout = [0] * n
        post = [0] * n
        level = [0] * n
        size = [1] * n
        clock = 0
        post_clock = 0
        visited = 0
        for r in self._roots_idx:
            # Iterative DFS over the children lists (insertion order).
            stack: List[Tuple[int, int]] = [(r, 0)]
            level[r] = 0
            while stack:
                v, ci = stack[-1]
                if ci == 0:
                    tin[v] = clock
                    clock += 1
                    visited += 1
                children = self._children_idx[v]
                if ci < len(children):
                    stack[-1] = (v, ci + 1)
                    c = children[ci]
                    level[c] = level[v] + 1
                    stack.append((c, 0))
                else:
                    tout[v] = clock
                    clock += 1
                    post[v] = post_clock
                    post_clock += 1
                    stack.pop()
                    if stack:
                        size[stack[-1][0]] += size[v]
        if visited != n:
            raise TreeError("parent map contains a cycle")
        self._tin = tin
        self._tout = tout
        self._post = post
        self._level = level
        self._size = size

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        """Number of vertices in the forest."""
        return len(self._verts)

    @property
    def root(self) -> Vertex:
        """The (first) root of the forest."""
        if not self._roots_idx:
            raise TreeError("empty tree has no root")
        return self._verts[self._roots_idx[0]]

    def roots(self) -> List[Vertex]:
        """All roots of the forest."""
        return [self._verts[r] for r in self._roots_idx]

    def __contains__(self, v: Vertex) -> bool:
        return v in self._idx

    def __len__(self) -> int:
        return len(self._verts)

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices."""
        return iter(self._verts)

    def _i(self, v: Vertex) -> int:
        try:
            return self._idx[v]
        except KeyError:
            raise VertexNotFound(v) from None

    def parent(self, v: Vertex) -> Optional[Vertex]:
        """Parent of *v* (``None`` for a root)."""
        p = self._parent_idx[self._i(v)]
        return None if p == -1 else self._verts[p]

    def children(self, v: Vertex) -> List[Vertex]:
        """Children of *v* in deterministic order."""
        return [self._verts[c] for c in self._children_idx[self._i(v)]]

    def level(self, v: Vertex) -> int:
        """Depth of *v* (roots have level 0)."""
        return self._level[self._i(v)]

    def postorder(self, v: Vertex) -> int:
        """Post-order number of *v* (0-based, increasing towards the root)."""
        return self._post[self._i(v)]

    def subtree_size(self, v: Vertex) -> int:
        """Number of vertices in ``T(v)``."""
        return self._size[self._i(v)]

    def as_arrays(self) -> Dict[str, object]:
        """Numpy views of the per-vertex indices, keyed by name (lazy, cached).

        Returns a dict with ``"vertices"`` (object array, index -> vertex id)
        and int64 arrays ``"parent"``, ``"post"``, ``"level"``, ``"size"``,
        ``"tin"``, ``"tout"``, all aligned with the tree's internal vertex
        indexing (``parent`` is ``-1`` at roots).  The snapshot is immutable,
        so the arrays are built once and shared; callers must not write to
        them.
        """
        if self._arrays is None:
            n = len(self._verts)
            verts = np.empty(n, dtype=object)
            verts[:] = self._verts
            self._arrays = {
                "vertices": verts,
                "parent": np.array(self._parent_idx, dtype=np.int64),
                "post": np.array(self._post, dtype=np.int64),
                "level": np.array(self._level, dtype=np.int64),
                "size": np.array(self._size, dtype=np.int64),
                "tin": np.array(self._tin, dtype=np.int64),
                "tout": np.array(self._tout, dtype=np.int64),
            }
        return self._arrays

    def lca_index(self) -> "lca_module.ArrayLCAIndex":
        """The tree's LCA / level-ancestor index (lazy, cached).

        Built once, through the module attribute
        ``repro.tree.lca.ArrayLCAIndex``, by the first query that needs it;
        :meth:`lca`, :meth:`level_ancestor` and the snapshots of this tree all
        read the same index.  The index holds no reference back to the tree,
        so a dropped tree is freed by reference counting alone.  Two threads
        asking first may both build; the indices are identical and the last
        one assigned is kept.
        """
        index = self._lca
        if index is None:
            index = self._lca = lca_module.ArrayLCAIndex(self)
        return index

    def indices(self, vs: Sequence[Vertex]) -> np.ndarray:
        """int64 tree indices of the vertex ids *vs*, ``-1`` for an id not in
        the tree; equal to ``[self._idx.get(v, -1) for v in vs]``.

        When every id in *vs* is an int inside the tree's dense ``id ->
        index`` table (see :func:`_dense_ids`; built on the first call and
        kept, so every reader of the tree shares it), the answer is one
        gather.  Anything else (object, float or out-of-table ids) takes one
        dict look-up per id.  Two threads calling first may both build the
        table; the tables are identical and the last one assigned is kept.
        """
        table = self._id_table
        if table is None:
            table = self._id_table = _dense_ids(self._verts, self._roots_idx)
        n = len(vs)
        if len(table):
            try:
                arr = np.asarray(vs)
            except ValueError:  # ragged ids, e.g. the virtual-root tuple among ints
                arr = None
            if arr is not None and arr.shape == (n,) and arr.dtype.kind in "iub":
                arr = arr.astype(np.int64, copy=False)
                if not n or (int(arr.min()) >= 0 and int(arr.max()) < len(table)):
                    return table[arr]
        return np.fromiter(map(self._idx.get, vs, repeat(-1)), dtype=np.int64, count=n)

    def parent_map(self) -> Dict[Vertex, Optional[Vertex]]:
        """Return a plain parent map copy of the forest."""
        out: Dict[Vertex, Optional[Vertex]] = {}
        for i, v in enumerate(self._verts):
            p = self._parent_idx[i]
            out[v] = None if p == -1 else self._verts[p]
        return out

    # ------------------------------------------------------------------ #
    # Ancestry
    # ------------------------------------------------------------------ #
    def is_ancestor(self, a: Vertex, b: Vertex) -> bool:
        """True iff *a* is an ancestor of *b* (not necessarily proper)."""
        ai, bi = self._i(a), self._i(b)
        return self._tin[ai] <= self._tin[bi] and self._tout[bi] <= self._tout[ai]

    def _is_ancestor_idx(self, ai: int, bi: int) -> bool:
        return self._tin[ai] <= self._tin[bi] and self._tout[bi] <= self._tout[ai]

    def lca(self, a: Vertex, b: Vertex) -> Vertex:
        """Lowest common ancestor of *a* and *b* (must be in the same tree)."""
        ai, bi = self._i(a), self._i(b)
        li = self._lca_idx(ai, bi)
        if li == -1:
            raise TreeError(f"{a!r} and {b!r} are in different trees of the forest")
        return self._verts[li]

    def _lca_idx(self, ai: int, bi: int) -> int:
        """Tree index of the LCA of tree indices *ai*, *bi* (``-1`` when they
        are in different trees)."""
        if self._is_ancestor_idx(ai, bi):
            return ai
        if self._is_ancestor_idx(bi, ai):
            return bi
        lo, hi = self._tin[ai], self._tin[bi]
        if lo > hi:
            lo, hi = hi, lo
        return self.lca_index().lca_at(lo, hi)

    def level_ancestor(self, v: Vertex, target_level: int) -> Vertex:
        """Ancestor of *v* at depth *target_level* (0 = root of v's tree)."""
        vi = self._i(v)
        cur_level = self._level[vi]
        if target_level > cur_level or target_level < 0:
            raise TreeError(
                f"vertex {v!r} at level {cur_level} has no ancestor at level {target_level}"
            )
        return self._verts[self.lca_index().level_ancestor_at(self._tin[vi], target_level)]

    def child_towards(self, ancestor: Vertex, descendant: Vertex) -> Vertex:
        """Child of *ancestor* on the tree path to *descendant*.

        *ancestor* must be a proper ancestor of *descendant*.
        """
        if ancestor == descendant or not self.is_ancestor(ancestor, descendant):
            raise TreeError(f"{ancestor!r} is not a proper ancestor of {descendant!r}")
        return self.level_ancestor(descendant, self.level(ancestor) + 1)

    def on_path(self, v: Vertex, a: Vertex, b: Vertex) -> bool:
        """True iff *v* lies on the tree path between *a* and *b*."""
        li = self._lca_idx(self._i(a), self._i(b))
        if li == -1:
            raise TreeError(f"{a!r} and {b!r} are in different trees")
        vi = self._i(v)
        if not self._is_ancestor_idx(li, vi):
            return False
        return self._is_ancestor_idx(vi, self._i(a)) or self._is_ancestor_idx(vi, self._i(b))

    # ------------------------------------------------------------------ #
    # Paths and subtrees
    # ------------------------------------------------------------------ #
    def ancestor_path(self, v: Vertex, top: Vertex) -> List[Vertex]:
        """Vertices on the tree path from *v* up to its ancestor *top*, inclusive."""
        if not self.is_ancestor(top, v):
            raise TreeError(f"{top!r} is not an ancestor of {v!r}")
        out = []
        vi = self._i(v)
        ti = self._i(top)
        while vi != ti:
            out.append(self._verts[vi])
            vi = self._parent_idx[vi]
        out.append(self._verts[ti])
        return out

    def path(self, a: Vertex, b: Vertex) -> List[Vertex]:
        """Vertices on the tree path from *a* to *b* (both inclusive)."""
        l = self.lca(a, b)
        up_part = self.ancestor_path(a, l)
        down_part = self.ancestor_path(b, l)
        down_part.pop()  # drop the LCA, already in up_part
        return up_part + list(reversed(down_part))

    def path_length(self, a: Vertex, b: Vertex) -> int:
        """Number of edges on the tree path from *a* to *b*."""
        l = self.lca(a, b)
        return self.level(a) + self.level(b) - 2 * self.level(l)

    def subtree_vertices(self, v: Vertex) -> List[Vertex]:
        """All vertices of ``T(v)`` in preorder."""
        out: List[Vertex] = []
        stack = [self._i(v)]
        while stack:
            x = stack.pop()
            out.append(self._verts[x])
            stack.extend(reversed(self._children_idx[x]))
        return out

    def preorder(self) -> List[Vertex]:
        """All vertices of the forest in preorder (root first)."""
        out: List[Vertex] = []
        for r in self._roots_idx:
            stack = [r]
            while stack:
                x = stack.pop()
                out.append(self._verts[x])
                stack.extend(reversed(self._children_idx[x]))
        return out

    def postorder_sequence(self) -> List[Vertex]:
        """All vertices sorted by post-order number."""
        order = sorted(range(len(self._verts)), key=lambda i: self._post[i])
        return [self._verts[i] for i in order]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"DFSTree(n={len(self._verts)}, roots={self.roots()!r})"


def _dense_ids(verts: List[Vertex], roots: List[int]) -> np.ndarray:
    """Dense ``int id -> tree index`` table for :meth:`DFSTree.indices`
    (``-1`` where no vertex has the id).

    Empty, so that every look-up takes the dict path, unless every vertex id
    is an int (a non-int first root, such as the virtual root, is masked
    out), the ids fit int64, and the non-negative ones fit a table of at most
    ``8 n + 64`` entries.  Negative ids stay out of the table, so a negative
    query id takes the dict path too.  Bools are ints here (``hash(True) ==
    hash(1)``); floats and other objects must not truncate into the table.
    """
    empty = np.empty(0, dtype=np.int64)
    n = len(verts)
    if not n:
        return empty
    ids = verts
    if not isinstance(verts[roots[0]], int):
        ids = list(verts)
        ids[roots[0]] = -1
    if not all(isinstance(v, int) for v in ids):
        return empty
    try:
        arr = np.array(ids, dtype=np.int64)
    except OverflowError:  # an id beyond int64
        return empty
    mask = arr >= 0
    if not bool(mask.any()):
        return empty
    pos = arr[mask]
    top = int(pos.max())
    if top > 8 * n + 64:
        return empty
    table = np.full(top + 1, -1, dtype=np.int64)
    table[pos] = np.flatnonzero(mask)
    return table
