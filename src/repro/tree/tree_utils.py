"""Path and subtree utilities on :class:`~repro.tree.dfs_tree.DFSTree`.

These helpers implement the "operations on T" of Section 5.3 of the paper:
finding subtrees hanging from a path, locating the minimal heavy subtree
``T(v_H)``, and decomposing an arbitrary path of the *new* tree into
ancestor–descendant segments of the *old* tree (needed both for
``Process-Comp`` and for the fault-tolerant extension of the data structure
``D``).
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Sequence, Tuple

from repro.exceptions import TreeError, VertexNotFound
from repro.tree.dfs_tree import DFSTree

Vertex = Hashable


def hanging_subtrees(tree: DFSTree, path_vertices: Iterable[Vertex]) -> List[Vertex]:
    """Roots of the subtrees hanging from *path_vertices*.

    A subtree ``T(w)`` *hangs* from a path ``p`` when ``parent(w) ∈ p`` and
    ``w ∉ p`` (Section 2 of the paper).  Roots are returned in path order, then
    child order.  *path_vertices* is read once, so any iterable works.
    """
    path = path_vertices if isinstance(path_vertices, (list, tuple)) else list(path_vertices)
    on_path = set(path)
    return [c for v in path for c in tree.children(v) if c not in on_path]


def heavy_vertex(tree: DFSTree, subtree_root: Vertex, threshold: int) -> Vertex:
    """The vertex ``v_H``: the *smallest* subtree of ``T(subtree_root)`` with
    more than *threshold* vertices.

    ``T(subtree_root)`` itself must exceed *threshold* (else
    :class:`TreeError`), and must have at most ``2 * threshold + 1`` vertices,
    as the planner's ``threshold = ⌊H/2⌋`` guarantees for a piece no larger
    than the heaviest, ``H``.  Then no two children of a vertex both exceed
    *threshold* (with their parent they would count ``2 * threshold + 3``), so
    heavy vertices form a single downward chain; ``v_H`` is its deepest
    vertex.
    """
    if tree.subtree_size(subtree_root) <= threshold:
        raise TreeError(
            f"subtree at {subtree_root!r} has size {tree.subtree_size(subtree_root)}"
            f" <= threshold {threshold}"
        )
    v = subtree_root
    while True:
        heavy_children = [c for c in tree.children(v) if tree.subtree_size(c) > threshold]
        if not heavy_children:
            return v
        v = heavy_children[0]


def ancestor_descendant_segments(
    tree: DFSTree, vertices: Sequence[Vertex]
) -> List[List[Vertex]]:
    """Split an ordered vertex sequence into maximal ancestor–descendant runs.

    The rerooting algorithm adds paths to the new tree ``T*`` that are unions of
    a constant number of ancestor–descendant paths of the old tree ``T``, glued
    by back edges (e.g. ``path(r_c, x) ∪ (x, y) ∪ path(y, r')``).  Queries on the
    data structure ``D`` only understand ancestor–descendant paths of ``T``, so
    this helper recovers the decomposition (see :func:`vertical_runs`).
    """
    try:
        index = [tree._idx[v] for v in vertices]
    except KeyError as exc:
        raise VertexNotFound(exc.args[0]) from None
    return [list(vertices[start:stop]) for start, stop in vertical_runs(tree, index)]


def vertical_runs(tree: DFSTree, index: Sequence[int]) -> List[Tuple[int, int]]:
    """The maximal ancestor–descendant runs of a sequence of tree indices,
    as ``(start, stop)`` slices of *index*.

    A run ends where the next vertex is not a tree neighbour of the current
    one or the vertical direction flips; the test reads the tree's parent
    index list.
    """
    parent = tree._parent_idx
    runs: List[Tuple[int, int]] = []
    start = 0
    direction = 0
    for i in range(1, len(index)):
        a, b = index[i - 1], index[i]
        step = 1 if parent[b] == a else -1 if parent[a] == b else 0
        if step == 0 or (direction != 0 and step != direction):
            runs.append((start, i))
            start = i
            direction = 0
        else:
            direction = step
    if index:
        runs.append((start, len(index)))
    return runs


def run_orientation(tree: DFSTree, first: int, last: int) -> Tuple[int, int]:
    """``(top, bottom)``, as tree indices, of the vertical run whose end
    vertices have the tree indices *first* and *last*."""
    return (first, last) if tree._level[first] <= tree._level[last] else (last, first)
