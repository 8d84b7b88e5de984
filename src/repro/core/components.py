"""Components of the unvisited graph (Section 4 invariant).

During rerooting, the paper maintains that every connected component ``c`` of
the *unvisited* graph is of one of two types:

* **C1** — a single subtree ``τ_c`` of the base DFS tree ``T``;
* **C2** — a single ancestor–descendant path ``p_c`` of ``T`` plus a set
  ``T_c`` of subtrees of ``T``, each having at least one edge to ``p_c``.

Both piece shapes are cheap to describe against the (immutable) base tree: a
subtree piece is just its root, a path piece an ordered vertex list.  The
traversal routines carve paths out of these pieces and re-assemble the
leftovers into new components via ``Process-Comp``.

The classes below also carry the bookkeeping the engine needs: the component's
designated root ``r_c`` (where the DFS of the component will start), the vertex
of ``T*`` it will hang from, and its phase/stage counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import InvariantViolation
from repro.tree.dfs_tree import DFSTree

Vertex = Hashable


@dataclass(frozen=True)
class TreePiece:
    """A full subtree ``T(root)`` of the base tree, entirely unvisited."""

    root: Vertex

    def vertices(self, tree: DFSTree) -> List[Vertex]:
        """All vertices of the piece (preorder)."""
        return tree.subtree_vertices(self.root)

    def size(self, tree: DFSTree) -> int:
        """Number of vertices in the piece."""
        return tree.subtree_size(self.root)

    def contains(self, tree: DFSTree, v: Vertex) -> bool:
        """True iff *v* belongs to the piece."""
        return v in tree and tree.is_ancestor(self.root, v)

    def describe(self) -> str:
        return f"T({self.root!r})"


@dataclass(frozen=True)
class PathPiece:
    """An ancestor–descendant path of the base tree, entirely unvisited.

    ``vertices`` are stored in path order; orientation (which end is the tree
    ancestor) is irrelevant to the component invariant and is recovered from
    the base tree when needed.
    """

    vertices: Tuple[Vertex, ...]

    def __init__(self, vertices: Sequence[Vertex]) -> None:
        object.__setattr__(self, "vertices", tuple(vertices))
        if not self.vertices:
            raise InvariantViolation("a path piece cannot be empty")

    def __len__(self) -> int:
        return len(self.vertices)

    def size(self, tree: DFSTree) -> int:  # noqa: ARG002 - uniform piece API
        """Number of vertices on the path."""
        return len(self.vertices)

    def contains(self, tree: DFSTree, v: Vertex) -> bool:  # noqa: ARG002
        """True iff *v* lies on the path."""
        return v in self.vertices

    def endpoints(self) -> Tuple[Vertex, Vertex]:
        """The two endpoints of the path."""
        return self.vertices[0], self.vertices[-1]

    def top_bottom(self, tree: DFSTree) -> Tuple[Vertex, Vertex]:
        """Endpoints ordered as (ancestor end, descendant end) in the base tree."""
        a, b = self.vertices[0], self.vertices[-1]
        known_a = a in tree
        known_b = b in tree
        if known_a and known_b and tree.level(a) > tree.level(b):
            return b, a
        return a, b

    def describe(self) -> str:
        a, b = self.endpoints()
        return f"path({a!r}..{b!r}, len={len(self.vertices)})"


@dataclass
class Component:
    """A connected component of the unvisited graph with its traversal state.

    Attributes
    ----------
    trees:
        The subtree pieces of the component.
    path:
        The path piece (``None`` for a type-C1 component).
    rc:
        The vertex the component's DFS will start from (its future root).
    attach:
        The vertex of the partially built tree ``T*`` that ``rc`` will hang
        from (``None`` only for the initial rerooting task whose root hangs
        from a vertex outside the rerooted subtree, supplied by the caller).
    phase / stage:
        The phase and stage counters of Section 4 (bookkeeping for metrics and
        for the dispatch thresholds).
    """

    trees: List[TreePiece] = field(default_factory=list)
    path: Optional[PathPiece] = None
    rc: Optional[Vertex] = None
    attach: Optional[Vertex] = None
    phase: int = 1
    stage: int = 1

    # ------------------------------------------------------------------ #
    # Typing / sizes
    # ------------------------------------------------------------------ #
    @property
    def kind(self) -> str:
        """``"C1"`` (no path) or ``"C2"`` (a path plus its subtrees)."""
        return "C1" if self.path is None else "C2"

    def pieces(self) -> List[object]:
        """All pieces of the component (path pieces first)."""
        out: List[object] = []
        if self.path is not None:
            out.append(self.path)
        out.extend(self.trees)
        return out

    def vertices(self, tree: DFSTree) -> List[Vertex]:
        """All vertices of the component."""
        out: List[Vertex] = []
        if self.path is not None:
            out.extend(self.path.vertices)
        for t in self.trees:
            out.extend(t.vertices(tree))
        return out

    def size(self, tree: DFSTree) -> int:
        """Number of vertices in the component."""
        total = sum(t.size(tree) for t in self.trees)
        if self.path is not None:
            total += len(self.path)
        return total

    def path_length(self) -> int:
        """Length (vertex count) of the component path, 0 for C1 components."""
        return 0 if self.path is None else len(self.path)

    def heaviest_tree(self, tree: DFSTree) -> Optional[TreePiece]:
        """The largest subtree piece ``τ_c`` (ties broken by first occurrence)."""
        if not self.trees:
            return None
        return max(self.trees, key=lambda t: t.size(tree))

    def heavy_trees(self, tree: DFSTree, threshold: int) -> List[TreePiece]:
        """Subtree pieces with more than *threshold* vertices (the set ``T_c``)."""
        return [t for t in self.trees if t.size(tree) > threshold]

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #
    def piece_containing(self, tree: DFSTree, v: Vertex) -> Optional[object]:
        """The piece containing *v*, or ``None``."""
        if self.path is not None and self.path.contains(tree, v):
            return self.path
        for t in self.trees:
            if t.contains(tree, v):
                return t
        return None

    def contains(self, tree: DFSTree, v: Vertex) -> bool:
        """True iff *v* belongs to the component."""
        return self.piece_containing(tree, v) is not None

    def describe(self, tree: DFSTree) -> str:
        """Compact human-readable description (used in logs and errors)."""
        parts = [p.describe() for p in self.pieces()]
        return (
            f"Component(kind={self.kind}, rc={self.rc!r}, attach={self.attach!r}, "
            f"phase={self.phase}, stage={self.stage}, size={self.size(tree)}, "
            f"pieces=[{', '.join(parts)}])"
        )


def component_from_subtree(tree: DFSTree, root: Vertex, rc: Vertex, attach: Optional[Vertex]) -> Component:
    """Build the initial C1 component for rerooting ``T(root)`` at ``rc``."""
    piece = TreePiece(root)
    if not piece.contains(tree, rc):
        raise InvariantViolation(f"new root {rc!r} does not lie in subtree T({root!r})")
    return Component(trees=[piece], path=None, rc=rc, attach=attach)


def assert_disjoint_pieces(tree: DFSTree, components: Iterable[Component]) -> None:
    """Validation helper: the pieces of all *components* must be disjoint."""
    seen: dict = {}
    for comp in components:
        for v in comp.vertices(tree):
            if v in seen:
                raise InvariantViolation(
                    f"vertex {v!r} appears in two components: {seen[v]} and {comp.describe(tree)}"
                )
            seen[v] = comp.describe(tree)
