"""Exception hierarchy for the repro package.

All errors raised by the library derive from :class:`ReproError` so that callers
can catch library failures without masking programming errors elsewhere.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the library."""


class GraphError(ReproError):
    """Raised for illegal operations on the graph store."""


class VertexNotFound(GraphError):
    """Raised when an operation references a vertex that is not in the graph."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"vertex {vertex!r} is not present in the graph")
        self.vertex = vertex


class EdgeNotFound(GraphError):
    """Raised when an operation references an edge that is not in the graph."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not present in the graph")
        self.edge = (u, v)


class DuplicateVertex(GraphError):
    """Raised when inserting a vertex id that already exists."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"vertex {vertex!r} is already present in the graph")
        self.vertex = vertex


class DuplicateEdge(GraphError):
    """Raised when inserting an edge that already exists."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is already present in the graph")
        self.edge = (u, v)


class TreeError(ReproError):
    """Raised for structural problems with a (DFS) tree."""


class NotADFSTree(TreeError):
    """Raised when a tree fails the DFS-tree validity check."""


class InvariantViolation(ReproError):
    """Raised when a paper invariant fails, e.g. a leftover component of the
    parallel rerooting that is neither C1 nor C2.

    Violations are raised where they are detected, never repaired.
    """


class UpdateError(ReproError):
    """Raised for malformed dynamic updates (e.g. deleting a missing edge)."""


class StreamingError(ReproError):
    """Raised for misuse of the semi-streaming environment."""


class DistributedError(ReproError):
    """Raised for misuse of the distributed (CONGEST) simulator."""


class PRAMError(ReproError):
    """Raised by the PRAM simulator, e.g. on EREW access violations."""


class EREWViolation(PRAMError):
    """Raised when two processors access the same cell in one step (strict mode)."""

    def __init__(self, cell: object, kind: str) -> None:
        super().__init__(f"EREW violation: concurrent {kind} on cell {cell!r}")
        self.cell = cell
        self.kind = kind
