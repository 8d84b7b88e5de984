"""Update vocabulary.

The paper's extended update model (Section 1.2): an update is the insertion or
deletion of an edge, or the insertion or deletion of a vertex — where an
inserted vertex may arrive together with an arbitrary set of incident edges.
These small dataclasses are the common currency between the workload
generators, the reduction algorithm and the dynamic-DFS drivers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, List, Tuple, Union

Vertex = Hashable


@dataclass(frozen=True)
class EdgeInsertion:
    """Insert the edge ``(u, v)``; both endpoints must already exist."""

    u: Vertex
    v: Vertex

    def endpoints(self) -> Tuple[Vertex, Vertex]:
        return (self.u, self.v)

    def describe(self) -> str:
        return f"insert edge ({self.u!r}, {self.v!r})"


@dataclass(frozen=True)
class EdgeDeletion:
    """Delete the existing edge ``(u, v)``."""

    u: Vertex
    v: Vertex

    def endpoints(self) -> Tuple[Vertex, Vertex]:
        return (self.u, self.v)

    def describe(self) -> str:
        return f"delete edge ({self.u!r}, {self.v!r})"


@dataclass(frozen=True)
class VertexInsertion:
    """Insert vertex *v* together with edges to every vertex in *neighbors*."""

    v: Vertex
    neighbors: Tuple[Vertex, ...] = field(default_factory=tuple)

    def __init__(self, v: Vertex, neighbors: Union[Tuple[Vertex, ...], List[Vertex]] = ()) -> None:
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "neighbors", tuple(neighbors))

    def describe(self) -> str:
        return f"insert vertex {self.v!r} with {len(self.neighbors)} edges"


@dataclass(frozen=True)
class VertexDeletion:
    """Delete vertex *v* and all of its incident edges."""

    v: Vertex

    def describe(self) -> str:
        return f"delete vertex {self.v!r}"


Update = Union[EdgeInsertion, EdgeDeletion, VertexInsertion, VertexDeletion]


def inverse(update: Update) -> Update:
    """The update that undoes *update*.

    Vertex deletion cannot be inverted without knowing the deleted adjacency;
    callers that need invertibility should capture it first (the workload
    generators do).
    """
    if isinstance(update, EdgeInsertion):
        return EdgeDeletion(update.u, update.v)
    if isinstance(update, EdgeDeletion):
        return EdgeInsertion(update.u, update.v)
    if isinstance(update, VertexInsertion):
        return VertexDeletion(update.v)
    raise ValueError("vertex deletions are not invertible without the lost adjacency")
