"""Core of the reproduction: the data structure ``D``, the reduction from graph
updates to subtree rerooting, the sequential and parallel rerooting engines, and
the fully-dynamic / fault-tolerant DFS drivers."""

from repro.core.structure_d import StructureD
from repro.core.queries import (
    BruteForceQueryService,
    DQueryService,
    EdgeQuery,
    QueryService,
)
from repro.core.components import Component, PathPiece, TreePiece
from repro.core.overlay import apply_update, validate_update
from repro.core.reduction import RerootTask, reduce_update
from repro.core.updates import (
    EdgeDeletion,
    EdgeInsertion,
    Update,
    VertexDeletion,
    VertexInsertion,
)
from repro.core.reroot_sequential import SequentialRerootEngine
from repro.core.reroot_parallel import ParallelRerootEngine
from repro.core.engine import Backend, EngineDriver, UpdateEngine
from repro.core.dynamic_dfs import FullyDynamicDFS
from repro.core.fault_tolerant import FaultTolerantDFS

__all__ = [
    "StructureD",
    "QueryService",
    "DQueryService",
    "BruteForceQueryService",
    "EdgeQuery",
    "Component",
    "TreePiece",
    "PathPiece",
    "RerootTask",
    "reduce_update",
    "apply_update",
    "validate_update",
    "Update",
    "EdgeInsertion",
    "EdgeDeletion",
    "VertexInsertion",
    "VertexDeletion",
    "SequentialRerootEngine",
    "ParallelRerootEngine",
    "Backend",
    "EngineDriver",
    "UpdateEngine",
    "FullyDynamicDFS",
    "FaultTolerantDFS",
]
