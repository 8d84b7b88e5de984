"""repro — reproduction of "Near Optimal Parallel Algorithms for Dynamic DFS in
Undirected Graphs" (Shahbaz Khan, SPAA 2017).

Public API highlights
---------------------

* :class:`repro.graph.UndirectedGraph` — dynamic undirected graph store.
* :class:`repro.core.FullyDynamicDFS` — maintain a DFS forest under arbitrary
  edge/vertex updates (Theorem 13).
* :class:`repro.core.FaultTolerantDFS` — preprocess once, answer DFS trees for
  arbitrary batches of updates without rebuilding (Theorem 14).
* :class:`repro.streaming.SemiStreamingDynamicDFS` — the same algorithm in the
  semi-streaming model, metering passes (Theorem 15).
* :class:`repro.distributed.DistributedDynamicDFS` — the same algorithm in the
  synchronous CONGEST(n/D) model, metering rounds and messages (Theorem 16).
* :mod:`repro.pram` — the EREW PRAM cost-model substrate (Theorems 4–8).
* :class:`repro.service.DFSTreeService` — MVCC snapshot query service: every
  commit publishes a versioned immutable :class:`repro.service.TreeSnapshot`
  readers query lock-free (batched/async via
  :class:`repro.service.BatchingQueryFront`).

See docs/architecture.md for the module map and docs/benchmarks.md for the
experiment index mapping every theorem/figure to a benchmark.
"""

from repro._version import __version__
from repro.constants import VIRTUAL_ROOT, is_virtual_root
from repro.graph.graph import UndirectedGraph
from repro.graph.traversal import static_dfs_forest, static_dfs_tree
from repro.graph.validation import is_valid_dfs_forest, is_valid_dfs_tree
from repro.tree.dfs_tree import DFSTree
from repro.core.dynamic_dfs import FullyDynamicDFS
from repro.core.fault_tolerant import FaultTolerantDFS
from repro.core.updates import (
    EdgeDeletion,
    EdgeInsertion,
    Update,
    VertexDeletion,
    VertexInsertion,
)
from repro.metrics.counters import MetricsRecorder
from repro.service import BatchingQueryFront, DFSTreeService, TreeSnapshot

__all__ = [
    "__version__",
    "VIRTUAL_ROOT",
    "is_virtual_root",
    "UndirectedGraph",
    "static_dfs_tree",
    "static_dfs_forest",
    "is_valid_dfs_tree",
    "is_valid_dfs_forest",
    "DFSTree",
    "FullyDynamicDFS",
    "FaultTolerantDFS",
    "Update",
    "EdgeInsertion",
    "EdgeDeletion",
    "VertexInsertion",
    "VertexDeletion",
    "MetricsRecorder",
    "DFSTreeService",
    "TreeSnapshot",
    "BatchingQueryFront",
]
