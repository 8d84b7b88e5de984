"""Sequential rerooting (the Baswana et al. style baseline, Section 1.4 / [6]).

Rerooting ``T(r0)`` at ``r*`` walks the tree path from ``r*`` up to ``r0``,
hangs it in the new tree, and recurses on every subtree hanging from that path,
attaching each one through its *lowest* edge to the path (components property).
The procedure is simple and produces the same kind of output as the parallel
engine, but its recursion chain can be ``Θ(n)`` long: a subtree hanging from
the path may contain almost the whole tree, and its own rerooting must finish
before its children components are known.

For a fair comparison the baseline is given the benefit of batching: all
subtrees discovered at the same recursion depth are queried together in one
batch, so its ``query_rounds`` equals its dependency-chain depth — the quantity
the parallel algorithm improves from ``Θ(n)`` to ``O(log^2 n)`` (benchmark E1).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.queries import EdgeQuery, QueryService
from repro.core.reduction import RerootTask
from repro.exceptions import InvariantViolation
from repro.metrics.counters import MetricsRecorder
from repro.tree.dfs_tree import DFSTree
from repro.tree.tree_utils import hanging_subtrees

Vertex = Hashable
ParentAssignment = Dict[Vertex, Vertex]


class SequentialRerootEngine:
    """Baseline rerooting engine with a potentially linear dependency chain."""

    def __init__(
        self,
        tree: DFSTree,
        service: QueryService,
        *,
        metrics: Optional[MetricsRecorder] = None,
    ) -> None:
        self.tree = tree
        self.service = service
        self.metrics = metrics or MetricsRecorder("sequential_reroot")

    def reroot_many(self, tasks: Sequence[RerootTask]) -> ParentAssignment:
        """Reroot all *tasks* (disjoint subtrees of the base tree)."""
        tree = self.tree
        result: ParentAssignment = {}
        # Each level entry: (subtree_root, new_root, attach).
        level: List[Tuple[Vertex, Vertex, Vertex]] = [
            (t.subtree_root, t.new_root, t.attach) for t in tasks
        ]
        guard = 4 * sum(tree.subtree_size(t.subtree_root) for t in tasks) + 64
        depth = 0

        while level:
            depth += 1
            if depth > guard:
                raise InvariantViolation("sequential rerooting did not terminate")
            self.metrics.inc("sequential_reroot_steps", len(level))

            # 1. Carve the root path of every job at this depth.
            pending: List[Tuple[Vertex, Tuple[Vertex, ...]]] = []  # (hanging root, its path)
            batch: List[EdgeQuery] = []
            for subtree_root, new_root, attach in level:
                path = tree.ancestor_path(new_root, subtree_root)  # new_root ... subtree_root
                prev = attach
                for v in path:
                    result[v] = prev
                    prev = v
                self.metrics.inc("vertices_added", len(path))
                target = tuple(path)
                for w in hanging_subtrees(tree, path):
                    pending.append((w, target))
                    batch.append(EdgeQuery.from_tree(w, target, prefer_last=True))

            # 2. One query batch for every subtree hanging at this depth.
            next_level: List[Tuple[Vertex, Vertex, Vertex]] = []
            if batch:
                self.metrics.inc("query_rounds")
                answers = self.service.answer_batch(batch)
                for (w, _target), ans in zip(pending, answers):
                    if ans is None:
                        # Impossible for a connected subtree: the tree edge from
                        # w to its parent on the path always exists.
                        raise InvariantViolation(
                            f"hanging subtree T({w!r}) has no edge to the rerooted path"
                        )
                    x, y = ans
                    next_level.append((w, x, y))
            level = next_level

        self.metrics.observe_max("sequential_chain_depth", depth)
        return result
