"""The parallel rerooting engine (Section 4, Theorems 3 and 12).

The engine maintains the set of *active components* of the unvisited graph and
repeatedly performs one traversal step on every active component.  Inside a
round, the query batches requested by different components are merged and
submitted together, because components of the unvisited graph are vertex
disjoint and non-adjacent — exactly the "set of independent queries" the paper
feeds to the data structure ``D`` in one parallel round / one streaming pass /
one CONGEST broadcast.

Metered quantities (per ``reroot_many`` call):

* ``traversal_rounds`` — outer rounds (each active component advances by one
  traversal);
* ``query_rounds`` — merged query batches submitted to the service (the
  quantity bounded by ``O(log^2 n)`` in Theorem 3);
* ``queries`` / ``queries_per_round`` — total and peak batch width.

A component that is neither C1 nor C2 raises
:class:`~repro.exceptions.InvariantViolation` inside the traversal that
detects it (see :mod:`repro.core.traversals`); nothing is repaired here.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.components import Component, component_from_subtree
from repro.core.queries import EdgeQuery, QueryService
from repro.core.reduction import RerootTask
from repro.core.traversals import StepResult, TraversalPlanner
from repro.exceptions import InvariantViolation
from repro.metrics.counters import MetricsRecorder
from repro.tree.dfs_tree import DFSTree

Vertex = Hashable
ParentAssignment = Dict[Vertex, Vertex]


class ParallelRerootEngine:
    """Reroots disjoint subtrees of a DFS tree in phased parallel rounds.

    Parameters
    ----------
    tree:
        The current DFS tree ``T`` (base tree of all pieces).
    service:
        The :class:`~repro.core.queries.QueryService` answering edge queries
        (``D``, a streaming pass, or a CONGEST broadcast).
    enable_path_halving:
        Ablation switch, see benchmark E8.
    """

    def __init__(
        self,
        tree: DFSTree,
        service: QueryService,
        *,
        metrics: Optional[MetricsRecorder] = None,
        enable_path_halving: bool = True,
    ) -> None:
        self.tree = tree
        self.service = service
        self.metrics = metrics or MetricsRecorder("parallel_reroot")
        self.planner = TraversalPlanner(
            tree, metrics=self.metrics, enable_path_halving=enable_path_halving
        )

    # ------------------------------------------------------------------ #
    def reroot(self, task: RerootTask) -> ParentAssignment:
        """Reroot a single subtree (Theorem 3)."""
        return self.reroot_many([task])

    def reroot_many(self, tasks: Sequence[RerootTask]) -> ParentAssignment:
        """Reroot all *tasks* (disjoint subtrees) and return the new parents of
        every vertex they cover."""
        result: ParentAssignment = {}
        active: List[Component] = []
        for t in tasks:
            comp = component_from_subtree(self.tree, t.subtree_root, t.new_root, t.attach)
            active.append(comp)
        if not active:
            return result

        round_guard = 8 * sum(c.size(self.tree) for c in active) + 64

        rounds = 0
        while active:
            rounds += 1
            self.metrics.inc("traversal_rounds")
            self.metrics.observe_max("active_components", len(active))
            if rounds > round_guard:
                raise InvariantViolation("parallel rerooting did not terminate")

            finished: List[Tuple[Component, StepResult]] = []
            runners: List[List[object]] = []
            for comp in active:
                gen = self.planner.step(comp)
                try:
                    batch = next(gen)
                    runners.append([comp, gen, batch])
                except StopIteration as stop:
                    finished.append((comp, stop.value))

            # Lock-step sub-rounds: merge the current batch of every runner into
            # one independent batch for the service.
            while runners:
                merged: List[EdgeQuery] = []
                slices: List[Tuple[int, int]] = []
                for entry in runners:
                    batch = entry[2]  # type: ignore[index]
                    slices.append((len(merged), len(merged) + len(batch)))
                    merged.extend(batch)  # type: ignore[arg-type]
                if merged:
                    self.metrics.inc("query_rounds")
                    self.metrics.observe_max("queries_per_round", len(merged))
                    answers = self.service.answer_batch(merged)
                else:
                    answers = []
                next_runners: List[List[object]] = []
                for entry, (lo, hi) in zip(runners, slices):
                    comp, gen, _batch = entry
                    try:
                        new_batch = gen.send(list(answers[lo:hi]))
                        next_runners.append([comp, gen, new_batch])
                    except StopIteration as stop:
                        finished.append((comp, stop.value))  # type: ignore[arg-type]
                runners = next_runners

            active = self._integrate(finished, result)
        return result

    # ------------------------------------------------------------------ #
    def _integrate(
        self,
        finished: List[Tuple[Component, StepResult]],
        result: ParentAssignment,
    ) -> List[Component]:
        """Write the traversed paths into the result and collect new components."""
        next_active: List[Component] = []
        for comp, step in finished:
            prev = comp.attach
            for v in step.pstar:
                result[v] = prev
                prev = v
            self.metrics.inc("vertices_added", len(step.pstar))
            next_active.extend(step.new_components)
        return next_active
