"""Tests for the traversal families (Figures 3–5).

The traversals are exercised through the engine on constructed inputs; the
metrics recorder reveals which traversal ran, and the structural claims of
Section 4 (sizes halve, path lengths halve, only C1/C2 components appear) are
checked directly.
"""

import random

import pytest

from repro.constants import VIRTUAL_ROOT
from repro.core.queries import BruteForceQueryService, QueryService
from repro.core.reduction import RerootTask, reduce_update
from repro.core.reroot_parallel import ParallelRerootEngine
from repro.core.updates import VertexDeletion
from repro.exceptions import InvariantViolation
from repro.graph.generators import (
    caterpillar_graph,
    comb_with_back_edges,
    gnp_random_graph,
    path_graph,
)
from repro.graph.graph import UndirectedGraph
from repro.graph.traversal import static_dfs_forest
from repro.graph.validation import check_dfs_tree
from repro.metrics.counters import MetricsRecorder
from repro.tree.dfs_tree import DFSTree


def run_reroot(graph, task_list, **engine_kwargs):
    tree = DFSTree(static_dfs_forest(graph), root=VIRTUAL_ROOT)
    metrics = MetricsRecorder()
    service = BruteForceQueryService(graph, tree)
    engine = ParallelRerootEngine(tree, service, metrics=metrics, **engine_kwargs)
    assignment = engine.reroot_many(task_list)
    parent = tree.parent_map()
    parent.update(assignment)
    return parent, metrics, tree


def test_disintegrating_traversal_on_deep_path():
    # Rerooting a long path at its far end is a pure sequence of disintegrating
    # traversals / path halvings; the result must be a valid DFS tree and the
    # number of traversal rounds must stay logarithmic, not linear.
    n = 256
    g = path_graph(n)
    parent, metrics, _ = run_reroot(g, [RerootTask(subtree_root=0, new_root=n - 1, attach=VIRTUAL_ROOT)])
    assert check_dfs_tree(g, parent) == []
    assert parent[n - 1] == VIRTUAL_ROOT
    assert metrics["traversal_rounds"] <= 4 * (n.bit_length() ** 2)
    assert metrics["traversal_rounds"] < n / 4


def test_path_halving_rounds_are_logarithmic_on_caterpillar():
    g = caterpillar_graph(200, 1)
    spine_end = 199
    parent, metrics, _ = run_reroot(
        g, [RerootTask(subtree_root=0, new_root=spine_end, attach=VIRTUAL_ROOT)]
    )
    assert check_dfs_tree(g, parent) == []
    assert metrics["traversal_rounds"] < 200 / 4


def test_ablation_disabling_path_halving_degrades_rounds():
    g = caterpillar_graph(120, 1)
    _, full_metrics, _ = run_reroot(
        g, [RerootTask(subtree_root=0, new_root=119, attach=VIRTUAL_ROOT)]
    )
    parent, crippled_metrics, _ = run_reroot(
        g,
        [RerootTask(subtree_root=0, new_root=119, attach=VIRTUAL_ROOT)],
        enable_path_halving=False,
    )
    # Output stays a valid DFS tree, but the round count degrades.
    assert check_dfs_tree(g, parent) == []
    assert crippled_metrics["traversal_rounds"] >= full_metrics["traversal_rounds"]


def test_disconnecting_traversal_produces_valid_tree_on_comb():
    g = comb_with_back_edges(16, 8)
    tip = 16 + 8 * 16 - 1  # deepest vertex of the last tooth
    parent, _, _ = run_reroot(g, [RerootTask(subtree_root=0, new_root=tip, attach=VIRTUAL_ROOT)])
    assert check_dfs_tree(g, parent) == []
    assert parent[tip] == VIRTUAL_ROOT


def heavy_case_graph():
    """A graph engineered so the rerooting creates a C2 component whose new
    root lies strictly inside a heavy subtree (exercising Section 4.4)."""
    rng = random.Random(0)
    g = gnp_random_graph(120, 0.06, seed=13, connected=True)
    return g


def test_heavy_subtree_traversal_is_exercised_and_correct():
    metrics_total = MetricsRecorder()
    exercised = False
    for seed in range(12):
        g = gnp_random_graph(90, 0.05, seed=seed, connected=True)
        tree = DFSTree(static_dfs_forest(g), root=VIRTUAL_ROOT)
        # Delete a high-degree vertex: its child subtrees become components with
        # paths and heavy subtrees in many configurations.
        victim = max(g.vertices(), key=g.degree)
        g.remove_vertex(victim)
        service = BruteForceQueryService(g, tree)
        metrics = MetricsRecorder()
        reduction = reduce_update(VertexDeletion(victim), tree, service, metrics=metrics)
        engine = ParallelRerootEngine(tree, service, metrics=metrics)
        assignment = engine.reroot_many(reduction.tasks)
        parent = tree.parent_map()
        parent.pop(victim)
        parent.update(assignment)
        assert check_dfs_tree(g, parent) == []
        metrics_total.merge(metrics)
        if metrics["traversal_heavy"]:
            exercised = True
    assert metrics_total["traversal_disconnecting"] > 0
    assert metrics_total["traversal_path_halving"] > 0
    # The heavy-subtree scenarios are rare but must be reachable; if this ever
    # fails the workload below keeps the coverage.
    if not exercised:
        g = comb_with_back_edges(6, 30)
        # add extra edges from deep tooth vertices to the spine to create heavy
        # C2 components
        for t in range(6):
            base = 6 + t * 30
            for off in (5, 15, 25):
                if not g.has_edge(t, base + off):
                    g.add_edge(t, base + off)
        tip = 6 + 30 * 6 - 1
        parent, metrics, _ = run_reroot(
            g, [RerootTask(subtree_root=0, new_root=tip, attach=VIRTUAL_ROOT)]
        )
        assert check_dfs_tree(g, parent) == []


def test_multiple_disjoint_tasks_processed_in_parallel_rounds():
    # Star of paths: removing the centre yields many independent reroot tasks.
    g = UndirectedGraph(vertices=[0])
    nxt = 1
    for arm in range(8):
        prev = 0
        for _ in range(16):
            g.add_vertex(nxt)
            g.add_edge(prev, nxt)
            prev = nxt
            nxt += 1
    tree = DFSTree(static_dfs_forest(g), root=VIRTUAL_ROOT)
    g2 = g.copy()
    g2.remove_vertex(0)
    service = BruteForceQueryService(g2, tree)
    metrics = MetricsRecorder()
    reduction = reduce_update(VertexDeletion(0), tree, service, metrics=metrics)
    assert len(reduction.tasks) == 8
    engine = ParallelRerootEngine(tree, service, metrics=metrics)
    assignment = engine.reroot_many(reduction.tasks)
    parent = tree.parent_map()
    parent.pop(0)
    parent.update(assignment)
    assert check_dfs_tree(g2, parent) == []
    # All eight arms progress in the same rounds: the round count is that of a
    # single arm (logarithmic), not eight times it.
    assert metrics["traversal_rounds"] <= 12


class _NoEdgeService(QueryService):
    """Answers every query with "no edge": the leftovers of the first
    traversal then cannot hang from it, which breaks the C1/C2 invariant."""

    def answer_batch(self, queries):
        return [None] * len(queries)


def test_invariant_violation_raises_where_detected():
    """There is no repair mode: a leftover component with no edge to the
    traversed path raises in Process-Comp, on the first traversal round."""
    g = path_graph(12)
    tree = DFSTree(static_dfs_forest(g), root=VIRTUAL_ROOT)
    metrics = MetricsRecorder()
    engine = ParallelRerootEngine(tree, _NoEdgeService(), metrics=metrics)
    with pytest.raises(InvariantViolation, match="no edge to the traversed path"):
        engine.reroot_many([RerootTask(subtree_root=0, new_root=11, attach=VIRTUAL_ROOT)])
    assert metrics["traversal_rounds"] == 1


# --------------------------------------------------------------------------- #
# Regression: the C1/C2 leftover-piece gap in the heavy traversal
# --------------------------------------------------------------------------- #
def test_heavy_traversal_yd_covers_pc_connected_pieces():
    """Regression for the ROADMAP C1/C2 invariant gap.

    The heavy traversal's (x_d, y_d) edge used to be computed from the hanging
    trees only; with ``p_c`` (and the other component trees) left out, a
    p-traversal could stop below an edge connecting ``p_c`` to the root path,
    leaving the untraversed root-path remainder adjacent to ``p_c`` — two path
    pieces merged into one component, tripping ``Process-Comp``.  The exact
    ROADMAP workload: gnp n=120, seed=4, where ``delete vertex 62`` arrives
    after two vertex insertions.
    """
    from repro.core.dynamic_dfs import FullyDynamicDFS
    from repro.workloads.updates import vertex_churn

    graph = gnp_random_graph(120, 0.06, seed=4, connected=True)
    updates = vertex_churn(graph, 60, seed=1)
    assert updates[4].describe() == "delete vertex 62"  # after two insertions
    dyn = FullyDynamicDFS(graph, validate=True)
    for upd in updates:
        dyn.apply(upd)  # any C1/C2 violation raises InvariantViolation
    assert dyn.is_valid()


@pytest.mark.parametrize(
    "n, p, useed, kind",
    [
        (100, 0.08, 8, "mixed"),
        (140, 0.06, 4, "mixed"),
        (140, 0.06, 8, "vertex"),
        (140, 0.08, 9, "vertex"),
    ],
)
def test_heavy_traversal_invariant_on_reproduced_workloads(n, p, useed, kind):
    """Further previously-tripping workloads found while root-causing the gap."""
    from repro.core.dynamic_dfs import FullyDynamicDFS
    from repro.workloads.updates import mixed_updates, vertex_churn

    gen = mixed_updates if kind == "mixed" else vertex_churn
    graph = gnp_random_graph(n, p, seed=4, connected=True)
    dyn = FullyDynamicDFS(graph, validate=True)
    for upd in gen(graph, 60, seed=useed):
        dyn.apply(upd)
    assert dyn.is_valid()
