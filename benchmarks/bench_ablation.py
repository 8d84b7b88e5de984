"""E8 — ablation of path halving (Section 4.2 design choice).

Documented in ``docs/benchmarks.md`` (E8).

Path halving is what keeps the number of rounds poly-logarithmic on long
paths: when the component root lies on the component path, the traversal
walks to the *farther* endpoint, so the leftover path at least halves.
Disabling it (``enable_path_halving=False`` walks to the nearer endpoint
instead) makes the leftover path shrink by O(1) per round.  The harness
reroots caterpillars of growing spine length both ways; the output stays a
valid DFS tree, and the full engine must need fewer rounds.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import record_table, scale_sizes
from repro.constants import VIRTUAL_ROOT
from repro.core.queries import BruteForceQueryService
from repro.core.reduction import RerootTask
from repro.core.reroot_parallel import ParallelRerootEngine
from repro.graph.generators import caterpillar_graph
from repro.graph.traversal import static_dfs_forest
from repro.graph.validation import check_dfs_tree
from repro.metrics.counters import MetricsRecorder
from repro.tree.dfs_tree import DFSTree


def _run(graph, task, **kwargs):
    tree = DFSTree(static_dfs_forest(graph), root=VIRTUAL_ROOT)
    metrics = MetricsRecorder()
    engine = ParallelRerootEngine(
        tree, BruteForceQueryService(graph, tree), metrics=metrics, **kwargs
    )
    assignment = engine.reroot_many([task])
    parent = tree.parent_map()
    parent.update(assignment)
    assert check_dfs_tree(graph, parent) == []
    return metrics


@pytest.mark.benchmark(group="E8-ablation")
def test_path_halving_ablation(benchmark):
    spines = scale_sizes([64, 128, 256], [32, 64])
    full_rounds, crippled_rounds = [], []
    for spine in spines:
        graph = caterpillar_graph(spine, 2)
        task = RerootTask(subtree_root=0, new_root=spine - 1, attach=VIRTUAL_ROOT)
        full_rounds.append(_run(graph, task)["traversal_rounds"])
        crippled_rounds.append(
            _run(graph, task, enable_path_halving=False)["traversal_rounds"]
        )
    record_table(
        benchmark,
        "E8_path_halving_ablation",
        spines,
        {"full_engine_rounds": full_rounds, "no_path_halving_rounds": crippled_rounds},
    )
    assert crippled_rounds[-1] > full_rounds[-1]

    graph = caterpillar_graph(spines[-1], 2)
    task = RerootTask(subtree_root=0, new_root=spines[-1] - 1, attach=VIRTUAL_ROOT)
    benchmark(lambda: _run(graph, task))
