"""Cross-engine tests: parallel vs sequential vs naive rerooting."""

import random

import pytest

from repro.baselines.naive_reroot import naive_reroot_subtree
from repro.constants import VIRTUAL_ROOT
from repro.core.dynamic_dfs import FullyDynamicDFS
from repro.core.queries import BruteForceQueryService, DQueryService
from repro.core.reduction import RerootTask
from repro.core.reroot_parallel import ParallelRerootEngine
from repro.core.reroot_sequential import SequentialRerootEngine
from repro.core.structure_d import StructureD
from repro.graph.generators import barabasi_albert_graph, gnp_random_graph
from repro.graph.traversal import static_dfs_forest
from repro.graph.validation import check_dfs_tree
from repro.metrics.counters import MetricsRecorder
from repro.tree.dfs_tree import DFSTree
from repro.workloads.updates import mixed_updates


def random_task(graph, tree, rng):
    """A random rerooting task whose attach edge is a real graph edge (as the
    reduction algorithm always guarantees)."""
    roots = [v for v in tree.vertices() if v != VIRTUAL_ROOT and tree.parent(v) is not None]
    rng.shuffle(roots)
    for subtree_root in roots:
        attach = tree.parent(subtree_root)
        vertices = tree.subtree_vertices(subtree_root)
        if attach == VIRTUAL_ROOT:
            candidates = vertices  # the virtual root is implicitly adjacent to all
        else:
            candidates = [v for v in vertices if graph.has_edge(attach, v)]
        if candidates:
            return RerootTask(
                subtree_root=subtree_root, new_root=rng.choice(candidates), attach=attach
            )
    raise AssertionError("no valid task found")


def check_assignment(graph, tree, task, assignment):
    parent = tree.parent_map()
    parent.update(assignment)
    assert parent[task.new_root] == task.attach
    assert set(assignment) == set(tree.subtree_vertices(task.subtree_root))
    # Attaching back under the same parent keeps the whole structure a DFS tree
    # only if the rerooted part is a DFS tree of its induced subgraph and all
    # its outgoing edges point to ancestors; the global checker verifies both.
    problems = check_dfs_tree(graph, parent)
    assert problems == [], problems[:3]


def test_engines_produce_valid_reroots_on_random_graphs():
    rng = random.Random(17)
    for seed in range(5):
        g = gnp_random_graph(50, 0.1, seed=seed, connected=True)
        tree = DFSTree(static_dfs_forest(g), root=VIRTUAL_ROOT)
        d = StructureD(g, tree)
        for trial in range(4):
            task = random_task(g, tree, rng)
            for engine_cls in (ParallelRerootEngine, SequentialRerootEngine):
                for service in (BruteForceQueryService(g, tree), DQueryService(d)):
                    engine = engine_cls(tree, service)
                    assignment = engine.reroot_many([task])
                    check_assignment(g, tree, task, assignment)
            # The naive baseline must agree on validity as well.
            check_assignment(g, tree, task, naive_reroot_subtree(g, tree, task))


def test_parallel_engine_beats_sequential_chain_on_comb():
    from repro.graph.generators import comb_with_tip_back_edges

    teeth, tooth = 48, 6
    # Comb whose tip back edges *survive* the canonical minimum-postorder
    # source re-anchoring: each tip reaches only the spine vertex before its
    # own tooth, so whichever endpoint the canonical answer picks, the
    # sequential chain is still forced to Θ(teeth).  (With tip-to-spine-start
    # back edges — comb_with_back_edges — the canonical source happens to
    # pick the tips, letting the baseline shortcut the chain.)
    g = comb_with_tip_back_edges(teeth, tooth)
    tree = DFSTree(static_dfs_forest(g), root=VIRTUAL_ROOT)
    # Reroot the whole comb at the tip of the *first* tooth: every step of the
    # sequential procedure exposes one more tooth.
    tip = teeth + tooth - 1
    task = RerootTask(subtree_root=0, new_root=tip, attach=VIRTUAL_ROOT)

    seq_metrics = MetricsRecorder()
    seq = SequentialRerootEngine(tree, BruteForceQueryService(g, tree), metrics=seq_metrics)
    seq_assignment = seq.reroot_many([task])
    check_assignment(g, tree, task, seq_assignment)

    par_metrics = MetricsRecorder()
    par = ParallelRerootEngine(tree, BruteForceQueryService(g, tree), metrics=par_metrics)
    par_assignment = par.reroot_many([task])
    check_assignment(g, tree, task, par_assignment)

    assert seq_metrics["sequential_chain_depth"] >= teeth / 2
    assert par_metrics["traversal_rounds"] < seq_metrics["sequential_chain_depth"]


def test_query_rounds_scale_polylogarithmically_on_paths():
    from repro.graph.generators import path_graph

    rounds = []
    sizes = [64, 256, 1024]
    for n in sizes:
        g = path_graph(n)
        tree = DFSTree(static_dfs_forest(g), root=VIRTUAL_ROOT)
        metrics = MetricsRecorder()
        engine = ParallelRerootEngine(tree, BruteForceQueryService(g, tree), metrics=metrics)
        engine.reroot_many([RerootTask(subtree_root=0, new_root=n // 2, attach=VIRTUAL_ROOT)])
        rounds.append(metrics["query_rounds"])
    # Quadrupling n must not quadruple the number of query rounds.
    assert rounds[-1] <= rounds[0] * 4
    assert rounds[-1] < sizes[-1] / 8


@pytest.mark.parametrize("engine", ["parallel", "sequential"])
def test_queries_counter_equals_the_queries_the_service_answered(engine, monkeypatch):
    """``queries`` counts each edge query once, where the service answers it;
    the engines add nothing on top, so both engines' totals compare."""
    answered = []
    answer_batch = DQueryService.answer_batch

    def counting(self, queries):
        answered.append(len(queries))
        return answer_batch(self, queries)

    monkeypatch.setattr(DQueryService, "answer_batch", counting)
    g = barabasi_albert_graph(300, 3, seed=0)
    metrics = MetricsRecorder()
    FullyDynamicDFS(g.copy(), engine=engine, metrics=metrics).apply_all(mixed_updates(g, 40, seed=1))
    assert sum(answered) > 0
    assert metrics["queries"] == sum(answered)
