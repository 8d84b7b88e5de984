"""Cross-engine tests: parallel vs sequential vs naive rerooting."""

import random

import pytest

from repro.baselines.naive_reroot import naive_reroot_subtree
from repro.constants import VIRTUAL_ROOT
from repro.core import reroot_parallel
from repro.core.components import Component, TreePiece
from repro.core.dynamic_dfs import FullyDynamicDFS
from repro.core.queries import BruteForceQueryService, DQueryService
from repro.core.reduction import RerootTask
from repro.core.reroot_parallel import ParallelRerootEngine
from repro.core.reroot_sequential import SequentialRerootEngine
from repro.core.structure_d import StructureD
from repro.core.traversals import TraversalPlanner
from repro.distributed.distributed_dfs import DistributedDynamicDFS
from repro.exceptions import InvariantViolation
from repro.graph.generators import barabasi_albert_graph, gnp_random_graph, star_graph
from repro.graph.traversal import static_dfs_forest
from repro.graph.validation import check_dfs_tree
from repro.metrics.counters import MetricsRecorder
from repro.streaming.semi_streaming_dfs import SemiStreamingDynamicDFS
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


# --------------------------------------------------------------------------- #
# Single-leaf components finish in their active round
# --------------------------------------------------------------------------- #
def _star(n):
    g = star_graph(n)
    return g, DFSTree(static_dfs_forest(g), root=VIRTUAL_ROOT)


def test_single_leaf_components_finish_without_a_traversal_step(monkeypatch):
    """Rerooting a star at a leaf walks ``[1, 0]`` in round 1 and leaves
    every other leaf a single-leaf component: round 2 holds only those, so
    it counts as a traversal round, asks no query and runs no planner step,
    and each leaf records one disintegrating traversal, one Process-Comp call
    and one added vertex, hanging from the centre."""
    n = 9
    g, tree = _star(n)
    stepped = []
    step = TraversalPlanner.step

    def spy(self, comp):
        stepped.append(comp.rc)
        return step(self, comp)

    monkeypatch.setattr(TraversalPlanner, "step", spy)
    metrics = MetricsRecorder()
    engine = ParallelRerootEngine(tree, BruteForceQueryService(g, tree, metrics=metrics), metrics=metrics)
    task = RerootTask(subtree_root=0, new_root=1, attach=VIRTUAL_ROOT)
    assignment = engine.reroot_many([task])
    assert assignment == {1: VIRTUAL_ROOT, 0: 1, **{v: 0 for v in range(2, n)}}
    check_assignment(g, tree, task, assignment)
    assert stepped == [1]
    counts = {k: metrics[k] for k in ("traversal_rounds", "query_rounds", "queries", "max_active_components")}
    assert counts == {"traversal_rounds": 2, "query_rounds": 1, "queries": n - 2, "max_active_components": n - 2}
    for key in ("traversal_disintegrating", "process_comp_calls"):
        assert metrics[key] == 1 + (n - 2), key
    assert metrics["vertices_added"] == n


def test_the_planner_traversal_of_a_single_leaf_records_what_the_engine_does():
    """The planner's own traversal of a single-leaf component — what the
    engine skips — asks one empty batch, walks ``p* = [r_c]``, leaves no
    component and records one disintegrating traversal and one Process-Comp
    call: what the engine records for it without the step."""
    _, tree = _star(5)
    metrics = MetricsRecorder()
    gen = TraversalPlanner(tree, metrics=metrics).step(Component(trees=[TreePiece(3)], rc=3, attach=0))
    assert next(gen) == []
    with pytest.raises(StopIteration) as stop:
        gen.send([])
    result = stop.value.value
    assert (result.pstar, result.new_components, result.traversal) == ([3], [], "disintegrating")
    assert metrics.as_dict() == {"traversal_disintegrating": 1, "process_comp_calls": 1}


def test_a_single_leaf_component_rooted_elsewhere_raises(monkeypatch):
    """A single-leaf component whose ``r_c`` is not its vertex is not C1:
    the engine raises instead of attaching the wrong vertex."""
    g, tree = _star(5)
    monkeypatch.setattr(
        reroot_parallel,
        "component_from_subtree",
        lambda tree, root, rc, attach: Component(trees=[TreePiece(root)], rc=rc, attach=attach),
    )
    engine = ParallelRerootEngine(tree, BruteForceQueryService(g, tree))
    with pytest.raises(InvariantViolation, match="root 2 not found in"):
        engine.reroot_many([RerootTask(subtree_root=3, new_root=2, attach=0)])


#: Counters of one fixed stream, as every driver that runs the parallel
#: engine recorded them before single-leaf components skipped the planner and
#: ``D``'s query rounds read piece intervals from tree indices.
_RECORDED_ROUND_COUNTERS = {
    "traversal_rounds": 155,
    "traversal_disintegrating": 1270,
    "process_comp_calls": 1371,
    "vertices_added": 3028,
    "query_rounds": 223,
    "queries": 3137,
}


@pytest.mark.parametrize(
    "make, recorded",
    [
        (lambda g, m: FullyDynamicDFS(g, rebuild_every=1, metrics=m), {"d_vertex_queries": 12630, "d_probes": 12641}),
        (lambda g, m: FullyDynamicDFS(g, metrics=m), {"d_vertex_queries": 12630, "d_probes": 12661}),
        (lambda g, m: SemiStreamingDynamicDFS(g, metrics=m), {"stream_passes": 233}),
        (lambda g, m: DistributedDynamicDFS(g, rebuild_every=None, metrics=m), {"congest_rounds": 1672}),
    ],
    ids=["d_every_1", "d_auto", "stream", "congest"],
)
def test_drivers_keep_their_recorded_rerooting_counters(make, recorded):
    g = barabasi_albert_graph(200, 3, seed=5)
    metrics = MetricsRecorder()
    driver = make(g, metrics)
    driver.apply_all(mixed_updates(g, 60, seed=6))
    assert driver.is_valid()
    expected = {**_RECORDED_ROUND_COUNTERS, **recorded}
    assert {key: metrics[key] for key in expected} == expected
