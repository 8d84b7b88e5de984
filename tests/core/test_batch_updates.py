"""Cross-validation of the amortized batch-update engine: overlay-served trees
must be identical to the per-update-rebuild trees on randomized churn."""

import pytest

from repro.core.dynamic_dfs import FullyDynamicDFS
from repro.core.overlay import theorem9_overlay_budget
from repro.graph.generators import barabasi_albert_graph, complete_graph, gnp_random_graph
from repro.metrics.counters import MetricsRecorder
from repro.workloads.scenarios import build_scenario
from repro.workloads.updates import UpdateSequenceGenerator


def _churn(graph, count, seed, *, edge_only=False):
    gen = UpdateSequenceGenerator(graph, seed=seed)
    weights = {"edge_del": 1.0, "edge_ins": 1.0} if edge_only else None
    return gen.sequence(count, weights=weights)


@pytest.mark.parametrize("seed", range(6))
def test_overlay_served_tree_identical_to_rebuild_served_tree(seed):
    graph = gnp_random_graph(45, 0.1, seed=seed, connected=True)
    updates = _churn(graph, 25, seed + 100)
    maps = {}
    for k in (1, 6, None):
        dyn = FullyDynamicDFS(graph, rebuild_every=k)
        dyn.apply_all(updates)
        assert dyn.is_valid(), (seed, k)
        maps[k] = dyn.parent_map()
    assert maps[1] == maps[6] == maps[None], seed


@pytest.mark.parametrize("seed", range(4))
def test_policies_agree_step_by_step_on_edge_churn(seed):
    graph = gnp_random_graph(35, 0.12, seed=seed, connected=True)
    updates = _churn(graph, 20, seed + 7, edge_only=True)
    per_update = FullyDynamicDFS(graph, rebuild_every=1, validate=True)
    amortized = FullyDynamicDFS(graph, rebuild_every=7, validate=True)
    for i, upd in enumerate(updates):
        per_update.apply(upd)
        amortized.apply(upd)
        assert per_update.parent_map() == amortized.parent_map(), (seed, i, upd.describe())


def test_amortized_policy_rebuild_counts_on_sustained_churn():
    scenario = build_scenario("sustained_churn", n=120, seed=2, updates=60)
    updates = scenario.updates[:60]
    counts = {}
    for k in (1, 6):
        metrics = MetricsRecorder()
        dyn = FullyDynamicDFS(scenario.graph, rebuild_every=k, metrics=metrics)
        before = metrics.as_dict()
        dyn.apply_all(updates)
        counts[k] = metrics.snapshot_delta(before)
    assert counts[1]["d_builds"] == 60
    assert counts[6]["d_builds"] == 10
    assert counts[6]["overlay_served_updates"] == 50
    assert counts[1].get("overlay_served_updates", 0) == 0
    # Amortized rebuild work drops roughly k-fold.
    assert counts[6]["d_build_work"] * 4 < counts[1]["d_build_work"]


def test_auto_policy_bounds_overlay_by_budget():
    graph = gnp_random_graph(150, 0.04, seed=5, connected=True)
    metrics = MetricsRecorder()
    dyn = FullyDynamicDFS(graph, metrics=metrics)  # rebuild_every=None (auto)
    budget = dyn.overlay_budget()
    updates = _churn(graph, 80, 11, edge_only=True)
    dyn.apply_all(updates)
    assert dyn.is_valid()
    delta = metrics.as_dict()
    assert delta["overlay_served_updates"] > 0
    # Each overlay-served edge update adds at most 2 entries past the budget check.
    assert delta["max_overlay_size"] <= budget + 2
    # Auto-tuning must actually amortize: far fewer rebuilds than updates.
    assert delta["d_rebuilds"] - 1 < len(updates) / 2  # -1 for the initial build


@pytest.mark.parametrize("service", ["d", "brute"])
def test_overlay_budget_per_service(service):
    """The public budget is Theorem 9's ``~sqrt(2m)`` over ``D`` and ``0`` for
    the brute-force oracle, which keeps no overlay."""
    graph = gnp_random_graph(60, 0.1, seed=4, connected=True)
    dyn = FullyDynamicDFS(graph, service=service)
    expected = theorem9_overlay_budget(graph.num_edges) if service == "d" else 0
    assert dyn.overlay_budget() == expected
    assert isinstance(dyn.overlay_budget(), int)


def _stale_tree_stream(kind, seed):
    if kind == "edge_churn":
        graph = gnp_random_graph(150, 0.04, seed=seed, connected=True)
        return graph, _churn(graph, 60, seed + 40, edge_only=True)
    if kind == "dense_edge_churn":
        # Most updates keep K12's Hamiltonian-path tree, so the overlay
        # budget (~sqrt(2m) = 11) fills between tree moves.
        graph = complete_graph(12)
        return graph, _churn(graph, 60, seed + 120, edge_only=True)
    graph = barabasi_albert_graph(200, 3, seed=seed)
    return graph, _churn(graph, 60, seed + 80)  # mixed_updates


class _Stepper:
    """One driver applied update by update, recording before each update
    whether the previous one moved the committed tree or filled the overlay,
    and whether this one rebuilt ``D`` or was vetoed into a rebuild."""

    def __init__(self, graph, backend, rebuild_every):
        self.metrics = MetricsRecorder()
        self.dyn = FullyDynamicDFS(
            graph, backend=backend, rebuild_every=rebuild_every, metrics=self.metrics
        )
        self.moved = self.full = False
        self.steps = []

    def apply(self, update):
        d = self.dyn.update_engine.backend
        rebuilds = self.metrics.get("d_rebuilds")
        vetoes = self.metrics.get("service_rebuilds_forced")
        tree = self.dyn.tree
        self.dyn.apply(update)
        self.steps.append(
            {
                "after_move": self.moved,
                "after_full": self.full,
                "rebuilt": self.metrics.get("d_rebuilds") > rebuilds,
                "vetoed": self.metrics.get("service_rebuilds_forced") > vetoes,
            }
        )
        self.moved = self.dyn.tree is not tree
        self.full = d.structure.overlay_size() >= d.overlay_budget()


@pytest.mark.parametrize("backend", ["dict", "array"])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["edge_churn", "mixed_updates", "dense_edge_churn"])
def test_auto_policy_rebuilds_exactly_when_the_tree_moves(kind, seed, backend):
    graph, updates = _stale_tree_stream(kind, seed)
    label = (kind, seed, backend)
    auto = _Stepper(graph, backend, None)
    fresh = _Stepper(graph, backend, 1)
    for i, upd in enumerate(updates):
        auto.apply(upd)
        fresh.apply(upd)
        assert auto.dyn.parent_map() == fresh.dyn.parent_map(), (label, i, upd.describe())
        step = auto.steps[-1]
        # D is rebuilt before an update iff the previous update replaced the
        # committed tree or filled the overlay budget (or a veto forced it).
        assert step["rebuilt"] == (step["after_move"] or step["after_full"] or step["vetoed"]), (label, i)
    a, f = auto.metrics.as_dict(), fresh.metrics.as_dict()
    # Every query was answered on a D built over the current tree ...
    assert a.get("d_overlay_view_queries", 0) == 0
    # ... at no more range searches or builds than rebuilding every update.
    assert a["d_vertex_queries"] <= f["d_vertex_queries"]
    assert a["d_builds"] <= f["d_builds"]
    # The stream both moves the tree and keeps it, so both regimes ran.
    assert a["d_stale_rebuilds"] > 0 and a["overlay_served_updates"] > 0
    if kind == "dense_edge_churn":
        assert any(s["rebuilt"] and not s["after_move"] for s in auto.steps)
    # d_rebuilds - 1 - d_stale_rebuilds: under auto, the rebuilds the overlay
    # budget or a veto forced; under rebuild_every=1, those that changed nothing.
    assert a["d_rebuilds"] - 1 - a["d_stale_rebuilds"] == sum(
        s["rebuilt"] and not s["after_move"] for s in auto.steps
    )
    assert f["d_rebuilds"] - 1 - f["d_stale_rebuilds"] == sum(
        not s["after_move"] for s in fresh.steps
    )


def test_explicit_rebuild_every_validation():
    graph = gnp_random_graph(20, 0.2, seed=1, connected=True)
    with pytest.raises(ValueError):
        FullyDynamicDFS(graph, rebuild_every=0)
    with pytest.raises(ValueError):
        FullyDynamicDFS(graph, rebuild_every=2.5)


def test_vertex_id_reuse_forces_rebuild_and_stays_correct():
    graph = gnp_random_graph(30, 0.15, seed=3, connected=True)
    dyn = FullyDynamicDFS(graph, rebuild_every=50, validate=True)
    victim = next(v for v in graph.vertices() if graph.degree(v) >= 3)
    nbrs = [w for w in graph.neighbor_list(victim)][:2]
    dyn.delete_vertex(victim)
    # Re-using the id of a vertex D still indexes triggers a base refresh, so
    # the old incarnation's edges cannot leak into query answers.
    dyn.insert_vertex(victim, nbrs)
    assert dyn.is_valid()
    assert set(dyn.graph.neighbor_list(victim)) == set(nbrs)
