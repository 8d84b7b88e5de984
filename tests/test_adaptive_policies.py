"""Property-based tests for the adaptive maintenance policies.

Two policies are covered:

* **Broadcast-tree local repair** (:class:`repro.distributed.distributed_dfs.CongestBackend`):
  after every repair the cached broadcast tree still satisfies everything a
  full rebuild would certify (spans exactly the graph's vertices, every tree
  edge exists in the graph, depths are parent-consistent and acyclic), and a
  shallow orphaned subtree is repaired in strictly fewer rounds than the full
  rebuild the conservative invalidation pays.

* **Depth-aware voluntary rebuilds** (``CongestBackend.drift_account`` and
  its :meth:`~repro.distributed.distributed_dfs.CongestBackend.must_rebuild`
  veto): a voluntary rebuild fires iff the accumulated *waves × drift*
  account exceeds the modeled rebuild cost —
  with exact accumulator-reset arithmetic replayed by a shadow account — and
  under the auto-tuned policy on low-diameter workloads the repairing driver
  never falls behind rebuild-on-invalidation by more than the cost model's
  bounded regret (and strictly wins on the sustained-churn regression case).
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import FullyDynamicDFS
from repro.core.updates import EdgeDeletion
from repro.distributed.distributed_dfs import CongestBackend, DistributedDynamicDFS
from repro.graph.generators import gnm_random_graph, path_graph
from repro.graph.graph import UndirectedGraph
from repro.graph.traversal import bfs_tree, component_of, connected_components
from repro.metrics.counters import MetricsRecorder
from repro.workloads.scenarios import build_scenario
from repro.workloads.updates import edge_churn, mixed_updates

SETTINGS = settings(max_examples=20, deadline=None)


@st.composite
def churn_cases(draw, max_n=20, max_updates=14):
    n = draw(st.integers(min_value=4, max_value=max_n))
    max_m = n * (n - 1) // 2
    m = draw(st.integers(min_value=n - 1, max_value=min(3 * n, max_m)))
    graph_seed = draw(st.integers(min_value=0, max_value=999))
    churn_seed = draw(st.integers(min_value=0, max_value=999))
    count = draw(st.integers(min_value=1, max_value=max_updates))
    graph = gnm_random_graph(n, m, seed=graph_seed)
    return graph, edge_churn(graph, count, seed=churn_seed)


def _is_connected(graph):
    if graph.num_vertices == 0:
        return True
    root = next(iter(graph.vertices()))
    _, depth = bfs_tree(graph, root)
    return len(depth) == graph.num_vertices


def _connectivity_preserving_churn(graph, count, seed):
    """Edge churn filtered so the graph stays connected throughout — the
    low-diameter regime the depth-drift policy is specified for (once the
    graph fragments, the simulator's degenerate accounting-only broadcast
    forests disseminate for free and round comparisons stop meaning much)."""
    scratch = graph.copy()
    out = []
    for update in edge_churn(graph, count * 3, seed=seed):
        if isinstance(update, EdgeDeletion):
            if not scratch.has_edge(update.u, update.v):
                continue
            scratch.remove_edge(update.u, update.v)
            if not _is_connected(scratch):
                scratch.add_edge(update.u, update.v)
                continue
        else:
            if scratch.has_edge(update.u, update.v):
                continue
            scratch.add_edge(update.u, update.v)
        out.append(update)
        if len(out) >= count:
            break
    return out


@st.composite
def low_diameter_cases(draw, max_n=32, max_updates=24):
    """Connected, dense-ish random graphs (diameter a small constant) under
    connectivity-preserving edge churn."""
    n = draw(st.integers(min_value=8, max_value=max_n))
    max_m = n * (n - 1) // 2
    m = draw(st.integers(min_value=2 * n, max_value=min(4 * n, max_m)))
    graph_seed = draw(st.integers(min_value=0, max_value=999))
    churn_seed = draw(st.integers(min_value=0, max_value=999))
    count = draw(st.integers(min_value=4, max_value=max_updates))
    graph = gnm_random_graph(n, m, seed=graph_seed)
    return graph, _connectivity_preserving_churn(graph, count, seed=churn_seed)


# --------------------------------------------------------------------------- #
# Broadcast-tree local repair
# --------------------------------------------------------------------------- #
def _certify_broadcast_tree(backend, graph):
    """Everything a full rebuild certifies must hold after a repair too."""
    parent = backend.bfs_parent
    depth = backend.bfs_depth
    assert set(parent) == set(graph.vertices())
    assert set(depth) == set(parent)
    for v, p in parent.items():
        if p is None:
            assert depth[v] == 0
        else:
            assert graph.has_edge(v, p), f"broadcast edge ({v}, {p}) not in graph"
            assert depth[v] == depth[p] + 1
    # Parent pointers are acyclic: every vertex reaches a root.
    for v in parent:
        seen = 0
        w = v
        while parent[w] is not None:
            w = parent[w]
            seen += 1
            assert seen <= len(parent), f"cycle through {v}"


@SETTINGS
@given(churn_cases(max_n=16, max_updates=10))
def test_local_repair_certifies_like_a_rebuild(case):
    """After every update the repaired broadcast tree passes the exact checks
    a freshly rebuilt one would, and the maintained DFS forest matches the
    conservative driver's byte for byte."""
    graph, updates = case
    metrics = MetricsRecorder("dist", strict=True)
    repair = DistributedDynamicDFS(graph, rebuild_every=None, local_repair=True, metrics=metrics)
    conservative = DistributedDynamicDFS(graph, rebuild_every=None, local_repair=False)
    for update in updates:
        repair.apply(update)
        conservative.apply(update)
        _certify_broadcast_tree(repair._backend, repair.graph)
        assert repair.parent_map() == conservative.parent_map()
    assert repair.is_valid()
    # Cost-model invariant: a surviving repair never leaves the tree so deep
    # that a single pipelined wave would out-cost the rebuild (the hard
    # fallback), and any gradual drift stays inside the depth_drift budget —
    # the account only ever exceeds it for the one update that triggers the
    # voluntary rebuild, which resets it.
    backend = repair._backend
    if backend.bfs_depth:
        assert (
            max(backend.bfs_depth.values())
            <= backend._as_built_depth + backend._modeled_rebuild_cost()
        )
    assert backend.drift_account <= backend._modeled_rebuild_cost() or backend.drift_due()


def test_shallow_subtree_repair_beats_rebuild_rounds():
    """Deterministic scenario: severing a leaf of a deep broadcast tree.  The
    local repair reattaches it in O(1) rounds; conservative invalidation pays
    a full O(D)-round BFS rebuild (plus the summary re-broadcast).  The round
    deltas of that update must differ strictly in repair's favour."""
    graph = UndirectedGraph(vertices=range(11))
    for i in range(9):
        graph.add_edge(i, i + 1)  # deep path 0..9
    graph.add_edge(8, 10)
    graph.add_edge(9, 10)  # vertex 10 hangs off the path end twice

    def rounds_for_cut(local_repair):
        d = DistributedDynamicDFS(graph, rebuild_every=None, local_repair=local_repair)
        d.insert_edge(10, 7)  # builds the broadcast tree from initiator 10
        before = d.rounds()
        d.delete_edge(10, 8)  # severs a depth-0 orphan ({8} or {10})
        return d, d.rounds() - before

    repaired, repair_rounds = rounds_for_cut(True)
    rebuilt, rebuild_rounds = rounds_for_cut(False)
    assert repaired.parent_map() == rebuilt.parent_map()
    assert repaired.metrics["bfs_repairs"] == 1
    assert repaired.metrics["bfs_repair_fallbacks"] == 0
    assert rebuilt.metrics["bfs_repairs"] == 0
    assert repair_rounds < rebuild_rounds, (repair_rounds, rebuild_rounds)
    _certify_broadcast_tree(repaired._backend, repaired.graph)


def test_disconnected_subtree_falls_back_to_rebuild():
    """Cutting the only edge into a subtree cannot be repaired locally: the
    backend must fall back to the full rebuild and still certify."""
    graph = UndirectedGraph(vertices=range(6))
    for i in range(5):
        graph.add_edge(i, i + 1)  # path: every edge is a bridge
    d = DistributedDynamicDFS(graph, rebuild_every=None, local_repair=True)
    d.insert_edge(0, 2)  # build broadcast tree; (3,4) stays a bridge
    d.delete_edge(3, 4)
    assert d.metrics["bfs_repair_fallbacks"] >= 1
    assert d.metrics["bfs_repairs"] == 0
    assert d.is_valid()
    _certify_broadcast_tree(d._backend, d.graph)


def test_repair_gate_measures_the_root_the_fallback_rebuild_floods_from(monkeypatch):
    """At every gate call, the repair gate's yardstick is the eccentricity
    of the root the fallback rebuild floods the orphan's component from: the
    update's initiator when it lies inside, else the first current broadcast
    root in ``connected_components`` order, else that order's first vertex.
    The stream (a path with chords at one end) meets a component holding two
    broadcast roots, where the first root in BFS order from the orphan is a
    shallower one."""
    graph = path_graph(40)
    for u, v in [(0, 2), (0, 3), (1, 4), (2, 5), (0, 5), (3, 6)]:
        graph.add_edge(u, v)
    calls = []
    gate = CongestBackend._component_fallback_depth

    def first_root(backend, vertices):
        parent = backend.bfs_parent
        return next((v for v in vertices if v in parent and parent[v] is None), vertices[0])

    def spy(backend, vertex, update):
        members, depth = gate(backend, vertex, update)
        initiator = backend._pick_initiator(backend._committed_tree, update)
        component = next(c for c in connected_components(backend.graph) if vertex in c)
        assert set(component) == members
        rebuild_root = initiator if initiator in members else first_root(backend, component)
        bfs_order_root = initiator if initiator in members else first_root(
            backend, component_of(backend.graph, vertex)
        )
        calls.append(
            (depth, *(max(bfs_tree(backend.graph, r)[1].values()) for r in (rebuild_root, bfs_order_root)))
        )
        return members, depth

    monkeypatch.setattr(CongestBackend, "_component_fallback_depth", spy)
    driver = DistributedDynamicDFS(graph, rebuild_every=None, voluntary_root="initiator")
    driver.apply_all(mixed_updates(graph, 80, seed=13))
    assert calls
    assert all(depth == rebuild_ecc for depth, rebuild_ecc, _ in calls), calls
    assert any(rebuild_ecc != bfs_order_ecc for _, rebuild_ecc, bfs_order_ecc in calls), calls


# --------------------------------------------------------------------------- #
# Depth-aware voluntary rebuilds (the depth_drift cost model)
# --------------------------------------------------------------------------- #
def _observed_drift_contribution(backend, graph, update, delta):
    """Independently recompute the update's depth-drift signal: *waves ×
    drift*, both measured inside the updated component, with the reference
    depth re-derived from the 2-sweep center of that component — exactly as
    the backend's ``end_update`` computed it."""
    if not backend.bfs_depth:
        return 0
    initiator = backend._pick_initiator(backend._committed_tree, update)
    if not graph.has_vertex(initiator):
        return 0
    component = component_of(graph, initiator)
    # The yardstick the account settled on: the min-eccentricity root among
    # the 2-sweep midpoint, the update initiator and the remembered best —
    # re-derived here from the seed the backend recorded (its eccentricity is
    # exactly the fresh-rebuild depth end_update measured the drift against).
    seed = backend._drift_root
    if seed is None or not graph.has_vertex(seed):
        return 0
    _, seed_depth = bfs_tree(graph, seed)
    reference = max(seed_depth.values(), default=0)
    current = max((backend.bfs_depth[v] for v in component if v in backend.bfs_depth), default=0)
    drift = current - reference
    if drift <= 0:
        return 0
    waves = 1 + 2 * delta.get("query_batches", 0)
    return waves * drift


@SETTINGS
@given(low_diameter_cases())
def test_voluntary_rebuild_fires_iff_account_exceeds_budget(case):
    """``voluntary_rebuilds`` increments iff the accumulated waves × drift
    account strictly exceeded the modeled rebuild cost at update start, and
    the accumulator follows exact arithmetic: each update adds its observed
    contribution, and a voluntary rebuild resets the account to just the
    post-rebuild observation, while a recovery rebuild (which floods from the
    update's initiator and may leave the tree drifted) keeps it — replayed
    here by a shadow account."""
    graph, updates = case
    assume(updates)
    metrics = MetricsRecorder("dist", strict=True)
    driver = DistributedDynamicDFS(graph, rebuild_every=None, local_repair=True, metrics=metrics)
    backend = driver._backend
    shadow = 0.0
    for update in updates:
        due = backend.drift_account > backend._modeled_rebuild_cost()
        assert due == backend.drift_due()
        before = metrics.as_dict()
        driver.apply(update)
        delta = metrics.snapshot_delta(before)
        assert delta.get("voluntary_rebuilds", 0) == (1 if due else 0), (
            "voluntary rebuild must fire iff the account exceeded the budget"
        )
        # Under auto the drift veto is the backend's only veto: it fires
        # exactly when the account is due and counts under both counters.
        vetoes = 1 if due else 0
        assert delta.get("cost_model_triggers", 0) == vetoes
        assert delta.get("service_rebuilds_forced", 0) == vetoes
        if due:
            assert delta.get("service_rebuilds", 0) >= 1
        contribution = _observed_drift_contribution(backend, driver.graph, update, delta)
        if delta.get("voluntary_rebuilds", 0):
            shadow = contribution  # the voluntary rebuild reset the account
        else:
            shadow += contribution
        assert backend.drift_account == pytest.approx(shadow), "accumulator arithmetic drifted"
    assert driver.is_valid()


@SETTINGS
@given(low_diameter_cases())
def test_low_diameter_auto_policy_repair_bounded_regret(case):
    """On connected low-diameter workloads under ``rebuild_every=None`` the
    repairing driver maintains byte-identical trees to rebuild-on-invalidation
    after every update, and its total rounds never fall behind by more than
    the cost model's bounded regret (one in-flight drift account plus one
    voluntary rebuild — at most twice the modeled rebuild cost)."""
    graph, updates = case
    assume(updates)
    repair = DistributedDynamicDFS(
        graph,
        rebuild_every=None,
        local_repair=True,
        metrics=MetricsRecorder("repair", strict=True),
    )
    conservative = DistributedDynamicDFS(
        graph,
        rebuild_every=None,
        local_repair=False,
        metrics=MetricsRecorder("conservative", strict=True),
    )
    max_budget = 0.0
    for step, update in enumerate(updates):
        repair.apply(update)
        conservative.apply(update)
        assert repair.parent_map() == conservative.parent_map(), f"diverged at update {step}"
        max_budget = max(max_budget, repair._backend._modeled_rebuild_cost())
    assert repair.rounds() <= conservative.rounds() + 2 * max_budget, (
        repair.rounds(),
        conservative.rounds(),
        max_budget,
    )


@pytest.mark.parametrize(
    "n, m, graph_seed, churn_seed, count",
    [
        # A local repair reshaped the broadcast tree, a later deletion of one
        # of its edges forced a recovery rebuild from an off-center initiator,
        # and that rebuild used to wipe the drift account.
        (27, 106, 327, 832, 16),
        # A voluntary rebuild used to ignore the yardstick's own best root and
        # rebuild just as deep, so a second voluntary rebuild followed.
        (27, 54, 54, 390, 21),
    ],
)
def test_low_diameter_bounded_regret_regressions(n, m, graph_seed, churn_seed, count):
    """Pinned cases of :func:`test_low_diameter_auto_policy_repair_bounded_regret`."""
    graph = gnm_random_graph(n, m, seed=graph_seed)
    updates = _connectivity_preserving_churn(graph, count, seed=churn_seed)
    repair = DistributedDynamicDFS(
        graph, rebuild_every=None, local_repair=True, metrics=MetricsRecorder("repair", strict=True)
    )
    conservative = DistributedDynamicDFS(
        graph, rebuild_every=None, local_repair=False,
        metrics=MetricsRecorder("conservative", strict=True),
    )
    max_budget = 0.0
    for update in updates:
        repair.apply(update)
        conservative.apply(update)
        assert repair.parent_map() == conservative.parent_map()
        max_budget = max(max_budget, repair._backend._modeled_rebuild_cost())
    assert repair.rounds() <= conservative.rounds() + 2 * max_budget


@pytest.mark.parametrize("seed", [1, 9])
def test_sustained_churn_auto_policy_repair_wins(seed):
    """The PR 3 regression case, pinned: on a low-diameter ``sustained_churn``
    workload with ``rebuild_every=None``, ``local_repair=True`` uses at most
    the total rounds of ``local_repair=False`` and of the pure-repair
    configuration (voluntary rebuilds disabled), with byte-identical parent
    maps after every update."""
    scenario = build_scenario("sustained_churn", n=64, seed=seed, updates=100)
    updates = scenario.updates[:100]
    drivers = {
        "conservative": DistributedDynamicDFS(
            scenario.graph, rebuild_every=None, local_repair=False,
            metrics=MetricsRecorder("conservative", strict=True),
        ),
        "pure_repair": DistributedDynamicDFS(
            scenario.graph, rebuild_every=None, local_repair=True,
            drift_rebuild_cost=float("inf"),
            metrics=MetricsRecorder("pure", strict=True),
        ),
        "voluntary": DistributedDynamicDFS(
            scenario.graph, rebuild_every=None, local_repair=True,
            metrics=MetricsRecorder("voluntary", strict=True),
        ),
    }
    for step, update in enumerate(updates):
        reference = None
        for name, driver in drivers.items():
            driver.apply(update)
            if reference is None:
                reference = driver.parent_map()
            else:
                assert driver.parent_map() == reference, f"{name} diverged at update {step}"
    assert drivers["voluntary"].rounds() <= drivers["conservative"].rounds()
    assert drivers["voluntary"].rounds() <= drivers["pure_repair"].rounds()


def test_initiator_mode_voluntary_rebuild_floods_from_remembered_root():
    """Under ``voluntary_root="initiator"`` a voluntary rebuild roots the
    triggering component at the remembered best root: that vertex survives
    the update and roots the rebuilt broadcast forest.  The DFS tree matches
    a rebuild-every-update driver after every update."""
    scenario = build_scenario("social_network_churn", n=24, seed=2, updates=40)
    driver = DistributedDynamicDFS(
        scenario.graph, rebuild_every=None, local_repair=True,
        voluntary_root="initiator", metrics=MetricsRecorder("initiator", strict=True),
    )
    reference = FullyDynamicDFS(scenario.graph, rebuild_every=1)
    backend = driver._backend
    fired = 0
    for step, update in enumerate(scenario.updates):
        before = driver.metrics["voluntary_rebuilds"]
        remembered = backend._drift_root
        driver.apply(update)
        reference.apply(update)
        assert driver.parent_map() == reference.parent_map(), f"diverged at update {step}"
        if driver.metrics["voluntary_rebuilds"] > before:
            fired += 1
            assert driver.graph.has_vertex(remembered), step
            assert backend.bfs_parent[remembered] is None, step
    assert fired >= 1


def test_two_level_repair_round_accounting():
    """The two-level candidate selection must not change the repair's round
    accounting: a repair still costs exactly one intra-subtree convergecast
    plus one re-rooted-subtree broadcast (``O(depth-of-subtree)`` rounds),
    independent of how many reattachment candidates the subtree offers."""
    def run_case(extra_candidate_edges):
        # A hub (0) with two pendant paths: 10-11-12 (the orphan-to-be) and
        # 20-21-22 (keeps the graph's eccentricity fixed at 4 whatever extra
        # candidate edges exist, so the repair gate sees the same yardstick).
        graph = UndirectedGraph(vertices=list(range(5)) + [10, 11, 12, 20, 21, 22])
        for v in range(1, 5):
            graph.add_edge(0, v)  # star core
        graph.add_edge(1, 10)
        graph.add_edge(10, 11)
        graph.add_edge(11, 12)
        graph.add_edge(4, 20)
        graph.add_edge(20, 21)
        graph.add_edge(21, 22)
        metrics = MetricsRecorder("dist", strict=True)
        # A huge finite drift budget: voluntary rebuilds stay out of the way,
        # the repair gate (budget-independent) stays active.
        d = DistributedDynamicDFS(
            graph, rebuild_every=None, local_repair=True,
            drift_rebuild_cost=1000.0, metrics=metrics,
        )
        d.insert_edge(0, 10)  # first update builds the broadcast tree (10 under 0)
        for u, v in extra_candidate_edges:
            # Inserted after the build: the cached broadcast tree is untouched,
            # the repair just sees more reattachment candidates.
            d.insert_edge(u, v)
        before_repairs = metrics["bfs_repairs"]
        before_rounds = metrics["bfs_repair_rounds"]
        d.delete_edge(0, 10)  # severs the pendant subtree {10, 11, 12}
        assert metrics["bfs_repairs"] == before_repairs + 1
        assert metrics["bfs_repair_fallbacks"] == 0
        _certify_broadcast_tree(d._backend, d.graph)
        return metrics["bfs_repair_rounds"] - before_rounds

    baseline_rounds = run_case([])
    more_candidates_rounds = run_case([(11, 3), (12, 4)])
    # One convergecast over the orphan (depth 2) + one broadcast down the
    # re-rooted subtree (depth 2 again): exactly O(depth-of-subtree) rounds,
    # independent of the number of candidates.
    assert baseline_rounds == more_candidates_rounds == 2 + 2
