"""Cross-driver equivalence: every environment, every rebuild policy, one tree.

Because query answers are canonical (a pure function of the updated graph and
the current tree — see :class:`repro.core.queries.DQueryService`), the fully
dynamic, semi-streaming, distributed and fault-tolerant drivers all maintain
*byte-identical* DFS trees, under both extremes of the ``rebuild_every``
policy.  ``StaticRecomputeDFS`` supplies the ground-truth graph state the
final tree is validated against (its own tree is a DFS forest of the same
graph, but a static recomputation is free to pick different tree edges).

The amortized policy claims of the UpdateEngine refactor are asserted here
too: on a 100-update ``sustained_churn`` workload the streaming and
distributed adapters perform at least 3x fewer service rebuilds — and
measurably fewer stream passes / CONGEST rounds per update — than their
classic per-update-rebuild configurations, with identical parent maps.

On top of the fixed workloads, a *randomized differential harness*
(hypothesis) generates (graph, mixed update sequence) cases from
shrinking-friendly integer encodings and asserts byte-identical parent maps
across all four drivers x {classic, rebuild_every=k, auto, local-repair}
*after every single update* — exercising the auto policy's cost-model
rebuilds and the broadcast-tree repair paths against the per-update-rebuild
oracle.
Every driver runs on a ``strict`` metrics recorder, so a counter missing from
``WELL_KNOWN_COUNTERS`` fails the harness (registry drift is impossible).
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.backends import BACKENDS
from repro.baselines.static_recompute import StaticRecomputeDFS
from repro.constants import is_virtual_root
from repro.core.dynamic_dfs import FullyDynamicDFS
from repro.core.fault_tolerant import FaultTolerantDFS
from repro.core.updates import EdgeDeletion, VertexInsertion
from repro.distributed.distributed_dfs import DistributedDynamicDFS
from repro.graph.generators import gnm_random_graph
from repro.graph.validation import check_dfs_tree
from repro.metrics.counters import MetricsRecorder
from repro.streaming.semi_streaming_dfs import SemiStreamingDynamicDFS
from repro.workloads.scenarios import build_scenario
from repro.workloads.updates import mixed_updates
from tests.helpers import decode_ops as _decode_ops

AMORTIZED_K = 10


def _drive(name, factory, updates):
    # Strict recorders: any counter a driver increments without registering it
    # in WELL_KNOWN_COUNTERS fails the suite here.
    metrics = MetricsRecorder(name, strict=True)
    driver = factory(metrics)
    driver.apply_all(updates)
    return driver, metrics


def _all_driver_maps(graph, updates, backend="dict"):
    """Run *updates* through every driver/policy combination on *backend*;
    returns ``{label: (parent_map, metrics)}``."""
    out = {}
    combos = [
        ("core_rebuild_every_1", lambda m: FullyDynamicDFS(graph, rebuild_every=1, metrics=m, backend=backend)),
        ("core_amortized", lambda m: FullyDynamicDFS(graph, rebuild_every=AMORTIZED_K, metrics=m, backend=backend)),
        ("core_auto", lambda m: FullyDynamicDFS(graph, rebuild_every=None, metrics=m, backend=backend)),
        ("core_brute", lambda m: FullyDynamicDFS(graph, service="brute", metrics=m, backend=backend)),
        ("stream_classic", lambda m: SemiStreamingDynamicDFS(graph, rebuild_every=1, metrics=m, backend=backend)),
        ("stream_amortized", lambda m: SemiStreamingDynamicDFS(graph, rebuild_every=AMORTIZED_K, metrics=m, backend=backend)),
        ("dist_classic", lambda m: DistributedDynamicDFS(graph, rebuild_every=1, metrics=m, backend=backend)),
        ("dist_amortized", lambda m: DistributedDynamicDFS(graph, rebuild_every=AMORTIZED_K, metrics=m, backend=backend)),
    ]
    for label, factory in combos:
        driver, metrics = _drive(label, factory, updates)
        assert driver.is_valid(), label
        out[label] = (driver.parent_map(), metrics)
    # The fault-tolerant driver replays the whole batch from its preprocessed
    # state — the rebuild_every=infinity extreme of the same pipeline.
    ft = FaultTolerantDFS(graph, backend=backend)
    tree, ft_graph = ft.query_with_graph(updates)
    assert check_dfs_tree(ft_graph, tree.parent_map()) == []
    out["fault_tolerant"] = (tree.parent_map(), ft.metrics)
    return out


def _assert_identical_and_valid(graph, updates, results):
    reference_label, (reference, _) = next(iter(results.items()))
    for label, (parent, _) in results.items():
        assert parent == reference, f"{label} diverged from {reference_label}"
    # Ground truth: the per-update static recomputation baseline tracks the
    # same graph; the shared tree must be a valid DFS forest of it.
    static = StaticRecomputeDFS(graph)
    static.apply_all(updates)
    assert static.is_valid()
    assert set(static.graph.vertices()) == {v for v in reference if not is_virtual_root(v)}
    assert check_dfs_tree(static.graph, reference) == []


#: Query-round counters every ``D``-backed combo must record identically on
#: both graph stores, which hand ``D`` their half-edges in different forms.
ROUND_COUNTERS = ("queries", "query_rounds", "d_vertex_queries", "d_probes", "d_target_segments", "d_reanchor_probes")


def _both_backend_maps(graph, updates):
    """Every combo on every backend, with cross-backend identity per label:
    the same parent map, and for the core and fault-tolerant drivers the
    same query-round counters."""
    results = _all_driver_maps(graph, updates, backend="dict")
    for backend in BACKENDS[1:]:
        other = _all_driver_maps(graph, updates, backend=backend)
        for label, (parent, metrics) in other.items():
            assert parent == results[label][0], f"{label}: {backend} backend diverged from dict"
            if label.startswith("core_") or label == "fault_tolerant":
                reference = results[label][1]
                for key in ROUND_COUNTERS:
                    assert metrics[key] == reference[key], f"{label}: {backend} backend counted {key} differently"
    return results


@pytest.mark.parametrize("seed", [0, 1])
def test_all_drivers_identical_on_sustained_churn(seed):
    scenario = build_scenario("sustained_churn", n=64, seed=seed, updates=100)
    updates = scenario.updates[:100]
    results = _both_backend_maps(scenario.graph, updates)
    _assert_identical_and_valid(scenario.graph, updates, results)

    # Amortization claims: >=3x fewer service rebuilds, fewer passes/rounds.
    _, stream_classic = results["stream_classic"]
    _, stream_amortized = results["stream_amortized"]
    assert stream_classic["service_rebuilds"] >= 3 * stream_amortized["service_rebuilds"]
    assert stream_amortized["stream_passes"] * 3 <= stream_classic["stream_passes"]

    _, dist_classic = results["dist_classic"]
    _, dist_amortized = results["dist_amortized"]
    assert dist_classic["service_rebuilds"] >= 3 * dist_amortized["service_rebuilds"]
    assert dist_amortized["congest_rounds"] < dist_classic["congest_rounds"]
    assert dist_amortized["congest_messages"] < dist_classic["congest_messages"]


@pytest.mark.parametrize("seed", [3, 4])
def test_all_drivers_identical_on_mixed_updates(seed):
    scenario = build_scenario("social_network_churn", n=48, seed=seed, updates=0)
    updates = mixed_updates(scenario.graph, 40, seed=seed + 20)
    results = _both_backend_maps(scenario.graph, updates)
    _assert_identical_and_valid(scenario.graph, updates, results)


def test_all_drivers_apply_vertex_insertions_with_repeated_and_self_neighbours():
    """A vertex insertion may name a neighbour twice, or the new vertex itself:
    ``validate_update`` accepts both and the graph keeps one edge per distinct
    neighbour.  Every driver must apply such updates and keep the same valid
    tree, including the streaming driver, whose stream must receive only the
    graph's normalised neighbour set."""
    graph = gnm_random_graph(20, 40, seed=1)
    a, b, c = 1, 2, 3
    new, new2 = 100, 101
    updates = [
        VertexInsertion(new, (a, a, b)),
        VertexInsertion(new2, (new2, c, new)),
        EdgeDeletion(new, a),
    ]
    results = _both_backend_maps(graph, updates)
    _assert_identical_and_valid(graph, updates, results)


# --------------------------------------------------------------------------- #
# Randomized differential harness
# --------------------------------------------------------------------------- #
# Small periods so short random sequences still cross the policy-trigger
# paths (overlay-served updates, broadcast-tree repairs).
DIFFERENTIAL_K = 3

#: label -> driver factory.  One entry per driver x policy combination the
#: harness must keep byte-identical; `metrics` is a strict recorder and `b`
#: the storage backend the combo runs on (the harness crosses every combo
#: with every entry of ``BACKENDS``).
DIFFERENTIAL_COMBOS = [
    ("core_classic", lambda g, m, b: FullyDynamicDFS(g, rebuild_every=1, metrics=m, backend=b)),
    ("core_amortized", lambda g, m, b: FullyDynamicDFS(g, rebuild_every=DIFFERENTIAL_K, metrics=m, backend=b)),
    ("core_brute", lambda g, m, b: FullyDynamicDFS(g, service="brute", metrics=m, backend=b)),
    ("stream_classic", lambda g, m, b: SemiStreamingDynamicDFS(g, rebuild_every=1, metrics=m, backend=b)),
    ("stream_amortized", lambda g, m, b: SemiStreamingDynamicDFS(g, rebuild_every=DIFFERENTIAL_K, metrics=m, backend=b)),
    ("dist_classic", lambda g, m, b: DistributedDynamicDFS(g, rebuild_every=1, metrics=m, backend=b)),
    (
        "dist_amortized_repair",
        lambda g, m, b: DistributedDynamicDFS(g, rebuild_every=DIFFERENTIAL_K, local_repair=True, metrics=m, backend=b),
    ),
    # Auto-tuned configurations, where every rebuild is demanded by a backend
    # policy hook: the depth-drift voluntary rebuild (the CONGEST
    # must_rebuild veto, default), the pure-repair extreme that disables it,
    # the core driver's default overlay / stale-tree rebuild_due cadence and
    # the streaming driver's rebuild_due.
    (
        "dist_auto_voluntary",
        lambda g, m, b: DistributedDynamicDFS(g, rebuild_every=None, local_repair=True, metrics=m, backend=b),
    ),
    (
        "dist_auto_pure_repair",
        lambda g, m, b: DistributedDynamicDFS(
            g, rebuild_every=None, local_repair=True, drift_rebuild_cost=float("inf"), metrics=m, backend=b
        ),
    ),
    ("core_auto", lambda g, m, b: FullyDynamicDFS(g, rebuild_every=None, metrics=m, backend=b)),
    ("stream_auto", lambda g, m, b: SemiStreamingDynamicDFS(g, rebuild_every=None, metrics=m, backend=b)),
    # Per-component accounting configurations (PR 5): charging waves inside
    # the component that executes them — or the legacy free-dissemination
    # accounting, or the initiator-rooted voluntary rebuild — changes the
    # round ledger and the broadcast roots, never the maintained tree.
    (
        "dist_auto_legacy_accounting",
        lambda g, m, b: DistributedDynamicDFS(
            g, rebuild_every=None, local_repair=True, component_accounting=False, metrics=m, backend=b
        ),
    ),
    (
        "dist_auto_initiator_root",
        lambda g, m, b: DistributedDynamicDFS(
            g, rebuild_every=None, local_repair=True, voluntary_root="initiator", metrics=m, backend=b
        ),
    ),
]


@st.composite
def differential_cases(draw):
    n = draw(st.integers(min_value=3, max_value=12))
    max_m = n * (n - 1) // 2
    m = draw(st.integers(min_value=0, max_value=min(3 * n, max_m)))
    seed = draw(st.integers(min_value=0, max_value=999))
    ops = draw(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 15), st.integers(0, 63)),
            min_size=1,
            max_size=6,
        )
    )
    return gnm_random_graph(n, m, seed=seed), ops


@settings(max_examples=20)
@given(differential_cases())
def test_differential_harness_identical_at_every_step(case):
    """All drivers x policies agree after *every* update, not just at the end."""
    graph, ops = case
    updates = _decode_ops(graph, ops)
    assume(updates)
    # Every combo on every storage backend, all compared against one another
    # after every single update — the dict/array byte-identity pin.
    drivers = [
        (f"{label}[{backend}]", factory(graph, MetricsRecorder(label, strict=True), backend))
        for backend in BACKENDS
        for label, factory in DIFFERENTIAL_COMBOS
    ]
    for step, update in enumerate(updates):
        reference = None
        for label, driver in drivers:
            driver.apply(update)
            parent = driver.parent_map()
            if reference is None:
                reference_label, reference = label, parent
            else:
                assert parent == reference, (
                    f"step {step} ({update.describe()}): {label} diverged from {reference_label}"
                )
    # End-of-sequence: the shared tree is a valid DFS forest of the ground
    # truth graph, and the fault-tolerant driver (replaying the whole batch
    # from preprocessed state) lands on the same tree.
    _, reference_driver = drivers[0]
    assert reference_driver.is_valid()
    ft = FaultTolerantDFS(graph, metrics=MetricsRecorder("ft", strict=True))
    tree, ft_graph = ft.query_with_graph(updates)
    assert check_dfs_tree(ft_graph, tree.parent_map()) == []
    assert tree.parent_map() == reference_driver.parent_map()
