"""Tests for the metrics substrate."""

import math

import pytest

from repro.metrics.complexity import (
    doubling_ratios,
    estimate_power_law_exponent,
    fit_polylog_exponent,
    format_table,
    geometric_sizes,
    summarize_scaling,
)
from repro.metrics.counters import WELL_KNOWN_COUNTERS, MetricsRecorder


def test_counters_and_maxima():
    m = MetricsRecorder("test")
    m.inc("a")
    m.inc("a", 4)
    m.observe_max("width", 3)
    m.observe_max("width", 2)
    m.set("b", 7)
    assert m["a"] == 5 and m["b"] == 7 and m["width"] == 3
    assert m.get("missing") == 0 and m.get("missing", -1) == -1
    d = m.as_dict()
    assert d["a"] == 5 and d["max_width"] == 3
    m.reset()
    assert m.as_dict() == {}


def test_timer_and_merge_and_delta():
    m = MetricsRecorder()
    with m.timer("phase"):
        sum(range(1000))
    assert m["time_phase"] > 0
    other = MetricsRecorder()
    other.inc("a", 2)
    other.observe_max("w", 9)
    m.merge(other)
    assert m["a"] == 2 and m["w"] == 9
    before = m.as_dict()
    m.inc("a", 3)
    delta = m.snapshot_delta(before)
    assert delta["a"] == 3


def test_strict_recorder_rejects_unregistered_counters():
    """A counter a driver increments without a WELL_KNOWN_COUNTERS entry must
    fail loudly: the cross-driver harness runs every driver on strict
    recorders, so this is what makes registry drift impossible."""
    m = MetricsRecorder("strict", strict=True)
    with pytest.raises(KeyError, match="not registered"):
        m.inc("made_up_counter")
    with pytest.raises(KeyError, match="not registered"):
        m.observe_max("made_up_gauge", 3)
    with pytest.raises(KeyError, match="not registered"):
        m.set("made_up_value", 1)
    with pytest.raises(KeyError, match="not registered"):
        with m.timer("made_up_phase"):
            pass
    # The max_<name> alias is honoured only for maxima: an inc()/set() under
    # the raw name would still emit an unregistered key from as_dict().
    with pytest.raises(KeyError, match="not registered"):
        m.inc("overlay_size")
    with pytest.raises(KeyError, match="not registered"):
        m.set("update_batch_size", 3)
    assert m.as_dict() == {}, "rejected keys must not be recorded"


def test_strict_recorder_accepts_registered_counters_and_max_aliases():
    m = MetricsRecorder("strict", strict=True)
    m.inc("updates")
    # Maxima are recorded under the raw name but registered under max_<name>.
    m.observe_max("overlay_size", 5)
    m.observe_max("congest_max_message_words", 2)  # alias: max_congest_max_message_words
    m.set("snapshot_build_ms", 1.5)
    with m.timer("build_d"):
        pass
    d = m.as_dict()
    assert d["updates"] == 1 and d["max_overlay_size"] == 5


def test_registry_entries_are_documented():
    for key, description in WELL_KNOWN_COUNTERS.items():
        assert isinstance(key, str) and key
        assert isinstance(description, str) and description.strip(), key


def test_every_driver_records_only_registered_counters():
    """Drive all four drivers (plus baselines' heavy paths via validate=True)
    through strict recorders; any unregistered counter raises."""
    from repro.core.dynamic_dfs import FullyDynamicDFS
    from repro.core.fault_tolerant import FaultTolerantDFS
    from repro.distributed.distributed_dfs import DistributedDynamicDFS
    from repro.graph.generators import gnp_random_graph
    from repro.streaming.semi_streaming_dfs import SemiStreamingDynamicDFS
    from repro.workloads.updates import mixed_updates

    graph = gnp_random_graph(24, 0.15, seed=3, connected=True)
    updates = mixed_updates(graph, 8, seed=5)
    FullyDynamicDFS(
        graph, rebuild_every=3, validate=True, metrics=MetricsRecorder("core", strict=True)
    ).apply_all(updates)
    FullyDynamicDFS(
        graph, validate=True, metrics=MetricsRecorder("core_auto", strict=True)
    ).apply_all(updates)
    FullyDynamicDFS(
        graph, service="brute", metrics=MetricsRecorder("brute", strict=True)
    ).apply_all(updates)
    SemiStreamingDynamicDFS(
        graph, rebuild_every=3, metrics=MetricsRecorder("stream", strict=True)
    ).apply_all(updates)
    DistributedDynamicDFS(
        graph, rebuild_every=3, metrics=MetricsRecorder("dist", strict=True)
    ).apply_all(updates)
    FaultTolerantDFS(graph, metrics=MetricsRecorder("ft", strict=True)).query(updates[:4])


def test_power_law_and_polylog_fits():
    sizes = [2**k for k in range(6, 12)]
    linear = [3 * s for s in sizes]
    assert abs(estimate_power_law_exponent(sizes, linear) - 1.0) < 0.01
    quadratic = [s * s for s in sizes]
    assert abs(estimate_power_law_exponent(sizes, quadratic) - 2.0) < 0.01
    polylog = [math.log2(s) ** 2 for s in sizes]
    assert abs(fit_polylog_exponent(sizes, polylog) - 2.0) < 0.05
    assert estimate_power_law_exponent(sizes, polylog) < 0.6
    with pytest.raises(ValueError):
        estimate_power_law_exponent([10], [1])


def test_geometric_sizes_and_ratios():
    sizes = geometric_sizes(100, 1000, factor=2)
    assert sizes == [100, 200, 400, 800]
    with pytest.raises(ValueError):
        geometric_sizes(0, 10)
    ratios = doubling_ratios([1, 2, 4], [10, 20, 40])
    assert ratios == [2.0, 2.0]


def test_format_table_and_summary():
    table = format_table(["n", "rounds"], [[10, 3], [100, 6]])
    assert "rounds" in table and "100" in table
    summary = summarize_scaling("demo", [10, 100], {"rounds": [3, 6]})
    assert "demo" in summary and "fits:" in summary


def test_counter_coverage_allow_list_names_registered_counters():
    from tools.counter_coverage import ALLOWED_UNRECORDED

    assert set(ALLOWED_UNRECORDED) <= set(WELL_KNOWN_COUNTERS)
    assert all(reason.strip() for reason in ALLOWED_UNRECORDED.values())
