"""Tests of the benchmark's own logic, all at tiny n."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

pytest.importorskip("numpy")  # the array core and the read generator need it

from repro.core import FullyDynamicDFS
from repro.core.updates import EdgeDeletion, VertexDeletion
from repro.graph.generators import cycle_with_chords

from perfbench import tracing
from perfbench.bench import (
    DIAGNOSTICS,
    END_TO_END,
    PER_LAYER,
    DeterminismError,
    check_determinism,
    check_pass,
    layer_metrics,
    reference_parent_maps,
    run_pass,
)
from perfbench.stats import percentile
from perfbench.tracing import Tracer, instrument
from perfbench.workloads import WORKLOADS, Workload, make_inputs

REPO = Path(__file__).resolve().parents[2]


def _tiny(rebuild_every=1, **overrides) -> Workload:
    base = WORKLOADS["edge_churn"]
    fields = dict(base.__dict__, name="tiny", n=24, rebuild_every=rebuild_every, read_every=1, bursts_per_phase=1)
    fields.update(overrides)
    return Workload(**fields)


def test_percentile_refuses_p95_from_fewer_than_200_samples():
    with pytest.raises(ValueError, match="200"):
        percentile(list(range(199)), 0.95)
    assert percentile([float(x) for x in range(1, 201)], 0.95) == 190.0
    assert percentile([float(x) for x in range(1, 21)], 0.50) == 10.0
    with pytest.raises(ValueError):
        percentile(list(range(19)), 0.50)


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [
        ["core.engine", 0.0, 10.0, -1],
        ["core.reduction", 2.0, 6.0, 0],
        ["core.queries", 3.0, 5.0, 1],
        ["core.queries", 7.0, 8.0, 0],
    ]
    totals = tracer.totals()
    assert totals["core.engine"].self_s == pytest.approx(10.0 - 4.0 - 1.0)
    assert totals["core.reduction"].self_s == pytest.approx(4.0 - 2.0)
    assert totals["core.queries"] == (2, pytest.approx(3.0), pytest.approx(3.0))


def test_reduce_update_answer_batch_nests_and_is_subtracted():
    graph = cycle_with_chords(16, 2, seed=3)
    dyn = FullyDynamicDFS(graph, rebuild_every=1)
    parent = dyn.parent_map(include_virtual_root=False)
    # The deepest tree edge: deleting it makes reduce_update query D.
    depth = {}

    def level(v):
        if v not in depth:
            depth[v] = 0 if parent[v] is None else level(parent[v]) + 1
        return depth[v]

    v = max(parent, key=level)
    tracer = Tracer()
    with instrument(tracer):
        dyn.apply(EdgeDeletion(parent[v], v))
    spans = tracer.spans
    reductions = [i for i, s in enumerate(spans) if s[0] == "core.reduction"]
    nested = [s for s in spans if s[0] == "core.queries" and s[3] in reductions]
    assert nested, "answer_batch should run inside reduce_update"
    children = sum(s[2] - s[1] for s in spans if s[3] in reductions)
    inclusive = sum(spans[i][2] - spans[i][1] for i in reductions)
    assert tracer.totals()["core.reduction"].self_s == pytest.approx(inclusive - children)


def test_instrument_restores_original_attributes_even_on_error():
    targets = [
        (tracing.UpdateEngine, "apply"),
        (tracing.DQueryService, "answer_batch"),
        (tracing.engine_module, "reduce_update"),
        (tracing.engine_module, "DFSTree"),
        (tracing.service_module, "TreeSnapshot"),
        (tracing.lca_module, "ArrayLCAIndex"),
        (tracing.TreeSnapshot, "lca_batch"),
        (tracing.BatchingQueryFront, "flush"),
        (tracing.MetricsRecorder, "inc"),
    ]
    originals = [vars(owner)[attr] for owner, attr in targets]
    with pytest.raises(RuntimeError, match="boom"):
        with instrument(Tracer()):
            assert all(vars(o)[a] is not orig for (o, a), orig in zip(targets, originals))
            raise RuntimeError("boom")
    assert all(vars(o)[a] is orig for (o, a), orig in zip(targets, originals))


def test_failed_op_share_counts_raised_and_mismatched_operations():
    workload = _tiny()
    inputs = make_inputs(workload, seed=5, updates=8)
    inputs.segments[1].updates[-1] = EdgeDeletion(10**6, 0)  # unknown vertex: apply() raises
    result = run_pass(workload, inputs)
    assert result.ledger.failed == 1
    snapshot, reads, answers = result.samples[0]
    answers[0] = answers[0]._replace(answer="wrong")
    problems = check_pass(result, inputs, reference_parent_maps(inputs))
    assert result.ledger.attempted == 8 + 8 * 500
    assert result.ledger.failed == 2
    assert result.ledger.failed_share == pytest.approx(2 / result.ledger.attempted)
    assert any("sampled read" in p for p in problems)


def test_traced_passes_repeat_counts_and_skip_overlay_queries_at_rebuild_every_1():
    workload = _tiny(rebuild_every=1)
    inputs = make_inputs(workload, seed=2, updates=8)
    references = reference_parent_maps(inputs)
    untraced = run_pass(workload, inputs)
    passes = []
    for _ in range(2):
        tracer = Tracer()
        result = run_pass(workload, inputs, tracer)
        assert check_pass(result, inputs, references) == []
        passes.append((result, tracer))
    metrics = layer_metrics(passes, untraced)
    assert {m[0] for m in PER_LAYER + DIAGNOSTICS} == set(metrics)
    assert metrics["core.queries.d_overlay_view_queries"][0] == 0
    assert metrics["service.service.snapshots_published"][0] == 8
    check_determinism(passes[0][0].counts, passes[1][0].counts)


def test_determinism_check_names_the_drifting_counter():
    with pytest.raises(DeterminismError, match="core.queries.d_probes"):
        check_determinism({"core.queries.d_probes": 10, "metrics.calls": 3},
                          {"core.queries.d_probes": 11, "metrics.calls": 3})


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    workload = _tiny(make_stream=WORKLOADS["mixed_churn"].make_stream)
    a, b, c = (make_inputs(workload, s, 12) for s in (1, 1, 2))
    assert len(a.segments) == 4 and a.updates == 12
    for sa, sb in zip(a.segments, b.segments):
        assert sa.updates == sb.updates and (sa.read_a == sb.read_a).all()
    assert [s.updates for s in a.segments] != [s.updates for s in c.segments]
    for segment in a.segments:
        deleted = {u.v for u in segment.updates if isinstance(u, VertexDeletion)}
        assert not deleted & set(segment.read_vertices)


def test_benchmark_json_matches_the_code():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    baseline = json.loads((REPO / "perfbench" / "baseline.json").read_text())
    assert baseline["run_seconds"] == spec["run_seconds"]
    for name, workload in WORKLOADS.items():
        recorded = baseline["workloads"][name]
        for block, value in workload.describe().items():
            assert recorded[block] == value, (name, block)
