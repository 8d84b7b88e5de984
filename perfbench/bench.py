"""Closed-loop passes, output checks, and the two kinds of run.

:func:`run_end_to_end` (``--trace 0``) measures one untraced pass over the
run's graphs, each driven through its stream by a fresh deployment.
:func:`run_traced` (``--trace 1``) applies shorter streams three times —
traced, untraced, traced — and reports per-layer self times
and exact counts; the two traced passes must agree on every count (the
determinism check), and the untraced pass against the second traced one
(both past the first pass's warm-up) gives the tracing overhead.  Output
checks run outside every timed region.

Every duration is read from the thread's CPU clock (``time.thread_time``)
and scaled to the reference host's speed (:mod:`perfbench.speed`).  The
program is single-threaded and never blocks, so on an idle machine CPU time
equals wall time; on a shared host it leaves out the time the thread waits
for a CPU (the kernel subtracts hypervisor steal time from it too), which
is what made wall-time figures of identical work differ up to twofold
between runs, and the speed scaling removes most of what remains.
"""

from __future__ import annotations

import asyncio
import gc
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter, thread_time
from typing import Dict, List, Optional, Tuple

from repro.core import FullyDynamicDFS
from repro.exceptions import UpdateError
from repro.graph.graph import UndirectedGraph
from repro.graph.validation import check_dfs_tree
from repro.metrics.counters import MetricsRecorder
from repro.service import BatchingQueryFront, DFSTreeService

from perfbench.speed import HostSpeed
from perfbench.stats import OpLedger, percentile
from perfbench.tracing import READ_BURST, Tracer, instrument
from perfbench.workloads import BURST_SIZE, Inputs, Segment, Workload, make_inputs

#: Constructions ``setup_s`` takes the median of (cycling over the run's graphs).
SETUP_REPEATS = 24
#: Updates (with the read bursts that follow them) per host-speed window.
SPEED_WINDOW = 32
#: A traced run applies ``updates_for(seconds) / TRACE_DIVISOR`` updates per
#: pass, so its three passes (two slowed by tracing) last about ``--seconds``.
TRACE_DIVISOR = 3.5

#: ``(name, unit, better)`` of every end-to-end metric (``--trace 0``).
END_TO_END = (
    ("update_p50_ms", "ms", "lower"),
    ("update_p95_ms", "ms", "lower"),
    ("updates_per_s", "1/s", "higher"),
    ("read_p50_ms", "ms", "lower"),
    ("read_p95_ms", "ms", "lower"),
    ("reads_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Layers on the writer's path, timed per update (``service.service`` is the
#: commit listener's snapshot publication, timed per commit).
UPDATE_LAYERS = (
    "core.engine",
    "core.structure_d",
    "graph",
    "core.reduction",
    "core.queries",
    "core.reroot_parallel",
    "tree.dfs_tree",
    "service.service",
)
#: Exact counts: metric name -> (recorder, key).  ``driver`` is the
#: FullyDynamicDFS recorder, ``service`` the DFSTreeService recorder.
RECORDER_COUNTS = {
    "core.queries.queries": ("driver", "queries"),
    "core.queries.d_vertex_queries": ("driver", "d_vertex_queries"),
    "core.queries.d_probes": ("driver", "d_probes"),
    "core.queries.d_target_segments": ("driver", "d_target_segments"),
    "core.queries.d_overlay_view_queries": ("driver", "d_overlay_view_queries"),
    "core.queries.d_reanchor_probes": ("driver", "d_reanchor_probes"),
    "core.structure_d.d_builds": ("driver", "d_builds"),
    "core.structure_d.d_build_work": ("driver", "d_build_work"),
    "core.maintenance.service_rebuilds": ("driver", "service_rebuilds"),
    "core.maintenance.overlay_served_updates": ("driver", "overlay_served_updates"),
    "core.maintenance.service_rebuilds_forced": ("driver", "service_rebuilds_forced"),
    "core.reduction.reduction_tasks": ("driver", "reduction_tasks"),
    "core.reroot_parallel.query_rounds": ("driver", "query_rounds"),
    "core.reroot_parallel.max_queries_per_round": ("driver", "max_queries_per_round"),
    "core.reroot_parallel.vertices_added": ("driver", "vertices_added"),
    "graph.max_overlay_size": ("driver", "max_overlay_size"),
    "service.service.snapshots_published": ("service", "snapshots_published"),
    "service.batch.query_batches": ("service", "query_batches"),
    "service.batch.max_query_batch_size": ("service", "max_query_batch_size"),
    "service.batch.query_errors": ("service", "query_errors"),
}
#: Counts the workload fixes, or that a policy trades against another
#: count, so neither direction is better.
CONTEXT_COUNTS = frozenset(
    {
        "core.maintenance.overlay_served_updates",
        "core.reduction.reduction_tasks",
        "core.reroot_parallel.max_queries_per_round",
        "graph.max_overlay_size",
        "service.service.snapshots_published",
        "service.batch.query_batches",
        "service.batch.max_query_batch_size",
    }
)

#: ``(name, unit, better)`` of every per-layer metric (``--trace 1``): the
#: layers' self times, and the counts of work whose lower value is better.
PER_LAYER = (
    tuple((f"{layer}.self_ms", "ms/update", "lower") for layer in UPDATE_LAYERS[:-1])
    + (
        ("service.service.publish_ms", "ms/commit", "lower"),
        ("service.batch.self_ms", "ms/burst", "lower"),
        ("service.snapshot.answer_ms", "ms/burst", "lower"),
        ("tree.lca.index_build_ms", "ms/build", "lower"),
    )
    + tuple((name, "count", "lower") for name in RECORDER_COUNTS if name not in CONTEXT_COUNTS)
    + (
        # Counted by the tracing wrappers, so only traced passes have them.
        ("tree.dfs_tree.commits", "count", "lower"),
        ("metrics.calls", "count", "lower"),
    )
)
#: ``(name, unit)`` printed beside the per-layer metrics but not judged:
#: shares of update or read time (a faster layer raises every other layer's
#: share), the context counts, the share of non-None ``D`` answers (``None``
#: is a correct answer), and the tracing overhead.
DIAGNOSTICS = (
    tuple((f"{layer}.share", "ratio") for layer in UPDATE_LAYERS)
    + (("service.batch.share", "ratio"), ("service.snapshot.share", "ratio"), ("tree.lca.share", "ratio"))
    + tuple((name, "count") for name in RECORDER_COUNTS if name in CONTEXT_COUNTS)
    + (
        ("core.queries.answered_ratio", "ratio"),
        ("trace.untraced_updates_per_s", "1/s"),
        ("trace.traced_updates_per_s", "1/s"),
        ("trace.overhead_share", "ratio"),
    )
)

Metrics = Dict[str, Tuple[float, str]]


class DeterminismError(RuntimeError):
    """A count-type metric differed between two passes over one stream."""


@dataclass
class Deployment:
    driver: FullyDynamicDFS
    service: DFSTreeService
    front: BatchingQueryFront


def deploy(workload: Workload, graph: UndirectedGraph) -> Deployment:
    """Construct the driver (initial DFS and first ``D`` build), the
    snapshot service and the batching front — the work ``setup_s`` times."""
    driver = FullyDynamicDFS(
        graph,
        backend=workload.backend,
        rebuild_every=workload.rebuild_every,
        metrics=MetricsRecorder("driver"),
    )
    service = DFSTreeService(driver, metrics=MetricsRecorder("service"))
    return Deployment(driver, service, BatchingQueryFront(service))


@dataclass
class PassResult:
    """What one closed-loop pass over every segment measured and observed."""

    update_s: List[float] = field(default_factory=list)
    burst_s: List[float] = field(default_factory=list)
    reads_answered: int = 0
    ledger: OpLedger = field(default_factory=OpLedger)
    first_error: Optional[str] = None
    #: Per segment: the final graph and parent map.
    finals: List[tuple] = field(default_factory=list)
    #: Per segment: ``(snapshot, reads, results)`` of the burst kept for the
    #: output check.
    samples: List[tuple] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)
    speed: HostSpeed = field(init=False)

    def __post_init__(self) -> None:
        self.speed = HostSpeed(self.update_s, self.burst_s)

    @property
    def updates_per_s(self) -> float:
        return len(self.update_s) / sum(self.update_s)


async def _drive(
    workload: Workload, segment: Segment, dep: Deployment, result: PassResult, tracer: Optional[Tracer]
) -> None:
    ledger = result.ledger
    speed = result.speed
    sample_at = segment.bursts // 2
    burst = 0
    for i, update in enumerate(segment.updates, 1):
        start = thread_time()
        try:
            dep.driver.apply(update)
        except Exception as exc:  # counted, reported, and the loop goes on
            ledger.add(1, 1)
            result.first_error = result.first_error or f"update {i}: {exc!r}"
        else:
            result.update_s.append(thread_time() - start)
            ledger.add(1)
        speed.probe()
        bursts = workload.bursts_per_phase if i % workload.read_every == 0 else 0
        for _ in range(bursts):
            reads = segment.burst(burst)
            front = dep.front
            start = thread_time()
            span = tracer.open(READ_BURST) if tracer is not None else -1
            answers = await asyncio.gather(
                *[
                    front.subtree_size(a) if kind == "subtree_size" else getattr(front, kind)(a, b)
                    for kind, a, b in reads
                ],
                return_exceptions=True,
            )
            if tracer is not None:
                tracer.close(span)
            result.burst_s.append(thread_time() - start)
            speed.probe()
            errors = sum(isinstance(answer, BaseException) for answer in answers)
            result.reads_answered += len(answers) - errors
            ledger.add(len(answers), errors)
            if errors and result.first_error is None:
                result.first_error = f"burst {burst}: {errors} read(s) raised"
            if burst == sample_at:
                result.samples.append((dep.service.snapshot(), reads, answers))
            burst += 1
        if i % SPEED_WINDOW == 0:
            speed.close_window()
    speed.close_window()


def _recorders(dep: Deployment) -> Dict[str, Dict[str, float]]:
    return {"driver": dep.driver.metrics.as_dict(), "service": dep.service.metrics.as_dict()}


def _add_counts(counts: Dict[str, float], before: dict, after: dict) -> None:
    """Add one segment's recorder deltas to *counts* (for ``max_*`` keys,
    which are high-water marks, keep the largest)."""
    for name, (which, key) in RECORDER_COUNTS.items():
        if key.startswith("max_"):
            counts[name] = max(counts.get(name, 0), after[which].get(key, 0))
        else:
            counts[name] = counts.get(name, 0) + after[which].get(key, 0) - before[which].get(key, 0)


def run_pass(workload: Workload, inputs: Inputs, tracer: Optional[Tracer] = None) -> PassResult:
    """Drive a fresh deployment through each segment in turn (traced when
    *tracer* is given); one deployment is alive at a time."""
    result = PassResult()
    for segment in inputs.segments:
        dep = deploy(workload, segment.graph)
        before = _recorders(dep)
        gc.collect()
        if tracer is None:
            asyncio.run(_drive(workload, segment, dep, result, None))
        else:
            with instrument(tracer):
                asyncio.run(_drive(workload, segment, dep, result, tracer))
        _add_counts(result.counts, before, _recorders(dep))
        result.finals.append((dep.driver.graph, dep.driver.parent_map()))
        dep = None
    return result


def reference_parent_maps(inputs: Inputs) -> List[dict]:
    """Per segment, the final parent map of the dict ``rebuild_every=1``
    driver on the same stream (updates the validator rejects are skipped:
    they change nothing)."""
    maps = []
    for segment in inputs.segments:
        ref = FullyDynamicDFS(segment.graph, backend="dict", rebuild_every=1)
        for update in segment.updates:
            try:
                ref.apply(update)
            except UpdateError:
                continue
        maps.append(ref.parent_map())
    return maps


def check_pass(result: PassResult, inputs: Inputs, references: List[dict]) -> List[str]:
    """Output checks; failures are charged to ``result.ledger``.

    A segment whose final tree is not a DFS forest of its final graph, or
    differs from the reference, fails every update of that segment.  A
    sampled read whose answer or version differs from the scalar snapshot
    method fails once.
    """
    problems = []
    for k, ((graph, parent), segment, reference) in enumerate(zip(result.finals, inputs.segments, references)):
        found = []
        tree_problems = check_dfs_tree(graph, parent)
        if tree_problems:
            found.append(f"graph {k}: final tree is not a DFS forest: " + "; ".join(tree_problems[:3]))
        if parent != reference:
            found.append(f"graph {k}: final parent map differs from the dict rebuild_every=1 reference")
        if found:
            result.ledger.fail(len(segment.updates))
            problems += found
    mismatched = 0
    for snapshot, reads, answers in result.samples:
        for (kind, a, b), got in zip(reads, answers):
            if isinstance(got, BaseException):
                continue  # already counted as raised
            want = snapshot.subtree_size(a) if kind == "subtree_size" else getattr(snapshot, kind)(a, b)
            if got.answer != want or got.version != snapshot.version:
                mismatched += 1
    if mismatched:
        result.ledger.fail(mismatched)
        problems.append(f"{mismatched} sampled read(s) differ from the scalar snapshot methods")
    if result.first_error is not None:
        problems.append(result.first_error)
    return problems


@dataclass
class RunReport:
    metrics: Metrics
    ledger: OpLedger
    problems: List[str]
    #: Human-readable context: sample counts and stream sizes.
    notes: List[str]
    #: Printed beside the metrics but not part of the result line.
    diagnostics: Metrics = field(default_factory=dict)


def _freeze_inputs() -> None:
    """Move every object alive now (the generated inputs) out of the
    collector's reach, so full collections during the run scan the
    program's objects, not the benchmark's."""
    gc.collect()
    gc.freeze()


def _time_setups(workload: Workload, inputs: Inputs) -> Tuple[List[float], HostSpeed]:
    """Construct a deployment :data:`SETUP_REPEATS` times, cycling over the
    segments' graphs; returns the scaled durations and the speed factor."""
    times: List[float] = []
    speed = HostSpeed(times)
    for k in range(SETUP_REPEATS):
        graph = inputs.segments[k % len(inputs.segments)].graph
        gc.collect()
        start = thread_time()
        deploy(workload, graph)
        times.append(thread_time() - start)
        speed.probe()
    speed.close_window()
    return times, speed


def run_end_to_end(workload: Workload, seed: int, seconds: float) -> RunReport:
    phases = [perf_counter()]
    inputs = make_inputs(workload, seed, workload.updates_for(seconds))
    _freeze_inputs()
    setup_s, setup_speed = _time_setups(workload, inputs)
    phases.append(perf_counter())
    result = run_pass(workload, inputs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    phases.append(perf_counter())
    references = reference_parent_maps(inputs)
    phases.append(perf_counter())
    problems = check_pass(result, inputs, references)
    ups, bursts = result.update_s, result.burst_s
    metrics: Metrics = {
        "update_p50_ms": (percentile(ups, 0.50) * 1e3, "ms"),
        "update_p95_ms": (percentile(ups, 0.95) * 1e3, "ms"),
        "updates_per_s": (len(ups) / sum(ups), "1/s"),
        "read_p50_ms": (percentile(bursts, 0.50) * 1e3, "ms"),
        "read_p95_ms": (percentile(bursts, 0.95) * 1e3, "ms"),
        "reads_per_s": (result.reads_answered / sum(bursts), "1/s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [
        f"graphs={len(inputs.segments)} updates={inputs.updates} update_samples={len(ups)} "
        f"bursts={len(bursts)} burst_size={BURST_SIZE} reads={result.reads_answered} "
        f"setup_constructions={len(setup_s)}",
        "wall_s inputs+setup={:.2f} measured_loop={:.2f} reference={:.2f}".format(
            *(b - a for a, b in zip(phases, phases[1:]))
        ),
        f"host speed factor (1 = reference host idle) min/median/max over {len(result.speed.factors)} "
        f"windows: {result.speed.summary()}; setup: {setup_speed.summary()}",
        f"failed_op_share={result.ledger.failed_share:.6g} ratio "
        f"({result.ledger.failed} of {result.ledger.attempted} operations)",
    ]
    return RunReport(metrics, result.ledger, problems, notes)


def _traced_counts(result: PassResult, tracer: Tracer) -> Dict[str, float]:
    counts = dict(result.counts)
    asked = tracer.counts["core.queries.asked"]
    counts["core.queries.answered_ratio"] = tracer.counts["core.queries.answered"] / asked if asked else 1.0
    counts["tree.dfs_tree.commits"] = sum(1 for span in tracer.spans if span[0] == "tree.dfs_tree")
    counts["metrics.calls"] = tracer.counts["metrics.calls"]
    return counts


def check_determinism(first: Dict[str, float], second: Dict[str, float]) -> None:
    """Raise :class:`DeterminismError` naming the first count that drifted."""
    for name in sorted(set(first) | set(second)):
        if first.get(name) != second.get(name):
            raise DeterminismError(
                f"count {name} drifted between passes over one stream: "
                f"{first.get(name)!r} != {second.get(name)!r}"
            )


def layer_metrics(passes: List[Tuple[PassResult, Tracer]], untraced: PassResult) -> Metrics:
    """Per-layer metrics and diagnostics from traced *passes* (times
    averaged over them, counts from the first) plus the overhead of the
    last one against *untraced*."""
    updates = sum(len(p.update_s) for p, _ in passes)
    bursts = sum(len(p.burst_s) for p, _ in passes)
    totals: Dict[str, List[float]] = {}
    for result, tracer in passes:
        # Spans are scaled by their pass's median host-speed factor.
        scale = statistics.median(result.speed.factors)
        for name, t in tracer.totals().items():
            agg = totals.setdefault(name, [0, 0.0, 0.0])
            agg[0] += t.count
            agg[1] += t.inclusive_s / scale
            agg[2] += t.self_s / scale

    def self_s(name: str) -> float:
        return totals.get(name, [0, 0.0, 0.0])[2]

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    update_s = totals.get("core.engine", [0, 0.0, 0.0])[1]
    read_s = totals.get(READ_BURST, [0, 0.0, 0.0])[1]
    commits = totals.get("service.service", [0])[0]
    builds = totals.get("tree.lca", [0])[0]
    batch_s = self_s(READ_BURST) + self_s("service.batch")
    out: Metrics = {}
    for layer in UPDATE_LAYERS[:-1]:
        out[f"{layer}.self_ms"] = (ratio(self_s(layer), updates) * 1e3, "ms/update")
    out["service.service.publish_ms"] = (ratio(self_s("service.service"), commits) * 1e3, "ms/commit")
    out["service.batch.self_ms"] = (ratio(batch_s, bursts) * 1e3, "ms/burst")
    out["service.snapshot.answer_ms"] = (ratio(self_s("service.snapshot"), bursts) * 1e3, "ms/burst")
    out["tree.lca.index_build_ms"] = (ratio(self_s("tree.lca"), builds) * 1e3, "ms/build")
    for layer in UPDATE_LAYERS:
        out[f"{layer}.share"] = (ratio(self_s(layer), update_s), "ratio")
    out["service.batch.share"] = (ratio(batch_s, read_s), "ratio")
    out["service.snapshot.share"] = (ratio(self_s("service.snapshot"), read_s), "ratio")
    out["tree.lca.share"] = (ratio(self_s("tree.lca"), read_s), "ratio")

    counts = _traced_counts(*passes[0])
    for name, unit, *_ in PER_LAYER + DIAGNOSTICS:
        if name in counts:
            out[name] = (counts[name], unit)
    traced_ups = passes[-1][0].updates_per_s
    untraced_ups = untraced.updates_per_s
    out["trace.untraced_updates_per_s"] = (untraced_ups, "1/s")
    out["trace.traced_updates_per_s"] = (traced_ups, "1/s")
    out["trace.overhead_share"] = (1.0 - traced_ups / untraced_ups, "ratio")
    return out


def run_traced(workload: Workload, seed: int, seconds: float) -> RunReport:
    count = max(1, round(workload.updates_for(seconds) / TRACE_DIVISOR))
    inputs = make_inputs(workload, seed, count)
    _freeze_inputs()
    references = reference_parent_maps(inputs)
    ledger = OpLedger()
    problems: List[str] = []
    runs = []
    for traced in (True, False, True):
        tracer = Tracer() if traced else None
        result = run_pass(workload, inputs, tracer)
        problems += check_pass(result, inputs, references)
        ledger.add(result.ledger.attempted, result.ledger.failed)
        result.finals, result.samples = [], []  # keep timings and spans only
        runs.append((result, tracer))
    untraced = runs[1][0]
    passes = [runs[0], runs[2]]
    check_determinism(_traced_counts(*passes[0]), _traced_counts(*passes[1]))
    check_determinism(untraced.counts, passes[0][0].counts)
    notes = [
        f"graphs={len(inputs.segments)} updates_per_pass={inputs.updates} passes=traced,untraced,traced "
        f"bursts_per_pass={len(untraced.burst_s)} spans_per_pass={len(passes[0][1].spans)}",
        f"failed_op_share={ledger.failed_share:.6g} ratio ({ledger.failed} of {ledger.attempted} operations)",
    ]
    everything = layer_metrics(passes, untraced)
    judged = {name for name, _, _ in PER_LAYER}
    return RunReport(
        {name: everything[name] for name, _, _ in PER_LAYER},
        ledger,
        problems,
        notes,
        {name: value for name, value in everything.items() if name not in judged},
    )
