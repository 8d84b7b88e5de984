"""Spans recorded from outside the program, around each layer's entry point.

:class:`Tracer` keeps spans ``(name, start, end, parent)`` in memory; a
layer's *self time* is its spans' durations minus the durations of their
child spans.  Spans are timed on the thread's CPU clock, like the end-to-end
latencies.  :func:`instrument` wraps the public entry point of every layer
for the duration of a ``with`` block and restores the originals on exit, so
nothing under ``src/`` changes.  Span names are the layer names the
per-layer metrics use (``core.queries``, ``core.structure_d``, ...).
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import thread_time
from typing import Callable, Dict, Iterator, List, NamedTuple

import repro.core.engine as engine_module
import repro.service.service as service_module
import repro.tree.lca as lca_module
from repro.core.dynamic_dfs import DStructureBackend
from repro.core.engine import UpdateEngine
from repro.core.queries import DQueryService
from repro.core.reroot_parallel import ParallelRerootEngine
from repro.metrics.counters import MetricsRecorder
from repro.service.batch import BatchingQueryFront
from repro.service.snapshot import TreeSnapshot

#: Name of the span the benchmark opens around one gathered read burst.
READ_BURST = "read_burst"

SNAPSHOT_BATCH_METHODS = (
    "lca_batch",
    "connected_batch",
    "path_length_batch",
    "is_ancestor_batch",
    "subtree_size_batch",
)


class SpanTotals(NamedTuple):
    """Aggregate of every span with one name."""

    count: int
    inclusive_s: float
    self_s: float


class Tracer:
    """In-memory span recorder for one single-threaded traced pass."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1]`` per span, in open order.
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, thread_time(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = thread_time()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order")

    def totals(self) -> Dict[str, SpanTotals]:
        """Per span name: count, inclusive seconds and self seconds."""
        if self._stack:
            raise RuntimeError("totals() called with spans still open")
        child_s = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        count: Counter = Counter()
        inclusive: Dict[str, float] = {}
        own: Dict[str, float] = {}
        for (name, start, end, _parent), children in zip(self.spans, child_s):
            count[name] += 1
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + (end - start - children)
        return {name: SpanTotals(count[name], inclusive[name], own[name]) for name in count}


def _spanned(tracer: Tracer, name: str) -> Callable[[Callable], Callable]:
    def make(original: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(idx)

        return wrapper

    return make


def _answer_batch(tracer: Tracer) -> Callable[[Callable], Callable]:
    """``DQueryService.answer_batch`` span plus the answered / asked counts."""

    def make(original: Callable) -> Callable:
        counts = tracer.counts

        def answer_batch(self, queries):
            idx = tracer.open("core.queries")
            try:
                answers = original(self, queries)
            finally:
                tracer.close(idx)
            counts["core.queries.asked"] += len(answers)
            counts["core.queries.answered"] += sum(a is not None for a in answers)
            return answers

        return answer_batch

    return make


def _counted_recorder(tracer: Tracer, method: str) -> Callable[[Callable], Callable]:
    """Count ``MetricsRecorder`` calls without a span (there are thousands
    per update; a span each would dominate the trace)."""

    def make(original: Callable) -> Callable:
        counts = tracer.counts

        if method == "inc":

            def inc(self, key, amount=1):
                counts["metrics.calls"] += 1
                return original(self, key, amount)

            return inc

        def record(self, key, value):
            counts["metrics.calls"] += 1
            return original(self, key, value)

        return record

    return make


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer's entry point for the ``with`` block, then restore
    the original attributes (also when the block raises)."""
    patches = []

    def patch(owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, make(original))
        patches.append((owner, attr, original))

    try:
        patch(UpdateEngine, "apply", _spanned(tracer, "core.engine"))
        patch(DStructureBackend, "rebuild", _spanned(tracer, "core.structure_d"))
        patch(DStructureBackend, "mutate", _spanned(tracer, "graph"))
        patch(engine_module, "reduce_update", _spanned(tracer, "core.reduction"))
        patch(DQueryService, "answer_batch", _answer_batch(tracer))
        patch(DQueryService, "canonical_sources", _spanned(tracer, "core.queries"))
        patch(ParallelRerootEngine, "reroot_many", _spanned(tracer, "core.reroot_parallel"))
        # Constructors reached through a module-level name: the engine's
        # commit, the service's publish, the snapshot's lazy LCA index.
        patch(engine_module, "DFSTree", _spanned(tracer, "tree.dfs_tree"))
        patch(service_module, "TreeSnapshot", _spanned(tracer, "service.service"))
        patch(lca_module, "ArrayLCAIndex", _spanned(tracer, "tree.lca"))
        for method in SNAPSHOT_BATCH_METHODS:
            patch(TreeSnapshot, method, _spanned(tracer, "service.snapshot"))
        patch(BatchingQueryFront, "flush", _spanned(tracer, "service.batch"))
        for method in ("inc", "observe_max", "set"):
            patch(MetricsRecorder, method, _counted_recorder(tracer, method))
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
