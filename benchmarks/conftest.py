"""Shared helpers for the benchmark harnesses (see docs/benchmarks.md).

Each benchmark module regenerates one experiment from the index in
docs/benchmarks.md: it measures wall-clock time with pytest-benchmark *and*
prints the model-level scaling table (query rounds, passes, CONGEST rounds,
...) that corresponds to the theorem being reproduced.  The tables are also attached to the benchmark
records via ``benchmark.extra_info`` so ``--benchmark-json`` keeps them.

Machine-readable trajectories
-----------------------------
Every experiment additionally emits ``BENCH_<experiment>.json`` at the repo
root (``REPRO_BENCH_JSON_DIR`` overrides the directory, ``REPRO_BENCH_JSON=0``
disables emission).  ``record_table`` routes its scaling tables there
automatically; benchmarks with wall-clock claims add median-of-k timings,
counters and asserted speedup floors via :func:`emit_bench` /
:func:`timed_median`.  ``tools/bench_compare.py`` diffs two such files —
counters exactly, timings within a tolerance band — which is how CI checks
the committed trajectory (see docs/benchmarks.md for the schema).

The accumulator itself lives in :mod:`benchmarks._trajectory` so that the
pytest-loaded conftest instance and ``import benchmarks.conftest`` share one
dict.
"""

from __future__ import annotations

import pathlib
import sys
from typing import Dict, List, Sequence

import pytest

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(_REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT))

from benchmarks._trajectory import (  # noqa: E402  (path bootstrap above)
    REPO_ROOT,
    SCALE,
    emit_bench,
    timed_median,
    write_bench_files,
)

__all__ = [
    "REPO_ROOT",
    "SCALE",
    "emit_bench",
    "record_table",
    "scale_sizes",
    "timed_median",
]


def scale_sizes(normal: Sequence[int], small: Sequence[int]) -> List[int]:
    """Pick the size sweep according to REPRO_BENCH_SCALE."""
    return list(small if SCALE == "small" else normal)


def pytest_sessionfinish(session, exitstatus):  # noqa: ARG001 - pytest hook
    write_bench_files()


def record_table(benchmark, label: str, sizes: Sequence[float], metrics: Dict[str, Sequence[float]]) -> None:
    """Print a scaling table, attach it to the benchmark record, and route it
    into the experiment's ``BENCH_<experiment>.json`` trajectory."""
    from repro.metrics.complexity import summarize_scaling

    text = summarize_scaling(label, list(sizes), {k: list(v) for k, v in metrics.items()})
    print("\n" + text)
    table = {
        "sizes": list(sizes),
        **{k: list(v) for k, v in metrics.items()},
    }
    benchmark.extra_info[label] = table
    emit_bench(label.split("_", 1)[0], tables={label: table})


@pytest.fixture
def scale() -> str:
    return SCALE
