"""Byte-identity pins: the trees and counters of 44 fixed driver runs.

Each run drives one update stream through one driver configuration and
hashes, after every update (after every query for ``FaultTolerantDFS``), the
parent map with its key order (``repr(list(parent_map().items()))``) and the
sorted non-timer counters of a strict recorder.  ``tests/fingerprints.json``
holds one sha256 per run.  A change that must not alter trees or model
counters (a refactor, a speed-up) keeps every hash; a failure names the runs
that differ.

The runs cover both query routes of :class:`~repro.core.queries.DQueryService`:
fresh ``D`` (``rebuild_every=1``), the auto policy, overlay views under a
fixed ``rebuild_every=4``, the streaming snapshot backend and the
fault-tolerant driver, whose targets hold vertices ``D`` never saw.

Record mode, for a change that alters trees or counters on purpose (say
why in the change's notes)::

    PYTHONPATH=src python tests/test_fingerprints.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.core.dynamic_dfs import FullyDynamicDFS
from repro.core.fault_tolerant import FaultTolerantDFS
from repro.distributed.distributed_dfs import DistributedDynamicDFS
from repro.graph.generators import barabasi_albert_graph, gnp_random_graph
from repro.metrics.counters import MetricsRecorder
from repro.streaming.semi_streaming_dfs import SemiStreamingDynamicDFS
from repro.workloads.updates import edge_churn, mixed_updates

FINGERPRINTS = Path(__file__).with_name("fingerprints.json")
UPDATES = 40
FT_PREFIXES = range(1, 9)

GRAPHS = {
    "gnp40": lambda: gnp_random_graph(40, 0.1, seed=1),
    "ba40": lambda: barabasi_albert_graph(40, 3, seed=2),
}
STREAMS = {"mixed_updates": mixed_updates, "edge_churn": edge_churn}

DRIVERS = {
    **{
        f"full-{backend}-k{k}": (lambda g, m, b=backend, k=k: FullyDynamicDFS(g, backend=b, rebuild_every=k, metrics=m))
        for backend in ("dict", "array")
        for k in (1, None, 4)
    },
    **{
        f"stream-k{k}": (lambda g, m, k=k: SemiStreamingDynamicDFS(g, rebuild_every=k, metrics=m))
        for k in (1, None)
    },
    "congest-kNone": lambda g, m: DistributedDynamicDFS(g, rebuild_every=None, metrics=m),
}
FT_BACKENDS = {f"ft-{backend}": backend for backend in ("dict", "array")}


def _state(digest, parent_map, metrics: MetricsRecorder) -> None:
    counters = sorted((k, v) for k, v in metrics.as_dict().items() if not k.startswith("time_"))
    digest.update(repr(list(parent_map.items())).encode())
    digest.update(repr(counters).encode())


def fingerprint(driver: str, graph: str, stream: str) -> str:
    """The sha256 of one run's states, one per update (per query)."""
    g = GRAPHS[graph]()
    updates = STREAMS[stream](g, UPDATES, seed=3)
    metrics = MetricsRecorder(driver, strict=True)
    digest = hashlib.sha256()
    if driver in FT_BACKENDS:
        ft = FaultTolerantDFS(g, backend=FT_BACKENDS[driver], metrics=metrics)
        for k in FT_PREFIXES:
            _state(digest, ft.query(updates[:k]).parent_map(), metrics)
    else:
        dyn = DRIVERS[driver](g, metrics)
        for update in updates:
            dyn.apply(update)
            _state(digest, dyn.parent_map(), metrics)
    return digest.hexdigest()


def all_fingerprints() -> dict:
    return {
        f"{driver}/{graph}/{stream}": fingerprint(driver, graph, stream)
        for driver in [*DRIVERS, *FT_BACKENDS]
        for graph in GRAPHS
        for stream in STREAMS
    }


def test_trees_and_counters_match_the_recorded_fingerprints():
    recorded = json.loads(FINGERPRINTS.read_text())
    got = all_fingerprints()
    assert len(got) == 44
    differ = sorted(run for run in recorded.keys() | got.keys() if recorded.get(run) != got.get(run))
    assert not differ, f"{len(differ)} of {len(got)} runs differ from {FINGERPRINTS.name}: {differ}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    FINGERPRINTS.write_text(json.dumps(all_fingerprints(), indent=1, sort_keys=True) + "\n")
    print(f"recorded {FINGERPRINTS}")
