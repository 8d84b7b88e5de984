"""The benchmark's workloads and their seeded inputs.

Every input — graph, update stream, read pairs — is generated from the
workload seed before anything is timed; the program under test only ever
receives the generated inputs.  All loads are closed loops on one thread:
one writer applies the next update when ``apply()`` returns, and after every
``read_every``-th update the reader issues ``bursts_per_phase`` gathered
bursts of :data:`BURST_SIZE` reads, each burst once the previous one has been
answered.

Sizes are smaller than the ROADMAP's n = 10^3..10^5 sweep: the update-latency
distribution is heavy-tailed (a tree-edge deletion near the root reroots a
large subtree), so a run needs thousands of updates before its p95 and
throughput repeat across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.updates import Update, VertexDeletion
from repro.graph.generators import barabasi_albert_graph, gnp_random_graph
from repro.graph.graph import UndirectedGraph
from repro.workloads.updates import edge_churn, mixed_updates

#: Reads per gathered burst.
BURST_SIZE = 500
#: Read kinds; each read draws its kind from the seed.
READ_KINDS = ("lca", "connected", "path_length", "is_ancestor", "subtree_size")
#: Samples a p95 needs (10 beyond it); every run takes at least this many
#: update latencies and this many burst latencies.
MIN_SAMPLES = 200
#: Independent graphs per run, driven one after another, each by a driver
#: of its own.  Which graph a seed draws sets the per-update cost for longer
#: than a run lasts, so pooling several graphs per run repeats better across
#: seeds (``baseline.json`` records the 1-graph comparison).
GRAPHS_PER_RUN = 4


@dataclass(frozen=True)
class Workload:
    """One deployment of the public API plus the inputs that drive it."""

    name: str
    why: str
    n: int
    #: Human-readable names of the graph family and update stream.
    graph: str
    stream: str
    make_graph: Callable[[int, int], UndirectedGraph]
    make_stream: Callable[[UndirectedGraph, int, int], List[Update]]
    backend: str
    rebuild_every: Optional[int]
    read_every: int
    bursts_per_phase: int
    #: Closed-loop updates per CPU-second (reads included) measured on a
    #: 2-vCPU x86-64 VM at 2.0 GHz; sizes the stream so that the measured
    #: loop takes about ``--seconds`` there.  The stream length never depends
    #: on the speed of the code under test, so both commits of a comparison
    #: apply the identical stream.
    rate: float

    def updates_for(self, seconds: float) -> int:
        """Stream length for a run of *seconds* (never below the p95 floor
        for updates or bursts)."""
        bursts_floor = -(-MIN_SAMPLES // self.bursts_per_phase) * self.read_every
        return max(round(seconds * self.rate), MIN_SAMPLES, bursts_floor)

    def describe(self) -> dict:
        """The deployment and closed-loop shape, as ``baseline.json``
        records them."""
        return {
            "deployment": {
                "graph": self.graph,
                "n": self.n,
                "graphs_per_run": GRAPHS_PER_RUN,
                "stream": self.stream,
                "backend": self.backend,
                "rebuild_every": "auto" if self.rebuild_every is None else self.rebuild_every,
            },
            "closed_loop": {
                "writers": 1,
                "read_phase_every_updates": self.read_every,
                "bursts_per_read_phase": self.bursts_per_phase,
                "burst_size": BURST_SIZE,
            },
        }


def _sparse_connected(n: int, seed: int) -> UndirectedGraph:
    return gnp_random_graph(n, 6.0 / n, seed=seed, connected=True)


def _sparse(n: int, seed: int) -> UndirectedGraph:
    return gnp_random_graph(n, 6.0 / n, seed=seed)


def _power_law(n: int, seed: int) -> UndirectedGraph:
    return barabasi_albert_graph(n, 3, seed=seed)


def _edge_stream(graph: UndirectedGraph, count: int, seed: int) -> List[Update]:
    return edge_churn(graph, count, seed=seed)


def _mixed_stream(graph: UndirectedGraph, count: int, seed: int) -> List[Update]:
    return mixed_updates(graph, count, seed=seed)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="edge_churn",
            why=(
                "default deployment (dict core, auto cadence) under edge churn on sparse G(n,p): "
                "the overlay-view query sweep dominates; light reads, 1 burst/8 updates"
            ),
            n=500,
            graph="gnp_random_graph(n, 6/n, connected=True)",
            stream="repro.workloads.updates.edge_churn",
            make_graph=_sparse_connected,
            make_stream=_edge_stream,
            backend="dict",
            rebuild_every=None,
            read_every=8,
            bursts_per_phase=1,
            rate=190.0,
        ),
        Workload(
            name="mixed_churn",
            why=(
                "array core, D rebuilt every update, edge+vertex churn on a power-law graph: "
                "refresh, reroot and commit show, overlay queries never run; 1 burst/4 updates"
            ),
            n=500,
            graph="barabasi_albert_graph(n, 3)",
            stream="repro.workloads.updates.mixed_updates",
            make_graph=_power_law,
            make_stream=_mixed_stream,
            backend="array",
            rebuild_every=1,
            read_every=4,
            bursts_per_phase=1,
            rate=90.0,
        ),
        Workload(
            name="read_heavy",
            why=(
                "array core with snapshot reads taking about half the CPU time (2 bursts of "
                "500 after every update): front, snapshot, LCA index and publish costs show"
            ),
            n=1000,
            graph="gnp_random_graph(n, 6/n)",
            stream="repro.workloads.updates.edge_churn",
            make_graph=_sparse,
            make_stream=_edge_stream,
            backend="array",
            rebuild_every=1,
            read_every=1,
            bursts_per_phase=2,
            rate=45.0,
        ),
    )
}


@dataclass
class Segment:
    """One graph with its update stream and reads."""

    graph: UndirectedGraph
    updates: List[Update]
    #: Vertices present from the first update to the last; reads name only
    #: these, so no read can fail on a deleted vertex.
    read_vertices: List[int]
    read_kinds: np.ndarray
    read_a: np.ndarray
    read_b: np.ndarray

    @property
    def bursts(self) -> int:
        return len(self.read_kinds) // BURST_SIZE

    def burst(self, k: int) -> List[Tuple[str, int, int]]:
        """The ``(kind, a, b)`` reads of burst *k* (``b`` unused by
        ``subtree_size``)."""
        lo, hi = k * BURST_SIZE, (k + 1) * BURST_SIZE
        verts = self.read_vertices
        size = len(verts)
        return [
            (READ_KINDS[kind], verts[a % size], verts[b % size])
            for kind, a, b in zip(
                self.read_kinds[lo:hi].tolist(),
                self.read_a[lo:hi].tolist(),
                self.read_b[lo:hi].tolist(),
            )
        ]


@dataclass
class Inputs:
    """Everything one run feeds the program, generated from the seed."""

    workload: Workload
    segments: List[Segment]

    @property
    def updates(self) -> int:
        return sum(len(s.updates) for s in self.segments)


def make_inputs(workload: Workload, seed: int, updates: int) -> Inputs:
    """Generate :data:`GRAPHS_PER_RUN` graphs, each with its share of the
    *updates*-long stream and its read pairs, for *seed*; the same arguments
    always give the same inputs."""
    rng = random.Random(f"perfbench/{workload.name}/{seed}")
    per_graph = -(-updates // GRAPHS_PER_RUN)
    segments = []
    for _ in range(GRAPHS_PER_RUN):
        graph = workload.make_graph(workload.n, rng.getrandbits(32))
        stream = workload.make_stream(graph, per_graph, rng.getrandbits(32))
        deleted = {u.v for u in stream if isinstance(u, VertexDeletion)}
        reads = per_graph // workload.read_every * workload.bursts_per_phase * BURST_SIZE
        read_rng = np.random.default_rng(rng.getrandbits(32))
        segments.append(
            Segment(
                graph=graph,
                updates=stream,
                read_vertices=sorted(v for v in graph.vertices() if v not in deleted),
                read_kinds=read_rng.integers(0, len(READ_KINDS), reads, dtype=np.int8),
                read_a=read_rng.integers(0, 2**31, reads, dtype=np.int64),
                read_b=read_rng.integers(0, 2**31, reads, dtype=np.int64),
            )
        )
    return Inputs(workload, segments)
