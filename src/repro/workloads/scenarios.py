"""Named evaluation scenarios: (graph, update sequence) pairs used by the
benchmarks (docs/benchmarks.md) and the example applications."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.core.updates import EdgeDeletion, EdgeInsertion, Update
from repro.graph.generators import (
    broom_graph,
    caterpillar_graph,
    comb_with_tip_back_edges,
    cycle_with_chords,
    gnp_random_graph,
    grid_graph,
    path_graph,
)
from repro.graph.graph import UndirectedGraph
from repro.workloads.updates import (
    adversarial_comb_updates,
    edge_churn,
    failure_burst,
    mixed_updates,
    vertex_churn,
)


@dataclass(frozen=True)
class Scenario:
    """A reproducible workload: a graph plus an update sequence."""

    name: str
    description: str
    graph: UndirectedGraph
    updates: List[Update]

    @property
    def n(self) -> int:
        return self.graph.num_vertices

    @property
    def m(self) -> int:
        return self.graph.num_edges


def _social_network(n: int, seed: int, updates: int) -> Scenario:
    graph = gnp_random_graph(n, min(8.0 / max(n, 1), 0.5), seed=seed, connected=True)
    return Scenario(
        name="social_network_churn",
        description="sparse random graph with node arrivals/departures (membership churn)",
        graph=graph,
        updates=vertex_churn(graph, updates, seed=seed + 1),
    )


def _datacenter_links(n: int, seed: int, updates: int) -> Scenario:
    side = max(int(n ** 0.5), 2)
    graph = grid_graph(side, side)
    return Scenario(
        name="datacenter_link_flaps",
        description="grid topology with link failures and recoveries",
        graph=graph,
        updates=edge_churn(graph, updates, seed=seed),
    )


def _road_closures(n: int, seed: int, updates: int) -> Scenario:
    graph = cycle_with_chords(n, max(n // 10, 1), seed=seed)
    return Scenario(
        name="road_closures",
        description="ring-with-chords topology with mixed closures and new links",
        graph=graph,
        updates=mixed_updates(graph, updates, seed=seed + 7),
    )


def _adversarial_comb(n: int, seed: int, updates: int) -> Scenario:
    teeth = max(n // 10, 4)
    tooth = 9
    # Tip back edges that survive canonical source re-anchoring (each tip
    # reaches only the spine vertex before its own tooth), so the spine
    # deletions keep forcing the Θ(teeth) sequential chain.
    graph = comb_with_tip_back_edges(teeth, tooth)
    ups = adversarial_comb_updates(teeth, tooth)[: max(updates, 2)]
    return Scenario(
        name="adversarial_comb",
        description="comb graph whose spine deletions force long sequential reroot chains",
        graph=graph,
        updates=ups,
    )


def _broom_failures(n: int, seed: int, updates: int) -> Scenario:
    handle = max(n // 2, 4)
    graph = broom_graph(handle, n - handle)
    return Scenario(
        name="broom_failures",
        description="broom graph under random failures (deep path + wide fringe)",
        graph=graph,
        updates=failure_burst(graph, updates, seed=seed),
    )


def _caterpillar_mixed(n: int, seed: int, updates: int) -> Scenario:
    spine = max(n // 4, 4)
    graph = caterpillar_graph(spine, 3)
    return Scenario(
        name="caterpillar_mixed",
        description="caterpillar graph under mixed updates",
        graph=graph,
        updates=mixed_updates(graph, updates, seed=seed + 3),
    )


def _long_path(n: int, seed: int, updates: int) -> Scenario:
    graph = path_graph(n)
    return Scenario(
        name="long_path",
        description="path graph (maximum diameter) under edge churn",
        graph=graph,
        updates=edge_churn(graph, updates, seed=seed + 11),
    )


def _sustained_churn(n: int, seed: int, updates: int) -> Scenario:
    """Long steady edge churn on a sparse random graph.

    This is the workload the amortized rebuild policy is built for: the update
    stream is much longer than ``sqrt(m)``, so a per-update rebuild of ``D``
    pays ``O(m)`` for every update while the amortized policy serves all but
    every ``k``-th update from Theorem 9 overlays.  Used by
    ``benchmarks/bench_batch_updates.py``.
    """
    graph = gnp_random_graph(n, min(6.0 / max(n, 1), 0.5), seed=seed, connected=True)
    return Scenario(
        name="sustained_churn",
        description="sparse random graph under a long steady stream of edge churn "
        "(amortized-rebuild showcase)",
        graph=graph,
        updates=edge_churn(graph, max(updates, 4 * int(graph.num_edges ** 0.5)), seed=seed + 17),
    )


def _fragmenting_churn(n: int, seed: int, updates: int) -> Scenario:
    """Clusters joined by bridges, with the bridges cut (and later restored)
    while edge churn keeps hitting the clusters on *both* sides of the cut.

    This is the workload per-component CONGEST round accounting exists for
    (benchmark E10): whenever a bridge is down the graph is genuinely
    disconnected, updates land in either fragment, and every dissemination or
    repair wave must be charged inside the fragment that executes it — under
    the legacy accounting the non-initiator fragment rode along for free, so
    repair-vs-rebuild comparisons degenerated.  Construction: ``k`` cycle
    clusters with chords (each cluster stays connected under chord churn
    because its cycle is never touched), consecutive clusters joined by one
    bridge; the update stream round-robins over bridges — cut a bridge,
    churn chords in randomly chosen clusters while the graph is split, then
    restore the bridge and move to the next one.
    """
    clusters = 3
    size = max(n // clusters, 8)
    rng = random.Random(seed)
    graph = UndirectedGraph(vertices=range(clusters * size))
    chords: List[List[tuple]] = []
    for c in range(clusters):
        base = c * size
        for i in range(size):
            graph.add_edge(base + i, base + (i + 1) % size)
        cluster_chords: List[tuple] = []
        for _ in range(max(size // 3, 2)):
            i, j = rng.sample(range(size), 2)
            u, v = base + i, base + j
            if not graph.has_edge(u, v):
                graph.add_edge(u, v)
                cluster_chords.append((u, v))
        if not cluster_chords:  # rng collided every draw: pin one chord
            u, v = base, base + size // 2
            graph.add_edge(u, v)
            cluster_chords.append((u, v))
        chords.append(cluster_chords)
    bridges = [((c + 1) * size - 1, (c + 1) * size) for c in range(clusters - 1)]
    for u, v in bridges:
        graph.add_edge(u, v)
    ups: List[Update] = []
    bridge_index = 0
    while len(ups) < updates:
        u, v = bridges[bridge_index % len(bridges)]
        bridge_index += 1
        ups.append(EdgeDeletion(u, v))  # the graph is now disconnected
        for _ in range(3):  # churn both fragments while split
            cluster_chords = chords[rng.randrange(clusters)]
            x, y = cluster_chords[rng.randrange(len(cluster_chords))]
            ups.append(EdgeDeletion(x, y))
            ups.append(EdgeInsertion(x, y))
        ups.append(EdgeInsertion(u, v))  # restore the bridge
    return Scenario(
        name="fragmenting_churn",
        description="bridged clusters whose bridges are cut and restored while "
        "chord churn hits both fragments (per-component accounting showcase)",
        graph=graph,
        updates=ups[:updates],
    )


SCENARIOS: Dict[str, Callable[[int, int, int], Scenario]] = {
    "social_network_churn": _social_network,
    "datacenter_link_flaps": _datacenter_links,
    "road_closures": _road_closures,
    "adversarial_comb": _adversarial_comb,
    "broom_failures": _broom_failures,
    "caterpillar_mixed": _caterpillar_mixed,
    "long_path": _long_path,
    "sustained_churn": _sustained_churn,
    "fragmenting_churn": _fragmenting_churn,
}


def build_scenario(name: str, *, n: int = 200, seed: int = 0, updates: int = 30) -> Scenario:
    """Instantiate a named scenario at the requested size.

    Raises ``KeyError`` with the list of known names for typos.
    """
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}") from None
    return factory(n, seed, updates)
