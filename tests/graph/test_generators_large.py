"""Large-n generator smoke (``@pytest.mark.large``, opt-in via REPRO_LARGE_TESTS=1).

Builds the scale-tier families at n = 10^5 on the array backend and validates
the global invariants that survive at that size: degree sums, edge counts,
connectivity.  Excluded from tier-1 (see ``tests/conftest.py``); CI runs it in
the dedicated array-backend job.
"""

from __future__ import annotations

import pytest

from repro.graph.array_graph import ArrayGraph
from repro.graph.generators import (
    barabasi_albert_graph,
    gnp_random_graph,
    grid_graph,
)
from repro.graph.traversal import connected_components

LARGE_N = 100_000


def _degree_sum(g):
    return sum(g.degree(v) for v in g.vertices())


@pytest.mark.large
def test_barabasi_albert_large_on_array_backend():
    g = ArrayGraph.from_graph(barabasi_albert_graph(LARGE_N, 3, seed=0))
    assert g.num_vertices == LARGE_N
    assert g.num_edges == (LARGE_N - 3) * 3
    assert _degree_sum(g) == 2 * g.num_edges
    src, dst, alive = g.edge_arrays()
    assert int(alive.sum()) == 2 * g.num_edges
    assert len(connected_components(g)) == 1


@pytest.mark.large
def test_grid_large_on_array_backend():
    side = int(LARGE_N**0.5)  # 316 x 316 ~ 10^5 vertices
    g = ArrayGraph.from_graph(grid_graph(side, side))
    assert g.num_vertices == side * side
    assert g.num_edges == 2 * side * (side - 1)
    assert _degree_sum(g) == 2 * g.num_edges
    assert len(connected_components(g)) == 1


@pytest.mark.large
def test_gnp_large_on_array_backend():
    n = LARGE_N
    p = 4.0 / n  # supercritical: giant component, ~2n edges
    g = ArrayGraph.from_graph(gnp_random_graph(n, p, seed=1))
    assert g.num_vertices == n
    expected = p * n * (n - 1) / 2
    sd = (expected * (1 - p)) ** 0.5
    assert abs(g.num_edges - expected) <= 6 * sd
    assert _degree_sum(g) == 2 * g.num_edges
    comps = connected_components(g)
    # at mean degree 4 the giant component holds ~98% of the vertices
    assert max(len(c) for c in comps) >= int(0.9 * n)
