"""Tests for the CONGEST simulator and the distributed dynamic DFS (Theorem 16)."""

import math

import pytest

from tests.helpers import make_updates
from repro.distributed.forest import articulation_points_and_bridges
from repro.distributed.network import CongestNetwork, recommended_bandwidth
from repro.distributed.distributed_dfs import DistributedDynamicDFS
from repro.exceptions import DistributedError
from repro.graph.generators import cycle_with_chords, gnp_random_graph, grid_graph, path_graph, star_graph
from repro.graph.traversal import bfs_tree
from repro.metrics.counters import MetricsRecorder


def test_bandwidth_is_enforced():
    g = path_graph(4)
    net = CongestNetwork(g, bandwidth_words=2)
    parent, depth = net.build_bfs_tree(0)
    # Chunking keeps each message within the per-edge budget.
    net.pipelined_broadcast(parent, depth, payload_words=5)
    assert net.max_message_words <= 2
    # Oversized raw transmissions and nonsensical budgets are rejected.
    with pytest.raises(DistributedError):
        net._charge_round([3])
    for budget in (0, True, False, 2.5):
        with pytest.raises(DistributedError):
            CongestNetwork(g, bandwidth_words=budget)
        metrics = MetricsRecorder()
        with pytest.raises(DistributedError):
            DistributedDynamicDFS(g, bandwidth_words=budget, metrics=metrics)
        # The budget is checked before the graph copy and the initial DFS.
        assert "time_initial_dfs" not in metrics.as_dict()


def test_bfs_rounds_match_eccentricity_and_messages_match_edges():
    g = grid_graph(5, 5)
    net = CongestNetwork(g, bandwidth_words=5)
    parent, depth = net.build_bfs_tree(0)
    _, ref_depth = bfs_tree(g, 0)
    assert depth == ref_depth
    assert net.rounds == max(ref_depth.values()) + 1
    # every explored edge direction carries one message over the whole BFS
    assert net.messages == 2 * g.num_edges


def test_pipelined_broadcast_round_formula():
    g = path_graph(10)  # BFS depth 9
    net = CongestNetwork(g, bandwidth_words=3)
    parent, depth = net.build_bfs_tree(0)
    before = net.rounds
    net.pipelined_broadcast(parent, depth, payload_words=12)  # 4 chunks
    assert net.rounds - before == 9 + 4 - 1
    assert net.max_message_words <= 3
    before = net.rounds
    net.pipelined_convergecast(parent, depth, payload_words=12)
    assert net.rounds - before == 9 + 4 - 1


@pytest.mark.parametrize("words", [1, 4])
@pytest.mark.parametrize("n", [2, 3, 5, 9])
def test_broadcast_and_convergecast_send_every_chunk_over_every_edge(n, words):
    """Over the same forest, a broadcast and a convergecast of the same
    payload each carry every chunk once over every tree edge, in ``depth +
    chunks - 1`` rounds."""
    g = path_graph(n)
    net = CongestNetwork(g, bandwidth_words=1)  # one chunk per word
    parent, depth = net.build_bfs_tree(0)
    for wave in (net.pipelined_broadcast, net.pipelined_convergecast):
        rounds, messages = net.rounds, net.messages
        wave(parent, depth, payload_words=words)
        assert net.rounds - rounds == (n - 1) + words - 1
        assert net.messages - messages == (n - 1) * words, wave.__name__


def test_recommended_bandwidth():
    g = path_graph(16)
    diameter, bandwidth = recommended_bandwidth(g, 0)
    assert diameter == 15
    assert bandwidth == math.ceil(16 / 15)
    star = star_graph(20)
    d2, b2 = recommended_bandwidth(star, 0)
    assert d2 == 1 and b2 == 20


def test_distributed_dfs_maintains_valid_tree_and_respects_budget():
    for graph in (grid_graph(5, 5), cycle_with_chords(24, 4, seed=1), gnp_random_graph(30, 0.12, seed=2, connected=True)):
        updates = make_updates(graph, 8, seed=3)
        dist = DistributedDynamicDFS(graph, validate=True)
        dist.apply_all(updates)
        assert dist.is_valid()
        assert dist.network.max_message_words <= dist.bandwidth
        assert dist.rounds() > 0 and dist.messages() > 0
        assert dist.metrics["max_rounds_per_update"] >= 1


def test_rounds_scale_with_diameter_not_with_n():
    # Same n, very different diameters: the star needs far fewer rounds per
    # update than the path.
    n = 120
    deep = DistributedDynamicDFS(path_graph(n), validate=False)
    deep.delete_edge(n // 2 - 1, n // 2)
    deep.insert_edge(n // 2 - 1, n // 2)
    shallow = DistributedDynamicDFS(star_graph(n), validate=False)
    shallow.delete_edge(0, 1)
    shallow.insert_vertex("z", [0, 5, 7])
    assert deep.metrics["max_rounds_per_update"] > shallow.metrics["max_rounds_per_update"]


def test_articulation_points_and_bridges_against_networkx():
    networkx = pytest.importorskip("networkx")
    for seed in range(4):
        g = gnp_random_graph(30, 0.08, seed=seed)
        nxg = networkx.Graph()
        nxg.add_nodes_from(g.vertices())
        nxg.add_edges_from(g.edges())
        points, bridges = articulation_points_and_bridges(g)
        assert points == set(networkx.articulation_points(nxg))
        assert bridges == {frozenset(e) for e in networkx.bridges(nxg)}
