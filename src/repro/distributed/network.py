"""Synchronous CONGEST(B) network simulator (Section 6.2) with a
per-component round ledger.

A :class:`CongestNetwork` has one node per graph vertex; communication happens
in synchronous rounds, and in each round a node may send at most ``B`` *words*
along each incident edge.  The simulator meters

* ``rounds`` — synchronous rounds elapsed (components operate concurrently,
  so one wave over a multi-tree broadcast forest advances the global round
  counter by the *maximum* per-component schedule length);
* ``messages`` — messages sent (one message = one (edge, round) transmission),
  summed over every component;
* ``max_message_words`` — the largest message, which must stay within ``B``;
* ``component_rounds`` — the **per-component ledger**: for every broadcast,
  convergecast and BFS flood, each broadcast tree (identified by its root) is
  charged the rounds *it* was busy.  This is what makes round accounting
  meaningful once the graph fragments: a component does not ride another
  component's wave for free — its own dissemination work is attributed to it
  (``component_rounds_charged`` meters the total, which equals the global
  ``rounds`` on connected graphs and exceeds it under fragmentation).

Three building blocks used by the distributed dynamic-DFS algorithm are
implemented on top of the raw round mechanics:

* :meth:`build_bfs_forest` — concurrent flooding BFS from one root per
  component (``O(max ecc)`` rounds globally, each component charged its own
  eccentricity, ``O(m)`` messages), the broadcast forest of the paper;
  :meth:`build_bfs_tree` is the single-root special case;
* :meth:`pipelined_broadcast` — send ``k`` words from every tree root to
  every node of its tree in ``O(depth + k / B)`` rounds (standard
  pipelining, scheduled per component);
* :meth:`pipelined_convergecast` — combine per-node ``k``-word vectors upward
  to each tree root with the same pipelining bound.

The per-round, per-edge budget is enforced: exceeding it raises
:class:`~repro.exceptions.DistributedError`, so the CONGEST(n/D) message-size
claim of Theorem 16 is *checked*, not assumed.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.distributed.forest import forest_roots
from repro.exceptions import DistributedError
from repro.graph.graph import UndirectedGraph
from repro.graph.traversal import bfs_tree
from repro.metrics.counters import MetricsRecorder

Vertex = Hashable


def check_bandwidth(bandwidth_words: int) -> None:
    """Raise :class:`~repro.exceptions.DistributedError` unless
    *bandwidth_words* is a whole number of words, at least one (a bool is an
    int, but no budget)."""
    if (
        isinstance(bandwidth_words, bool)
        or not isinstance(bandwidth_words, int)
        or bandwidth_words < 1
    ):
        raise DistributedError(
            f"bandwidth must be a whole number of words >= 1, got {bandwidth_words!r}"
        )


class CongestNetwork:
    """A synchronous message-passing network over the edges of *graph*.

    Knobs: ``bandwidth_words`` (the per-edge, per-round word budget ``B``).
    Counters: ``congest_rounds``, ``congest_messages``,
    ``max_congest_max_message_words``, ``component_rounds_charged``,
    ``max_broadcast_components`` (see :data:`repro.metrics.counters.WELL_KNOWN_COUNTERS`).
    """

    def __init__(
        self,
        graph: UndirectedGraph,
        bandwidth_words: int,
        *,
        metrics: Optional[MetricsRecorder] = None,
    ) -> None:
        check_bandwidth(bandwidth_words)
        self._graph = graph
        self.bandwidth = bandwidth_words
        self.metrics = metrics or MetricsRecorder("congest")
        self.rounds = 0
        self.messages = 0
        self.max_message_words = 0
        #: Cumulative per-component ledger: broadcast-tree root (at charge
        #: time) -> rounds that component's tree spent executing waves.
        self.component_rounds: Dict[Vertex, int] = {}

    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> UndirectedGraph:
        """The graph whose edges carry the messages."""
        return self._graph

    def _charge_round(self, transmissions: Iterable[int]) -> None:
        """Account one synchronous round with the given per-message word counts."""
        self.rounds += 1
        self.metrics.inc("congest_rounds")
        for words in transmissions:
            if words > self.bandwidth:
                raise DistributedError(
                    f"message of {words} words exceeds the CONGEST budget of {self.bandwidth}"
                )
            self.messages += 1
            self.metrics.inc("congest_messages")
            self.max_message_words = max(self.max_message_words, words)
            self.metrics.observe_max("congest_max_message_words", words)

    def _charge_component(self, root: Vertex, rounds: int) -> None:
        """Attribute *rounds* of wave work to the component rooted at *root*."""
        if rounds <= 0:
            return
        self.component_rounds[root] = self.component_rounds.get(root, 0) + rounds
        self.metrics.inc("component_rounds_charged", rounds)

    # ------------------------------------------------------------------ #
    def build_bfs_forest(
        self, roots: Sequence[Vertex]
    ) -> Tuple[Dict[Vertex, Optional[Vertex]], Dict[Vertex, int]]:
        """Concurrent flooding BFS from each of *roots* (one per component).

        All floods advance in lockstep — the network is synchronous, so
        components explore their frontiers in the same global rounds.  Costs
        ``max_c (ecc_c + 1)`` global rounds, one single-word message per
        explored edge direction (``O(m)`` messages overall), and charges each
        component's ledger its own ``ecc_c + 1`` rounds.  Callers supply at
        most one root per component; duplicate roots are ignored.
        """
        parent: Dict[Vertex, Optional[Vertex]] = {}
        depth: Dict[Vertex, int] = {}
        frontiers: Dict[Vertex, List[Vertex]] = {}
        levels: Dict[Vertex, int] = {}
        for root in roots:
            if root in parent:
                continue
            parent[root] = None
            depth[root] = 0
            frontiers[root] = [root]
            levels[root] = 0
        while any(frontiers.values()):
            transmissions: List[int] = []
            for root, frontier in frontiers.items():
                if not frontier:
                    continue
                nxt: List[Vertex] = []
                for v in frontier:
                    for w in self._graph.neighbors(v):
                        transmissions.append(1)
                        if w not in parent:
                            parent[w] = v
                            depth[w] = depth[v] + 1
                            nxt.append(w)
                frontiers[root] = nxt
                levels[root] += 1
            self._charge_round(transmissions)
        for root, spent in levels.items():
            self._charge_component(root, spent)
        if frontiers:
            self.metrics.observe_max("broadcast_components", len(frontiers))
        return parent, depth

    def build_bfs_tree(self, root: Vertex) -> Tuple[Dict[Vertex, Optional[Vertex]], Dict[Vertex, int]]:
        """Flooding BFS from a single *root* (the component of *root* only).

        ``O(ecc(root))`` rounds — charged globally and to *root*'s component
        ledger — and ``O(m)`` messages.  The multi-component entry point is
        :meth:`build_bfs_forest`.
        """
        return self.build_bfs_forest([root])

    # ------------------------------------------------------------------ #
    def _pipelined_wave(
        self,
        bfs_parent: Dict[Vertex, Optional[Vertex]],
        bfs_depth: Dict[Vertex, int],
        payload_words: int,
        *,
        upward: bool,
    ) -> None:
        """The pipelined schedule both waves share: *payload_words* split into
        ``ceil(words / B)`` chunks, every tree of the forest (keyed by its
        root) running concurrently.  In round ``r``, an edge at level ``l`` of
        a tree of depth ``depth_c`` sends chunk ``r - l + 1`` going down
        (the root's edges first) and chunk ``r - (depth_c - l)`` going up
        (the deepest edges first), so every edge carries every chunk once.
        The global round cost is the deepest tree's schedule (``max_depth +
        chunks - 1``); each component's ledger is charged its own ``depth_c +
        chunks - 1``.
        """
        if payload_words <= 0 or len(bfs_parent) <= 1:
            return
        chunks = math.ceil(payload_words / self.bandwidth)
        last_chunk_words = payload_words - (chunks - 1) * self.bandwidth
        root_of = forest_roots(bfs_parent)
        depth_by_root: Dict[Vertex, int] = {}
        edges_by_root: Dict[Vertex, Dict[int, int]] = {}  # root -> level -> tree edges
        for v, p in bfs_parent.items():
            root = root_of[v]
            d = bfs_depth[v]
            if d > depth_by_root.get(root, 0):
                depth_by_root[root] = d
            if p is not None:
                levels = edges_by_root.setdefault(root, {})
                levels[d] = levels.get(d, 0) + 1
            else:
                depth_by_root.setdefault(root, 0)
        total_rounds = max(depth_by_root.values()) + chunks - 1
        for r in range(1, total_rounds + 1):
            transmissions: List[int] = []
            for root, edges_at_level in edges_by_root.items():
                depth = depth_by_root[root]
                for lvl, count in edges_at_level.items():
                    chunk_index = r - (depth - lvl if upward else lvl - 1)
                    if 1 <= chunk_index <= chunks:
                        words = self.bandwidth if chunk_index < chunks else last_chunk_words
                        transmissions.extend([words] * count)
            self._charge_round(transmissions)
        for root, depth in depth_by_root.items():
            if depth > 0:
                self._charge_component(root, depth + chunks - 1)
        self.metrics.observe_max("broadcast_components", len(depth_by_root))

    def pipelined_broadcast(
        self,
        bfs_parent: Dict[Vertex, Optional[Vertex]],
        bfs_depth: Dict[Vertex, int],
        payload_words: int,
    ) -> None:
        """Broadcast *payload_words* words from every tree root to every node
        of its tree: a node forwards chunk ``i`` to its children one round
        after receiving it."""
        self._pipelined_wave(bfs_parent, bfs_depth, payload_words, upward=False)

    def pipelined_convergecast(
        self,
        bfs_parent: Dict[Vertex, Optional[Vertex]],
        bfs_depth: Dict[Vertex, int],
        payload_words: int,
    ) -> None:
        """Combine a *payload_words*-word vector from every node up to its
        tree root.

        Partial aggregates are merged on the way (the combination is by-key
        minimum/maximum, so the vector size never grows); the schedule is the
        mirror image of :meth:`pipelined_broadcast`, with the same ledger
        attribution.
        """
        self._pipelined_wave(bfs_parent, bfs_depth, payload_words, upward=True)

    # ------------------------------------------------------------------ #
    def aggregate_query_round(
        self,
        bfs_parent: Dict[Vertex, Optional[Vertex]],
        bfs_depth: Dict[Vertex, int],
        num_queries: int,
    ) -> None:
        """Account one full query round: convergecast the ``num_queries`` partial
        answers (one word each) to each tree root, then broadcast the combined
        answers back to every node."""
        self.pipelined_convergecast(bfs_parent, bfs_depth, num_queries)
        self.pipelined_broadcast(bfs_parent, bfs_depth, num_queries)


def recommended_bandwidth(graph: UndirectedGraph, root: Vertex) -> Tuple[int, int]:
    """Return ``(diameter_estimate, ceil(n / D))`` — the CONGEST(n/D) budget the
    paper assumes.  The diameter estimate is the BFS eccentricity of *root*."""
    _, depth = bfs_tree(graph, root)
    diameter = max(depth.values()) if depth else 1
    diameter = max(diameter, 1)
    n = graph.num_vertices
    return diameter, max(math.ceil(n / diameter), 1)
