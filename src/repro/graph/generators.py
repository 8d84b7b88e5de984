"""Graph generators used by tests, examples and benchmarks.

These provide the synthetic workloads for the evaluation (docs/benchmarks.md): random
``G(n, p)`` / ``G(n, m)`` graphs, structured families with controlled diameter
(paths, cycles, grids, binary trees), and the adversarial families that separate
the sequential rerooting baseline from the parallel rerooting algorithm (brooms,
caterpillars, combs — long paths with heavy appendages, which force Θ(n)
sequential reroot rounds while the parallel algorithm needs only polylog).

All generators are deterministic given a ``seed``.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.graph.graph import UndirectedGraph

Edge = Tuple[int, int]

#: ``gnp_random_graph`` switches from the O(n^2) cell-by-cell scan to the
#: geometric edge-skipping construction at this many vertices.  The two draw
#: different random streams, so the gate is deliberately far above every seeded
#: small-``n`` graph baked into tests and benchmarks.
GNP_FAST_PATH_MIN_N = 4096


def _rng(seed: Optional[int]) -> random.Random:
    return random.Random(seed)


# --------------------------------------------------------------------------- #
# Random graphs
# --------------------------------------------------------------------------- #
def gnp_random_graph(n: int, p: float, *, seed: Optional[int] = None, connected: bool = False) -> UndirectedGraph:
    """Erdős–Rényi ``G(n, p)`` graph on vertices ``0..n-1``.

    With ``connected=True`` a random spanning tree is added first, so the graph
    is guaranteed connected while keeping the expected edge density close to
    ``p`` for non-trivial ``p``.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = _rng(seed)
    g = UndirectedGraph(vertices=range(n))
    if connected and n > 1:
        for u, v in random_spanning_tree_edges(n, seed=rng.randrange(2**31)):
            if not g.has_edge(u, v):
                g.add_edge(u, v)
    if n >= GNP_FAST_PATH_MIN_N and 0.0 < p < 1.0:
        # Batagelj–Brandes geometric skipping: expected O(n + m) instead of
        # the O(n^2) coin flip per vertex pair.  Different random stream than
        # the small-n scan, hence the n gate (seeded baselines stay stable).
        log_q = math.log(1.0 - p)
        v, w = 1, -1
        while v < n:
            w += 1 + int(math.log(1.0 - rng.random()) / log_q)
            while w >= v and v < n:
                w -= v
                v += 1
            if v < n and not g.has_edge(w, v):
                g.add_edge(w, v)
        return g
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p and not g.has_edge(u, v):
                g.add_edge(u, v)
    return g


def gnm_random_graph(n: int, m: int, *, seed: Optional[int] = None, connected: bool = False) -> UndirectedGraph:
    """Random graph with exactly ``n`` vertices and ``m`` edges (``G(n, m)``)."""
    max_edges = n * (n - 1) // 2
    if m > max_edges:
        raise ValueError(f"m={m} exceeds the maximum {max_edges} for n={n}")
    rng = _rng(seed)
    g = UndirectedGraph(vertices=range(n))
    if connected:
        if n > 1 and m < n - 1:
            raise ValueError("a connected graph on n vertices needs at least n-1 edges")
        for u, v in random_spanning_tree_edges(n, seed=rng.randrange(2**31)):
            g.add_edge(u, v)
    while g.num_edges < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v)
    return g


def barabasi_albert_graph(n: int, m: int, *, seed: Optional[int] = None) -> UndirectedGraph:
    """Barabási–Albert preferential-attachment graph on ``0..n-1``.

    Starts from ``m`` isolated seed vertices; every later vertex attaches to
    ``m`` distinct existing vertices sampled with probability proportional to
    their current degree (the classic repeated-endpoints urn).  Produces the
    heavy-tailed degree distributions the large-tier benchmarks use to stress
    skewed adjacency rows; deterministic given *seed* and always connected for
    ``n > m``.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if n < m + 1:
        raise ValueError(f"barabasi_albert_graph needs n >= m + 1, got n={n}, m={m}")
    rng = _rng(seed)
    g = UndirectedGraph(vertices=range(n))
    targets = list(range(m))
    repeated: List[int] = []
    for source in range(m, n):
        for t in targets:
            g.add_edge(source, t)
        repeated.extend(targets)
        repeated.extend([source] * m)
        new_targets: List[int] = []
        seen = set()
        while len(new_targets) < m:
            x = rng.choice(repeated)
            if x not in seen:
                seen.add(x)
                new_targets.append(x)
        targets = new_targets
    return g


def random_spanning_tree_edges(n: int, *, seed: Optional[int] = None) -> List[Edge]:
    """Edges of a uniformly-ish random spanning tree on ``0..n-1``.

    Uses the random-permutation + random-attachment construction (each vertex
    attaches to a uniformly random earlier vertex of a random permutation),
    which is cheap and produces trees of varied shape — sufficient for
    workload generation.
    """
    rng = _rng(seed)
    if n <= 1:
        return []
    perm = list(range(n))
    rng.shuffle(perm)
    edges = []
    for i in range(1, n):
        j = rng.randrange(i)
        edges.append((perm[j], perm[i]))
    return edges


def random_tree(n: int, *, seed: Optional[int] = None) -> UndirectedGraph:
    """A random tree on ``0..n-1``."""
    return UndirectedGraph(vertices=range(n), edges=random_spanning_tree_edges(n, seed=seed))


# --------------------------------------------------------------------------- #
# Structured families
# --------------------------------------------------------------------------- #
def path_graph(n: int) -> UndirectedGraph:
    """Path ``0 - 1 - ... - n-1`` (diameter ``n-1``)."""
    return UndirectedGraph(vertices=range(n), edges=[(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> UndirectedGraph:
    """Cycle on ``n ≥ 3`` vertices."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return UndirectedGraph(vertices=range(n), edges=edges)


def star_graph(n: int) -> UndirectedGraph:
    """Star with centre ``0`` and ``n-1`` leaves (diameter 2)."""
    return UndirectedGraph(vertices=range(n), edges=[(0, i) for i in range(1, n)])


def complete_graph(n: int) -> UndirectedGraph:
    """Complete graph ``K_n``."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return UndirectedGraph(vertices=range(n), edges=edges)


def grid_graph(rows: int, cols: int) -> UndirectedGraph:
    """``rows × cols`` grid; vertex ``(r, c)`` is numbered ``r * cols + c``.

    Diameter is ``rows + cols - 2``, which makes grids handy for the
    distributed experiments where diameter is the controlled parameter.
    """
    edges: List[Edge] = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return UndirectedGraph(vertices=range(rows * cols), edges=edges)


def complete_binary_tree(height: int) -> UndirectedGraph:
    """Complete binary tree of the given *height* (``2^(height+1) - 1`` vertices)."""
    n = 2 ** (height + 1) - 1
    edges = [((i - 1) // 2, i) for i in range(1, n)]
    return UndirectedGraph(vertices=range(n), edges=edges)


def cycle_with_chords(n: int, num_chords: int, *, seed: Optional[int] = None) -> UndirectedGraph:
    """Cycle on ``n`` vertices plus *num_chords* random chords.

    Adding chords shrinks the diameter, giving a family with tunable diameter
    for the CONGEST experiments (E4)."""
    rng = _rng(seed)
    g = cycle_graph(n)
    added = 0
    while added < num_chords:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v)
            added += 1
    return g


# --------------------------------------------------------------------------- #
# Adversarial families for dynamic DFS
# --------------------------------------------------------------------------- #
def broom_graph(handle: int, bristles: int) -> UndirectedGraph:
    """A *broom*: a path of length *handle* whose last vertex has *bristles* leaves.

    Brooms (and their repeated version, combs) are the canonical bad case for
    the sequential rerooting procedure: rerooting at a leaf repeatedly forces a
    long chain of dependent reroots, whereas the parallel algorithm processes
    the hanging subtrees in a constant number of stages per level.
    """
    n = handle + bristles
    edges = [(i, i + 1) for i in range(handle - 1)]
    edges += [(handle - 1, handle + i) for i in range(bristles)]
    return UndirectedGraph(vertices=range(n), edges=edges)


def caterpillar_graph(spine: int, legs_per_vertex: int) -> UndirectedGraph:
    """A caterpillar: a spine path where every spine vertex carries leaf legs."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    next_id = spine
    for s in range(spine):
        for _ in range(legs_per_vertex):
            edges.append((s, next_id))
            next_id += 1
    return UndirectedGraph(vertices=range(next_id), edges=edges)


def comb_graph(teeth: int, tooth_length: int) -> UndirectedGraph:
    """A comb: a spine of *teeth* vertices, each carrying a path of *tooth_length*.

    With back edges added from each tooth tip to the spine vertex before its
    tooth (see :func:`comb_with_tip_back_edges`), rerooting at a tooth tip
    forces the sequential algorithm through Θ(teeth) dependent reroots.
    """
    edges = [(i, i + 1) for i in range(teeth - 1)]
    next_id = teeth
    for t in range(teeth):
        prev = t
        for _ in range(tooth_length):
            edges.append((prev, next_id))
            prev = next_id
            next_id += 1
    return UndirectedGraph(vertices=range(next_id), edges=edges)


def comb_with_back_edges(teeth: int, tooth_length: int) -> UndirectedGraph:
    """A comb plus an edge from every tooth tip back to the start of the spine.

    Historical note: because every tip reaches spine vertex 0 directly, the
    canonical minimum-postorder source re-anchoring lets the sequential
    rerooting baseline shortcut the Θ(teeth) dependency chain through the
    tips — use :func:`comb_with_tip_back_edges` when the separation between
    the sequential and parallel engines is the point of the experiment.
    """
    g = comb_graph(teeth, tooth_length)
    # Tooth t occupies vertices teeth + t*tooth_length .. teeth + (t+1)*tooth_length - 1
    for t in range(teeth):
        tip = teeth + (t + 1) * tooth_length - 1
        if tooth_length > 0 and not g.has_edge(0, tip) and tip != 0:
            g.add_edge(0, tip)
    return g


def comb_with_tip_back_edges(teeth: int, tooth_length: int) -> UndirectedGraph:
    """A comb plus an edge from every tooth tip back to the spine vertex
    *before* its own tooth.

    The adversarial variant whose back edges *survive* the canonical
    minimum-postorder source re-anchoring: each hanging subtree's only edges
    into the evolving carved path land one spine vertex back, so — whichever
    endpoint the canonical answer picks as the source — the sequential
    rerooting baseline still peels exactly one tooth per dependent reroot
    (Θ(teeth) chain), while the parallel engine processes the teeth in a
    poly-logarithmic number of rounds.  Contrast with
    :func:`comb_with_back_edges`, whose tip-to-spine-start edges give every
    subtree a shortcut to the same anchor vertex.
    """
    g = comb_graph(teeth, tooth_length)
    if tooth_length < 1:
        return g
    for t in range(1, teeth):
        tip = teeth + (t + 1) * tooth_length - 1
        if not g.has_edge(tip, t - 1):
            g.add_edge(tip, t - 1)
    return g


def lollipop_graph(clique: int, tail: int) -> UndirectedGraph:
    """A clique of size *clique* attached to a path (tail) of length *tail*."""
    g = complete_graph(clique)
    prev = clique - 1
    for i in range(tail):
        v = clique + i
        g.add_vertex(v)
        g.add_edge(prev, v)
        prev = v
    return g


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #
def graph_from_edges(edges: Iterable[Edge], *, vertices: Optional[Sequence[int]] = None) -> UndirectedGraph:
    """Build a graph from an edge list (convenience wrapper)."""
    return UndirectedGraph(vertices=vertices, edges=edges)


FAMILIES = {
    "gnp": gnp_random_graph,
    "gnm": gnm_random_graph,
    "barabasi_albert": barabasi_albert_graph,
    "path": path_graph,
    "cycle": cycle_graph,
    "star": star_graph,
    "complete": complete_graph,
    "grid": grid_graph,
    "binary_tree": complete_binary_tree,
    "broom": broom_graph,
    "caterpillar": caterpillar_graph,
    "comb": comb_graph,
    "comb_back_edges": comb_with_back_edges,
    "comb_tip_back_edges": comb_with_tip_back_edges,
    "lollipop": lollipop_graph,
    "random_tree": random_tree,
    "cycle_with_chords": cycle_with_chords,
}
