"""Distributed fully dynamic DFS in synchronous CONGEST(n/D) (Theorem 16) on
the shared :class:`~repro.core.engine.UpdateEngine`.

Model (Section 6.2 of the paper): one processor per graph vertex, communication
only along graph edges, messages of at most ``B = ceil(n/D)`` words per edge per
round, ``O(n)`` memory per node.  Every node stores the current DFS tree ``T``
and its own adjacency list; tree operations are therefore local, and the only
distributed computation is answering the rerooting engine's query batches:

1. a BFS (broadcast) tree rooted at a deterministic initiator is rebuilt when
   the rebuild policy demands it (``O(D)`` rounds, ``O(m)`` messages) — or,
   under the amortized policy, the cached BFS tree of a previous update is
   reused as long as the mutations left it structurally intact;
2. the update itself (up to ``O(n)`` words for a vertex insertion) is
   disseminated with a pipelined broadcast;
3. each batch of ``q ≤ n`` independent queries is answered by a pipelined
   convergecast of the per-node partial answers followed by a broadcast of the
   combined answers (``O(D + q/B)`` rounds);
4. after the tree is updated, the articulation points/bridges summary is
   re-broadcast on rebuild updates so future deletions can pick broadcast
   initiators locally.

**Amortized policy.**  ``rebuild_every=1`` (default) rebuilds the BFS tree and
re-broadcasts the summary on every update (the classic behaviour);
``rebuild_every=k > 1`` (or ``None``) reuses the cached broadcast state, so an
overlay-served update only pays the dissemination and query rounds.  A
mutation that structurally invalidates the cache — a deleted BFS-tree edge or
node — forces a rebuild regardless of the policy (or a *local repair* under
``local_repair=True``).  Query *answers* never depend on the cache (each node
answers from its live adjacency list), so all policies maintain byte-identical
trees.

**Per-component round accounting.**  Once the graph fragments, there is no
edge along which one component could inform another — so a rebuild builds a
BFS tree *per component* (one deterministic root each, flooded concurrently
through :meth:`CongestNetwork.build_bfs_forest`), every pipelined wave is
scheduled per tree of the resulting broadcast forest, and the network's
per-component ledger attributes each tree its own rounds.  Dissemination into
a fragment is therefore charged inside that fragment instead of riding the
initiator's component for free, which is what makes cross-policy round
comparisons meaningful on disconnecting workloads (benchmark E10).
``component_accounting=False`` restores the legacy accounting (a single flood
from the initiator, accounting-only singleton roots elsewhere) for
comparison harnesses.

**Depth-drift cost model.**  Pipelined waves pay the broadcast forest's max
depth per chunk, so a cached tree deeper than a fresh rebuild's charges its
excess depth on every wave.  The backend therefore makes two cost decisions:
a *repair gate* (a local repair whose resulting forest would be deeper than
the fallback rebuild's falls back to that rebuild instead) and a *voluntary
rebuild*.  For the latter it keeps a ``drift_account`` of observed *waves ×
drift*, measured inside the updated component; once the account exceeds the
modeled ``O(D)`` rebuild cost, :meth:`CongestBackend.must_rebuild` vetoes
overlay service under every policy, and the next update rebuilds the
component from a **2-sweep BFS center** — two accounted BFS sweeps pick a
root whose eccentricity is within a factor 2 of the component's true radius,
counted under ``voluntary_rebuilds`` / ``center_sweeps`` /
``max_voluntary_rebuild_root_depth``.  Together they close the
``rebuild_every=None`` regression where pure repair rode a permanently
deeper tree than rebuild-on-invalidation on low-diameter graphs (benchmark
E9); ``voluntary_root="initiator"`` restores the best-observed-initiator
root choice E10 compares the center against.

The driver reports rounds, messages and maximum message size per update so
benchmark E4 can check the ``O(D log^2 n)`` rounds / ``O(nD log^2 n + m)``
messages / ``O(n/D)`` message-size claims.  It inherits its update,
commit-listener and read API from :class:`~repro.core.engine.EngineDriver`;
:meth:`CongestBackend.mutate` changes the graph through
:func:`~repro.core.overlay.apply_update` and keeps only the broadcast-tree
bookkeeping.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Hashable, Iterable, List, Optional, Sequence

from repro.constants import VIRTUAL_ROOT
from repro.core.engine import Backend, EngineDriver, UpdateEngine, update_words
from repro.core.overlay import apply_update
from repro.core.queries import Answer, BruteForceQueryService, EdgeQuery, QueryService
from repro.core.updates import (
    EdgeDeletion,
    EdgeInsertion,
    Update,
    VertexDeletion,
    VertexInsertion,
)
from repro.distributed.forest import (
    articulation_points_and_bridges,
    children_index,
    parent_tree_subtree,
    reroot_parent_tree,
    two_sweep,
)
from repro.distributed.network import CongestNetwork, check_bandwidth, recommended_bandwidth
from repro.graph.graph import UndirectedGraph
from repro.graph.traversal import bfs_tree, component_of, connected_components
from repro.metrics.counters import MetricsRecorder
from repro.tree.dfs_tree import DFSTree

Vertex = Hashable


class DistributedQueryService(QueryService):
    """Answers query batches with one convergecast + broadcast over the network.

    Every node evaluates, from its *local adjacency list only*, the best
    candidate edge for each query in which one of its vertices is a source;
    the per-query partial answers (one word each) are then combined up the BFS
    tree and redistributed.  The local evaluation reuses
    :class:`BruteForceQueryService`, which scans exactly the per-node adjacency
    lists — the same work each node would do on its own.
    """

    def __init__(
        self,
        network: CongestNetwork,
        graph: UndirectedGraph,
        base_tree: DFSTree,
        bfs_parent: Dict[Vertex, Optional[Vertex]],
        bfs_depth: Dict[Vertex, int],
        *,
        metrics: Optional[MetricsRecorder] = None,
    ) -> None:
        self._network = network
        self._local = BruteForceQueryService(graph, base_tree, metrics=None)
        self._bfs_parent = bfs_parent
        self._bfs_depth = bfs_depth
        self._metrics = metrics

    def answer_batch(self, queries: Sequence[EdgeQuery]) -> List[Answer]:
        if self._metrics is not None:
            self._metrics.inc("query_batches")
            self._metrics.inc("queries", len(queries))
        if not queries:
            return []
        answers = self._local.answer_batch(queries)
        # One word of partial answer per query travels up and back down.
        self._network.aggregate_query_round(self._bfs_parent, self._bfs_depth, len(queries))
        return answers


class CongestBackend(Backend):
    """CONGEST backend: owns the network simulator and the cached broadcast
    (BFS) tree.  The cache is maintained incrementally across overlay-served
    updates; when a mutation kills a broadcast-tree edge or node, the orphaned
    subtree is *locally repaired* — reattached through a surviving incident
    edge in ``O(depth-of-subtree)`` rounds — and only a subtree with no
    surviving edge into the rest of the tree (or a dead broadcast root) forces
    the conservative full ``O(D)``-round BFS rebuild.

    **Per-component accounting.**  A rebuild floods one BFS tree per
    connected component (the recovery initiator's component from the
    initiator; every other component keeps its current broadcast root when
    one survives, else floods from its first vertex in insertion order), so
    the cached state is a broadcast *forest* and every wave is charged per
    component by the network's round ledger.
    ``component_accounting=False`` keeps the legacy single-flood rebuild
    (accounting-only singleton roots outside the initiator's component) as
    the comparison baseline of benchmark E10 and the conservativeness
    property tests.

    **Depth-aware voluntary rebuilds.**  Repairs (and joining vertices) may
    leave the cached tree deeper than the tree a fresh BFS would build, and
    every pipelined wave pays the tree's max depth per chunk — so a
    permanently drifted tree charges its excess depth on every later
    broadcast/convergecast.  The backend therefore adds, after each update,
    *observed waves × (current component depth − fresh-rebuild depth)* — the
    excess rounds the stale tree charged that update, both measured inside
    the updated component — to :attr:`drift_account`, and once the account
    exceeds the modeled rebuild cost :meth:`must_rebuild` forces a
    *voluntary* rebuild (``voluntary_rebuilds``), which re-minimises the
    depths and resets the account.  Only a voluntary rebuild resets it: a
    recovery rebuild must flood from the update's initiator and may leave
    the component just as drifted, so the excess charged before it still
    counts.  Under ``voluntary_root="center"``
    (default) the voluntary rebuild runs a **2-sweep BFS center
    approximation** inside the triggering component — two *accounted* sweeps
    (``center_sweeps``) find a farthest vertex ``u`` and a farthest-from-``u``
    vertex ``w``, and the final flood roots at the midpoint of the ``u → w``
    path, whose eccentricity is within a factor 2 of the component's true
    radius (and equals it on trees) —
    strictly shallower than the best *observed* initiator whenever update
    sites hug the periphery.  Both modes remember one root, the best the
    drift yardstick has seen since the last rebuild:
    ``voluntary_root="initiator"`` floods from it, and the center mode seeds
    its sweeps there.  The drift signal itself is computed
    locally without communication: every node stores the graph (updates are
    disseminated in full — the driver already recomputes the
    articulation/bridge summary locally on commit), so each node can evaluate
    the would-be center's BFS depth itself.
    """

    name = "distributed_dfs"
    supports_amortization = True
    rebuild_stage = "post"  # the broadcast tree must span the updated graph

    def __init__(
        self,
        graph: UndirectedGraph,
        network: CongestNetwork,
        metrics: MetricsRecorder,
        *,
        local_repair: bool = True,
        drift_rebuild_cost: Optional[float] = None,
        voluntary_root: str = "center",
        component_accounting: bool = True,
    ) -> None:
        if voluntary_root not in ("center", "initiator"):
            raise ValueError(
                f"voluntary_root must be 'center' or 'initiator', got {voluntary_root!r}"
            )
        self.graph = graph
        self.network = network
        self.metrics = metrics
        self.bfs_parent: Dict[Vertex, Optional[Vertex]] = {}
        self.bfs_depth: Dict[Vertex, int] = {}
        self._cache_broken = True
        self._local_repair = local_repair
        self._drift_rebuild_cost = drift_rebuild_cost
        self._voluntary_root = voluntary_root
        self._component_accounting = component_accounting
        self._pending_orphans: List[Vertex] = []
        self._as_built_depth = 0
        self._committed_tree: Optional[DFSTree] = None
        #: Best (minimum-eccentricity) root the drift yardstick settled on
        #: since the last rebuild: an *initiator-mode* voluntary rebuild
        #: floods from it, a *center-mode* one starts its accounted 2-sweep
        #: there.
        self._drift_root: Optional[Vertex] = None
        self._rebuilt_this_update = False
        self._update_words = 0
        self._rounds_before = 0
        self._messages_before = 0
        self._query_batches_before = 0.0
        #: Excess rounds the drifted broadcast forest charged since the last
        #: voluntary rebuild (*waves × drift*; repair mode only — conservative
        #: invalidation rebuilds, and so re-minimises, on every tree death).
        self.drift_account = 0.0

    # ------------------------------------------------------------------ #
    # Rebuild policy.  A stale (but intact) broadcast tree never degrades
    # query answers, only the round accounting of its depths, so the backend
    # keeps the default rebuild_due() (never): it rebuilds on a broken cache
    # (cache_invalid) or on the drift veto below.
    # ------------------------------------------------------------------ #
    def drift_due(self) -> bool:
        """True when the drift account has outgrown the modeled rebuild cost:
        the next rebuild is *voluntary*."""
        return self._local_repair and self.drift_account > self._modeled_rebuild_cost()

    def must_rebuild(self, update: Update) -> bool:
        """Veto overlay service once :meth:`drift_due` (counted under
        ``cost_model_triggers``)."""
        if self.drift_due():
            self.metrics.inc("cost_model_triggers")
            return True
        return False

    def _modeled_rebuild_cost(self) -> float:
        """Rounds a voluntary rebuild costs, in waves of the as-built depth:
        the BFS flood (one round per level) plus the summary re-broadcast a
        rebuild update pays — and, under ``voluntary_root="center"``, the two
        accounted 2-sweep BFS floods that locate the center first (four waves
        instead of two).  The ``drift_rebuild_cost`` knob overrides the model
        (``float("inf")`` disables voluntary rebuilds, the pure-repair
        baseline of benchmark E9)."""
        if self._drift_rebuild_cost is not None:
            return self._drift_rebuild_cost
        waves = 4.0 if self._voluntary_root == "center" else 2.0
        return max(waves * (self._as_built_depth + 1), 1.0)

    def _accounted_sweep(self, seed: Vertex):
        """One 2-sweep BFS *through the network*: its rounds are charged to
        *seed*'s component and counted under ``center_sweeps``.  The sweeps'
        tie-breaks are the deterministic BFS discovery order every node
        reproduces locally, so no extra coordination rounds are needed."""
        swept = self.network.build_bfs_tree(seed)
        self.metrics.inc("center_sweeps")
        return swept

    def _flood_root(self, component: List[Vertex], first: Vertex) -> Vertex:
        """The root a rebuild started at *first* floods *component* from,
        with *component* listed as ``connected_components`` lists it (BFS
        order from its first vertex in graph insertion order): *first* when
        it lies inside, else the first current broadcast root in that order
        (so a component's earlier centering is not wiped by rebuilds
        triggered elsewhere, which would let the drift account refill
        immediately), else ``component[0]``.  The rebuild and the repair
        gate's yardstick both pick their roots here."""
        if first in component:
            return first
        return next(
            (v for v in component if v in self.bfs_parent and self.bfs_parent[v] is None),
            component[0],
        )

    def _rebuild_roots(self, first: Vertex) -> List[Vertex]:
        """Roots of the rebuild's broadcast forest: *first* for its own
        component plus — under per-component accounting — one root per other
        component (see :meth:`_flood_root`).  Legacy accounting floods
        *first* only (the remaining vertices become accounting-only singleton
        roots)."""
        roots = [first]
        if self._component_accounting:
            roots.extend(
                self._flood_root(component, first)
                for component in connected_components(self.graph)
                if first not in component
            )
        return roots

    def rebuild(self, tree: DFSTree, update: Optional[Update]) -> None:
        """Rebuild the broadcast forest (one accounted BFS flood per
        component).  Recovery rebuilds flood the initiator's component from
        the update's canonical initiator; a *voluntary* rebuild (demanded by
        the ``depth_drift`` cost model) roots the triggering component at the
        2-sweep center (or, in initiator mode, at the best observed
        initiator) instead, and resets :attr:`drift_account`.  Emits
        ``service_rebuilds`` (via the engine), ``voluntary_rebuilds``,
        ``center_sweeps`` and ``max_voluntary_rebuild_root_depth``."""
        self._rebuilt_this_update = True
        voluntary = self.drift_due()
        if voluntary:
            # The accumulated excess rounds the drifted tree charged have
            # caught up with this rebuild's cost: the rebuild is voluntary
            # (demanded by the cost model, not by a broken cache).  It is
            # maintenance rather than update-site recovery, so it may pick
            # its root freely inside the triggering component — otherwise the
            # new tree could be just as deep and the account would refill
            # immediately.
            self.metrics.inc("voluntary_rebuilds")
        if self.graph.num_vertices:
            first = self._voluntary_rebuild_root(tree, update) if voluntary else None
            if first is None:
                first = self._pick_initiator(tree, update)
            self.bfs_parent, self.bfs_depth = self.network.build_bfs_forest(
                self._rebuild_roots(first)
            )
            # Vertices no flood reached (legacy accounting only): track them
            # as additional broadcast roots (accounting only).
            for v in self.graph.vertices():
                if v not in self.bfs_parent:
                    self.bfs_parent[v] = None
                    self.bfs_depth[v] = 0
        else:  # pragma: no cover - the model needs at least one node
            self.bfs_parent, self.bfs_depth = {}, {}
        self._cache_broken = False
        self._pending_orphans.clear()
        self._as_built_depth = max(self.bfs_depth.values(), default=0)
        self._drift_root = None
        if voluntary:
            self.metrics.observe_max("voluntary_rebuild_root_depth", self._as_built_depth)
            self.drift_account = 0.0

    def _voluntary_rebuild_root(
        self, tree: DFSTree, update: Optional[Update]
    ) -> Optional[Vertex]:
        """Root a voluntary rebuild floods the triggering component from:
        the remembered root (initiator mode), or (center mode) the shallower
        of the accounted 2-sweep center seeded at the remembered root and the
        drift yardstick's own best root on the current graph.  None when no
        usable root is left — the caller falls back to the update's canonical
        initiator."""
        remembered = self._drift_root
        if remembered is not None and not self.graph.has_vertex(remembered):
            remembered = None
        if self._voluntary_root == "initiator":
            return remembered
        seed = self._pick_initiator(tree, update) if remembered is None else remembered
        if not self.graph.has_vertex(seed):
            return None
        d1, midpoint = two_sweep(self._accounted_sweep, seed)
        best, best_ecc = seed, max(d1.values(), default=0)
        # The update may have moved the shallowest root since the account was
        # charged: the yardstick re-evaluates its candidates on the current
        # graph and remembers the best, so the rebuild reaches the depth the
        # next drift is measured against.
        component, fresh = self._drift_reference(update)
        if component is not None and seed in component:
            best, best_ecc = self._drift_root, fresh
        # Flood from whichever of {accounted midpoint, best} is shallower —
        # evaluated locally, like every depth yardstick.
        _, mid_depth = bfs_tree(self.graph, midpoint)
        if max(mid_depth.values(), default=0) <= best_ecc:
            return midpoint
        return best

    def cache_invalid(self, update: Update) -> bool:
        """Post-mutation cache check — and the local-repair entry point.

        Called by the engine only when the policy wants to *reuse* the cached
        broadcast tree, i.e. exactly when repair work pays off.  Orphaned
        subtrees recorded by :meth:`mutate` are reattached here, before the
        update itself is disseminated over the (repaired) tree; a subtree with
        no surviving edge into the live tree falls back to the full rebuild.
        """
        pending, self._pending_orphans = self._pending_orphans, []
        if self._cache_broken:
            return True
        if not pending:
            return False
        if not self._local_repair:
            self._cache_broken = True
            return True
        rounds_before = self.network.rounds
        # Collect every orphaned subtree first: a node whose own root path is
        # severed is not a valid reattachment target for a sibling subtree.
        subtrees = []
        still_orphaned: set = set()
        children = children_index(self.bfs_parent)
        for root in pending:
            sub, rel_depth = parent_tree_subtree(root, children)
            subtrees.append((root, sub, rel_depth))
            still_orphaned.update(sub)
        repaired_depths: List[int] = []
        repaired = True
        for root, sub, rel_depth in subtrees:
            still_orphaned.difference_update(sub)
            if not self._repair_orphan(root, sub, rel_depth, still_orphaned, update):
                repaired = False
                break
            repaired_depths.append(max(rel_depth.values()))
        # The rounds were genuinely spent either way, but repairs only count
        # when the whole batch succeeds: a fallback rebuild discards every
        # sibling reattachment made earlier in the same update.
        self.metrics.inc("bfs_repair_rounds", self.network.rounds - rounds_before)
        if not repaired:
            self.metrics.inc("bfs_repair_fallbacks")
            self._cache_broken = True
            return True
        for depth in repaired_depths:
            self.metrics.inc("bfs_repairs")
            self.metrics.observe_max("bfs_repair_subtree_depth", depth)
        return False

    def _repair_orphan(
        self,
        root: Vertex,
        sub: List[Vertex],
        rel_depth: Dict[Vertex, int],
        still_orphaned: set,
        update: Update,
    ) -> bool:
        """Reattach the orphaned broadcast subtree *sub* (rooted at *root*).

        Every subtree node scans its local adjacency for a surviving neighbour
        whose own root path is intact (one local round), the candidates are
        combined with a convergecast *inside the subtree* (``O(depth(sub))``
        rounds, one word per edge), and the winner — the candidate with the
        smallest *two-level score*, ties broken by subtree BFS order, then
        adjacency order, so the result is deterministic — re-roots the
        subtree at itself and hangs it off the surviving neighbour.  A final
        one-word broadcast down the re-rooted subtree (``O(depth)`` rounds
        again) distributes the decision and the corrected depths.

        **Two-level candidate selection.**  The score combines the two tree
        levels a candidate ``u`` touches — the live depth of its reattachment
        target plus ``u``'s own depth inside the orphaned subtree
        (``bfs_depth[target] + rel_depth[u]``).  Because the re-rooted height
        from ``u`` is at most ``rel_depth[u] + H`` (``H`` = the subtree's
        height, a shared constant), minimising the score minimises an upper
        bound on the resulting bottom depth — approximating the exact
        min-bottom-depth selection at ``O(1)`` bookkeeping per candidate
        instead of a per-candidate subtree BFS, without changing the repair's
        ``O(depth-of-subtree)`` round accounting (still exactly one
        convergecast and one broadcast over the subtree).

        Returns False when no subtree node has a surviving edge out — the
        subtree is truly disconnected from the live tree and only a full
        rebuild can certify the new component structure — or when the
        **cost-model repair gate** rejects the plan: the repaired component
        would end up deeper than the depth the fallback rebuild would give
        that same component (see :meth:`_component_fallback_depth`).  Accepting
        such a repair converts the rebuild's one-time ``O(D)`` rounds into a
        recurring per-wave drift charge: the ``depth_drift`` account tolerates
        up to one modeled rebuild cost of excess before the voluntary rebuild
        corrects it, so riding the drift costs about *twice* the rebuild the
        repair avoided — rebuilding now is always cheaper.  The gate is
        disabled together with voluntary rebuilds by
        ``drift_rebuild_cost=inf`` — the pure-repair baseline.
        """
        sub_set = set(sub)
        # Two-level score per candidate: live target depth + depth inside the
        # orphaned subtree.  O(1) per candidate — no per-candidate BFS.
        best = None  # (two-level score, attach vertex, target vertex)
        for u in sub:
            target_depth = None
            target = None
            for w in self.graph.neighbors(u):
                if w in sub_set or w in still_orphaned or w not in self.bfs_depth:
                    continue
                if target_depth is None or self.bfs_depth[w] < target_depth:
                    target_depth, target = self.bfs_depth[w], w
            if target is None:
                continue
            score = target_depth + rel_depth[u]
            if best is None or score < best[0]:
                best = (score, u, target)
        # The candidate convergecast is paid whether or not anything was
        # found: the subtree cannot know it is disconnected without looking.
        old_parent = {v: (None if v == root else self.bfs_parent[v]) for v in sub}
        self.network.pipelined_convergecast(old_parent, rel_depth, 1)
        if best is None:
            return False
        _, attach, target = best
        # Planned before committing: the exact re-rooted bottom depth feeds
        # the gate.
        flipped, new_rel = reroot_parent_tree(sub, self.bfs_parent, attach)
        attach_depth = self.bfs_depth[target] + 1
        if self._drift_rebuild_cost != float("inf"):
            # Per-component gate, matching the drift account's yardstick: the
            # repaired tree is compared against the depth the fallback
            # rebuild would give *this* component — a deep unrelated
            # component must not mask a component-level repair regression
            # (the drift account would charge it per wave regardless).
            members, fresh_depth = self._component_fallback_depth(root, update)
            repaired_max = attach_depth + max(new_rel.values())
            rest_max = max(
                (
                    d
                    for v, d in self.bfs_depth.items()
                    if v in members and v not in sub_set and v not in still_orphaned
                ),
                default=0,
            )
            if max(repaired_max, rest_max) > fresh_depth:
                return False
        self.bfs_parent[attach] = target
        self.bfs_parent.update(flipped)
        self.bfs_depth.update((v, attach_depth + d) for v, d in new_rel.items())
        new_parent = {v: (None if v == attach else self.bfs_parent[v]) for v in sub}
        self.network.pipelined_broadcast(new_parent, new_rel, 1)
        return True

    def _pick_initiator(self, tree: DFSTree, update: Optional[Update]) -> Vertex:
        """The unique node that initiates the recovery broadcast (Section 6.2).

        Deterministic and O(degree): an endpoint of the update, or — for a
        vertex deletion — the first surviving old-tree neighbour in tree
        order.  The fallback is the graph's first vertex (insertion order).
        """
        graph = self.graph
        candidates: List[Vertex] = []
        if isinstance(update, (EdgeInsertion, EdgeDeletion)):
            candidates = [v for v in (update.u, update.v) if graph.has_vertex(v)]
        elif isinstance(update, VertexInsertion):
            candidates = [update.v] if graph.has_vertex(update.v) else []
        elif isinstance(update, VertexDeletion) and update.v in tree:
            candidates = [
                w
                for w in list(tree.children(update.v)) + [tree.parent(update.v)]
                if w is not None and graph.has_vertex(w) and w != VIRTUAL_ROOT
            ]
        if candidates:
            return candidates[0]
        vertices = iter(graph.vertices())
        return next(vertices, VIRTUAL_ROOT)

    # ------------------------------------------------------------------ #
    def mutate(self, update: Update) -> None:
        """Apply the update to the graph and patch the cached broadcast tree.

        The graph changes through :func:`apply_update`; this method keeps
        only the broadcast-tree bookkeeping.  A death of a broadcast-tree edge
        or node does not break the cache outright: the severed children are
        recorded as *pending orphans*, and :meth:`cache_invalid` repairs them
        locally when the policy reuses the cache.  Only the death of a
        broadcast root (no surviving tree above its children) still forces the
        conservative full rebuild.
        """
        self._update_words = update_words(update, self.graph)
        if isinstance(update, VertexDeletion):
            # Read the broadcast bookkeeping of the vertex before it goes.
            children = [c for c, p in self.bfs_parent.items() if p == update.v]
            was_root = update.v in self.bfs_parent and self.bfs_parent[update.v] is None
        apply_update(self.graph, update)
        if isinstance(update, EdgeDeletion):
            if self.bfs_parent.get(update.u) == update.v:
                self._pending_orphans.append(update.u)  # a broadcast-tree edge died
            elif self.bfs_parent.get(update.v) == update.u:
                self._pending_orphans.append(update.v)
        elif isinstance(update, VertexInsertion):
            self._attach_to_cache(update.v, update.neighbors)
        elif isinstance(update, VertexDeletion):
            self.bfs_parent.pop(update.v, None)
            self.bfs_depth.pop(update.v, None)
            if children and was_root:
                # No surviving tree above the orphans to reattach into.
                self._cache_broken = True
            else:
                self._pending_orphans.extend(children)

    def _attach_to_cache(self, v: Vertex, neighbors: Iterable[Vertex]) -> None:
        """Hook a joining node into the cached broadcast tree (one local
        message to its first cached neighbour; covered by the dissemination
        broadcast's accounting)."""
        for w in neighbors:
            if w in self.bfs_parent:
                self.bfs_parent[v] = w
                self.bfs_depth[v] = self.bfs_depth[w] + 1
                return
        self.bfs_parent[v] = None  # isolated joiner: its own broadcast root
        self.bfs_depth[v] = 0

    def on_mutated(self, update: Update) -> None:
        """Recovery stage: disseminate the update itself over the (fresh or
        cached) broadcast forest — a pipelined ``O(depth + words/B)``-round
        wave, charged per component."""
        self.network.pipelined_broadcast(self.bfs_parent, self.bfs_depth, self._update_words)

    def make_query_service(self, tree: DFSTree) -> QueryService:
        """A :class:`DistributedQueryService` over the cached broadcast forest
        (one convergecast + broadcast per query batch)."""
        return DistributedQueryService(
            self.network, self.graph, tree, self.bfs_parent, self.bfs_depth, metrics=self.metrics
        )

    # ------------------------------------------------------------------ #
    def begin_update(self, update: Update) -> None:
        """Snapshot round/message/query-batch counters for the per-update
        maxima ``end_update`` flushes."""
        self._rebuilt_this_update = False
        self._rounds_before = self.network.rounds
        self._messages_before = self.network.messages
        self._query_batches_before = self.metrics["query_batches"]

    def on_commit(self, tree: DFSTree) -> None:
        """Recompute the articulation/bridge summary (locally at every node)
        and — on rebuild updates only, the amortized policy's second saving
        besides the BFS construction itself — re-disseminate it with an
        ``O(n)``-word pipelined broadcast so the next deletion can pick
        initiators locally."""
        self._committed_tree = tree
        articulation, bridges = articulation_points_and_bridges(self.graph)
        if self._rebuilt_this_update and self.graph.num_vertices > 1:
            summary_words = max(len(articulation) + len(bridges), 1)
            self.network.pipelined_broadcast(
                self.bfs_parent,
                self.bfs_depth,
                min(summary_words, self.graph.num_vertices),
            )

    def _component_fallback_depth(self, vertex: Vertex, update: Update):
        """``(members, depth)``: the vertices of *vertex*'s graph component
        and the depth the *fallback* rebuild would give exactly that
        component — the BFS eccentricity of the root the rebuild floods it
        from (:meth:`_flood_root` with the update's canonical initiator:
        recovery rebuilds start at an update-adjacent node).  The repair
        gate compares the planned repair against this per-component
        yardstick, the same scope the ``depth_drift`` account measures — a
        deep unrelated component never masks a regression.  Evaluated
        locally from the stored graph; no rounds charged."""
        members = set(component_of(self.graph, vertex))
        # List the component as connected_components does, so the gate and
        # the rebuild pick the same root.
        start = next(v for v in self.graph.vertices() if v in members)
        initiator = self._pick_initiator(self._committed_tree, update)
        root = self._flood_root(component_of(self.graph, start), initiator)
        _, depth = bfs_tree(self.graph, root)
        return members, max(depth.values(), default=0)

    def _drift_reference(self, update: Update):
        """The per-component drift yardstick for this update: ``(component,
        fresh_depth)`` where *component* is the updated component's vertex
        list and *fresh_depth* is the depth a voluntary rebuild of that
        component would achieve right now.  The candidates are the update's
        initiator, then the remembered root (when it lies in the component),
        then — in center mode — the 2-sweep midpoint, which joins the pool
        rather than replacing it: on low-diameter graphs an observed
        initiator can already sit at the center, and the approximation must
        never make the yardstick (or the rebuild root) worse.  The first
        minimum-eccentricity candidate wins and is remembered, so the
        voluntary rebuild can actually reach this depth.  Evaluated locally
        from the stored graph — no rounds are charged, the same local
        full-graph liberty the articulation/bridge summary already takes.
        Returns ``(None, 0)`` when the update left no valid initiator."""
        initiator = self._pick_initiator(self._committed_tree, update)
        if not self.graph.has_vertex(initiator):
            return None, 0
        bfs = partial(bfs_tree, self.graph)
        candidates = [self._drift_root]
        if self._voluntary_root == "center":
            d1, midpoint = two_sweep(bfs, initiator)
            candidates.append(midpoint)
        else:
            _, d1 = bfs(initiator)
        best_root, best_depth = initiator, max(d1.values(), default=0)
        evaluated = {initiator}
        for candidate in candidates:
            if candidate in d1 and candidate not in evaluated:
                evaluated.add(candidate)
                _, depth = bfs(candidate)
                ecc = max(depth.values(), default=0)
                if ecc < best_depth:
                    best_root, best_depth = candidate, ecc
        self._drift_root = best_root
        return list(d1), best_depth

    def end_update(self, update: Update) -> None:
        """Flush the per-update round/message maxima and add the update's
        *waves × drift*, both measured inside the updated component (see
        :meth:`_drift_reference`), to :attr:`drift_account` and
        ``cost_model_excess``."""
        self.metrics.observe_max("rounds_per_update", self.network.rounds - self._rounds_before)
        self.metrics.observe_max("messages_per_update", self.network.messages - self._messages_before)
        if self._local_repair and self.bfs_depth:
            # Excess rounds the stale tree charged this update: every
            # pipelined wave (the dissemination broadcast plus a convergecast
            # and a broadcast per query batch) pays the tree's max depth per
            # chunk, so the drift — the updated component's current depth
            # minus what a fresh rebuild of it would give — was charged once
            # per wave against that component's ledger.
            component, fresh = self._drift_reference(update)
            if component is not None:
                current = max(
                    (self.bfs_depth[v] for v in component if v in self.bfs_depth),
                    default=0,
                )
                drift = current - fresh
                if drift > 0:
                    batches = self.metrics["query_batches"] - self._query_batches_before
                    excess = (1 + 2 * batches) * drift
                    self.drift_account += excess
                    self.metrics.inc("cost_model_excess", excess)


class DistributedDynamicDFS(EngineDriver):
    """Maintain a DFS forest in the CONGEST(n/D) model.

    The update, commit-listener and read API come from
    :class:`~repro.core.engine.EngineDriver`: :attr:`tree` is the DFS forest
    stored at every node and :attr:`graph` the live graph every node stores a
    copy of.  An update is disseminated (update stage), then the tree is
    repaired (recovery stage) at ``O(D + q/B)`` rounds per batch of ``q``
    queries; a vertex insertion is disseminated as an ``O(deg)``-word
    broadcast.  A deleted broadcast-tree edge triggers a local repair
    (``bfs_repairs``) or a rebuild; a vertex deletion's orphaned broadcast
    subtrees are repaired or the forest is rebuilt per component.

    Parameters
    ----------
    backend:
        Graph store of the node-local graph copy: ``"dict"`` (default),
        ``"array"`` (:class:`~repro.graph.array_graph.ArrayGraph`;
        byte-identical trees) or ``None`` to read the ``REPRO_BACKEND``
        environment variable.  Both stores run the same BFS floods and DFS,
        and this driver builds no ``D``, so the array store only adds the
        upkeep of its half-edge mirror.
    rebuild_every:
        ``1`` (default) — rebuild the broadcast tree and re-disseminate the
        forest summary on every update.  ``k > 1`` / ``None`` — reuse the
        cached broadcast state between rebuilds (``None``: rebuild only when a
        mutation breaks the cached tree beyond repair, or the ``depth_drift``
        cost model demands a voluntary rebuild).  All policies maintain
        identical trees.
    local_repair:
        When True (default) a dead broadcast-tree edge/node reattaches the
        orphaned subtree through a surviving incident edge in
        ``O(depth-of-subtree)`` rounds (counted under ``bfs_repairs`` /
        ``bfs_repair_rounds``); a full ``O(D)``-round BFS rebuild happens only
        when the subtree is truly disconnected.  ``False`` restores the
        conservative invalidate-on-any-death behaviour (every tree-edge death
        rebuilds), which benchmarks use as the comparison baseline.
    drift_rebuild_cost:
        Repair mode only: budget (in CONGEST rounds) of the ``depth_drift``
        cost model.  A drifted broadcast tree pays its excess depth on every
        pipelined wave — the backend accumulates that excess (*observed waves
        × depth drift*, inside the updated component) and forces a
        **voluntary rebuild** (``voluntary_rebuilds``) once it exceeds this
        budget, re-minimising the depths.  ``None`` (default) models the
        actual rebuild cost (the flood plus the summary re-broadcast,
        ``~2(D+1)`` — plus the two accounted center sweeps, ``~4(D+1)``,
        under ``voluntary_root="center"``); ``float("inf")`` disables both
        voluntary rebuilds and the cost-model repair gate (the pure-repair
        baseline of benchmark E9, which re-creates the depth-drift regression
        this model fixes).
    voluntary_root:
        ``"center"`` (default) — a voluntary rebuild runs the 2-sweep BFS
        center approximation inside the triggering component (two accounted
        sweeps, ``center_sweeps``) and floods from the midpoint of the
        approximate diameter path, yielding a tree within a factor 2 of the
        component radius (``max_voluntary_rebuild_root_depth``).
        ``"initiator"`` — the legacy policy: flood from the best
        (minimum-eccentricity) initiator observed since the last rebuild.
        Benchmark E10 compares the two.
    component_accounting:
        When True (default) a rebuild floods one BFS tree per connected
        component and every wave is charged within the component that
        executes it (``component_rounds_charged``; see
        :class:`~repro.distributed.network.CongestNetwork`), so round
        comparisons stay meaningful when updates fragment the graph.
        ``False`` restores the legacy accounting — a single flood from the
        initiator with free dissemination to accounting-only singleton roots
        elsewhere — as the conservativeness baseline (benchmark E10 asserts
        per-component accounting never charges less).
    """

    def __init__(
        self,
        graph: UndirectedGraph,
        *,
        backend: Optional[str] = None,
        bandwidth_words: Optional[int] = None,
        rebuild_every: Optional[int] = 1,
        local_repair: bool = True,
        drift_rebuild_cost: Optional[float] = None,
        voluntary_root: str = "center",
        component_accounting: bool = True,
        validate: bool = False,
        metrics: Optional[MetricsRecorder] = None,
    ) -> None:
        if graph.num_vertices == 0:
            raise ValueError("the distributed model needs at least one node")
        UpdateEngine.validate_options("parallel", rebuild_every)  # fail fast
        if bandwidth_words is not None:
            check_bandwidth(bandwidth_words)
        if drift_rebuild_cost is not None and drift_rebuild_cost <= 0:
            raise ValueError(
                f"drift_rebuild_cost must be a positive budget or None, got {drift_rebuild_cost!r}"
            )
        tree = self._start(graph, backend, metrics, "distributed_dfs")
        root = next(iter(self._graph.vertices()))
        self.diameter, auto_bandwidth = recommended_bandwidth(self._graph, root)
        self.bandwidth = bandwidth_words if bandwidth_words is not None else auto_bandwidth
        self.network = CongestNetwork(self._graph, self.bandwidth, metrics=self.metrics)
        self._backend = CongestBackend(
            self._graph,
            self.network,
            self.metrics,
            local_repair=local_repair,
            drift_rebuild_cost=drift_rebuild_cost,
            voluntary_root=voluntary_root,
            component_accounting=component_accounting,
        )
        # No initial rebuild: the BFS/broadcast tree is per-update recovery
        # state, not preprocessing — the backend's cache starts broken, so the
        # first update builds it (without charging rounds at construction).
        self._engine = UpdateEngine(
            self._backend,
            tree,
            rebuild_every=rebuild_every,
            validate=validate,
            metrics=self.metrics,
            initial_rebuild=False,
        )

    def rounds(self) -> int:
        """Total CONGEST rounds so far."""
        return self.network.rounds

    def messages(self) -> int:
        """Total CONGEST messages so far."""
        return self.network.messages

    def component_rounds(self) -> Dict[Vertex, int]:
        """Snapshot of the per-component round ledger (broadcast-tree root at
        charge time -> rounds that tree spent executing waves).  Sums to at
        least :meth:`rounds` minus idle chunk rounds on connected graphs and
        strictly exceeds :meth:`rounds` once waves span several components."""
        return dict(self.network.component_rounds)
