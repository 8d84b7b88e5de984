"""Metric counters.

The reproduction's headline measurements are *model quantities* — numbers of
query rounds, passes, CONGEST rounds, messages, simulated PRAM depth — rather
than wall-clock time: CPython's GIL rules out genuine parallel speedups, so
parallel time is metered on a simulator instead of timed (see
docs/benchmarks.md).  Every engine
accepts a :class:`MetricsRecorder` and increments named counters; benchmarks and
tests read them back through :meth:`MetricsRecorder.as_dict`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

#: Well-known counter names and what they measure.  The recorder itself is
#: schema-free by default; this registry documents the names the engines agree
#: on so benchmarks and dashboards do not have to reverse-engineer call sites.
#: It is *complete*: a recorder constructed with ``strict=True`` rejects any
#: key missing from the registry, and the cross-driver differential harness
#: drives every driver through strict recorders — so adding a counter without
#: registering it here fails the tier-1 suite (drift is impossible, not just
#: discouraged).  Maxima may be registered under either their raw name or the
#: ``max_``-prefixed name :meth:`MetricsRecorder.as_dict` reports them under;
#: timers are registered under their full ``time_<name>`` key.
WELL_KNOWN_COUNTERS: Dict[str, str] = {
    # Update pipeline (UpdateEngine)
    "updates": "updates accepted by a dynamic driver (failed updates are not counted)",
    "update_batches": "apply_all() batches served by the amortized engine",
    "max_update_batch_size": "largest batch handed to apply_all()",
    "service_rebuilds": "query-service base-state rebuilds by UpdateEngine (initial build included)",
    "service_rebuilds_forced": "rebuilds forced by a backend veto (re-used vertex id) or a forcing cost model (depth drift) rather than the policy cadence",
    "overlay_served_updates": "updates served from the existing service state instead of a rebuild",
    "max_overlay_size": "largest overlay (masked + extra entries) observed between rebuilds",
    "commit_listener_errors": "commit listeners that raised and were isolated by UpdateEngine (the writer is never poisoned; end_update still ran)",
    # Cost-model maintenance (the CONGEST depth-drift veto)
    "cost_model_triggers": "service refreshes forced by CongestBackend.must_rebuild once the depth-drift account exceeds the modeled rebuild cost",
    "cost_model_excess": "excess rounds (waves x depth drift) added to CongestBackend's depth-drift account",
    # Data structure D (Theorems 8-9) and its maintenance policies
    "d_builds": "StructureD constructions (one per full rebuild of D)",
    "d_build_work": "total adjacency entries processed while building D",
    "d_rebuilds": "D-state refreshes triggered by a driver (initial build included)",
    "d_stale_rebuilds": "full rebuilds of D that replaced a base tree the committed tree had moved away from",
    "d_vertex_queries": "per-source-vertex range searches answered by D",
    "d_probes": "adjacency entries touched by D's range searches",
    "d_target_segments": "base-tree segments the query targets decomposed into",
    "max_d_target_segments_per_query": "largest segment decomposition one query needed",
    "d_reanchor_probes": "adjacency entries touched while re-anchoring canonical source endpoints",
    "d_overlay_view_queries": "queries answered while D's base tree differs from the current tree",
    # Array backend (flat/CSR core of ArrayStructureD)
    "d_batch_queries": "batched min-postorder re-anchor calls answered by D",
    # Query services
    "queries": "EdgeQuery objects answered by a query service",
    "query_batches": "independent query batches (one parallel round each; also: coalesced flushes of the snapshot service's batch front)",
    "query_rounds": "parallel query rounds spent by the reroot engine",
    "max_queries_per_round": "largest independent query batch in one round",
    # MVCC snapshot service (repro.service)
    "snapshots_published": "versioned TreeSnapshots published by DFSTreeService commit hooks",
    "snapshot_build_ms": "milliseconds readers spent lazily building a committed tree's LCA index (Euler tour + sparse table, shared by every snapshot of that tree; paid once per tree by the first reader that needs it, nothing when the writer built it first)",
    "queries_served": "reader queries answered from published snapshots (scalar and batched)",
    "max_query_batch_size": "largest coalesced batch one snapshot query pass answered",
    "snapshot_staleness_updates": "total staleness observed by snapshot reads, in committed-but-unpublished-to-this-reader updates (committed_version - snapshot.version summed over answered queries)",
    "query_batch_fallbacks": "coalesced batches the query front degraded to scalar-by-scalar retries (one query's error must not poison the batch)",
    "query_errors": "reader queries that raised and failed only their own future (the error is the caller's answer, never swallowed)",
    # Shard router (repro.shard)
    "shard_tenants_created": "tenant graphs placed onto shards by a ShardRouter",
    "shard_update_batches_routed": "per-tenant update batches a ShardRouter forwarded to workers",
    "shard_updates_routed": "individual updates a ShardRouter forwarded to workers",
    "shard_query_batches_routed": "snapshot query batches a ShardRouter forwarded to workers",
    "shard_moves": "completed shard moves (drain on the old worker, replay on the new, byte-identical parent maps asserted)",
    "shard_tenants_moved": "tenants carried across workers by shard moves",
    "shard_replayed_updates": "logged updates replayed while restoring moved tenants",
    "max_worker_tenants": "most tenants resident on one worker at placement time",
    # Reduction (Theorem 11)
    "reductions": "reduce_update() calls",
    "reduction_tasks": "independent rerooting tasks produced by reductions",
    "vertices_added": "vertices attached to T* by the reroot engines",
    "max_active_components": "most unvisited components the parallel engine held at once",
    "process_comp_calls": "process-component invocations of the parallel engine",
    # Parallel traversal scenarios (Theorem 12)
    "traversal_rounds": "path-halving traversal rounds of the parallel engine",
    "traversal_path_halving": "path-halving steps taken by the parallel engine",
    "traversal_path_full_walk": "traversals that walked a full path without halving",
    "traversal_heavy": "heavy-subtree traversals (the C1/C2 machinery)",
    "traversal_disconnecting": "traversals entering the disconnecting case",
    "traversal_disintegrating": "traversals entering the disintegrating case",
    "heavy_scenario_l": "heavy traversals resolved through scenario L",
    "heavy_special_case": "heavy traversals resolved through the special case",
    "heavy_p_committed": "heavy traversals that committed the p-walk",
    "heavy_r_committed": "heavy traversals that committed the r-walk",
    # Sequential baseline engines
    "sequential_reroot_steps": "edges walked by the sequential reroot engine",
    "max_sequential_chain_depth": "deepest reroot chain the sequential engine followed",
    "naive_reroots": "whole-component recomputations by the naive baseline",
    "naive_reroot_vertices": "vertices rebuilt by the naive baseline",
    "full_recomputations": "from-scratch recomputations by the static baseline",
    "static_work": "adjacency entries scanned by the static baseline",
    # Fault tolerance (Theorem 9)
    "ft_queries": "fault-tolerant query() calls",
    "ft_updates": "updates replayed inside fault-tolerant queries",
    "max_ft_batch_size": "largest update batch one fault-tolerant query replayed",
    # Semi-streaming (Theorem 15)
    "stream_passes": "end-to-end passes over the edge stream",
    "max_passes_per_update": "worst stream passes one update needed",
    "max_stream_state_entries": "largest per-pass working state (vertices) one query batch needed",
    # Distributed CONGEST (Theorem 16)
    "congest_rounds": "synchronous CONGEST rounds simulated (components run concurrently: one wave advances this by the deepest component's schedule)",
    "congest_messages": "CONGEST messages sent (one per edge per round)",
    "component_rounds_charged": "per-component ledger rounds (each broadcast tree charged its own wave schedule; equals congest_rounds on connected graphs, exceeds it under fragmentation)",
    "max_broadcast_components": "most trees the broadcast forest held during one charged wave or flood",
    "max_congest_max_message_words": "largest CONGEST message observed (words)",
    "max_rounds_per_update": "worst CONGEST rounds one update needed",
    "max_messages_per_update": "worst CONGEST messages one update needed",
    "bfs_repairs": "broadcast-tree local repairs (orphaned subtree reattached in O(depth) rounds)",
    "bfs_repair_rounds": "CONGEST rounds spent inside local broadcast-tree repairs",
    "bfs_repair_fallbacks": "local repairs abandoned for a full rebuild (orphaned subtree disconnected, or the cheapest reattachment's depth drift alone would exceed the modeled rebuild cost)",
    "max_bfs_repair_subtree_depth": "deepest orphaned subtree a local repair reattached",
    "voluntary_rebuilds": "depth-aware voluntary BFS rebuilds (accumulated query-wave x depth-drift rounds exceeded the modeled O(D) rebuild cost)",
    "center_sweeps": "accounted BFS sweeps charged by the 2-sweep center approximation ahead of a voluntary rebuild (two per center-rooted rebuild)",
    "max_voluntary_rebuild_root_depth": "deepest broadcast forest a voluntary rebuild left behind (center-rooted rebuilds approach the component radius)",
    # PRAM simulation
    "pram_depth": "simulated PRAM depth (parallel time)",
    "pram_work": "simulated PRAM work (total operations)",
    "max_pram_processors": "largest simulated PRAM processor count",
    # Timers (wall-clock seconds; informational, never asserted on)
    "time_initial_dfs": "initial static DFS at construction",
    "time_preprocess": "fault-tolerant preprocessing",
    "time_build_d": "StructureD builds",
    "time_update": "end-to-end single-update processing",
    "time_batch_update": "end-to-end apply_all() batches",
    "time_rebuild_tree": "DFSTree snapshot construction after updates",
}


class MetricsRecorder:
    """A hierarchical bag of counters, maxima and timers.

    Counter semantics:

    * :meth:`inc` accumulates (used for rounds, queries, messages, ...);
    * :meth:`observe_max` keeps the maximum observed value (used for e.g.
      largest message size, maximum queries in one round);
    * :meth:`timer` accumulates wall-clock seconds under ``time_<name>`` keys.

    The recorder is deliberately permissive: reading an unknown counter returns
    0 so call sites do not need existence checks.  Constructed with
    ``strict=True`` it rejects *recording* under any key absent from
    :data:`WELL_KNOWN_COUNTERS` (maxima match either their raw or ``max_``
    name), which is how the test suite makes registry drift impossible.
    """

    def __init__(self, name: str = "metrics", *, strict: bool = False) -> None:
        self.name = name
        self.strict = strict
        self._counters: Dict[str, float] = {}
        self._maxima: Dict[str, float] = {}

    def _check_registered(self, key: str, *, allow_max_alias: bool = False) -> None:
        if not self.strict or key in WELL_KNOWN_COUNTERS:
            return
        # Only maxima may match through their reported max_<name> alias; an
        # inc()/set() under such a raw name would still produce an
        # unregistered key in as_dict(), which is exactly the drift strict
        # mode exists to forbid.
        if allow_max_alias and f"max_{key}" in WELL_KNOWN_COUNTERS:
            return
        raise KeyError(
            f"counter {key!r} is not registered in WELL_KNOWN_COUNTERS; "
            "add it to repro.metrics.counters so benchmarks and dashboards "
            "can rely on the registry being complete"
        )

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def inc(self, key: str, amount: float = 1) -> None:
        """Add *amount* to counter *key*."""
        self._check_registered(key)
        self._counters[key] = self._counters.get(key, 0) + amount

    def observe_max(self, key: str, value: float) -> None:
        """Record *value* under *key*, keeping the maximum seen so far."""
        self._check_registered(key, allow_max_alias=True)
        if value > self._maxima.get(key, float("-inf")):
            self._maxima[key] = value

    def set(self, key: str, value: float) -> None:
        """Overwrite counter *key* with *value*."""
        self._check_registered(key)
        self._counters[key] = value

    @contextmanager
    def timer(self, key: str) -> Iterator[None]:
        """Accumulate the elapsed wall-clock time under ``time_<key>``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.inc(f"time_{key}", time.perf_counter() - start)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def __getitem__(self, key: str) -> float:
        return self.get(key, 0)

    def get(self, key: str, default: float = 0) -> float:
        """Counter value, or *default* when never recorded.

        Maxima are reachable both under their raw name and under the
        ``max_``-prefixed name used by :meth:`as_dict`.
        """
        if key in self._counters:
            return self._counters[key]
        if key in self._maxima:
            return self._maxima[key]
        if key.startswith("max_") and key[4:] in self._maxima:
            return self._maxima[key[4:]]
        return default

    def as_dict(self) -> Dict[str, float]:
        """A plain dict snapshot (counters and maxima merged; maxima prefixed
        with ``max_`` when the key does not already carry the prefix)."""
        out = dict(self._counters)
        for k, v in self._maxima.items():
            key = k if k.startswith("max_") else f"max_{k}"
            out[key] = v
        return out

    def reset(self) -> None:
        """Forget every recorded value."""
        self._counters.clear()
        self._maxima.clear()

    def merge(self, other: "MetricsRecorder") -> None:
        """Fold *other* into this recorder (counters add, maxima take max)."""
        for k, v in other._counters.items():
            self.inc(k, v)
        for k, v in other._maxima.items():
            self.observe_max(k, v)

    def snapshot_delta(self, before: Optional[Dict[str, float]] = None) -> Dict[str, float]:
        """Return counters minus the values captured in *before*.

        Useful for per-update measurements: snapshot, perform one update, then
        ask for the delta.
        """
        if before is None:
            return self.as_dict()
        now = self.as_dict()
        return {k: now.get(k, 0) - before.get(k, 0) for k in sorted(set(now) | set(before))}

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        items = ", ".join(f"{k}={v}" for k, v in sorted(self.as_dict().items()))
        return f"MetricsRecorder({self.name}: {items})"
