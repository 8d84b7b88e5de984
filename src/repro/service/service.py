"""The MVCC query service: one writer, versioned snapshots, lock-free readers.

:class:`DFSTreeService` wraps any of the four drivers (or a raw
:class:`~repro.core.engine.UpdateEngine`) and registers a commit listener
through :meth:`~repro.core.engine.UpdateEngine.add_commit_listener`.  Every
committed update bumps the monotonically increasing **version**; every
``publish_every``-th version wraps the committed tree in an immutable
:class:`~repro.service.snapshot.TreeSnapshot` and **publishes** it by a single
attribute assignment — an atomic pointer swap under the GIL, so readers on any
thread pick up either the previous version or the new one, never a torn state,
and never take a lock.  The writer keeps applying updates undisturbed; readers
keep answering against whichever version they hold (MVCC for DFS trees).

Every read reports ``(answer, version)`` so staleness is *observable*: the
difference between the service's ``committed_version`` and the answering
snapshot's ``version`` is accumulated under ``snapshot_staleness_updates``.

Counters recorded (all registered in ``WELL_KNOWN_COUNTERS``):
``snapshots_published``, ``snapshot_build_ms`` (lazy LCA index builds a
reader performed, at most one per committed tree), ``queries_served``, ``query_batches`` + ``max_query_batch_size``
(batched reads), ``snapshot_staleness_updates``.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence, Tuple

from repro.metrics.counters import MetricsRecorder
from repro.service.snapshot import TreeSnapshot
from repro.tree.dfs_tree import DFSTree

Vertex = Hashable

__all__ = ["DFSTreeService"]


class DFSTreeService:
    """Versioned snapshot query service over a dynamic-DFS driver.

    Parameters
    ----------
    driver:
        Any object exposing ``add_commit_listener`` (all four drivers and the
        raw engine do) plus a current tree (``tree`` property, or ``base_tree``
        for the fault-tolerant driver).  The driver stays the single writer;
        this service never mutates it.
    metrics:
        Optional shared :class:`MetricsRecorder` (a private one is created
        otherwise).  Safe to pass a ``strict=True`` recorder — every counter
        recorded here is registered.
    publish_every:
        Publish a snapshot on every k-th commit (default 1 = every commit).
        Intermediate versions still bump ``committed_version``, so readers
        observe the widened staleness; :meth:`publish_now` force-publishes the
        driver's current tree between cadence points.
    """

    def __init__(
        self,
        driver,
        *,
        metrics: Optional[MetricsRecorder] = None,
        publish_every: int = 1,
    ) -> None:
        if not isinstance(publish_every, int) or publish_every < 1:
            raise ValueError(f"publish_every must be a positive int, got {publish_every!r}")
        self.driver = driver
        self.metrics = metrics or MetricsRecorder("service")
        self.publish_every = publish_every
        self._committed = 0
        self._closed = False
        initial = self._driver_tree()
        self._snapshot = TreeSnapshot(0, initial, on_build_ms=self._record_build_ms)
        driver.add_commit_listener(self._on_commit)

    def _driver_tree(self) -> DFSTree:
        tree = getattr(self.driver, "tree", None)
        if tree is None:
            tree = self.driver.base_tree
        return tree

    def _record_build_ms(self, ms: float) -> None:
        self.metrics.inc("snapshot_build_ms", ms)

    def _on_commit(self, tree: DFSTree) -> None:
        self._committed += 1
        if self._committed % self.publish_every == 0:
            self._publish(self._committed, tree)

    def _publish(self, version: int, tree: DFSTree) -> None:
        snap = TreeSnapshot(version, tree, on_build_ms=self._record_build_ms)
        # The swap is one attribute assignment: atomic under the GIL, so
        # readers see either the old or the new snapshot, never a torn state.
        self._snapshot = snap
        self.metrics.inc("snapshots_published")

    # ------------------------------------------------------------------ #
    # Versions and snapshots
    # ------------------------------------------------------------------ #
    @property
    def version(self) -> int:
        """Version of the currently *published* snapshot."""
        return self._snapshot.version

    @property
    def committed_version(self) -> int:
        """Number of updates the writer has committed so far (monotonic; may
        run ahead of :attr:`version` when ``publish_every > 1``)."""
        return self._committed

    def snapshot(self) -> TreeSnapshot:
        """The last published :class:`TreeSnapshot` (lock-free read; hold the
        returned object to pin a version across a whole read transaction)."""
        return self._snapshot

    def publish_now(self) -> TreeSnapshot:
        """Force-publish the driver's current tree at ``committed_version``
        (useful between ``publish_every`` cadence points); returns the new
        snapshot.

        A no-op when the published snapshot is already at
        ``committed_version``: the current snapshot object is returned as-is,
        so lazily built indices (LCA sparse table, component intervals) warm
        readers already paid for are preserved instead of being discarded by a
        spurious republish, and ``snapshots_published`` is not inflated.
        """
        snap = self._snapshot
        if snap.version == self._committed:
            return snap
        self._publish(self._committed, self._driver_tree())
        return self._snapshot

    @property
    def closed(self) -> bool:
        """True once :meth:`close` detached this service from its driver."""
        return self._closed

    def close(self) -> None:
        """Detach from the driver: deregister the commit listener so future
        commits are no longer observed (``committed_version`` and the
        published snapshot freeze at their current values).

        Idempotent — the shard router calls it on every drain, and a service
        discarded without ``close()`` would otherwise keep snapshotting every
        future commit forever (a listener leak on the writer's commit path).
        Reads keep working against the last published snapshot.
        """
        if self._closed:
            return
        self._closed = True
        remove = getattr(self.driver, "remove_commit_listener", None)
        if remove is not None:
            remove(self._on_commit)

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    def _note_served(self, count: int, snap: TreeSnapshot) -> None:
        m = self.metrics
        m.inc("queries_served", count)
        staleness = self._committed - snap.version
        if staleness > 0:
            m.inc("snapshot_staleness_updates", count * staleness)

    def _note_batch(self, count: int, snap: TreeSnapshot) -> None:
        self.metrics.inc("query_batches")
        self.metrics.observe_max("query_batch_size", count)
        self._note_served(count, snap)

    def _pin(self, snapshot: Optional[TreeSnapshot]) -> TreeSnapshot:
        return self._snapshot if snapshot is None else snapshot

    # ------------------------------------------------------------------ #
    # Scalar reads — each returns (answer, version)
    # ------------------------------------------------------------------ #
    def lca(self, a: Vertex, b: Vertex) -> Tuple[Optional[Vertex], int]:
        """LCA of *a* and *b* on the published snapshot (``None`` when
        disconnected); returns ``(answer, version)``."""
        snap = self._snapshot
        self._note_served(1, snap)
        return snap.lca(a, b), snap.version

    def connected(self, a: Vertex, b: Vertex) -> Tuple[bool, int]:
        """Connectivity of *a* and *b* on the published snapshot; returns
        ``(answer, version)``."""
        snap = self._snapshot
        self._note_served(1, snap)
        return snap.connected(a, b), snap.version

    def is_ancestor(self, a: Vertex, b: Vertex) -> Tuple[bool, int]:
        """Ancestor test on the published snapshot; returns
        ``(answer, version)``."""
        snap = self._snapshot
        self._note_served(1, snap)
        return snap.is_ancestor(a, b), snap.version

    def subtree_size(self, v: Vertex) -> Tuple[int, int]:
        """Subtree size of *v* on the published snapshot; returns
        ``(answer, version)``."""
        snap = self._snapshot
        self._note_served(1, snap)
        return snap.subtree_size(v), snap.version

    def path_length(self, a: Vertex, b: Vertex) -> Tuple[Optional[int], int]:
        """Tree-path length between *a* and *b* on the published snapshot
        (``None`` when disconnected); returns ``(answer, version)``."""
        snap = self._snapshot
        self._note_served(1, snap)
        return snap.path_length(a, b), snap.version

    # ------------------------------------------------------------------ #
    # Batched reads — one vectorized pass, (answers, version)
    # ------------------------------------------------------------------ #
    def lca_batch(
        self,
        avs: Sequence[Vertex],
        bvs: Sequence[Vertex],
        *,
        snapshot: Optional[TreeSnapshot] = None,
    ) -> Tuple[List[Optional[Vertex]], int]:
        """Batched LCA in one vectorized pass; returns ``(answers, version)``.
        Pass *snapshot* to answer against a pinned version (staleness is
        accounted against the writer's ``committed_version`` either way)."""
        snap = self._pin(snapshot)
        self._note_batch(len(avs), snap)
        return snap.lca_batch(avs, bvs), snap.version

    def connected_batch(
        self,
        avs: Sequence[Vertex],
        bvs: Sequence[Vertex],
        *,
        snapshot: Optional[TreeSnapshot] = None,
    ) -> Tuple[List[bool], int]:
        """Batched connectivity; returns ``(answers, version)``."""
        snap = self._pin(snapshot)
        self._note_batch(len(avs), snap)
        return snap.connected_batch(avs, bvs), snap.version

    def is_ancestor_batch(
        self,
        avs: Sequence[Vertex],
        bvs: Sequence[Vertex],
        *,
        snapshot: Optional[TreeSnapshot] = None,
    ) -> Tuple[List[bool], int]:
        """Batched ancestor tests; returns ``(answers, version)``."""
        snap = self._pin(snapshot)
        self._note_batch(len(avs), snap)
        return snap.is_ancestor_batch(avs, bvs), snap.version

    def subtree_size_batch(
        self,
        vs: Sequence[Vertex],
        *,
        snapshot: Optional[TreeSnapshot] = None,
    ) -> Tuple[List[int], int]:
        """Batched subtree sizes; returns ``(answers, version)``."""
        snap = self._pin(snapshot)
        self._note_batch(len(vs), snap)
        return snap.subtree_size_batch(vs), snap.version

    def path_length_batch(
        self,
        avs: Sequence[Vertex],
        bvs: Sequence[Vertex],
        *,
        snapshot: Optional[TreeSnapshot] = None,
    ) -> Tuple[List[Optional[int]], int]:
        """Batched tree-path lengths; returns ``(answers, version)``."""
        snap = self._pin(snapshot)
        self._note_batch(len(avs), snap)
        return snap.path_length_batch(avs, bvs), snap.version

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"DFSTreeService(version={self.version}, "
            f"committed={self._committed}, publish_every={self.publish_every})"
        )
