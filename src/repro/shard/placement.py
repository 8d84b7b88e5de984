"""Consistent-hash placement: ``tenant_id -> shard -> worker``.

Placement must be *stable across processes and runs* — the router in the
parent process and the command loops in the workers have to agree on where a
tenant lives, and the differential tests replay the same fleet layout in
fresh interpreters.  Python's builtin ``hash`` is salted per process for
strings, so everything here hashes through BLAKE2b instead (keyed only by the
repr of the id, which is deterministic for the int/str/tuple tenant ids the
workloads use).

Two layers:

* :func:`shard_of_tenant` — tenants spread over a fixed number of *logical
  shards* by stable hash.  The shard is the unit of placement, draining and
  rebalancing; its count never changes over the life of a fleet.
* :class:`HashRing` — logical shards map onto *workers* through a classic
  consistent-hash ring with virtual nodes, so adding or removing one worker
  re-places only ``~shards/workers`` shards instead of reshuffling the world.
  The router may override the ring's verdict per shard after an explicit
  rebalance (the override table lives in the router; the ring stays pure).
"""

from __future__ import annotations

from bisect import bisect_right
from hashlib import blake2b
from typing import Dict, Hashable, List, Sequence

__all__ = ["HashRing", "shard_of_tenant", "stable_hash"]


def stable_hash(key: Hashable, *, salt: bytes = b"") -> int:
    """A 64-bit hash of *key* that is identical in every process and run.

    Hashes ``repr(key)`` through BLAKE2b — deterministic for the value-like
    ids (ints, strings, tuples of those) used as tenant and worker names,
    unlike the per-process-salted builtin ``hash``.
    """
    digest = blake2b(repr(key).encode("utf-8"), digest_size=8, salt=salt)
    return int.from_bytes(digest.digest(), "big")


def shard_of_tenant(tenant_id: Hashable, num_shards: int) -> int:
    """The logical shard (``0 .. num_shards-1``) that owns *tenant_id*."""
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards!r}")
    return stable_hash(tenant_id) % num_shards


class HashRing:
    """Consistent-hash ring mapping keys (logical shards) onto nodes (workers).

    Parameters
    ----------
    nodes:
        Initial node ids (any hashable value-like ids).
    replicas:
        Virtual nodes per real node; more replicas smooth the load split at
        the cost of a larger ring (binary-searched, so lookups stay
        ``O(log(nodes * replicas))``).
    """

    def __init__(self, nodes: Sequence[Hashable] = (), *, replicas: int = 64) -> None:
        # A bool is an int, but not a count.
        if isinstance(replicas, bool) or not isinstance(replicas, int) or replicas < 1:
            raise ValueError(f"replicas must be a positive int, got {replicas!r}")
        self._replicas = replicas
        self._ring: List[int] = []
        self._owner: Dict[int, Hashable] = {}
        self._nodes: List[Hashable] = []
        for node in nodes:
            self.add_node(node)

    @property
    def nodes(self) -> List[Hashable]:
        """The live node ids, in insertion order."""
        return list(self._nodes)

    def add_node(self, node: Hashable) -> None:
        """Add *node* (with its virtual replicas) to the ring."""
        if node in self._nodes:
            raise ValueError(f"node {node!r} is already on the ring")
        self._nodes.append(node)
        for r in range(self._replicas):
            point = stable_hash((node, r), salt=b"ring")
            # Extremely unlikely 64-bit collision: keep the first owner so
            # both sides of a collision still resolve deterministically.
            if point not in self._owner:
                self._owner[point] = node
                self._ring.insert(bisect_right(self._ring, point), point)

    def remove_node(self, node: Hashable) -> None:
        """Remove *node* and its replicas (keys re-place onto survivors)."""
        if node not in self._nodes:
            raise ValueError(f"node {node!r} is not on the ring")
        self._nodes.remove(node)
        points = [p for p, owner in self._owner.items() if owner == node]
        for point in points:
            del self._owner[point]
        self._ring = [p for p in self._ring if p in self._owner]

    def node_for(self, key: Hashable) -> Hashable:
        """The node owning *key*: the first ring point clockwise of its hash."""
        if not self._ring:
            raise ValueError("hash ring has no nodes")
        point = stable_hash(key, salt=b"key")
        idx = bisect_right(self._ring, point)
        if idx == len(self._ring):
            idx = 0
        return self._owner[self._ring[idx]]
