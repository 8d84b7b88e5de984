"""Placement: stable hashing, tenant->shard mapping, consistent-hash ring."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro.shard import HashRing, shard_of_tenant, stable_hash


def test_stable_hash_is_identical_in_a_fresh_interpreter():
    """The whole point of BLAKE2b over ``repr``: the router's parent process
    and every worker (and every CI run) must agree on placement.  The builtin
    ``hash`` is salted per process for strings and would fail this test."""
    keys = ["tenant-0", ("shard", 7), 42, ("w", 3)]
    local = [stable_hash(k) for k in keys] + [stable_hash(keys[0], salt=b"ring")]
    code = (
        "from repro.shard import stable_hash;"
        "keys = ['tenant-0', ('shard', 7), 42, ('w', 3)];"
        "vals = [stable_hash(k) for k in keys] + [stable_hash(keys[0], salt=b'ring')];"
        "print(','.join(map(str, vals)))"
    )
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src_dir},
    )
    assert [int(x) for x in out.stdout.strip().split(",")] == local


def test_salt_separates_hash_domains():
    assert stable_hash("k", salt=b"ring") != stable_hash("k", salt=b"key")
    assert stable_hash("k") != stable_hash("k", salt=b"ring")


def test_shard_of_tenant_range_and_validation():
    shards = {shard_of_tenant(f"tenant-{i}", 8) for i in range(200)}
    assert shards <= set(range(8))
    assert len(shards) == 8  # 200 tenants over 8 shards: every shard hit
    with pytest.raises(ValueError):
        shard_of_tenant("t", 0)


def test_ring_lookup_is_deterministic_and_total():
    ring = HashRing([0, 1, 2, 3])
    owners = [ring.node_for(("shard", s)) for s in range(64)]
    assert owners == [ring.node_for(("shard", s)) for s in range(64)]
    assert set(owners) == {0, 1, 2, 3}  # 64 shards spread over all 4 workers


def test_removing_a_node_only_moves_its_own_keys():
    """Consistent hashing's contract: keys owned by survivors never move when
    a node leaves the ring."""
    ring = HashRing([0, 1, 2, 3])
    before = {s: ring.node_for(("shard", s)) for s in range(64)}
    ring.remove_node(2)
    after = {s: ring.node_for(("shard", s)) for s in range(64)}
    for s in range(64):
        if before[s] != 2:
            assert after[s] == before[s]
        else:
            assert after[s] != 2
    assert set(after.values()) <= {0, 1, 3}


def test_ring_validation():
    ring = HashRing([0])
    with pytest.raises(ValueError):
        ring.add_node(0)  # duplicate
    with pytest.raises(ValueError):
        ring.remove_node(9)  # unknown
    ring.remove_node(0)
    with pytest.raises(ValueError):
        ring.node_for("k")  # empty ring
    for replicas in (0, True, False, 1.5):
        with pytest.raises(ValueError):
            HashRing(replicas=replicas)
    assert ring.nodes == []
