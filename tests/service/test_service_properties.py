"""Hypothesis properties of the MVCC service (the ISSUE's satellite contract).

* **Per-version byte identity**: the snapshot published at version ``k`` has
  exactly the parent map a dict-reference driver holds after ``k`` updates.
* **Immutability**: republishing churn never changes a held snapshot — maps
  re-read after the run equal the maps read when the version was current.
* **Batched answers**: every ``*_batch`` answer equals what the snapshot
  tree's own accessors give.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamic_dfs import FullyDynamicDFS
from repro.graph.generators import gnp_random_graph
from repro.metrics.counters import MetricsRecorder
from repro.service import DFSTreeService
from tests.helpers import assert_snapshot_matches_oracle, make_updates


@st.composite
def service_cases(draw):
    n = draw(st.integers(min_value=4, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=999))
    count = draw(st.integers(min_value=1, max_value=12))
    rebuild_every = draw(st.sampled_from([1, 3, None]))
    graph = gnp_random_graph(n, min(8.0 / n, 0.6), seed=seed)
    updates = make_updates(graph, count, seed=seed + 1)
    return graph, updates, rebuild_every


@settings(max_examples=25, deadline=None)
@given(service_cases())
def test_versions_byte_identical_to_reference_and_frozen(case):
    graph, updates, rebuild_every = case
    metrics = MetricsRecorder("svc", strict=True)
    driver = FullyDynamicDFS(graph.copy(), rebuild_every=rebuild_every, metrics=metrics)
    svc = DFSTreeService(driver, metrics=metrics)
    reference = FullyDynamicDFS(graph.copy(), rebuild_every=1)
    held = [(svc.snapshot(), svc.snapshot().parent_map())]
    assert held[0][1] == reference.tree.parent_map()  # version 0
    for version, update in enumerate(updates, start=1):
        driver.apply(update)
        reference.apply(update)
        snap = svc.snapshot()
        assert snap.version == version
        current = snap.parent_map()
        assert current == reference.tree.parent_map(), version
        held.append((snap, current))
    # Frozen: every held version still answers with the map it was born with.
    for version, (snap, frozen_map) in enumerate(held):
        assert snap.version == version
        assert snap.parent_map() == frozen_map


@settings(max_examples=15, deadline=None)
@given(service_cases())
def test_batched_equals_scalar_on_both_query_paths(case):
    graph, updates, rebuild_every = case
    driver = FullyDynamicDFS(graph.copy(), rebuild_every=rebuild_every)
    svc = DFSTreeService(driver)
    for update in updates:
        driver.apply(update)
    snap = svc.snapshot()
    verts = [v for v in driver.graph.vertices()]
    rng = random.Random(snap.version)
    avs = [rng.choice(verts) for _ in range(30)]
    bvs = [rng.choice(verts) for _ in range(30)]
    assert_snapshot_matches_oracle(snap, avs, bvs)
