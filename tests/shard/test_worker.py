"""ShardWorker replay log: it holds exactly the committed updates, also when
a batch fails half-way, so a drained tenant replays to the committed tree."""

from __future__ import annotations

import pytest

from repro.core.updates import EdgeDeletion, EdgeInsertion
from repro.exceptions import UpdateError
from repro.graph.generators import path_graph
from repro.shard import ShardWorker


def test_failed_batch_logs_exactly_its_committed_prefix():
    worker = ShardWorker("w0")
    worker.create_tenant(0, "t", path_graph(6))
    # apply_all commits the two valid updates, then rejects the third.
    with pytest.raises(UpdateError):
        worker.apply("t", [EdgeInsertion(0, 3), EdgeDeletion(1, 2), EdgeDeletion(9, 9)])
    assert worker.committed_version("t") == 2
    assert worker.apply("t", [EdgeInsertion(1, 5)]) == 3

    committed = worker.parent_map("t")
    (export,) = worker.export_shard(0)
    assert len(export.log) == 3
    replayed = ShardWorker("w1").import_tenants(0, [export])["t"]
    assert list(replayed.items()) == list(committed.items())
