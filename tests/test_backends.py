"""Backend selection: the ``backend="dict"|"array"`` graph-store knob and
its env fallback.

Both graph stores drive every driver to byte-identical parent maps.
"""

from __future__ import annotations

import pytest

from repro.backends import (
    BACKEND_ENV_VAR,
    graph_class,
    native_graph,
    resolve_backend,
)
from repro.core.dynamic_dfs import FullyDynamicDFS
from repro.core.fault_tolerant import FaultTolerantDFS
from repro.graph.generators import gnp_random_graph
from repro.graph.graph import UndirectedGraph
from repro.streaming.semi_streaming_dfs import SemiStreamingDynamicDFS
from repro.workloads.updates import mixed_updates


def test_resolve_backend_defaults_and_env(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    assert resolve_backend(None) == "dict"
    assert resolve_backend("dict") == "dict"
    monkeypatch.setenv(BACKEND_ENV_VAR, "dict")
    assert resolve_backend(None) == "dict"
    monkeypatch.setenv(BACKEND_ENV_VAR, "array")
    assert resolve_backend(None) == "array"
    # an explicit knob wins over the environment
    assert resolve_backend("dict") == "dict"


def test_resolve_backend_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend("sparse")


def test_dict_backend_classes_never_need_numpy():
    assert graph_class("dict") is UndirectedGraph
    g = gnp_random_graph(8, 0.3, seed=0)
    assert native_graph(g, "dict", copy=False) is g
    copy = native_graph(g, "dict", copy=True)
    assert copy == g and copy is not g


def test_array_backend_classes_and_conversion():
    from repro.graph.array_graph import ArrayGraph

    assert graph_class("array") is ArrayGraph
    g = gnp_random_graph(8, 0.3, seed=0)
    ag = native_graph(g, "array", copy=True)
    assert isinstance(ag, ArrayGraph)
    assert ag == g
    for v in g.vertices():
        assert ag.neighbor_list(v) == g.neighbor_list(v)
    # an existing ArrayGraph is reused only with copy=False
    assert native_graph(ag, "array", copy=False) is ag
    assert native_graph(ag, "array", copy=True) is not ag


def test_drivers_expose_backend_and_env_resolution(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    g = gnp_random_graph(12, 0.25, seed=3, connected=True)
    assert FullyDynamicDFS(g).backend == "dict"
    assert FullyDynamicDFS(g, backend="array").backend == "array"
    monkeypatch.setenv(BACKEND_ENV_VAR, "array")
    for cls in (FullyDynamicDFS, SemiStreamingDynamicDFS, FaultTolerantDFS):
        assert cls(g).backend == "array", cls.__name__


def test_backends_byte_identical_on_mixed_updates():
    g = gnp_random_graph(24, 0.15, seed=7, connected=True)
    updates = mixed_updates(g, 30, seed=9)
    drivers = {
        "dict": FullyDynamicDFS(g, rebuild_every=3, backend="dict"),
        "array": FullyDynamicDFS(g, rebuild_every=3, backend="array"),
    }
    for step, update in enumerate(updates):
        maps = {}
        for name, driver in drivers.items():
            driver.apply(update)
            maps[name] = driver.parent_map()
        assert maps["array"] == maps["dict"], f"step {step}: backends diverged"
    for driver in drivers.values():
        assert driver.is_valid()
