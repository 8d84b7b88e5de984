#!/usr/bin/env python3
"""Quickstart: maintain a DFS tree of a changing graph.

Builds a small random graph, keeps its DFS tree up to date while edges and
vertices come and go, and shows the model-level costs (query rounds per update)
that the paper's Theorem 13 bounds by O(log^3 n).

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import FullyDynamicDFS, MetricsRecorder
from repro.graph.generators import gnp_random_graph
from repro.metrics.complexity import format_table


def main() -> None:
    graph = gnp_random_graph(200, 0.03, seed=7, connected=True)
    metrics = MetricsRecorder()
    dfs = FullyDynamicDFS(graph, metrics=metrics)
    print(f"initial graph: n={graph.num_vertices}, m={graph.num_edges}")
    print(f"DFS forest roots: {dfs.roots()}\n")

    rows = []
    # A little scripted history: break an edge, add a shortcut, lose a vertex,
    # welcome a new one, repair the broken edge.
    first_edge = next(e for e in graph.edges() if 42 not in e)
    history = [
        ("delete_edge", first_edge),
        ("insert_edge", (0, 150) if not graph.has_edge(0, 150) else (0, 151)),
        ("delete_vertex", (42,)),
        ("insert_vertex", ("newcomer", [0, 7, 99])),
        ("insert_edge", first_edge),
    ]
    for op, args in history:
        before = metrics.as_dict()
        getattr(dfs, op)(*args)
        delta = metrics.snapshot_delta(before)
        rows.append(
            [
                f"{op}{args}",
                int(delta.get("query_rounds", 0)),
                int(delta.get("queries", 0)),
                int(delta.get("traversal_rounds", 0)),
                "yes" if dfs.is_valid() else "NO",
            ]
        )

    print(
        format_table(
            ["update", "query rounds", "queries", "traversal rounds", "valid DFS?"],
            rows,
        )
    )
    print("\nDFS tree is maintained incrementally — no full recomputation happened.")
    print(f"total updates: {int(metrics['updates'])}")


if __name__ == "__main__":
    main()
