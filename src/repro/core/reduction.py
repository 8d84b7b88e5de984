"""The reduction algorithm (Section 3, Theorems 2 and 11).

Updating a DFS tree after any single update reduces to **rerooting disjoint
subtrees** of the current tree:

* deleting a tree edge ``(u, v)`` (``u = par(v)``) reroots ``T(v)`` at the
  endpoint of the *lowest* edge from ``T(v)`` to ``path(u, r)``;
* inserting a cross edge ``(u, v)`` reroots ``T(v')`` (the child subtree of
  ``LCA(u, v)`` containing ``v``) at ``v`` and hangs it from ``u``;
* deleting a vertex ``u`` reroots every child subtree ``T(v_i)`` of ``u`` at the
  endpoint of its lowest edge to ``path(par(u), r)``;
* inserting a vertex ``u`` with neighbours ``v_1..v_c`` makes ``u`` a child of an
  arbitrary neighbour ``v_j`` and reroots, for every other neighbour ``v_i``
  outside ``path(v_j, r)``, the subtree hanging from that path that contains
  ``v_i``, rooting it at ``v_i`` and hanging it from ``u``.

Back-edge insertions/deletions leave the tree untouched.  The reduction issues
at most one batch of independent queries on ``D`` (none for insertions) plus
LCA/ancestor queries on ``T``, matching Theorem 2.

The reduction is expressed against the *augmented* tree rooted at the virtual
root (Section 2): a subtree that loses all its connections is simply re-hung
from the virtual root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro.constants import VIRTUAL_ROOT, is_virtual_root
from repro.core.queries import EdgeQuery, QueryService
from repro.core.updates import (
    EdgeDeletion,
    EdgeInsertion,
    Update,
    VertexDeletion,
    VertexInsertion,
)
from repro.exceptions import UpdateError
from repro.metrics.counters import MetricsRecorder
from repro.tree.dfs_tree import DFSTree

Vertex = Hashable


@dataclass(frozen=True)
class RerootTask:
    """Reroot the subtree ``T(subtree_root)`` of the current tree at ``new_root``
    and hang it from ``attach`` in the updated tree ``T*``."""

    subtree_root: Vertex
    new_root: Vertex
    attach: Vertex


@dataclass
class ReductionResult:
    """Outcome of reducing one update.

    ``tasks`` are the independent rerooting jobs; ``parent_overrides`` are
    direct parent reassignments that need no rerooting (e.g. the inserted
    vertex itself); ``removed_vertices`` must disappear from the tree.  A
    result with all three empty (a back-edge insertion or deletion) leaves
    the tree untouched.
    """

    tasks: List[RerootTask] = field(default_factory=list)
    parent_overrides: Dict[Vertex, Optional[Vertex]] = field(default_factory=dict)
    removed_vertices: List[Vertex] = field(default_factory=list)


def _root_path_target(tree: DFSTree, bottom: Vertex) -> List[Vertex]:
    """The path from the virtual root (excluded) down to *bottom*, in
    shallow-to-deep order — the query target used by the deletion cases."""
    if is_virtual_root(bottom):
        return []
    path_up = tree.ancestor_path(bottom, VIRTUAL_ROOT if VIRTUAL_ROOT in tree else tree.root)
    path_down = list(reversed(path_up))
    return [v for v in path_down if not is_virtual_root(v)]


def reduce_update(
    update: Update,
    tree: DFSTree,
    service: QueryService,
    *,
    metrics: Optional[MetricsRecorder] = None,
) -> ReductionResult:
    """Reduce *update* to rerooting tasks against the current *tree*.

    The caller must have already applied the update to the graph (and to the
    query service's view of it); the reduction only needs the structural
    queries listed in Theorem 2.
    """
    if metrics is not None:
        metrics.inc("reductions")
    if isinstance(update, EdgeInsertion):
        return _reduce_edge_insertion(update, tree, metrics)
    if isinstance(update, EdgeDeletion):
        return _reduce_edge_deletion(update, tree, service, metrics)
    if isinstance(update, VertexInsertion):
        return _reduce_vertex_insertion(update, tree, metrics)
    if isinstance(update, VertexDeletion):
        return _reduce_vertex_deletion(update, tree, service, metrics)
    raise UpdateError(f"unknown update type: {update!r}")


# --------------------------------------------------------------------------- #
# Edge updates
# --------------------------------------------------------------------------- #
def _reduce_edge_insertion(
    update: EdgeInsertion, tree: DFSTree, metrics: Optional[MetricsRecorder]
) -> ReductionResult:
    u, v = update.u, update.v
    if u not in tree or v not in tree:
        raise UpdateError(f"edge insertion endpoints {u!r}, {v!r} must be existing vertices")
    if tree.is_ancestor(u, v) or tree.is_ancestor(v, u):
        # Back edge: the DFS tree is untouched.
        return ReductionResult()
    w = tree.lca(u, v)
    v_child = tree.child_towards(w, v)
    if metrics is not None:
        metrics.inc("reduction_tasks")
    return ReductionResult(tasks=[RerootTask(subtree_root=v_child, new_root=v, attach=u)])


def _reduce_edge_deletion(
    update: EdgeDeletion,
    tree: DFSTree,
    service: QueryService,
    metrics: Optional[MetricsRecorder],
) -> ReductionResult:
    u, v = update.u, update.v
    if u not in tree or v not in tree:
        raise UpdateError(f"edge deletion endpoints {u!r}, {v!r} must be existing vertices")
    if tree.parent(v) == u:
        parent_side, child_side = u, v
    elif tree.parent(u) == v:
        parent_side, child_side = v, u
    else:
        # Back edge: nothing to do (the edge is already gone from the graph).
        return ReductionResult()

    target = _root_path_target(tree, parent_side)
    if target:
        query = EdgeQuery.from_tree(child_side, target, prefer_last=True)
        answer = service.answer_batch([query])[0]
    else:
        answer = None
    if metrics is not None:
        metrics.inc("reduction_tasks")
    if answer is None:
        # T(child_side) is disconnected from the rest: hang it from the virtual
        # root (the paper's augmentation edge), keeping its old root.
        task = RerootTask(subtree_root=child_side, new_root=child_side, attach=VIRTUAL_ROOT)
    else:
        x, y = answer  # x in T(child_side), y on path(parent_side, r)
        task = RerootTask(subtree_root=child_side, new_root=x, attach=y)
    return ReductionResult(tasks=[task])


# --------------------------------------------------------------------------- #
# Vertex updates
# --------------------------------------------------------------------------- #
def _reduce_vertex_insertion(
    update: VertexInsertion, tree: DFSTree, metrics: Optional[MetricsRecorder]
) -> ReductionResult:
    v = update.v
    neighbors = [w for w in update.neighbors if w in tree]
    if v in tree:
        raise UpdateError(f"vertex {v!r} already exists")
    if not neighbors:
        return ReductionResult(parent_overrides={v: VIRTUAL_ROOT})

    # Arbitrary choice of the attachment neighbour; the shallowest neighbour
    # keeps the rerooted subtrees small in practice and is deterministic
    # (ties broken by position, precomputed so an inserted hub vertex with c
    # neighbours costs O(c) rather than O(c^2)).
    order = {w: i for i, w in enumerate(neighbors)}
    vj = min(neighbors, key=lambda w: (tree.level(w), order[w]))
    result = ReductionResult(parent_overrides={v: vj})

    groups: Dict[Vertex, List[Vertex]] = {}
    for vi in neighbors:
        if vi == vj or tree.is_ancestor(vi, vj):
            continue  # vi lies on path(vj, r): the new edge is a back edge
        a = tree.lca(vi, vj)
        subtree_root = tree.child_towards(a, vi)
        groups.setdefault(subtree_root, []).append(vi)

    for subtree_root, members in groups.items():
        result.tasks.append(
            RerootTask(subtree_root=subtree_root, new_root=members[0], attach=v)
        )
    if metrics is not None:
        metrics.inc("reduction_tasks", len(result.tasks))
    return result


def _reduce_vertex_deletion(
    update: VertexDeletion,
    tree: DFSTree,
    service: QueryService,
    metrics: Optional[MetricsRecorder],
) -> ReductionResult:
    u = update.v
    if u not in tree or is_virtual_root(u):
        raise UpdateError(f"vertex {u!r} is not in the tree")
    parent_u = tree.parent(u)
    children = tree.children(u)
    result = ReductionResult(removed_vertices=[u])

    target = _root_path_target(tree, parent_u) if parent_u is not None else []
    queries = []
    if target:
        for child in children:
            queries.append(EdgeQuery.from_tree(child, target, prefer_last=True))
        answers = service.answer_batch(queries)
    else:
        answers = [None] * len(children)

    for child, answer in zip(children, answers):
        if answer is None:
            result.tasks.append(
                RerootTask(subtree_root=child, new_root=child, attach=VIRTUAL_ROOT)
            )
        else:
            x, y = answer
            result.tasks.append(RerootTask(subtree_root=child, new_root=x, attach=y))
    if metrics is not None:
        metrics.inc("reduction_tasks", len(result.tasks))
    return result
