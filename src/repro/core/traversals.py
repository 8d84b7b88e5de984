"""The traversal families of the parallel rerooting algorithm (Section 4).

Every *step* of the rerooting algorithm picks one component of the unvisited
graph and performs one traversal on it:

* **disintegrating traversal** (Section 4.1) — carve the path from the
  component root ``r_c`` to the minimal heavy vertex ``v_H`` of the heaviest
  subtree, so every leftover subtree has at most half the size;
* **path halving** (Section 4.2) — when ``r_c`` lies on the component path
  ``p_c``, walk towards the farther endpoint so the leftover path halves;
* **disconnecting traversal** (Section 4.3) — when ``r_c`` lies in a light
  subtree (or inside ``T(v_H)``), walk through the subtree into ``p_c`` in a way
  that separates the subtree's leftovers from the leftover path;
* **heavy subtree traversal** (Section 4.4) — when ``r_c`` lies in a heavy
  subtree but outside ``T(v_H)``, try the *l*, *p* and *r* scenarios in turn;
  the applicability lemma guarantees one of them (or the special case) works.

Each traversal is implemented as a *generator*: it ``yield``s batches of
independent :class:`~repro.core.queries.EdgeQuery` objects and receives the
answers via ``send``; its return value is a :class:`StepResult`.  The driving
engine (:mod:`repro.core.reroot_parallel`) runs the generators of all active
components in lock-step so that queries of different components issued in the
same sub-round are answered by a single batch — one parallel query round, one
streaming pass, or one CONGEST broadcast, depending on the backing service.

The traversals keep every leftover component of type C1 or C2 by
construction; each place that can detect a violation raises
:class:`~repro.exceptions.InvariantViolation` on the spot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, Hashable, List, Optional, Sequence, Tuple

from repro.core.components import Component, PathPiece, TreePiece
from repro.core.queries import Answer, EdgeQuery
from repro.exceptions import InvariantViolation
from repro.metrics.counters import MetricsRecorder
from repro.tree.dfs_tree import DFSTree
from repro.tree.tree_utils import ancestor_descendant_segments, hanging_subtrees, heavy_vertex

Vertex = Hashable
QueryBatch = List[EdgeQuery]
TraversalGen = Generator[QueryBatch, List[Answer], "StepResult"]


@dataclass
class StepResult:
    """Outcome of one traversal step on one component."""

    #: Vertices added to ``T*`` in traversal order (first vertex is the
    #: component root ``r_c`` and hangs from ``component.attach``).
    pstar: List[Vertex] = field(default_factory=list)
    #: Components of the still-unvisited part, each with root/attach set.
    new_components: List[Component] = field(default_factory=list)
    #: Which traversal produced the result (for metrics / tests).
    traversal: str = ""


class TraversalPlanner:
    """Implements the traversal families against a fixed base tree.

    Parameters
    ----------
    tree:
        The base DFS tree ``T`` (the tree being rerooted).
    metrics:
        Counter sink.
    enable_path_halving:
        Ablation switch (benchmark E8): when False, a component whose root
        lies on its path walks to the *nearer* endpoint, which keeps the
        output correct but destroys the path-halving progress guarantee.
    """

    def __init__(
        self,
        tree: DFSTree,
        *,
        metrics: Optional[MetricsRecorder] = None,
        enable_path_halving: bool = True,
    ) -> None:
        self.tree = tree
        self.metrics = metrics or MetricsRecorder("traversals")
        self.enable_path_halving = enable_path_halving

    # ------------------------------------------------------------------ #
    # Dispatch (procedure Reroot-DFS)
    # ------------------------------------------------------------------ #
    def step(self, comp: Component) -> TraversalGen:
        """Return the traversal generator appropriate for *comp*."""
        tree = self.tree
        if comp.path is not None and comp.path.contains(tree, comp.rc):
            if self.enable_path_halving:
                return self._path_halving(comp)
            return self._path_full_walk(comp)

        tau = None
        for t in comp.trees:
            if t.contains(tree, comp.rc):
                tau = t
                break
        if tau is None:
            raise InvariantViolation(f"root {comp.rc!r} not found in {comp.describe(tree)}")

        heaviest = comp.heaviest_tree(tree)
        threshold = max(heaviest.size(tree) // 2, 1) if heaviest is not None else 1
        tau_heavy = tau.size(tree) > threshold

        if comp.path is None:
            return self._disintegrate(comp, tau, threshold)
        if not tau_heavy:
            return self._disconnect(comp, tau, threshold)
        if comp.rc == tau.root:
            return self._disintegrate(comp, tau, threshold)
        v_h = heavy_vertex(tree, tau.root, threshold)
        if tree.is_ancestor(v_h, comp.rc):
            return self._disconnect(comp, tau, threshold)
        return self._heavy(comp, tau, threshold, v_h)

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    def _hanging_within(self, tau: TreePiece, covered: Sequence[Vertex]) -> List[TreePiece]:
        """Subtrees of *tau* hanging from the *covered* vertices."""
        roots = hanging_subtrees(self.tree, covered, exclude=covered)
        return [TreePiece(r) for r in roots if tau.contains(self.tree, r)]

    def _piece_query(self, piece, target, *, prefer_last: bool, label: str) -> EdgeQuery:
        if isinstance(piece, TreePiece):
            return EdgeQuery.from_tree(piece.root, target, prefer_last=prefer_last, label=label)
        if isinstance(piece, PathPiece):
            return EdgeQuery.from_path(piece.vertices, target, prefer_last=prefer_last, label=label)
        raise TypeError(f"unknown piece type {piece!r}")

    @staticmethod
    def _positions(target: Sequence[Vertex]) -> Dict[Vertex, int]:
        return {v: i for i, v in enumerate(target)}

    def _is_walkable(self, pstar: Sequence[Vertex], jump: Optional[Tuple[Vertex, Vertex]]) -> bool:
        """Consecutive vertices of a traversal path must be tree neighbours,
        except for at most one designated back-edge jump."""
        tree = self.tree
        jump_set = {frozenset(jump)} if jump is not None else set()
        for a, b in zip(pstar, pstar[1:]):
            if tree.parent(a) == b or tree.parent(b) == a:
                continue
            if frozenset((a, b)) in jump_set:
                continue
            return False
        return len(set(pstar)) == len(pstar)

    # ------------------------------------------------------------------ #
    # Process-Comp (appendix procedure)
    # ------------------------------------------------------------------ #
    def _process_comp(
        self,
        comp: Component,
        pstar: List[Vertex],
        leftover_paths: List[Optional[PathPiece]],
        leftover_trees: List[TreePiece],
    ) -> Generator[QueryBatch, List[Answer], List[Component]]:
        """Assemble the leftover pieces into new components with roots.

        Yields the query batches described in ``Process-Comp``: one eligibility
        batch per leftover path (which trees have an edge to it), one batch for
        path-to-path adjacency, and one batch that locates every new
        component's lowest edge on ``pstar``.  Raises
        :class:`InvariantViolation` when the leftovers do not form C1/C2
        components: two leftover paths in one component (adjacent to each
        other, or joined by a subtree adjacent to both), or a component with
        no edge to ``pstar``.
        """
        tree = self.tree
        paths = [p for p in leftover_paths if p is not None and len(p) > 0]
        trees = list(leftover_trees)
        self.metrics.inc("process_comp_calls")
        pstar_t = tuple(pstar)

        # --- 1. Which trees attach to which leftover path? -------------------
        tree_hits: Dict[int, List[int]] = {ti: [] for ti in range(len(trees))}
        for pi, p in enumerate(paths):
            if not trees:
                break
            target = tuple(p.vertices)
            batch = [
                self._piece_query(t, target, prefer_last=True, label=f"eligibility:{pi}")
                for t in trees
            ]
            answers = yield batch
            for ti, ans in enumerate(answers):
                if ans is not None:
                    tree_hits[ti].append(pi)

        # --- 2. Are two leftover paths directly connected? ------------------
        path_links: List[Tuple[int, int]] = []
        if len(paths) > 1:
            pair_queries = []
            pairs = []
            for i in range(len(paths)):
                for j in range(i + 1, len(paths)):
                    pair_queries.append(
                        EdgeQuery.from_path(
                            paths[i].vertices, tuple(paths[j].vertices), prefer_last=True, label="path_pair"
                        )
                    )
                    pairs.append((i, j))
            answers = yield pair_queries
            for (i, j), ans in zip(pairs, answers):
                if ans is not None:
                    path_links.append((i, j))

        # --- 3. Union pieces into components. --------------------------------
        parent = list(range(len(paths)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a: int, b: int) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra

        for i, j in path_links:
            union(i, j)
        for ti, hits in tree_hits.items():
            for a, b in zip(hits, hits[1:]):
                union(a, b)

        groups: Dict[int, Dict[str, list]] = {}
        for pi in range(len(paths)):
            root = find(pi)
            groups.setdefault(root, {"paths": [], "trees": []})["paths"].append(paths[pi])
        loose_trees: List[TreePiece] = []
        for ti, hits in tree_hits.items():
            if hits:
                groups[find(hits[0])]["trees"].append(trees[ti])
            else:
                loose_trees.append(trees[ti])

        new_components: List[Component] = []
        for grp in groups.values():
            if len(grp["paths"]) > 1:
                raise InvariantViolation(
                    "leftover pieces violate the C1/C2 invariant: "
                    + ", ".join(p.describe() for p in grp["paths"])
                )
            new_components.append(
                Component(trees=grp["trees"], path=grp["paths"][0], phase=comp.phase + 1)
            )
        for t in loose_trees:
            new_components.append(Component(trees=[t], path=None, phase=comp.phase + 1))

        # --- 4. Find each new component's lowest edge on pstar. --------------
        root_queries: List[EdgeQuery] = []
        owners: List[int] = []
        for ci, c in enumerate(new_components):
            for piece in c.pieces():
                root_queries.append(
                    self._piece_query(piece, pstar_t, prefer_last=True, label="component_root")
                )
                owners.append(ci)
        answers = yield root_queries
        pos = self._positions(pstar)
        best: Dict[int, Answer] = {ci: None for ci in range(len(new_components))}
        for ci, ans in zip(owners, answers):
            if ans is None:
                continue
            cur = best[ci]
            if cur is None or pos[ans[1]] > pos[cur[1]]:
                best[ci] = ans

        for ci, c in enumerate(new_components):
            ans = best[ci]
            if ans is None:
                # Every leftover piece hangs from the traversed path or from a
                # leftover path, so each component has an edge to pstar.
                raise InvariantViolation(
                    f"component {c.describe(tree)} has no edge to the traversed path"
                )
            c.rc, c.attach = ans[0], ans[1]
        return new_components

    # ------------------------------------------------------------------ #
    # Disintegrating traversal (Section 4.1)
    # ------------------------------------------------------------------ #
    def _disintegrate(self, comp: Component, tau: TreePiece, threshold: int) -> TraversalGen:
        tree = self.tree
        self.metrics.inc("traversal_disintegrating")
        rc = comp.rc
        r_prime = tau.root
        if tau.size(tree) <= threshold:
            v_h = tau.root
        else:
            v_h = heavy_vertex(tree, tau.root, threshold)

        v_l = tree.lca(rc, v_h)
        pstar = tree.path(rc, v_h)

        leftover_paths: List[Optional[PathPiece]] = []
        covered = list(pstar)
        if v_l != r_prime:
            upper = tree.ancestor_path(tree.parent(v_l), r_prime)
            leftover_paths.append(PathPiece(upper))
            covered.extend(upper)
        if comp.path is not None:
            leftover_paths.append(comp.path)

        leftover_trees = self._hanging_within(tau, covered)
        leftover_trees.extend(t for t in comp.trees if t is not tau)

        new_components = yield from self._process_comp(comp, pstar, leftover_paths, leftover_trees)
        return StepResult(pstar=pstar, new_components=new_components, traversal="disintegrating")

    # ------------------------------------------------------------------ #
    # Path halving (Section 4.2)
    # ------------------------------------------------------------------ #
    def _path_halving(self, comp: Component) -> TraversalGen:
        self.metrics.inc("traversal_path_halving")
        pc = list(comp.path.vertices)
        i = pc.index(comp.rc)
        if i >= len(pc) - 1 - i:
            pstar = list(reversed(pc[: i + 1]))  # rc back towards the first endpoint
            remainder = pc[i + 1 :]
        else:
            pstar = pc[i:]
            remainder = pc[:i]
        leftover_paths = [PathPiece(remainder)] if remainder else []
        new_components = yield from self._process_comp(comp, pstar, leftover_paths, list(comp.trees))
        return StepResult(pstar=pstar, new_components=new_components, traversal="path_halving")

    def _path_full_walk(self, comp: Component) -> TraversalGen:
        """Ablation variant of path halving: walk to the *nearer* endpoint, so
        the remaining path shrinks only by the traversed prefix."""
        self.metrics.inc("traversal_path_full_walk")
        pc = list(comp.path.vertices)
        i = pc.index(comp.rc)
        if i < len(pc) - 1 - i:
            pstar = list(reversed(pc[: i + 1]))
            remainder = pc[i + 1 :]
        else:
            pstar = pc[i:]
            remainder = pc[:i]
        leftover_paths = [PathPiece(remainder)] if remainder else []
        new_components = yield from self._process_comp(comp, pstar, leftover_paths, list(comp.trees))
        return StepResult(pstar=pstar, new_components=new_components, traversal="path_full_walk")

    # ------------------------------------------------------------------ #
    # Disconnecting traversal (Section 4.3)
    # ------------------------------------------------------------------ #
    def _disconnect(self, comp: Component, tau: TreePiece, threshold: int) -> TraversalGen:
        tree = self.tree
        self.metrics.inc("traversal_disconnecting")
        rc = comp.rc
        pc = comp.path
        assert pc is not None

        pc_top, pc_bottom = pc.top_bottom(tree)
        pc_list = list(pc.vertices)
        if pc_list[0] != pc_top:
            pc_list = list(reversed(pc_list))  # orient top -> bottom
        pc_t = tuple(pc_list)
        pos = self._positions(pc_list)

        # Lowest edge from tau to pc (nearest the bottom endpoint).
        answers = yield [self._piece_query(tau, pc_t, prefer_last=True, label="disconnect_lowest")]
        lowest = answers[0]
        if lowest is None:
            raise InvariantViolation(f"{tau.describe()} has no edge to {pc.describe()}")

        x_low, y_low = lowest
        lower_half = pos[y_low] >= (len(pc_list) - 1) / 2.0
        if lower_half:
            # Entering at the lowest edge and walking up covers every tau edge
            # and at least half of pc.
            x, y = x_low, y_low
            traversed_pc = list(reversed(pc_list[: pos[y] + 1]))
            remainder_pc = pc_list[pos[y] + 1 :]
        else:
            answers = yield [self._piece_query(tau, pc_t, prefer_last=False, label="disconnect_highest")]
            highest = answers[0]
            x, y = highest if highest is not None else lowest
            traversed_pc = pc_list[pos[y] :]
            remainder_pc = pc_list[: pos[y]]

        tau_path = tree.path(rc, x)
        pstar = tau_path + traversed_pc

        v_meet = tree.lca(rc, x)
        leftover_paths: List[Optional[PathPiece]] = []
        covered = list(tau_path)
        if v_meet != tau.root:
            upper = tree.ancestor_path(tree.parent(v_meet), tau.root)
            leftover_paths.append(PathPiece(upper))
            covered.extend(upper)
        if remainder_pc:
            leftover_paths.append(PathPiece(remainder_pc))

        leftover_trees = self._hanging_within(tau, covered)
        leftover_trees.extend(t for t in comp.trees if t is not tau)

        new_components = yield from self._process_comp(comp, pstar, leftover_paths, leftover_trees)
        return StepResult(pstar=pstar, new_components=new_components, traversal="disconnecting")

    # ------------------------------------------------------------------ #
    # Heavy subtree traversal (Section 4.4)
    # ------------------------------------------------------------------ #
    def _heavy(self, comp: Component, tau: TreePiece, threshold: int, v_h: Vertex) -> TraversalGen:
        tree = self.tree
        self.metrics.inc("traversal_heavy")
        rc = comp.rc
        r_prime = tau.root
        pc = comp.path
        assert pc is not None
        pc_list = tuple(pc.vertices)
        pc_set = set(pc_list)

        # The ancestor path rc -> r' in T* order (rc first, r' last): "lowest on
        # p*" for the l traversal therefore means nearest to r'.
        root_path = tree.ancestor_path(rc, r_prime)
        root_path_t = tuple(root_path)
        pos_root = self._positions(root_path)
        v_l = tree.lca(rc, v_h)
        v_l_child = tree.child_towards(v_l, v_h) if v_l != v_h else v_h

        hanging_root = self._hanging_within(tau, root_path)

        # Eligibility of the subtrees hanging from the root path (edge to pc?).
        answers = yield [
            self._piece_query(t, pc_list, prefer_last=True, label="heavy_eligibility_root")
            for t in hanging_root
        ]
        eligible_root = [t for t, a in zip(hanging_root, answers) if a is not None]

        def in_subtree(root: Optional[Vertex], v: Vertex) -> bool:
            return root is not None and v in tree and tree.is_ancestor(root, v)

        # ------------------------------------------------------------------ #
        # Scenario 1: l traversal along path(rc, r').
        # ------------------------------------------------------------------ #
        sources_1: List[object] = list(eligible_root) + [pc]
        answers = yield [
            self._piece_query(p, root_path_t, prefer_last=True, label="heavy_l_lowest") for p in sources_1
        ]
        x1y1: Answer = None
        for ans in answers:
            if ans is None:
                continue
            if x1y1 is None or pos_root[ans[1]] > pos_root[x1y1[1]]:
                x1y1 = ans

        l_applicable = (
            x1y1 is None
            or not in_subtree(v_l_child, x1y1[0])
            or in_subtree(v_h, x1y1[0])
            or x1y1[0] == v_l_child
            or x1y1[0] in pc_set
        )
        if l_applicable:
            self.metrics.inc("heavy_scenario_l")
            pstar = list(root_path)
            leftover_trees = list(hanging_root)
            leftover_trees.extend(t for t in comp.trees if t is not tau)
            new_components = yield from self._process_comp(comp, pstar, [pc], leftover_trees)
            return StepResult(pstar=pstar, new_components=new_components, traversal="heavy_l")

        # ------------------------------------------------------------------ #
        # Scenario 2: p traversal.
        # ------------------------------------------------------------------ #
        chain = tree.path(v_l_child, v_h)
        hanging_chain = self._hanging_within(tau, chain)
        eligible_chain: List[TreePiece] = []
        if hanging_chain:
            answers = yield [
                self._piece_query(t, pc_list, prefer_last=True, label="heavy_eligibility_chain")
                for t in hanging_chain
            ]
            eligible_chain = [t for t, a in zip(hanging_chain, answers) if a is not None]

        # (x_d, y_d): the lowest edge on the root path from any piece that will
        # stay connected to pc after the traversal — the eligible hanging
        # trees, the hanging trees of the heavy chain, the other component
        # trees (every one of them is adjacent to pc by the C2 invariant), and
        # pc itself.  The p traversal only covers the root path from y_* down,
        # so y_d must dominate *all* of these edges: leaving out pc (or a
        # pc-connected tree) lets the untraversed remainder above y_* stay
        # adjacent to pc, merging two path pieces into one component — the
        # C1/C2 leftover-piece gap Process-Comp used to trip on.
        other_trees = [t for t in comp.trees if t is not tau]
        restricted_trees = (
            [t for t in eligible_root if t.root != v_l_child] + eligible_chain + other_trees
        )
        restricted: List[object] = restricted_trees + [pc]
        xd_yd: Answer = None
        if restricted:
            answers = yield [
                self._piece_query(t, root_path_t, prefer_last=True, label="heavy_xd") for t in restricted
            ]
            for ans in answers:
                if ans is None:
                    continue
                if xd_yd is None or pos_root[ans[1]] > pos_root[xd_yd[1]]:
                    xd_yd = ans
        y_d = xd_yd[1] if xd_yd is not None else rc
        tau_d: Optional[TreePiece] = None
        if xd_yd is not None:
            for t in restricted_trees:
                if t.contains(tree, xd_yd[0]):
                    tau_d = t
                    break

        # (x_p, y_p): among edges from T(v_L) to path(y_d, r'), the edge whose
        # source has the deepest LCA with v_H (one independent single-vertex
        # query per vertex of T(v_L)).
        upper_path = tuple(root_path[pos_root[y_d] :])
        tvl_vertices = tree.subtree_vertices(v_l_child)
        answers = yield [
            EdgeQuery.from_vertices((v,), upper_path, prefer_last=True, label="heavy_xp")
            for v in tvl_vertices
        ]
        xp_yp: Answer = None
        best_lca_level = -1
        for v, ans in zip(tvl_vertices, answers):
            if ans is None:
                continue
            lca_level = tree.level(tree.lca(v, v_h))
            better = lca_level > best_lca_level or (
                lca_level == best_lca_level
                and xp_yp is not None
                and pos_root.get(ans[1], -1) > pos_root.get(xp_yp[1], -1)
            )
            if xp_yp is None or better:
                best_lca_level = lca_level
                xp_yp = (v, ans[1])

        if xp_yp is None:
            # Scenario 1 failed because of a back edge from T(v_L) into the
            # root path, which is itself a valid (x_p, y_p) candidate; reaching
            # here means bookkeeping broke.
            raise InvariantViolation("heavy traversal could not find the p-traversal edge")

        x_p, y_p = xp_yp
        committed, failed_edge = yield from self._try_heavy_commit(
            comp, tau, v_l, v_l_child, v_h, x_p, y_p, pc, eligible_root,
            scenario="heavy_p", walk_down=True, r_prime=r_prime, root_path=root_path,
        )
        if committed is not None:
            return committed

        # ------------------------------------------------------------------ #
        # Scenario 3: r traversal.
        # ------------------------------------------------------------------ #
        x_r, y_r = failed_edge if failed_edge is not None else (x_p, y_p)
        if tau_d is not None and xd_yd is not None and y_p in pos_root:
            # Pseudocode lines 26-28: if tau_d has an edge below y_r on the
            # lower part of the root path, jump through it instead.
            lower_path = tuple(root_path[: pos_root[y_p] + 1])
            answers = yield [
                self._piece_query(tau_d, lower_path, prefer_last=False, label="heavy_x2_prime")
            ]
            alt = answers[0]
            if alt is not None and (
                y_r not in pos_root or pos_root[alt[1]] < pos_root[y_r]
            ):
                x_r, y_r = alt

        if y_r in pos_root:
            committed, failed_edge_r = yield from self._try_heavy_commit(
                comp, tau, v_l, v_l_child, v_h, x_r, y_r, pc, eligible_root,
                scenario="heavy_r", walk_down=False, r_prime=r_prime, root_path=root_path,
            )
            if committed is not None:
                return committed
        else:
            failed_edge_r = failed_edge

        # Special case (Section 4.4, Figure 5): commit the modified r' traversal
        # using the edge that defeated the previous scenario.  Stage progress
        # may be imperfect here (documented deviation); Process-Comp still
        # raises if the leftovers are not C1/C2 components.
        self.metrics.inc("heavy_special_case")
        x_m, y_m = failed_edge_r if failed_edge_r is not None else (x_p, y_p)
        if y_m not in pos_root:
            x_m, y_m = x_p, y_p
        result = yield from self._commit_heavy(
            comp, tau, v_l, x_m, y_m, pc,
            scenario="heavy_special", walk_down=False, r_prime=r_prime, root_path=root_path,
        )
        return result

    # ------------------------------------------------------------------ #
    # Heavy traversal helpers
    # ------------------------------------------------------------------ #
    def _heavy_pstar(
        self,
        rc: Vertex,
        x_star: Vertex,
        y_star: Vertex,
        v_l: Vertex,
        r_prime: Vertex,
        walk_down: bool,
    ) -> Tuple[List[Vertex], List[Vertex], Optional[Tuple[Vertex, Vertex]]]:
        """Build ``path(rc, x*) ∪ (x*, y*) ∪ tail`` and return
        ``(pstar, dive, jump_edge)``."""
        tree = self.tree
        dive = tree.path(rc, x_star)
        dive_set = set(dive)
        if y_star in dive_set:
            return dive, dive, None
        if walk_down:
            end = tree.parent(v_l)
            if end is not None and tree.is_ancestor(y_star, end):
                tail = list(reversed(tree.ancestor_path(end, y_star)))
            else:
                tail = [y_star]
        else:
            if tree.is_ancestor(r_prime, y_star):
                tail = tree.ancestor_path(y_star, r_prime)
            else:
                tail = [y_star]
        clean_tail: List[Vertex] = []
        for v in tail:
            if v in dive_set:
                break
            clean_tail.append(v)
        pstar = dive + clean_tail
        return pstar, dive, (x_star, y_star)

    def _try_heavy_commit(
        self,
        comp: Component,
        tau: TreePiece,
        v_l: Vertex,
        v_l_child: Vertex,
        v_h: Vertex,
        x_star: Vertex,
        y_star: Vertex,
        pc: PathPiece,
        eligible_root: List[TreePiece],
        *,
        scenario: str,
        walk_down: bool,
        r_prime: Vertex,
        root_path: List[Vertex],
    ) -> Generator[QueryBatch, List[Answer], Tuple[Optional[StepResult], Answer]]:
        """Check the applicability condition for the traversal through
        ``(x_star, y_star)``; commit it when the condition holds, otherwise
        return the offending edge so the caller can try the next scenario."""
        tree = self.tree
        pstar, dive, jump = self._heavy_pstar(comp.rc, x_star, y_star, v_l, r_prime, walk_down)
        if not self._is_walkable(pstar, jump):
            raise InvariantViolation(f"{scenario}: candidate traversal path is not walkable")
        pc_list = tuple(pc.vertices)
        pc_set = set(pc_list)

        hanging_dive = self._hanging_within(tau, dive)
        eligible_dive: List[TreePiece] = []
        if hanging_dive:
            answers = yield [
                self._piece_query(t, pc_list, prefer_last=True, label=f"{scenario}_eligibility")
                for t in hanging_dive
            ]
            eligible_dive = [t for t, a in zip(hanging_dive, answers) if a is not None]

        pstar_t = tuple(pstar)
        sources: List[object] = [t for t in eligible_root if t.root != v_l_child]
        sources += eligible_dive + [pc]
        answers = yield [
            self._piece_query(p, pstar_t, prefer_last=True, label=f"{scenario}_lowest") for p in sources
        ]
        pos = self._positions(pstar)
        lowest: Answer = None
        for ans in answers:
            if ans is None:
                continue
            if lowest is None or pos[ans[1]] > pos[lowest[1]]:
                lowest = ans

        # T(v_P): the subtree hanging from the dive that contains v_H.
        v_p: Optional[Vertex] = None
        if v_h not in pos:
            anchor = tree.lca(x_star, v_h) if tree.is_ancestor(v_l_child, x_star) else v_l
            if anchor != v_h and tree.is_ancestor(anchor, v_h):
                candidate = tree.child_towards(anchor, v_h)
                if candidate not in pos:
                    v_p = candidate

        def in_subtree(root: Optional[Vertex], v: Vertex) -> bool:
            return root is not None and v in tree and tree.is_ancestor(root, v)

        applicable = (
            lowest is None
            or not in_subtree(v_p, lowest[0])
            or in_subtree(v_h, lowest[0])
            or lowest[0] == v_p
            or lowest[0] in pc_set
        )
        if not applicable:
            return None, lowest

        if scenario == "heavy_p":
            self.metrics.inc("heavy_p_committed")
        elif scenario == "heavy_r":
            self.metrics.inc("heavy_r_committed")
        else:
            self.metrics.inc("heavy_special_committed")
        result = yield from self._commit_heavy(
            comp, tau, v_l, x_star, y_star, pc,
            scenario=scenario, walk_down=walk_down, r_prime=r_prime, root_path=root_path,
        )
        return result, lowest

    def _commit_heavy(
        self,
        comp: Component,
        tau: TreePiece,
        v_l: Vertex,
        x_star: Vertex,
        y_star: Vertex,
        pc: PathPiece,
        *,
        scenario: str,
        walk_down: bool,
        r_prime: Vertex,
        root_path: List[Vertex],
    ) -> Generator[QueryBatch, List[Answer], StepResult]:
        tree = self.tree
        pstar, dive, jump = self._heavy_pstar(comp.rc, x_star, y_star, v_l, r_prime, walk_down)
        if not self._is_walkable(pstar, jump):
            raise InvariantViolation(f"{scenario}: committed traversal path is not walkable")
        pstar_set = set(pstar)

        # Untraversed remainder of the root path: split into vertical runs (a
        # single run for the paper's traversals).
        leftover_root = [v for v in root_path if v not in pstar_set]
        leftover_paths: List[Optional[PathPiece]] = []
        for run in ancestor_descendant_segments(tree, leftover_root) if leftover_root else []:
            leftover_paths.append(PathPiece(run))
        leftover_paths.append(pc)

        covered = list(pstar) + [v for v in root_path if v not in pstar_set]
        leftover_trees = self._hanging_within(tau, covered)
        leftover_trees.extend(t for t in comp.trees if t is not tau)

        new_components = yield from self._process_comp(comp, pstar, leftover_paths, leftover_trees)
        return StepResult(pstar=pstar, new_components=new_components, traversal=scenario)
