"""EREW-PRAM cost-model substrate.

CPython's GIL prevents genuine shared-memory parallel speedups, so the
reproduction substitutes a cost model for parallel hardware (module map in
docs/architecture.md): parallel algorithms are executed step-by-step by a
simulator that meters **depth** (parallel time) and **work** (total
operations) and can optionally enforce the EREW access discipline.  The
primitives here are the classical building blocks
the paper cites (Theorems 4–7): prefix sums, reductions, list ranking /
pointer jumping, Euler-tour tree functions, parallel merge sort and parallel
LCA preprocessing.
"""

from repro.pram.machine import PRAM, SharedArray
from repro.pram.primitives import (
    parallel_max,
    parallel_min,
    parallel_pack,
    parallel_prefix_sums,
    parallel_reduce,
    pointer_jumping_list_ranking,
)
from repro.pram.sort import parallel_merge, parallel_merge_sort
from repro.pram.tree_functions import parallel_tree_functions
from repro.pram.lca_parallel import ParallelLCA

__all__ = [
    "PRAM",
    "SharedArray",
    "parallel_prefix_sums",
    "parallel_reduce",
    "parallel_max",
    "parallel_min",
    "parallel_pack",
    "pointer_jumping_list_ranking",
    "parallel_merge",
    "parallel_merge_sort",
    "parallel_tree_functions",
    "ParallelLCA",
]
