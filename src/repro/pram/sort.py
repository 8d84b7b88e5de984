"""Simulated parallel merge sort.

The paper uses Cole's parallel merge sort (Theorem 7) to sort adjacency lists by
post-order number when building the data structure ``D``.  Cole's pipelined
algorithm achieves ``O(log n)`` depth; this module implements the simpler
bottom-up merge sort whose merges are parallelised by binary-search ranking,
giving ``O(log^2 n)`` depth and ``O(n log n)`` work — a textbook stand-in
whose extra ``log n`` factor is absorbed by the paper's ``O~``.

Depth accounting is *level synchronous*: all pair merges of one level run inside
a single parallel step, so the metered depth of a full sort is
``O(log n)`` steps × ``O(log n)`` charged binary-search depth.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.pram.machine import PRAM

T = TypeVar("T")
Key = Callable[[T], object]


def _bisect_right(seq: Sequence[T], value: object, key: Key) -> int:
    lo, hi = 0, len(seq)
    while lo < hi:
        mid = (lo + hi) // 2
        if key(seq[mid]) <= value:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _bisect_left(seq: Sequence[T], value: object, key: Key) -> int:
    lo, hi = 0, len(seq)
    while lo < hi:
        mid = (lo + hi) // 2
        if key(seq[mid]) < value:
            lo = mid + 1
        else:
            hi = mid
    return lo


def parallel_merge(pram: PRAM, a: Sequence[T], b: Sequence[T], key: Optional[Key] = None) -> List[T]:
    """Merge two sorted sequences by ranking each element into the other.

    One parallel step over ``len(a) + len(b)`` processors; each processor does a
    binary search, so an extra ``O(log)`` depth is charged explicitly.
    """
    k: Key = key if key is not None else (lambda x: x)
    n_a, n_b = len(a), len(b)
    if n_a == 0:
        return list(b)
    if n_b == 0:
        return list(a)
    out: List[Optional[T]] = [None] * (n_a + n_b)
    out_arr = pram.array(out, "merge_out")

    def place(i: int, _item: int) -> None:
        if i < n_a:
            x = a[i]
            pos = i + _bisect_left(b, k(x), k)
        else:
            x = b[i - n_a]
            pos = (i - n_a) + _bisect_right(a, k(x), k)
        out_arr.write(pos, x)

    pram.parallel_step(range(n_a + n_b), place, label="parallel_merge")
    pram.charge(depth=max(1, math.ceil(math.log2(max(n_a, n_b, 2)))))
    return out_arr.to_list()  # type: ignore[return-value]


def parallel_merge_sort(pram: PRAM, values: Sequence[T], key: Optional[Key] = None) -> List[T]:
    """Sort *values* with level-synchronous bottom-up parallel merge sort.

    Depth ``O(log^2 n)``, work ``O(n log n)``; stable for equal keys (elements
    of the left run are ranked with ``bisect_left``, elements of the right run
    with ``bisect_right``).
    """
    k: Key = key if key is not None else (lambda x: x)
    runs: List[List[T]] = [[v] for v in values]
    if not runs:
        return []
    while len(runs) > 1:
        pair_count = len(runs) // 2
        run_len = max(len(r) for r in runs)
        outputs: List[List[Optional[T]]] = [
            [None] * (len(runs[2 * p]) + len(runs[2 * p + 1])) for p in range(pair_count)
        ]
        out_arrs = [pram.array(buf, f"merge_out_{p}") for p, buf in enumerate(outputs)]

        # Flatten all elements of all pairs into one synchronous step.
        tasks: List[tuple] = []
        for p in range(pair_count):
            a, b = runs[2 * p], runs[2 * p + 1]
            tasks.extend((p, "a", i) for i in range(len(a)))
            tasks.extend((p, "b", j) for j in range(len(b)))

        def place(_proc: int, task: tuple) -> None:
            p, side, i = task
            a, b = runs[2 * p], runs[2 * p + 1]
            if side == "a":
                x = a[i]
                pos = i + _bisect_left(b, k(x), k)
            else:
                x = b[i]
                pos = i + _bisect_right(a, k(x), k)
            out_arrs[p].write(pos, x)

        pram.parallel_step(tasks, place, label="merge_level")
        pram.charge(depth=max(1, math.ceil(math.log2(max(run_len, 2)))))

        next_runs: List[List[T]] = [arr.to_list() for arr in out_arrs]  # type: ignore[misc]
        if len(runs) % 2:
            next_runs.append(runs[-1])
        runs = next_runs
    return runs[0]


def sort_depth_upper_bound(n: int) -> int:
    """Depth budget for the simulated sort: roughly ``(log2 n)^2 + 2 log2 n``."""
    if n <= 1:
        return 1
    log = math.ceil(math.log2(n))
    return log * log + 2 * log + 1
