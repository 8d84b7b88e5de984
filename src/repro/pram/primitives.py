"""Classical EREW-PRAM primitives (metered).

All primitives take a :class:`~repro.pram.machine.PRAM` instance, operate on
plain Python lists for convenience, and charge the model costs of the textbook
algorithms they implement:

================================  ===========  ==============
primitive                         depth        work
================================  ===========  ==============
prefix sums (double buffered)     O(log n)     O(n log n)
reduction / max / min             O(log n)     O(n)
pack (stable compaction)          O(log n)     O(n log n)
list ranking (pointer jumping)    O(log n)     O(n log n)
================================  ===========  ==============

The ``O(n log n)`` work terms (instead of the work-optimal ``O(n)`` variants)
are within the paper's poly-logarithmic slack: the simulator meters textbook
algorithms wherever they cost at most a ``log n`` factor more than the
optimal ones the paper cites.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, TypeVar

from repro.pram.machine import PRAM

T = TypeVar("T")


def parallel_prefix_sums(pram: PRAM, values: Sequence[float]) -> List[float]:
    """Inclusive prefix sums via the Blelloch up-sweep / down-sweep scan.

    Work ``O(n)``, depth ``O(log n)``; every step touches pairwise-disjoint
    cells, so the scan passes the strict EREW checker.
    """
    n = len(values)
    if n == 0:
        return []
    if n == 1:
        return [values[0]]
    size = 1
    while size < n:
        size *= 2
    tree = pram.array(list(values) + [0] * (size - n), "scan_tree")

    # Up-sweep (reduce).
    d = 1
    while d < size:
        stride = 2 * d

        def up(i: int, _item: int, *, d: int = d, stride: int = stride) -> None:
            base = i * stride
            tree.write(base + stride - 1, tree.read(base + stride - 1) + tree.read(base + d - 1))

        pram.parallel_step(range(size // stride), up, label="scan_up")
        d = stride

    # Down-sweep (exclusive scan).
    tree.write(size - 1, 0)
    d = size // 2
    while d >= 1:
        stride = 2 * d

        def down(i: int, _item: int, *, d: int = d, stride: int = stride) -> None:
            base = i * stride
            left = tree.read(base + d - 1)
            right = tree.read(base + stride - 1)
            tree.write(base + d - 1, right)
            tree.write(base + stride - 1, left + right)

        pram.parallel_step(range(size // stride), down, label="scan_down")
        d //= 2

    exclusive = tree.to_list()
    out = pram.array([0] * n, "scan_out")

    def to_inclusive(i: int, _item: int) -> None:
        out.write(i, exclusive[i] + values[i])

    pram.parallel_step(range(n), to_inclusive, label="scan_inclusive")
    return out.to_list()


def parallel_reduce(
    pram: PRAM,
    values: Sequence[T],
    op: Callable[[T, T], T],
) -> T:
    """Reduce *values* with the associative operator *op* in O(log n) depth."""
    if not values:
        raise ValueError("cannot reduce an empty sequence")
    cur = pram.array(list(values), "reduce")
    n = len(values)
    while n > 1:
        half = (n + 1) // 2
        def step(i: int, _item: int, *, cur=cur, n=n, half=half) -> None:
            j = i + half
            if j < n:
                cur.write(i, op(cur.read(i), cur.read(j)))
        pram.parallel_step(range(half), step, label="reduce")
        n = half
    return cur.read(0)


def parallel_max(pram: PRAM, values: Sequence[T], key: Optional[Callable[[T], object]] = None) -> T:
    """Maximum of *values* under *key* in O(log n) depth."""
    if key is None:
        return parallel_reduce(pram, values, lambda a, b: a if a >= b else b)
    return parallel_reduce(pram, values, lambda a, b: a if key(a) >= key(b) else b)


def parallel_min(pram: PRAM, values: Sequence[T], key: Optional[Callable[[T], object]] = None) -> T:
    """Minimum of *values* under *key* in O(log n) depth."""
    if key is None:
        return parallel_reduce(pram, values, lambda a, b: a if a <= b else b)
    return parallel_reduce(pram, values, lambda a, b: a if key(a) <= key(b) else b)


def parallel_pack(pram: PRAM, values: Sequence[T], flags: Sequence[bool]) -> List[T]:
    """Stable compaction: keep ``values[i]`` where ``flags[i]`` is truthy.

    Implemented with a prefix sum over the flags followed by one scatter step.
    """
    if len(values) != len(flags):
        raise ValueError("values and flags must have the same length")
    n = len(values)
    if n == 0:
        return []
    offsets = parallel_prefix_sums(pram, [1 if f else 0 for f in flags])
    total = int(offsets[-1])
    out = pram.array([None] * total, "pack_out")  # type: ignore[list-item]
    vals = pram.array(list(values), "pack_in")
    flg = pram.array([1 if f else 0 for f in flags], "pack_flags")
    off = pram.array([int(x) for x in offsets], "pack_offsets")

    def scatter(i: int, _item: int) -> None:
        if flg.read(i):
            out.write(off.read(i) - 1, vals.read(i))

    pram.parallel_step(range(n), scatter, label="pack_scatter")
    return out.to_list()


def pointer_jumping_list_ranking(pram: PRAM, successor: Sequence[int]) -> List[int]:
    """List ranking by pointer jumping.

    ``successor[i]`` is the index of the next element of the linked list, or
    ``-1`` for the tail.  Returns ``rank[i]`` = number of links from ``i`` to the
    tail.  Depth O(log n), work O(n log n).

    Note: textbook pointer jumping lets a node and its predecessor read the same
    cell in one step, i.e. it is CREW; the standard EREW simulation costs one
    extra ``O(log n)`` factor, which is within the paper's polylog slack
    (see the module docstring).  The strict EREW checker is therefore not
    applied to this primitive.
    """
    n = len(successor)
    if n == 0:
        return []
    succ = pram.array(list(successor), "lr_succ")
    succ_next = pram.array(list(successor), "lr_succ_next")
    rank = pram.array([0 if s == -1 else 1 for s in successor], "lr_rank")
    rank_next = pram.array(rank.to_list(), "lr_rank_next")

    rounds = max(1, (n - 1).bit_length())
    for _ in range(rounds):
        def jump(i: int, _item: int) -> None:
            s = succ.read(i)
            if s == -1:
                rank_next.write(i, rank.read(i))
                succ_next.write(i, -1)
            else:
                rank_next.write(i, rank.read(i) + rank.read(s))
                succ_next.write(i, succ.read(s))
        pram.parallel_step(range(n), jump, label="list_ranking")
        succ, succ_next = succ_next, succ
        rank, rank_next = rank_next, rank
    return rank.to_list()
