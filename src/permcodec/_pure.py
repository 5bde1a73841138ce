"""Pure-Python pattern-search kernels.

Reference implementation of the search routines. ``permcodec._ext``
(``_ext.c``) compiles ``count_avoiders_dfs`` with the same semantics;
``first_occurrence`` and ``avoiders``, the walk that yields every avoider,
exist only here and serve both backends. ``permcodec.kernels`` answers a
count with ``n < len(q)`` as a factorial before either backend walks.
Haystacks may be any sequences of distinct integers; patterns are
permutations of 1..k. All indices are 0-based at this layer (the public API
converts).

The searches assign pattern slots one at a time and prune by value windows:
once some slots are fixed, the value for the next slot must lie strictly
between the values of the tightest smaller and larger pattern entries already
assigned. ``_bounds`` precomputes, per slot, which earlier assignment provides
each side of the window.
"""

from __future__ import annotations

from typing import Iterator, Sequence

BACKEND = "pure"


def _bounds(q: Sequence[int], order: Sequence[int]) -> tuple[list[int], list[int]]:
    """Per-slot window providers for assignment order ``order`` over ``q``.

    Returns (lo, hi) indexed by pattern slot; lo[a] is the slot assigned
    earlier whose value is the tightest one below q[a] (-1 when unbounded),
    and hi[a] likewise from above.
    """
    k = len(q)
    lo = [-1] * k
    hi = [-1] * k
    seen: list[int] = []
    for a in order:
        lo_val = hi_val = None
        for b in seen:
            if q[b] < q[a] and (lo_val is None or q[b] > lo_val):
                lo_val, lo[a] = q[b], b
            elif q[b] > q[a] and (hi_val is None or q[b] < hi_val):
                hi_val, hi[a] = q[b], b
        seen.append(a)
    return lo, hi


def _search(
    p: Sequence[int],
    lo: list[int],
    hi: list[int],
    chosen: list[int],
    pos: list[int],
    a: int,
    a_last: int,
    start: int,
    stop: int,
) -> bool:
    """Assign slots a..a_last to increasing indices in [start, stop)."""
    remaining = a_last - a
    la, ha = lo[a], hi[a]
    for i in range(start, stop - remaining):
        v = p[i]
        if la >= 0 and chosen[la] >= v:
            continue
        if ha >= 0 and chosen[ha] <= v:
            continue
        chosen[a] = v
        pos[a] = i
        if a == a_last:
            return True
        if _search(p, lo, hi, chosen, pos, a + 1, a_last, i + 1, stop):
            return True
    return False


def first_occurrence(p: Sequence[int], q: Sequence[int]):
    """Lexicographically first index tuple of an occurrence of q, or None."""
    n, k = len(p), len(q)
    if k == 0:
        return ()
    if k > n:
        return None
    lo, hi = _bounds(q, range(k))
    chosen = [0] * k
    pos = [0] * k
    if _search(p, lo, hi, chosen, pos, 0, k - 1, 0, n):
        return tuple(pos)
    return None


def avoiders(q: Sequence[int], n: int, first: int = 0) -> Iterator[tuple[int, ...]]:
    """Yield the permutations of 1..n avoiding q in lexicographic order.

    ``first`` fixes the first entry (0: any); it is not checked. Prefix-extension
    DFS: a prefix is extended only while it stays q-free, so each extension
    needs one search, for an occurrence ending at the new entry, whose windows
    are built once per walk.

    >>> list(avoiders((2, 1, 3), 3))
    [(1, 2, 3), (1, 3, 2), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    """
    k = len(q)
    if k == 0:
        return  # the empty pattern occurs in every permutation
    if n == 0:
        yield ()
        return
    if k == 1:
        return  # (1) occurs in every nonempty permutation
    lo, hi = _bounds(q, [k - 1, *range(k - 1)])
    chosen = [0] * k
    pos = [0] * k
    prefix: list[int] = []
    used = [False] * (n + 1)

    def walk(d: int) -> Iterator[tuple[int, ...]]:
        values = (first,) if (d == 0 and first) else range(1, n + 1)
        for v in values:
            if used[v]:
                continue
            prefix.append(v)
            chosen[k - 1] = v
            if k > d + 1 or not _search(prefix, lo, hi, chosen, pos, 0, k - 2, 0, d):
                if d + 1 == n:
                    yield tuple(prefix)
                else:
                    used[v] = True
                    yield from walk(d + 1)
                    used[v] = False
            prefix.pop()

    yield from walk(0)


def count_avoiders_dfs(q: Sequence[int], n: int, first: int = 0) -> int:
    """Count permutations of 1..n avoiding q, optionally with a fixed first entry."""
    return sum(1 for _ in avoiders(q, n, first))
