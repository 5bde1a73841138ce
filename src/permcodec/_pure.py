"""Pure-Python pattern-search kernels.

Reference implementation of the search routines. ``permcodec._ext``
(``_ext.c``) compiles ``count_avoiders_dfs``, the memoized count engine,
with the same algorithm; ``first_occurrence`` and ``avoiders``, the walk that
yields every avoider, exist only here and serve both backends.
``permcodec.kernels`` answers a count with ``len(q) < 2`` or ``n < len(q)``
before either engine starts. Haystacks may be any sequences of distinct
integers; patterns are permutations of 1..k. ``first_occurrence`` returns
1-based indices, as every witness in the package is; inside the searches
positions are 0-based.

The searches assign pattern slots one at a time and prune by value windows:
once some slots are fixed, the value for the next slot must lie strictly
between the values of the tightest smaller and larger pattern entries already
assigned. ``_bounds`` precomputes, per slot, which earlier assignment provides
each side of the window. The count engine uses the same windows, on gaps
between unused values instead of on values.
"""

from __future__ import annotations

import operator
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
    """Lexicographically first 1-based index tuple of an occurrence of q, or None."""
    n, k = len(p), len(q)
    if k == 0:
        return ()
    if k > n:
        return None
    lo, hi = _bounds(q, range(k))
    chosen = [0] * k
    pos = [0] * k
    if _search(p, lo, hi, chosen, pos, 0, k - 1, 0, n):
        return tuple(i + 1 for i in pos)
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


def _slot_kinds(q: Sequence[int]) -> list[tuple[int | None, ...]]:
    """kinds[j][s]: how slot s of a q[:j] occurrence meets the slots j..k-1.

    -1 (lower-only): q[s] lies below every later entry, so a smaller gap is
    easier to complete; 1 (upper-only): above every later entry, a larger gap
    is easier; 0 (mixed): only an equal gap is as easy. None: no later slot
    has q[s] as its nearest bound among q[:j], so the gap never matters.
    """
    k = len(q)
    kinds = []
    for j in range(k):
        nearest = set()
        for t in range(j, k):
            lo, hi = _bounds(q, [*range(j), t])
            nearest.update((lo[t], hi[t]))
        later_lo, later_hi = min(q[j:]), max(q[j:])
        kinds.append(tuple(
            None if s not in nearest else -1 if q[s] < later_lo else 1 if q[s] > later_hi else 0
            for s in range(j)
        ))
    return kinds


def _pareto(tuples: list[tuple[int, ...]], signs: list[int], mixed: list[int]) -> tuple:
    """The tuples that no other one dominates, in a canonical order.

    ``signs`` is -1 on the upper-only slots and 1 elsewhere; ``mixed`` lists
    the mixed slots. With the signs applied, a tuple dominates another
    exactly when it is nowhere larger and equal on the mixed slots, so
    sorting puts every dominating tuple first.
    """
    kept: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    out = []
    for x, t in sorted((tuple(map(operator.mul, t, signs)), t) for t in set(tuples)):
        rivals = kept.setdefault(tuple(map(t.__getitem__, mixed)), [])
        if not any(all(map(operator.le, a, x)) for a in rivals):
            rivals.append(x)
            out.append(t)
    return tuple(out)


def count_avoiders_dfs(q: Sequence[int], n: int) -> list[int]:
    """Avoider counts of q, of length k >= 2, for every length 0..n, from one memo table.

    After a prefix, the m unused values u_1 < ... < u_m split the value line
    into gaps 0..m. An occurrence of q[:j] in the prefix (0 < j < k) matters
    to the rest of the permutation only through the gaps its values lie in,
    so the state keeps, per j, the Pareto-minimal such gap tuples among those
    that can still be completed. Placing u_i kills the prefix if a q[:k-1]
    tuple admits u_i as q[k-1]; otherwise every tuple that admits u_i grows
    by one slot, (u_i) starts a q[:1] tuple, and gaps i-1 and i merge. The
    count of a state with m values left is memoized (after Marinov and
    Radoicic, *Counting 1324-avoiding permutations*, 2003). The key does not
    depend on n, and the empty state stays empty when the largest value (the
    smallest if q[1] < q[0]) is placed, so n's table holds every shorter n.
    """
    k = len(q)
    lo, hi = _bounds(q, range(k))
    kinds = _slot_kinds(q)
    signs = [[-1 if c == 1 else 1 for c in kind] for kind in kinds]
    mixed = [[s for s, c in enumerate(kind) if c == 0] for kind in kinds]
    memo: dict = {}

    def window(t: tuple[int, ...], j: int, m: int) -> tuple[int, int]:
        """u_i, of m unused values, may be slot j after the q[:j] tuple t iff a < i <= b."""
        return (t[lo[j]] if lo[j] >= 0 else 0), (t[hi[j]] if hi[j] >= 0 else m)

    def count(state: tuple, m: int) -> int:
        if m == 0:
            return 1
        key = (state, m)
        if key in memo:
            return memo[key]
        windows = [[(t, *window(t, j, m)) for t in group] for j, group in enumerate(state, 1)]
        total = 0
        for i in range(1, m + 1):
            if any(a < i <= b for _, a, b in windows[-1]):
                continue  # u_i would complete q
            shift = (*range(i), *range(i - 1, m))  # gaps i-1 and i merge; u_i is in gap i-1
            nxt = []
            for j in range(1, k):
                if m - 1 < k - j:  # too few values left to complete q[:j]
                    nxt.append(())
                    continue
                grown = [(i - 1,)] if j == 1 else [
                    tuple(0 if c is None else g for g, c in zip((*map(shift.__getitem__, t), i - 1), kinds[j]))
                    for t, a, b in windows[j - 2] if a < i <= b
                ]
                alive = [
                    t for t in [*(tuple(map(shift.__getitem__, t)) for t in state[j - 1]), *grown]
                    if operator.lt(*window(t, j, m - 1))
                ]
                nxt.append(_pareto(alive, signs[j], mixed[j]) if len(alive) > 1 else tuple(alive))
            total += count(tuple(nxt), m - 1)
        memo[key] = total
        return total

    return [count(((),) * (k - 1), m) for m in range(n + 1)]
