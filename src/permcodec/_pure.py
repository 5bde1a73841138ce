"""Pure-Python kernels: the pattern searches, the codec and the verify sweep.

Reference implementation of the inner loops. ``permcodec._ext``
(``_ext.c``) compiles, with the same algorithms, ``count_avoiders_dfs``, the
memoized count engine; the codec's ``encode`` and ``decode``, each one call
that checks its input and runs the level passes ``staircase_floor``,
``encode_levels`` and ``decode_fill``; and ``verify_shard``, the sweep
that walks one shard's avoiders as ``avoiders`` does and encodes, fills and
checks each. ``first_occurrence`` and ``avoiders``, the walk that yields
every avoider, exist only here and serve both backends. ``permcodec.kernels``
answers a count with ``len(q) < 2`` or ``n < len(q)`` before either engine
starts. Haystacks may be any sequences of distinct integers; patterns are
permutations of 1..k. ``first_occurrence`` returns 1-based indices, as every
witness in the package is; inside the searches positions are 0-based.

The searches assign pattern slots one at a time and prune by value windows:
once some slots are fixed, the value for the next slot must lie strictly
between the values of the tightest smaller and larger pattern entries already
assigned. ``_bounds`` precomputes, per slot, which earlier assignment provides
each side of the window. The count engine uses the same windows, on gaps
between unused values instead of on values.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from typing import Iterator, Sequence

from permcodec.coloring import canonical_coloring
from permcodec.errors import MalformedInput, NotInImage
from permcodec.perms import (
    StaircaseFloor,
    lr_minima,
    rl_maxima,
    split_by_mask,
    validate_permutation,
)

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


# ---------------------------------------------------------------------------
# the codec's level passes (see permcodec.codec for the code they build)


def staircase_floor(p: Sequence[int], k: int) -> int:
    """The floor of the length-k staircase over p, k >= 3: 0 exactly when p avoids it."""
    if k > len(p):
        return 0  # a longer pattern never occurs
    floor = StaircaseFloor(k)
    for v in reversed(p):
        floor.push(v)
    return floor.value


def _offset(level: int, k: int) -> int:
    """The letter offset of a level in the code for k: 3 per even level above it.

    An even level uses the letters offset+1 (marked) and offset+2; an odd
    level >= 5 uses the letter offset; the base level 3 uses offset+1
    (marked) and offset.
    """
    return 3 * (k // 2 - level // 2)


def _level(letter: int, k: int) -> int:
    """The level whose letters include ``letter`` (the inverse of _offset)."""
    return max(3, 2 * (k // 2 - letter // 3) + (letter % 3 == 0))


def encode_levels(p: Sequence[int], k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The code (w, wp) of p, an avoider of the length-k staircase, read off level by level.

    >>> encode_levels((3, 6, 1, 2, 7, 4, 5), 4)
    ((1, 2, 1, 2, 2, 3, 4), (1, 2, 1, 3, 4, 2, 2))
    """
    letters = [0] * len(p)
    rest: tuple[int, ...] = tuple(range(len(p)))  # positions not lettered yet
    for level in range(k, 2, -1):  # outside in; each even level letters >= 1 entry
        if not rest:
            break
        offset = _offset(level, k)
        values = [p[i] for i in rest]
        if level == 3:
            for i, is_max in zip(rest, rl_maxima(values)):
                letters[i] = offset + 1 if is_max else offset
        elif level % 2:
            if level - 1 > len(rest):
                continue  # no entry starts a marker longer than the rest
            floor = StaircaseFloor(level - 2)
            mask = []
            for v in reversed(values):
                mask.append(v < floor.value)
                floor.push(v)
            starts, rest = split_by_mask(rest, mask[::-1])
            for i in starts:
                letters[i] = offset
        else:
            red, rest = split_by_mask(rest, canonical_coloring(values))
            for i, is_min in zip(red, lr_minima([p[i] for i in red])):
                letters[i] = offset + 1 if is_min else offset + 2
    by_value = [0] * len(p)
    for v, letter in zip(p, letters):
        by_value[v - 1] = letter
    return tuple(letters), tuple(by_value)


def decode_fill(w: Sequence[int], wp: Sequence[int], k: int) -> tuple[int, ...]:
    """Greedy inverse of encode_levels, one level at a time from the base level out.

    Each level fills its own positions of one output list with its own
    values, both read off its letters, so the deeper levels are final when
    an odd level reads them. Only relative order counts, so working on the
    original values makes the same choices as decoding each level on its
    own. Raises NotInImage where the fill gets stuck, as where a letter has
    more slots than values: every letter of the alphabet for k feeds one
    pool, so two equal-length words over it whose letter multisets differ
    never fill.

    >>> decode_fill((1, 2, 1, 2, 2, 3, 4), (1, 2, 1, 3, 4, 2, 2), 4)
    (3, 6, 1, 2, 7, 4, 5)
    """
    out = [0] * len(w)
    for level in sorted({_level(x, k) for x in w}):  # a level without letters fills nothing
        offset = _offset(level, k)
        if level == 3:
            # rl-max greedy: right to left, the marked values rise, and each
            # other slot takes the largest value below the next maximum
            slots = [i for i, x in enumerate(w) if x >= offset]
            maxima = iter([v for v, x in enumerate(wp, 1) if x == offset + 1])
            rest = [v for v, x in enumerate(wp, 1) if x == offset]
            limit = 0
            for i in reversed(slots):
                if w[i] != offset:
                    limit = out[i] = next(maxima, 0)
                    if not limit:
                        raise NotInImage("the two words must share one letter multiset")
                    continue
                at = bisect_left(rest, limit) - 1
                if at < 0:
                    raise NotInImage("no unmarked value fits below the next maximum")
                out[i] = rest.pop(at)
        elif level % 2 == 0:
            # lr-min greedy: left to right, the marked values fall, and each
            # other slot takes the smallest value above the latest minimum
            slots = [i for i, x in enumerate(w) if offset < x <= offset + 2]
            minima = [v for v, x in enumerate(wp, 1) if x == offset + 1]
            rest = [v for v, x in enumerate(wp, 1) if x == offset + 2]
            floor = 0
            for i in slots:
                if w[i] != offset + 2:
                    if not minima:
                        raise NotInImage("the two words must share one letter multiset")
                    floor = out[i] = minima.pop()
                    continue
                at = bisect_right(rest, floor)
                if at >= len(rest):
                    raise NotInImage("no unmarked value stays above the running minimum")
                out[i] = rest.pop(at)
        else:
            # right to left, the largest free value below the floor of the slots after it
            slots = [i for i, x in enumerate(w) if x >= offset]
            if level - 1 > len(slots):  # also keeps a huge level from building its floor
                raise NotInImage("too few entries to start the required pattern")
            floor = StaircaseFloor(level - 2)
            inserted = [v for v, x in enumerate(wp, 1) if x == offset]
            for i in reversed(slots):
                if w[i] == offset:
                    at = bisect_left(inserted, floor.value) - 1
                    if at < 0:
                        raise NotInImage("no remaining value starts the required pattern here")
                    out[i] = inserted.pop(at)
                floor.push(out[i])
    return tuple(out)


# ---------------------------------------------------------------------------
# the codec: one call per operation, built from the passes above


def encode(p: Sequence[int], k: int) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The code (w, wp) of p for k >= 3, or None when p holds the length-k staircase.

    Raises MalformedInput unless p is a permutation of 1..n.

    >>> encode((3, 6, 1, 2, 7, 4, 5), 4)
    ((1, 2, 1, 2, 2, 3, 4), (1, 2, 1, 3, 4, 2, 2))
    >>> encode((1, 3, 2, 4), 4) is None
    True
    """
    p = validate_permutation(p)
    if staircase_floor(p, k):
        return None
    return encode_levels(p, k)


def decode(w: Sequence[int], wp: Sequence[int], k: int, low: int) -> tuple[int, ...]:
    """The avoider whose code for k is (w, wp), decoded with the passes for ``low``.

    ``low`` is k, or the k that ``permcodec.kernels`` lowered it to, which
    acts alike on codes of this length. Raises ValueError when the words
    differ in length, MalformedInput when a word has a letter outside the
    alphabet for k, and NotInImage when no avoider has this code: a letter
    from the lowered base level up, a fill that gets stuck, a fill that
    holds the staircase, or one that does not re-encode to (w, wp).

    >>> decode((0, 1, 1, 0, 1), (0, 1, 0, 1, 1), 3, 3)
    (3, 5, 4, 1, 2)
    """
    from permcodec.words import WordFamily  # here, so that a pure count loads no words

    if len(w) != len(wp):
        raise ValueError("the two words must have one length")
    alphabet = WordFamily.for_pattern_length(k).alphabet
    for word in (w, wp):
        if any(x not in alphabet for x in word):
            raise MalformedInput(f"letters outside the alphabet for k={k}: {word}")
    if low < k and max((*w, *wp), default=0) >= 3 * (low // 2 - 1):  # the lowered base level
        raise NotInImage("a letter names a level that no code of this length reaches")
    p = decode_fill(w, wp, low)
    if staircase_floor(p, low):
        raise NotInImage("greedy fill produced a pattern occurrence")
    if encode_levels(p, low) != (tuple(w), tuple(wp)):
        raise NotInImage("re-encoding does not reproduce the pair")
    return p


# ---------------------------------------------------------------------------
# the verify sweep


def verify_shard(q: Sequence[int], k: int, n: int, first: int, cap: int) -> tuple:
    """Encode, fill and check every length-n avoider of q whose first entry is ``first``.

    ``first`` 0 takes every avoider. Each avoider p gets the code of
    ``encode_levels(p, k)``, and counts as a round-trip defect when
    ``decode_fill`` does not give p back, an image defect when a word is
    not in the word family for k, and, for an even k, a first-letter defect
    when a word does not start with 1. Returns (total, counts, examples):
    counts and examples list the round-trip, image and first-letter defects
    in that order, with the first ``cap`` defective avoiders of each.

    >>> verify_shard((1, 3, 2, 4), 4, 4, 1, 10)
    (5, (0, 0, 0), ((), (), ()))
    """
    from permcodec.words import WordFamily, validate_word

    family = WordFamily.for_pattern_length(k)
    check_first = k % 2 == 0 and n >= 1
    total, counts, found = 0, [0, 0, 0], ([], [], [])
    for p in avoiders(q, n, first):
        total += 1
        w, wp = encode_levels(p, k)
        try:
            back = decode_fill(w, wp, k)
        except NotInImage:
            back = None
        defects = (
            back != p,
            not (validate_word(w, family) and validate_word(wp, family)),
            check_first and not (w[0] == 1 and wp[0] == 1),
        )
        for x, bad in enumerate(defects):
            if bad:
                counts[x] += 1
                if len(found[x]) < cap:
                    found[x].append(p)
    return total, tuple(counts), tuple(map(tuple, found))
