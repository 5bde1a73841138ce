"""Codecs between pattern-avoiding permutations and pairs of restricted words.

A permutation avoiding the length-k staircase pattern is encoded as a
CodePair: one letter per entry, read by position (w) and by value (wp).
One pass over the levels k, k-1, ..., 3 letters some of the entries left
by the level above, on their original values (only relative order counts):

  k even      canonical red/blue coloring; red entries (a 132-avoider by
              construction) get offset+1 on their left-to-right minima and
              offset+2 elsewhere; then offset (at first 0) grows by 3.
  k odd >= 5  entries below the (k-2)-staircase floor of the entries after
              them (perms.StaircaseFloor) get letter offset.
  k = 3       right-to-left maxima get offset+1, the rest offset.

Decoding is one greedy pass over the same levels, inside out (3, 4, ..., k),
filling a single output in place: each letter names its level, so each level
reads its positions from w and its values from wp, and no sub-code is
reassembled. At the base level and at each even level, the marked extrema
take their values in decreasing order, and the other slots take the largest
(resp. smallest) value that keeps the marking. At an odd level, right to
left, each offset-lettered slot takes the largest remaining value below the
(level-2)-staircase floor of the filled entries to its right. The greedy
result is trusted only when re-encoding reproduces the input pair exactly;
otherwise the pair is not in the image.

On valid input both words lie in the word family for k and share one letter
multiset; the encoding is injective (verified exhaustively in tests).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from permcodec import kernels
from permcodec.coloring import canonical_coloring
from permcodec.errors import (
    DomainError,
    MalformedInput,
    NotInImage,
    PreconditionViolated,
)
from permcodec.perms import (
    Perm,
    StaircaseFloor,
    format_permutation,
    inverse,
    lr_minima,
    rl_maxima,
    split_by_mask,
    staircase_pattern,
    validate_permutation,
)
from permcodec.words import CodePair, Letters, WordFamily


def _require_avoids(p: Perm, q: Perm) -> None:
    """The floor decides containment; the search only names the first witness."""
    floor = StaircaseFloor(len(q))
    for v in reversed(p):
        floor.push(v)
    if floor.value:
        witness = kernels.first_occurrence(p, q)
        spot = ",".join(str(i) for i in witness)
        raise PreconditionViolated(f"contains {format_permutation(q)} at ({spot})", witness=witness)


def _by_value(p: Perm, w: Letters) -> Letters:
    """Rearrange position-indexed letters into value order."""
    return tuple(w[i - 1] for i in inverse(p))


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


def _encode(p: Perm, k: int) -> CodePair:
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
    w = tuple(letters)
    return CodePair(w, _by_value(p, w))


def encode_avoider(p: Perm, k: int) -> CodePair:
    """Encode a permutation avoiding the length-k staircase pattern.

    Raises MalformedInput unless p is a permutation of 1..n, and
    PreconditionViolated (with a witness) when p contains the pattern.

    >>> pair = encode_avoider((3, 6, 1, 2, 7, 4, 5), 4)
    >>> (pair.w, pair.wp)
    ((1, 2, 1, 2, 2, 3, 4), (1, 2, 1, 3, 4, 2, 2))
    """
    p = validate_permutation(p)
    if k < 3:
        raise DomainError(f"pattern length must be at least 3, got {k}")
    if k <= len(p):  # a longer pattern never occurs
        _require_avoids(p, staircase_pattern(k))
    return _encode(p, k)


# ---------------------------------------------------------------------------
# decoding


def _decode(pair: CodePair, k: int) -> Perm:
    """Greedy inverse of _encode, one level at a time from the base level out.

    Each level fills its own positions of one output list with its own
    values, both read off its letters, so the deeper levels are final when
    an odd level reads them. Only relative order counts, so working on the
    original values makes the same choices as decoding each level on its
    own. The two words must share one letter multiset (decode_avoider checks
    it, and every code from _encode has it): then each level has as many
    positions as values, and as many marked positions as marked values.
    """
    w, wp = pair.w, pair.wp
    out = [0] * len(w)
    for level in sorted({_level(x, k) for x in w}):  # a level without letters fills nothing
        offset = _offset(level, k)
        if level == 3:
            # rl-max greedy: right to left, the marked values rise, and each
            # other slot takes the largest value below the next maximum
            slots = [i for i, x in enumerate(w) if x >= offset]
            if slots and w[slots[-1]] != offset + 1:
                raise NotInImage("last entry must be marked as a maximum")
            maxima = iter([v for v, x in enumerate(wp, 1) if x == offset + 1])
            rest = [v for v, x in enumerate(wp, 1) if x == offset]
            limit = 0
            for i in reversed(slots):
                if w[i] != offset:
                    limit = out[i] = next(maxima)
                    continue
                at = bisect_left(rest, limit) - 1
                if at < 0:
                    raise NotInImage("no unmarked value fits below the next maximum")
                out[i] = rest.pop(at)
        elif level % 2 == 0:
            # lr-min greedy: left to right, the marked values fall, and each
            # other slot takes the smallest value above the latest minimum
            slots = [i for i, x in enumerate(w) if offset < x <= offset + 2]
            if slots and w[slots[0]] != offset + 1:
                raise NotInImage("first entry must be marked as a minimum")
            minima = [v for v, x in enumerate(wp, 1) if x == offset + 1]
            rest = [v for v, x in enumerate(wp, 1) if x == offset + 2]
            floor = 0
            for i in slots:
                if w[i] != offset + 2:
                    floor = out[i] = minima.pop()
                    continue
                at = bisect_right(rest, floor)
                if at >= len(rest):
                    raise NotInImage("no unmarked value stays above the running minimum")
                out[i] = rest.pop(at)
        else:
            # right to left, the largest free value below the floor of the slots after it
            slots = [i for i, x in enumerate(w) if x >= offset]
            if level - 1 > len(slots):
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


def decode_avoider(pair: CodePair, k: int) -> Perm:
    """Invert encode_avoider; raises NotInImage when no avoider has this code.

    >>> decode_avoider(CodePair((0, 1, 1, 0, 1), (0, 1, 0, 1, 1)), 3)
    (3, 5, 4, 1, 2)
    """
    alphabet = WordFamily.for_pattern_length(k).alphabet
    for word in (pair.w, pair.wp):
        if any(x not in alphabet for x in word):
            raise MalformedInput(f"letters outside the alphabet for k={k}: {word}")
    if sorted(pair.w) != sorted(pair.wp):
        raise NotInImage("the two words must share one letter multiset")
    p = _decode(pair, k)
    try:
        again = encode_avoider(p, k)
    except PreconditionViolated as exc:
        raise NotInImage("greedy fill produced a pattern occurrence") from exc
    if again != pair:
        raise NotInImage("re-encoding does not reproduce the pair")
    return p
