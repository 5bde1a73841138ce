"""Codecs between pattern-avoiding permutations and pairs of restricted words.

A permutation avoiding the length-k staircase pattern is encoded as a
CodePair: one letter per entry, read by position (w) and by value (wp).
One pass over the levels k, k-1, ..., 3 letters some of the entries left
by the level above, on their original values (only relative order counts):

  k even      canonical red/blue coloring; red entries (a 132-avoider by
              construction) get offset+1 on their left-to-right minima and
              offset+2 elsewhere; then offset (at first 0) grows by 3.
  k odd >= 5  entries that start an occurrence of the (k-1)-staircase get
              letter offset.
  k = 3       right-to-left maxima get offset+1, the rest offset.

Decoding inverts each stage greedily: marked extrema are filled in decreasing
order and the remaining slots take the largest (resp. smallest) value that
does not disturb the marking; 0-marked values are reinserted right to left,
each slot taking the largest value that still starts an occurrence of the
(k-1)-staircase there. The greedy result is trusted only when re-encoding
reproduces the input pair exactly; otherwise the pair is not in the image.

On valid input both words lie in the word family for k and share one letter
multiset; the encoding is injective (verified exhaustively in tests).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from permcodec import kernels
from permcodec.coloring import ColoringParams, canonical_coloring, occurrence_start_mask
from permcodec.errors import (
    AlphabetOverlap,
    DomainError,
    LengthMismatch,
    MalformedInput,
    NotInImage,
    PreconditionViolated,
)
from permcodec.perms import (
    LR_MIN,
    RL_MAX,
    Perm,
    extremal_mask,
    first_occurrence,
    format_permutation,
    inverse,
    split_by_mask,
    staircase_pattern,
)
from permcodec.words import CodePair, Letters, WordFamily

#: letter assignment per extremal variant: (forbidden pattern, marked, unmarked)
_EXTREMAL_VARIANTS = {
    RL_MAX: ((2, 1, 3), 1, 0),
    LR_MIN: ((1, 3, 2), 1, 2),
}


def _require_avoids(p: Perm, q: Perm) -> None:
    witness = first_occurrence(p, q)
    if witness is not None:
        spot = ",".join(str(i) for i in witness)
        raise PreconditionViolated(
            f"contains {format_permutation(q)} at ({spot})", pattern=q, witness=witness
        )


def _by_value(p: Perm, w: Letters) -> Letters:
    """Rearrange position-indexed letters into value order."""
    return tuple(w[i - 1] for i in inverse(p))


def encode_extremal(p: Perm, variant: str) -> CodePair:
    """Code a 213-avoider by its rl-maxima or a 132-avoider by its lr-minima.

    >>> pair = encode_extremal((3, 5, 4, 1, 2), "rl-max")
    >>> (pair.w, pair.wp)
    ((0, 1, 1, 0, 1), (0, 1, 0, 1, 1))
    """
    if variant not in _EXTREMAL_VARIANTS:
        raise DomainError(f"unknown extremal variant: {variant!r}")
    forbidden, marked, unmarked = _EXTREMAL_VARIANTS[variant]
    _require_avoids(p, forbidden)
    mask = extremal_mask(p, variant)
    w = tuple(marked if hit else unmarked for hit in mask)
    return CodePair(w, _by_value(p, w))


def merge_pair(mask, p: Perm, pair_a: CodePair, pair_b: CodePair) -> CodePair:
    """Interleave two codes along a mask (True entries take pair_a).

    The position word takes pair_a's r-th letter at the r-th True position;
    the value word takes pair_a's value letters at the masked values, in value
    order. The two pairs may not share letters.
    """
    if pair_a.letters & pair_b.letters:
        raise AlphabetOverlap(
            f"merge inputs share letters {sorted(pair_a.letters & pair_b.letters)}"
        )
    n = len(p)
    count_a = sum(1 for hit in mask if hit)
    if len(mask) != n or len(pair_a) != count_a or len(pair_b) != n - count_a:
        raise LengthMismatch(
            f"mask/word sizes do not fit a length-{n} permutation: "
            f"{count_a} marked, |a|={len(pair_a)}, |b|={len(pair_b)}"
        )
    w = []
    next_a = next_b = 0
    for hit in mask:
        if hit:
            w.append(pair_a.w[next_a])
            next_a += 1
        else:
            w.append(pair_b.w[next_b])
            next_b += 1
    wp = [0] * n
    values_a = sorted(v for v, hit in zip(p, mask) if hit)
    values_b = sorted(v for v, hit in zip(p, mask) if not hit)
    for t, v in enumerate(values_a):
        wp[v - 1] = pair_a.wp[t]
    for t, v in enumerate(values_b):
        wp[v - 1] = pair_b.wp[t]
    return CodePair(tuple(w), tuple(wp))


def _even_params(k: int) -> ColoringParams:
    tail = staircase_pattern(k - 3) if k >= 6 else (1,)
    return ColoringParams((1,), (1,), tail)


def _encode(p: Perm, k: int) -> CodePair:
    letters = [0] * len(p)
    rest: tuple[int, ...] = tuple(range(len(p)))  # positions not lettered yet
    offset = 0
    for level in range(k, 3, -1):
        values = [p[i] for i in rest]
        if level % 2:
            mask = occurrence_start_mask(values, staircase_pattern(level - 1))
            starts, rest = split_by_mask(rest, mask)
            for i in starts:
                letters[i] = offset
            continue
        red, rest = split_by_mask(rest, canonical_coloring(values, _even_params(level)))
        for i, is_min in zip(red, extremal_mask([p[i] for i in red], LR_MIN)):
            letters[i] = offset + 1 if is_min else offset + 2
        offset += 3
    for i, is_max in zip(rest, extremal_mask([p[i] for i in rest], RL_MAX)):
        letters[i] = offset + 1 if is_max else offset
    w = tuple(letters)
    return CodePair(w, _by_value(p, w))


def encode_avoider(p: Perm, k: int) -> CodePair:
    """Encode a permutation avoiding the length-k staircase pattern.

    Raises PreconditionViolated (with a witness) when p contains the pattern.

    >>> pair = encode_avoider((3, 6, 1, 2, 7, 4, 5), 4)
    >>> (pair.w, pair.wp)
    ((1, 2, 1, 2, 2, 3, 4), (1, 2, 1, 3, 4, 2, 2))
    """
    if k < 3:
        raise DomainError(f"pattern length must be at least 3, got {k}")
    _require_avoids(p, staircase_pattern(k))
    return _encode(p, k)


def encode_length4_direct(p: Perm) -> CodePair:
    """Single-pass form of the k=4 encoder, kept as an independent cross-check.

    Letters: red left-to-right minimum 1, other red 2, blue non-maximum 3,
    blue right-to-left maximum of the blue subsequence 4.
    """
    _require_avoids(p, staircase_pattern(4))
    mask = canonical_coloring(p, ColoringParams((1,), (1,), (1,)))
    red, blue = split_by_mask(p, mask)
    red_min = dict(zip(red, extremal_mask(red, LR_MIN)))
    blue_max = dict(zip(blue, extremal_mask(blue, RL_MAX)))
    letters = {}
    for v, is_red in zip(p, mask):
        if is_red:
            letters[v] = 1 if red_min[v] else 2
        else:
            letters[v] = 4 if blue_max[v] else 3
    w = tuple(letters[v] for v in p)
    return CodePair(w, _by_value(p, w))


# ---------------------------------------------------------------------------
# decoding


def _decode_rl_max(w: Letters, wp: Letters) -> Perm:
    """Rebuild a 213-avoider from its rl-maxima marking (letters {0,1})."""
    n = len(w)
    if n == 0:
        return ()
    if w[-1] != 1:
        raise NotInImage("last entry must be marked as a maximum")
    max_pos = [i for i, x in enumerate(w) if x == 1]
    max_val = sorted((j + 1 for j, x in enumerate(wp) if x == 1), reverse=True)
    if len(max_pos) != len(max_val):
        raise NotInImage("marked positions and marked values disagree in number")
    out: list[int] = [0] * n
    limit_right = [0] * n  # value of the nearest marked maximum to the right
    for pos, val in zip(max_pos, max_val):
        out[pos] = val
    current = 0
    for i in range(n - 1, -1, -1):
        limit_right[i] = current
        if out[i]:
            current = out[i]
    rest = sorted(v for v in range(1, n + 1) if v not in set(max_val))
    for i in range(n - 1, -1, -1):
        if out[i]:
            continue
        at = bisect_left(rest, limit_right[i]) - 1
        if at < 0:
            raise NotInImage("no unmarked value fits below the next maximum")
        out[i] = rest.pop(at)
    return tuple(out)


def _decode_lr_min(w: Letters, wp: Letters) -> Perm:
    """Rebuild a 132-avoider from its lr-minima marking (letters {1,2})."""
    n = len(w)
    if n == 0:
        return ()
    if w[0] != 1:
        raise NotInImage("first entry must be marked as a minimum")
    min_pos = [i for i, x in enumerate(w) if x == 1]
    min_val = sorted((j + 1 for j, x in enumerate(wp) if x == 1), reverse=True)
    if len(min_pos) != len(min_val):
        raise NotInImage("marked positions and marked values disagree in number")
    out: list[int] = [0] * n
    for pos, val in zip(min_pos, min_val):
        out[pos] = val
    rest = sorted(v for v in range(1, n + 1) if v not in set(min_val))
    floor = 0  # value of the most recent marked minimum
    for i in range(n):
        if out[i]:
            floor = out[i]
            continue
        at = bisect_right(rest, floor)
        if at >= len(rest):
            raise NotInImage("no unmarked value stays above the running minimum")
        out[i] = rest.pop(at)
    return tuple(out)


def _assemble(n: int, mask: list[bool], values_first: list[int],
              pattern_first: Perm, pattern_second: Perm) -> Perm:
    """Place two patterns over their value sets along a position mask."""
    values_second = sorted(set(range(1, n + 1)) - set(values_first))
    values_first = sorted(values_first)
    first = [values_first[r - 1] for r in pattern_first]
    second = [values_second[r - 1] for r in pattern_second]
    out = []
    i = j = 0
    for hit in mask:
        if hit:
            out.append(first[i])
            i += 1
        else:
            out.append(second[j])
            j += 1
    return tuple(out)


def _decode(pair: CodePair, k: int) -> Perm:
    w, wp = pair.w, pair.wp
    if k == 3:
        return _decode_rl_max(w, wp)
    n = len(pair)
    if k % 2 == 0:
        red_mask = [x <= 2 for x in w]
        red_values = [j + 1 for j, x in enumerate(wp) if x <= 2]
        sub_w = tuple(x for x in w if x <= 2)
        sub_wp = tuple(x for x in wp if x <= 2)
        if len(sub_w) != len(sub_wp):
            raise NotInImage("red letters disagree in number between the words")
        red_pattern = _decode_lr_min(sub_w, sub_wp)
        blue = CodePair(
            tuple(x - 3 for x in w if x >= 3),
            tuple(x - 3 for x in wp if x >= 3),
        )
        blue_pattern = _decode(blue, k - 1)
        return _assemble(n, red_mask, red_values, red_pattern, blue_pattern)

    # odd k >= 5: zeros mark values inserted greedily after the rest decodes
    marker = staircase_pattern(k - 1)
    plain_mask = [x > 0 for x in w]
    plain_values = [j + 1 for j, x in enumerate(wp) if x > 0]
    sub = CodePair(
        tuple(x for x in w if x > 0),
        tuple(x for x in wp if x > 0),
    )
    plain_pattern = _decode(sub, k - 1)
    if len(plain_pattern) != len(plain_values):
        raise NotInImage("zero letters disagree in number between the words")
    plain_sorted = sorted(plain_values)
    placed: list[int | None] = [None] * n
    at = 0
    for i, keep in enumerate(plain_mask):
        if keep:
            placed[i] = plain_sorted[plain_pattern[at] - 1]
            at += 1
    inserted = sorted(set(range(1, n + 1)) - set(plain_values))
    for i in range(n - 1, -1, -1):
        if plain_mask[i]:
            continue
        suffix = tuple(v for v in placed[i + 1:] if v is not None)
        choice = None
        for v in reversed(inserted):
            if kernels.has_occurrence_starting_at((v, *suffix), marker, 0):
                choice = v
                break
        if choice is None:
            raise NotInImage("no remaining value starts the required pattern here")
        inserted.remove(choice)
        placed[i] = choice
    return tuple(v for v in placed if v is not None)


def decode_avoider(pair: CodePair, k: int) -> Perm:
    """Invert encode_avoider; raises NotInImage when no avoider has this code.

    >>> decode_avoider(CodePair((0, 1, 1, 0, 1), (0, 1, 0, 1, 1)), 3)
    (3, 5, 4, 1, 2)
    """
    if k < 3:
        raise DomainError(f"pattern length must be at least 3, got {k}")
    family = WordFamily.for_pattern_length(k)
    alphabet = family.alphabet
    for word in (pair.w, pair.wp):
        if any(x not in alphabet for x in word):
            raise MalformedInput(
                f"letters outside the {family.describe()} alphabet: {word}"
            )
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
