"""Permutations in one-line notation, the word text they share with codes,
and the structural operations on them.

A permutation of length n is a tuple containing each of 1..n exactly once.
Its text form is word text, whose grammar (``parse_word``, ``format_word``)
lives here, since every command reads or prints a permutation and
``permcodec.words`` re-exports it for the codes: compact digits when every
letter is at most 9 ("35412") and comma-separated letters otherwise
("10,1,2,3,4,5,6,7,8,9"), with an optional trailing comma; both forms are
accepted on input.

Occurrences are witnessed by 1-based index tuples: q occurs in p at indices
i_1 < ... < i_k when (p[i_1], ..., p[i_k]) is order-isomorphic to q.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from permcodec.errors import DomainError, MalformedInput

Perm = tuple[int, ...]


def parse_word(text: str) -> tuple[int, ...]:
    """Parse word text (compact digits or comma-separated non-negative letters)."""
    text = text.strip()
    if not text:
        return ()
    try:
        if "," in text:
            tokens = text.split(",")
            if tokens[-1] == "":  # "10," disambiguates a single letter >= 10
                tokens.pop()
            letters = tuple(int(tok) for tok in tokens)
        else:
            letters = tuple(int(ch) for ch in text)
    except ValueError as exc:
        raise MalformedInput(f"unreadable word text: {text!r}") from exc
    if any(x < 0 for x in letters):
        raise MalformedInput(f"negative letters in word text: {text!r}")
    return letters


def format_word(word: Sequence[int]) -> str:
    """Inverse of parse_word: compact digits when all letters are at most 9.

    A one-letter word with a multi-digit letter keeps a trailing comma so the
    comma form stays distinguishable from compact digits.
    """
    if all(x <= 9 for x in word):
        return "".join(str(x) for x in word)
    if len(word) == 1:
        return f"{word[0]},"
    return ",".join(str(x) for x in word)


def validate_permutation(values: Iterable[int]) -> Perm:
    """Return ``values`` as a permutation tuple, or raise MalformedInput.

    >>> validate_permutation([3, 1, 2])
    (3, 1, 2)
    """
    p = tuple(values)
    n = len(p)
    if sorted(p) != list(range(1, n + 1)):
        raise MalformedInput(f"not a permutation of 1..{n}: {p!r}")
    return p


def parse_permutation(text: str) -> Perm:
    """Parse permutation text: the word text grammar of ``parse_word``.

    >>> parse_permutation("35412")
    (3, 5, 4, 1, 2)
    >>> parse_permutation("10,1,2,3,4,5,6,7,8,9")[0]
    10
    """
    return validate_permutation(parse_word(text))


def format_permutation(p: Sequence[int]) -> str:
    """Inverse of parse_permutation: compact digits when n <= 9.

    >>> format_permutation((3, 5, 4, 1, 2))
    '35412'
    """
    return format_word(p)


def inverse(p: Perm) -> Perm:
    """The inverse permutation: position of each value.

    >>> inverse((3, 1, 2))
    (2, 3, 1)
    """
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def reverse(p: Perm) -> Perm:
    return p[::-1]


def complement(p: Perm) -> Perm:
    n = len(p)
    return tuple(n + 1 - v for v in p)


def avoids(p: Perm, q: Perm) -> bool:
    """True iff q does not occur in p.

    >>> avoids((3, 5, 4, 1, 2), (2, 1, 3))
    True
    >>> avoids((3, 6, 1, 2, 7, 4, 5), (1, 3, 2, 4))
    True
    """
    from permcodec import kernels  # the kernels' pure twins build on this module

    return kernels.first_occurrence(p, q) is None


def staircase_pattern(k: int) -> Perm:
    """The length-k pattern 1 32 54 ... (even) / 21 43 ... (odd) used by the codec.

    Layer structure: singleton, then descending pairs, capped by the maximum
    (odd lengths drop the leading singleton).

    >>> [format_permutation(staircase_pattern(k)) for k in (3, 4, 5, 6)]
    ['213', '1324', '21435', '132546']
    """
    if k < 3:
        raise DomainError(f"staircase patterns start at length 3, got {k}")
    m = (k + 1) // 2  # number of entries before the final maximum, paired up
    even = [1]
    for j in range(1, m):
        even.extend((2 * j + 1, 2 * j))
    even.append(2 * m)
    if k % 2 == 0:
        return tuple(even)
    return tuple(v - 1 for v in even[1:])  # even[1:] holds 2..2m


class StaircaseFloor:
    """The floor of the length-k staircase over entries pushed right to left.

    ``value`` is the largest least entry of any occurrence of
    ``staircase_pattern(k)`` among the pushed entries, or 0 when there is
    none. Entries are distinct positive integers.

    The staircase is layered (1324 = 1+21+1, 21435 = 21+21+1): each layer is
    a descending run left of and below the next. A new entry x opens layer j
    when it lies below the floor of layers j+1.. after it; a pair layer also
    needs some b < x after x with x below the floor of the layers after b.
    Floors only grow, so the scan over those b stops at a floor at or below x.

    >>> floor = StaircaseFloor(3)
    >>> for v in reversed((5, 2, 1, 4, 3, 6, 7)):
    ...     floor.push(v)
    >>> floor.value  # from the occurrence 5,4,6
    4
    """

    def __init__(self, k: int) -> None:
        if k < 3:
            raise DomainError(f"staircase patterns start at length 3, got {k}")
        layers = k // 2 + 1
        first_pair = 1 - k % 2  # an even k opens with a singleton layer
        self._floors = [0] * layers + [math.inf]  # any entry may open the top layer
        # per pair layer, (b, floor of the layers after b); None for a singleton
        self._tails = [[] if first_pair <= j < layers - 1 else None for j in range(layers)]

    @property
    def value(self) -> int:
        return self._floors[0]

    def push(self, x: int) -> None:
        """Add x to the left of every entry pushed so far."""
        floors = self._floors
        for j, tails in enumerate(self._tails):
            fits = x < floors[j + 1]  # x may open layer j
            if tails is not None:
                best = floors[j]
                for b, above in reversed(tails):
                    if above <= x:
                        break
                    if best < b < x:
                        best = b
                floors[j] = best
                if fits:
                    tails.append((x, floors[j + 1]))
            elif fits and x > floors[j]:
                floors[j] = x


def rl_maxima(p: Sequence[int]) -> tuple[bool, ...]:
    """Mark the right-to-left maxima.

    >>> rl_maxima((3, 5, 4, 1, 2))
    (False, True, True, False, True)
    """
    mask = [False] * len(p)
    best = None  # works for any distinct integers, not just 1..n
    for i in range(len(p) - 1, -1, -1):
        if best is None or p[i] > best:
            best = p[i]
            mask[i] = True
    return tuple(mask)


def lr_minima(p: Sequence[int]) -> tuple[bool, ...]:
    """Mark the left-to-right minima.

    >>> lr_minima((3, 6, 1, 2, 7))
    (True, False, True, False, False)
    """
    mask = [False] * len(p)
    best = None  # works for any distinct integers, not just 1..n
    for i in range(len(p)):
        if best is None or p[i] < best:
            best = p[i]
            mask[i] = True
    return tuple(mask)


def split_by_mask(p: Sequence[int], mask: Sequence[bool]) -> tuple[Perm, Perm]:
    """Subsequences of marked and unmarked entries, in position order."""
    # lists first: tuple() resizes a generator's guessed length, which moves tuples
    # between CPython's per-size free lists and grows a long codec loop by megabytes
    marked = tuple([v for v, m in zip(p, mask) if m])
    unmarked = tuple([v for v, m in zip(p, mask) if not m])
    return marked, unmarked


def is_layered(q: Perm) -> bool:
    """True iff q is a sequence of descending runs with ascending values.

    Equivalently, q avoids both 231 and 312.

    >>> is_layered((3, 2, 1, 5, 4, 7, 6))
    True
    >>> is_layered((2, 3, 1))
    False
    """
    # each entry goes on down its layer, or starts one where q[:i] holds 1..i
    top = 0  # the largest entry before position i
    for i, v in enumerate(q):
        if top != i and v != q[i - 1] - 1:
            return False
        top = max(top, v)
    return True


def symmetry_orbit(q: Perm) -> frozenset[Perm]:
    """Closure of q under reverse, complement and inverse (at most 8 patterns)."""
    orbit = {q}
    frontier = [q]
    while frontier:
        s = frontier.pop()
        for image in (reverse(s), complement(s), inverse(s)):
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return frozenset(orbit)


def symmetry_class(q: Perm) -> Perm:
    """Lexicographically least member of q's symmetry orbit.

    >>> format_permutation(symmetry_class((2, 1, 3)))
    '132'
    >>> format_permutation(symmetry_class((1, 3, 2, 4)))
    '1324'
    """
    return min(symmetry_orbit(q))
