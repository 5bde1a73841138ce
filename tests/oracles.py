"""Independent brute-force oracles used to pin library results.

Everything here is deliberately naive and stdlib-only: no imports from the
package under test, no pruning, no shared helpers. Slow is fine; these only
run at desk scale.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb
from pathlib import Path


def rank_pattern(values):
    """The relative-order pattern of distinct values, as a tuple over 1..k."""
    ordered = sorted(values)
    return tuple(ordered.index(v) + 1 for v in values)


def brute_occurrences(p, q):
    """All 1-based index tuples where q occurs in p, in lexicographic order."""
    k = len(q)
    return [
        tuple(i + 1 for i in spots)
        for spots in combinations(range(len(p)), k)
        if rank_pattern([p[i] for i in spots]) == tuple(q)
    ]


def brute_contains(p, q):
    return bool(brute_occurrences(p, q)) if len(q) else True


def brute_avoiders(q, n):
    """All q-avoiding permutations of 1..n, in lexicographic order."""
    return [
        p for p in permutations(range(1, n + 1)) if not brute_contains(p, q)
    ]


def catalan(n):
    """C_n by the convolution recurrence C_{n+1} = sum C_i C_{n-i}."""
    c = [1]
    while len(c) <= n:
        c.append(sum(c[i] * c[len(c) - 1 - i] for i in range(len(c))))
    return c[n]


#: OEIS A061552, permutations of length n avoiding 1324, n = 0..13
A061552 = (1, 1, 2, 6, 23, 103, 513, 2762, 15793, 94776, 591950, 3824112, 25431452, 173453058)


def gessel_1234(n):
    """Number of length-n permutations avoiding 1234 (Gessel's formula)."""
    total = sum(
        Fraction(2 * comb(2 * k, k) * comb(n, k) ** 2 * (3 * k * k + 2 * k + 1 - n - 2 * n * k),
                 (k + 1) ** 2 * (k + 2) * (n - k + 1))
        for k in range(n + 1)
    )
    if total.denominator != 1:
        raise ArithmeticError(f"Gessel's sum is not an integer at n={n}")
    return int(total)


def symmetries(q):
    """The eight images of q under reverse, complement and inverse."""
    k = len(q)
    images = []
    for p in (tuple(q), tuple(sorted(range(1, k + 1), key=lambda v: q[v - 1]))):  # q, inverse
        for r in (p, p[::-1]):
            images += [r, tuple(k + 1 - v for v in r)]
    return images


def product_count_words(alphabet, forbidden, n):
    """Count words by literal enumeration of the whole product space."""
    forbidden = set(forbidden)
    return sum(
        1
        for word in product(alphabet, repeat=n)
        if all(pair not in forbidden for pair in zip(word, word[1:]))
    )


def transfer_count_words(alphabet, forbidden, n):
    """Count words by a transfer DP over the last letter."""
    if n == 0:
        return 1
    forbidden = set(forbidden)
    state = {letter: 1 for letter in alphabet}
    for _ in range(n - 1):
        state = {
            b: sum(c for a, c in state.items() if (a, b) not in forbidden)
            for b in alphabet
        }
    return sum(state.values())


def merge_pair(mask, p, pair_a, pair_b):
    """Interleave two codes along a mask: marked entries take pair_a's letters.

    The r-th marked position takes pair_a.w[r] and the r-th smallest marked
    value takes pair_a.wp[r]; the unmarked entries read pair_b the same way.
    The result has pair_a's type, built from (w, wp).
    """
    position_letters = {True: iter(pair_a.w), False: iter(pair_b.w)}
    w = tuple(next(position_letters[bool(hit)]) for hit in mask)
    marked = {v for v, hit in zip(p, mask) if hit}
    value_letters = {True: iter(pair_a.wp), False: iter(pair_b.wp)}
    wp = tuple(next(value_letters[v in marked]) for v in range(1, len(p) + 1))
    return type(pair_a)(w, wp)


def coloring_132(p):
    """The red/blue mask (True = red), straight from the two coloring rules.

    An entry is blue when it is larger than an earlier blue entry, or when
    coloring it red would complete a red 132; otherwise it is red.
    """
    mask = []
    for i, v in enumerate(p):
        blue = any(p[j] < v for j in range(i) if not mask[j])
        reds = tuple(p[j] for j in range(i) if mask[j])
        mask.append(not (blue or brute_contains(reds + (v,), (1, 3, 2))))
    return tuple(mask)


def span_scan_coloring(p):
    """The red/blue mask (True = red) by a scan of every open span.

    A red entry above the least earlier red opens the span (that least red,
    it); an entry inside any open span, or above an earlier blue entry, is
    blue. O(n) per entry: the identity keeps n - 1 spans open.
    """
    mask = []
    spans = []
    least_red = min_blue = float("inf")
    for v in p:
        if v > min_blue or any(x < v < y for x, y in spans):
            mask.append(False)
            min_blue = min(min_blue, v)
            continue
        mask.append(True)
        if v < least_red:
            least_red = v
        else:
            spans.append((least_red, v))
    return tuple(mask)


def encode_length4(p):
    """The code (w, wp) of a 1324-avoider in one pass over its coloring.

    Letters: a red left-to-right minimum of the reds 1, another red 2, a
    blue right-to-left maximum of the blues 4, another blue 3; w reads them
    by position and wp by value.
    """
    mask = coloring_132(p)
    red = [v for v, hit in zip(p, mask) if hit]
    blue = [v for v, hit in zip(p, mask) if not hit]
    letter = {}
    for i, v in enumerate(red):
        letter[v] = 1 if all(u > v for u in red[:i]) else 2
    for i, v in enumerate(blue):
        letter[v] = 4 if all(u < v for u in blue[i + 1:]) else 3
    w = tuple(letter[v] for v in p)
    wp = tuple(letter[v] for v in range(1, len(p) + 1))
    return w, wp


def staircase(k):
    """The length-k staircase 1 32 54 ... (even k) or 21 43 ... (odd k), ending in its maximum."""
    layers = [(1,)] if k % 2 == 0 else []
    while sum(map(len, layers)) < k - 1:
        top = sum(map(len, layers))
        layers.append((top + 2, top + 1))
    return tuple(v for layer in layers for v in layer) + (k,)


def ends_an_occurrence(p, q, e):
    """Whether q occurs in p with its last entry at index e (backtracking, right to left)."""
    k = len(q)
    chosen = [None] * k

    def place(slot, stop):
        if slot < 0:
            return True
        for i in range(stop - 1, slot - 1, -1):  # slots 0..slot-1 need the i entries left of i
            chosen[slot] = p[i]
            # the new entry must sit in q's order against every entry placed after it
            if all((q[slot] < q[t]) == (p[i] < chosen[t]) for t in range(slot + 1, k)):
                if place(slot - 1, i):
                    return True
        return False

    chosen[k - 1] = p[e]
    return place(k - 2, e)


def search_avoiders(q, n, first=0):
    """The length-n avoiders of q in lexicographic order (``first``, unless 0, fixes the first
    entry): a prefix DFS that drops a prefix as soon as q occurs ending at its last entry."""
    found = []

    def extend(prefix):
        if len(prefix) == n:
            found.append(tuple(prefix))
            return
        for v in [first] if first and not prefix else range(1, n + 1):
            if v not in prefix:
                prefix.append(v)
                if len(prefix) < len(q) or not ends_an_occurrence(prefix, q, len(prefix) - 1):
                    extend(prefix)
                prefix.pop()

    if q:  # the empty pattern occurs in every permutation
        extend([])
    return found


def random_staircase_avoider(rng, k, n):
    """A length-n avoider of the length-k staircase, by inserting 1..n in turn.

    The staircase ends in its maximum, so only the entry inserted last can
    complete it, and only if the entries left of it hold the staircase
    without its top. Each new maximum goes to a random index no further
    right than the first entry that completes that shorter pattern.
    """
    head = staircase(k)[:-1]
    p = []
    for v in range(1, n + 1):
        bound = next((e for e in range(len(p)) if ends_an_occurrence(p, head, e)), len(p))
        p.insert(rng.randint(0, bound), v)
    return tuple(p)


def layered(n, size):
    """1..n in decreasing runs of ``size`` entries, each run above the one before it:
    layered(6, 2) is 2,1,4,3,6,5."""
    return tuple(v for top in range(0, n, size) for v in range(min(top + size, n), top, -1))


def skew_sum_avoider(rng, k, n, block=20):
    """A length-n avoider of the length-k staircase: random avoiders of at most ``block``
    entries, each left of and above the next. The staircase ends in its maximum, so an
    occurrence cannot leave the block that holds its last entry."""
    p = []
    while len(p) < n:
        m = min(n - len(p), rng.randint(1, block))
        p = [v + m for v in p] + list(random_staircase_avoider(rng, k, m))
    return tuple(p)


def load_cache_entries(path):
    """The count cache's records, by the reader it had before it indexed bytes.

    One ``json.loads`` per line of the text ``str.splitlines`` gives; the
    last valid record for a key wins, and each malformed line is skipped
    with the same warning on stderr. A number past the float range (1e400,
    whose ``int`` raises ``OverflowError``) and brackets nested past the
    parser's recursion limit (``RecursionError``) make a line malformed
    too. A file that is not UTF-8 raises ``UnicodeDecodeError``.
    """
    path = Path(path)
    entries = {}
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return entries
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            key = (str(record["pattern"]), int(record["n"]))
            value = int(record["count"])
        except (ValueError, TypeError, KeyError, OverflowError, RecursionError):
            print(f"permcodec: {path}:{lineno}: skipping malformed cache line", file=sys.stderr)
            continue
        entries[key] = value
    return entries
