"""Oracles for the benchmark that share no code with permcodec.

Everything here is stdlib-only and written from the definitions: published
sequence terms, closed formulas, naive subsequence checks and the word-family
rules. A benchmark operation counts as failed when its output disagrees with
these, so a faster program that gives a wrong answer is never a win.
"""

from __future__ import annotations

from itertools import combinations, permutations
from fractions import Fraction
from math import comb

#: OEIS A061552, permutations of length n avoiding 1324, n = 0..10.
A061552 = (1, 1, 2, 6, 23, 103, 513, 2762, 15793, 94776, 591950)


def staircase(k: int) -> tuple[int, ...]:
    """The length-k staircase: 1 32 54 .. k for even k, 21 43 .. k for odd k."""
    if k % 2 == 0:
        pattern = [1]
        for j in range(1, k // 2):
            pattern += [2 * j + 1, 2 * j]
    else:
        pattern = []
        for j in range(1, (k + 1) // 2):
            pattern += [2 * j, 2 * j - 1]
    return tuple(pattern + [k])


def gessel_1234(n: int) -> int:
    """Number of length-n permutations avoiding 1234 (Gessel's formula)."""
    total = sum(
        Fraction(2 * comb(2 * k, k) * comb(n, k) ** 2 * (3 * k * k + 2 * k + 1 - n - 2 * n * k),
                 (k + 1) ** 2 * (k + 2) * (n - k + 1))
        for k in range(n + 1)
    )
    if total.denominator != 1:
        raise ArithmeticError(f"Gessel's sum is not an integer at n={n}")
    return int(total)


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def _pattern_of(values) -> tuple[int, ...]:
    ordered = sorted(values)
    return tuple(ordered.index(v) + 1 for v in values)


def naive_contains(p, q) -> bool:
    """Whether q occurs in p, by checking every index subset."""
    q = tuple(q)
    return any(_pattern_of([p[i] for i in spots]) == q
               for spots in combinations(range(len(p)), len(q)))


def naive_avoider_count(q, n: int) -> int:
    """Count the q-avoiders of length n over all n! permutations."""
    return sum(1 for p in permutations(range(1, n + 1)) if not naive_contains(p, q))


def family_alphabet(k: int) -> range:
    """Letters of the word family that codes avoiders of the length-k staircase."""
    m = (k + 1) // 2
    return range(0, 3 * m - 4) if k % 2 else range(1, 3 * m - 1)


def valid_code(w, wp, k: int) -> bool:
    """Both words use the family's letters, share one multiset, and never
    contain a forbidden factor (3i)(3i-1)."""
    alphabet = family_alphabet(k)
    if len(w) != len(wp) or sorted(w) != sorted(wp):
        return False
    for word in (w, wp):
        if any(x not in alphabet for x in word):
            return False
        if any(a % 3 == 0 and a > 0 and b == a - 1 for a, b in zip(word, word[1:])):
            return False
    return True
