"""Exact word counts, closed forms, and the avoider/word-count bound tables.

Counts are exact integers from the two-term recurrence

    c_0 = 1,  c_1 = A,  c_n = A*c_{n-1} - B*c_{n-2}

where A is the family's alphabet size and B its number of forbidden factors:
appending any letter to a valid word stays valid except when the last two
letters become a forbidden factor, and a valid word ending in the first
letter of a factor corresponds freely to a valid word two shorter.

The closed form evaluates C1*r1^n + C2*r2^n with r1, r2 the roots of
x^2 - A*x + B and C1 = r1/(r1-r2), C2 = r2/(r2-r1); floats are used only
here, never in the bound comparisons.

A bound row relates three exact quantities for avoiders of the length-k
staircase pattern: the avoider count S_n, the squared count of words of
length n-1 in the family for k, and the cap (9k^2/4)^n. Flags are computed
with integer arithmetic (the cap comparison is 4^n * S_n <= (9k^2)^n); the
word bound for odd k is an empirical check, reported rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from permcodec.errors import DomainError, MissingCount
from permcodec.words import WordFamily


def word_counts(family: WordFamily, n: int) -> list[int]:
    """Exact counts of the family's words of every length 0..n."""
    if n < 0:
        raise DomainError(f"word length must be non-negative, got {n}")
    a, b = family.recurrence
    counts = [1, a]
    while len(counts) <= n:
        counts.append(a * counts[-1] - b * counts[-2])
    return counts[: n + 1]


def count_words(family: WordFamily, n: int) -> int:
    """Number of length-n words in the family (exact)."""
    return word_counts(family, n)[n]


@dataclass(frozen=True)
class ClosedForm:
    root1: float
    root2: float
    coef1: float
    coef2: float

    def value(self, n: int) -> float:
        return self.coef1 * self.root1**n + self.coef2 * self.root2**n


def closed_form(family: WordFamily) -> ClosedForm:
    """Float closed form of the family's count sequence.

    The discriminant A^2 - 4B is positive for every family (9m^2-16m+8 on the
    even side, 9m^2-28m+24 on the odd side), so the roots are always real and
    distinct; the odd m=2 family degenerates to roots (2, 0) and counts 2^n.
    """
    a, b = family.recurrence
    s = math.sqrt(a * a - 4 * b)
    r1 = (a + s) / 2
    r2 = (a - s) / 2
    return ClosedForm(r1, r2, r1 / (r1 - r2), r2 / (r2 - r1))


@dataclass(frozen=True)
class BoundRecord:
    k: int
    n: int
    exact_count: int
    word_bound: int | None  # squared word count at length n-1; None at n=0
    cap: Fraction  # (9k^2/4)^n, exact
    ok_word: bool
    ok_cap: bool


def bound_table(k: int, n_max: int, counts: Mapping[int, int]) -> list[BoundRecord]:
    """Bound rows for n = 0..n_max; ``counts`` maps n to the exact avoider count."""
    if k < 3:
        raise DomainError(f"pattern length must be at least 3, got {k}")
    if n_max < 0:
        raise DomainError(f"the last row must be non-negative, got n_max={n_max}")
    # rows 0..len(counts) cannot all have a count, so a missing one stops the loop by then
    words = word_counts(WordFamily.for_pattern_length(k), min(n_max, len(counts)))
    cap_num = 9 * k * k
    rows = []
    for n in range(n_max + 1):
        if n not in counts:
            raise MissingCount(f"no avoider count supplied for n={n}")
        exact = counts[n]
        word_bound = words[n - 1] ** 2 if n >= 1 else None
        rows.append(
            BoundRecord(
                k=k,
                n=n,
                exact_count=exact,
                word_bound=word_bound,
                cap=Fraction(cap_num, 4) ** n,
                ok_word=True if word_bound is None else exact <= word_bound,
                ok_cap=exact * 4**n <= cap_num**n,
            )
        )
    return rows


CSV_COLUMNS = ("k", "n", "count", "word_bound_sq", "cap", "ok_word", "ok_cap")


def bound_row_dict(r: BoundRecord) -> dict:
    """One record as a dict keyed by the CSV column names."""
    values = (r.k, r.n, r.exact_count, r.word_bound, str(r.cap), r.ok_word, r.ok_cap)
    return dict(zip(CSV_COLUMNS, values))


def format_cell(value) -> str:
    """One table cell: true/false for a boolean, empty for a missing value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


def bound_rows_csv(rows: Sequence[BoundRecord]) -> list[str]:
    """CSV lines (header plus one line per record)."""
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        lines.append(",".join(map(format_cell, bound_row_dict(r).values())))
    return lines
