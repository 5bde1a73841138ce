"""Words over small integer alphabets with forbidden adjacent factors.

A word family is indexed by an integer m >= 2 and a parity. The odd family
uses the alphabet {0, ..., 3m-5}, the even family {1, ..., 3m-2}; in both, a
word may never contain the two-letter factor (3i)(3i-1) for any i >= 1 with
both letters in the alphabet. Word text is compact digits when every letter
is at most 9, comma-separated otherwise; both forms parse. Its grammar,
``parse_word`` and ``format_word``, lives in ``permcodec.perms``, which
reads and prints permutations in it, and is re-exported here.

A CodePair is the output of the codecs: two equal-length words, one indexed
by position and one by value. Serialized as JSON {"w": ..., "wp": ...}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from permcodec.errors import DomainError, MalformedInput
from permcodec.perms import format_word, parse_word  # re-exported: the word-text grammar

Letters = tuple[int, ...]

PARITIES = ("odd", "even")


@dataclass(frozen=True)
class WordFamily:
    m: int
    parity: str

    def __post_init__(self):
        if self.m < 2:
            raise DomainError(f"word families start at m=2, got m={self.m}")
        if self.parity not in PARITIES:
            raise DomainError(f"parity must be one of {PARITIES}, got {self.parity!r}")

    @classmethod
    def for_pattern_length(cls, k: int) -> "WordFamily":
        """The family whose words code avoiders of the length-k staircase."""
        if k < 3:
            raise DomainError(f"pattern length must be at least 3, got {k}")
        if k % 2 == 1:
            return cls((k + 1) // 2, "odd")
        return cls(k // 2, "even")

    @property
    def alphabet(self) -> range:
        if self.parity == "odd":
            return range(0, 3 * self.m - 4)
        return range(1, 3 * self.m - 1)

    @property
    def alphabet_size(self) -> int:
        return 3 * self.m - 4 if self.parity == "odd" else 3 * self.m - 2

    @property
    def forbidden_factors(self) -> tuple[tuple[int, int], ...]:
        return tuple((3 * i, 3 * i - 1) for i in range(1, self.recurrence[1] + 1))

    @property
    def recurrence(self) -> tuple[int, int]:
        """(A, B) with counts c_n = A*c_{n-1} - B*c_{n-2}, c_0 = 1, c_1 = A."""
        return self.alphabet_size, self.alphabet[-1] // 3

    def describe(self) -> str:
        lo, hi = self.alphabet[0], self.alphabet[-1]
        return f"{self.parity} m={self.m} (alphabet {lo}..{hi})"


def validate_word(word: Letters, family: WordFamily) -> bool:
    """True iff every letter is in the family alphabet and no factor is forbidden.

    One pass: each letter is checked against the alphabet and, with the letter
    before it, against the forbidden factors (3i)(3i-1), i >= 1. Between letters
    of the alphabet those are exactly the factors ab with b = a-1 = 2 mod 3, so
    the check builds nothing and costs the same for every m.
    """
    alphabet = family.alphabet
    before = 0  # no letter is -1, so the first one ends no factor
    for x in word:
        if x not in alphabet or (x == before - 1 and x % 3 == 2):
            return False
        before = x
    return True


@dataclass(frozen=True)
class CodePair:
    """Equal-length (position word, value word) pair."""

    w: Letters
    wp: Letters

    def __post_init__(self):
        if len(self.w) != len(self.wp):
            raise MalformedInput(
                f"code pair words differ in length: {len(self.w)} vs {len(self.wp)}"
            )

    def __len__(self) -> int:
        return len(self.w)

    def to_json(self) -> str:
        return json.dumps(
            {"w": format_word(self.w), "wp": format_word(self.wp)},
            separators=(",", ":"),
        )
