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
result is trusted only when one k-staircase floor pass finds no occurrence
in it and one re-encode reproduces the input pair exactly; otherwise the
pair is not in the image. Decoding never searches for or names a witness.

On valid input both words lie in the word family for k and share one letter
multiset; the encoding is injective (verified exhaustively in tests).

Each operation is one kernel call (``kernels.encode`` and ``decode``),
compiled in ``_ext.c`` when it is built, and otherwise its pure twin in
``_pure``, which spells out the algorithms from the level passes: the
per-level encode, the greedy fill and the staircase floor. The kernels
check the input for any k >= 3; this module refuses a k below 3 and names
the witness of a failed avoidance check.
Entries and letters are ints: the compiled kernels take anything that
``operator.index`` accepts (bool and other int subclasses, or an object with
``__index__``) and raise TypeError on any other, such as a float; the pure
twins promise nothing for those that are not ints.
"""

from __future__ import annotations

from permcodec import kernels
from permcodec.errors import DomainError, PreconditionViolated
from permcodec.perms import Perm, format_permutation, staircase_pattern, validate_permutation
from permcodec.words import CodePair


def encode_avoider(p: Perm, k: int) -> CodePair:
    """Encode a permutation avoiding the length-k staircase pattern.

    Raises MalformedInput unless p is a permutation of 1..n, then DomainError
    for k < 3, and PreconditionViolated (with a witness) when p contains the
    pattern.

    >>> pair = encode_avoider((3, 6, 1, 2, 7, 4, 5), 4)
    >>> (pair.w, pair.wp)
    ((1, 2, 1, 2, 2, 3, 4), (1, 2, 1, 3, 4, 2, 2))
    """
    p = tuple(p)
    if k < 3:
        validate_permutation(p)  # a malformed p is reported first
        raise DomainError(f"pattern length must be at least 3, got {k}")
    code = kernels.encode(p, k)
    if code is None:
        q = staircase_pattern(k)
        witness = kernels.first_occurrence(p, q)  # the floor only says that one exists
        spot = ",".join(str(i) for i in witness)
        raise PreconditionViolated(f"contains {format_permutation(q)} at ({spot})", witness=witness)
    return CodePair(*code)


# ---------------------------------------------------------------------------
# decoding


def decode_avoider(pair: CodePair, k: int) -> Perm:
    """Invert encode_avoider; raises NotInImage when no avoider has this code.

    Raises DomainError for k < 3, then MalformedInput for a letter outside
    the alphabet for k. The greedy fill is returned only when one floor pass
    finds no staircase in it and it re-encodes to the pair; a rejection
    names no witness.

    >>> decode_avoider(CodePair((0, 1, 1, 0, 1), (0, 1, 0, 1, 1)), 3)
    (3, 5, 4, 1, 2)
    """
    if k < 3:
        raise DomainError(f"pattern length must be at least 3, got {k}")
    return kernels.decode(pair.w, pair.wp, k)
