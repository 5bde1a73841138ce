"""Deterministic entry colorings that split a permutation into two avoiders.

``canonical_coloring`` walks the permutation once, left to right, and colors
every entry red or blue. It maintains two promises:

  1. an entry is colored blue if coloring it red would complete a red copy
     of 132 (so the red subsequence avoids 132 by construction), and
  2. an entry larger than some earlier blue entry is colored blue (so a blue
     entry is never immediately followed by a larger red one).

Everything else is red. When the whole permutation avoids the staircase of
an even length k, which is 132 followed by a tail above it (1324, 132546,
...), the blue subsequence avoids the (k-1)-staircase; tests check that
exhaustively for k = 4 and 6.
"""

from __future__ import annotations

from permcodec import kernels
from permcodec.perms import Perm

#: the pattern the red entries avoid
RED_PATTERN: Perm = (1, 3, 2)


def canonical_coloring(p: Perm) -> tuple[bool, ...]:
    """Red/blue mask for p (True = red). Defined for every p; see module docs."""
    mask: list[bool] = []
    red: list[int] = []
    min_blue: int | None = None
    for v in p:
        if min_blue is not None and v > min_blue:
            blue = True
        else:
            red.append(v)
            blue = kernels.has_occurrence_ending_at_last(red, RED_PATTERN)
            red.pop()
        if blue:
            mask.append(False)
            if min_blue is None or v < min_blue:
                min_blue = v
        else:
            mask.append(True)
            red.append(v)
    return tuple(mask)


def occurrence_start_mask(p: Perm, q: Perm) -> tuple[bool, ...]:
    """Mark the entries of p at which some occurrence of q starts."""
    return tuple(kernels.has_occurrence_starting_at(p, q, i) for i in range(len(p)))
