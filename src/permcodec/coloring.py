"""Deterministic entry colorings that split a permutation into two avoiders.

``canonical_coloring`` walks the permutation once, left to right, and colors
every entry red or blue. It maintains two promises:

  1. an entry v is colored blue if coloring it red would complete a red
     132: if x < v < y for an earlier red y and the least red x before y
     (so the red subsequence avoids 132 by construction), and
  2. an entry larger than some earlier blue entry is colored blue (so a blue
     entry is never immediately followed by a larger red one).

Everything else is red. When the whole permutation avoids the staircase of
an even length k, which is 132 followed by a tail above it (1324, 132546,
...), the blue subsequence avoids the (k-1)-staircase; tests check that
exhaustively for k = 4 and 6.
"""

from __future__ import annotations

import math
from bisect import bisect_left

from permcodec.perms import Perm


def canonical_coloring(p: Perm) -> tuple[bool, ...]:
    """Red/blue mask for p (True = red). Defined for every p; see module docs.

    Rule 1 asks whether v lies in a span (least earlier red x, red y > x).
    Span lows never rise, so a new span (least red, v) contains every kept
    span whose top is below v, which it replaces: the kept spans have
    falling tops and falling lows, and v lies in some span exactly when the
    newest one whose top is above v has its low below v. Finding it is a
    bisection, so the pass is O(n log n).
    """
    mask: list[bool] = []
    lows: list[int] = []  # the kept spans, oldest first
    tops: list[int] = []  # their tops, negated so that they rise
    least_red = min_blue = math.inf
    for v in p:
        above = bisect_left(tops, -v)  # the kept spans whose tops are above v
        if v > min_blue or (above and lows[above - 1] < v):
            mask.append(False)
            min_blue = min(min_blue, v)
            continue
        mask.append(True)
        if v < least_red:
            least_red = v
        else:
            del lows[above:], tops[above:]
            lows.append(least_red)
            tops.append(-v)
    return tuple(mask)
