"""Kernel selection: the compiled kernels when built from the source beside them, pure Python otherwise.

``permcodec._ext``, built from ``_ext.c``, compiles the memoized count
engine (see ``_pure.count_avoiders_dfs``), the codec's three level passes
(the per-level encode, the greedy decode fill and the staircase floor; see
``_pure.encode_levels``, ``decode_fill`` and ``staircase_floor``) and the
verify sweep (``_pure.verify_shard``), which walks one shard's avoiders and
encodes, fills and checks each. Each backend runs the same algorithms, so
counts, codes and sweep reports agree bit for bit. The avoider walk behind
``enumerate_avoiders`` yields Python tuples, and the occurrence search names
an encode's witness and backs ``perms.avoids`` (a scan's ``is_layered``), so
both are the pure ones on either backend.

Set PERMCODEC_PURE=1 to force the pure backend; the README's recipe for
timing the two implementations runs the benchmark once with it and once
without. A build is used only if it was built from the ``_ext.c`` beside this
file, when there is one (a source checkout): the module's ``SOURCE_CRC32``
must equal the CRC-32 of that file. A stale build falls back to the pure
backend, and ``BACKEND`` (``permcodec.kernel_backend()``) then reads "pure".
An installed package has no ``_ext.c`` beside it and skips the check.
"""

import os
import zlib
from math import factorial

from permcodec import _pure
from permcodec.errors import NotInImage


def _select():
    """The compiled kernels if built, fresh and not turned off; the pure ones otherwise."""
    if os.environ.get("PERMCODEC_PURE"):
        return _pure
    try:
        from permcodec import _ext
    except ImportError:
        return _pure
    try:
        with open(os.path.join(os.path.dirname(__file__), "_ext.c"), "rb") as source:
            crc = zlib.crc32(source.read())
    except FileNotFoundError:  # an installed package ships no source
        return _ext
    return _ext if getattr(_ext, "SOURCE_CRC32", None) == crc else _pure


_impl = _select()
BACKEND = _impl.BACKEND
first_occurrence = _pure.first_occurrence
avoiders = _pure.avoiders

#: the compiled engine keeps a 64-bit total and refuses n past 20 (20! < 2**63 < 21!)
_COMPILED_MAX_N = 20


def count_avoiders_dfs(q, n: int) -> list[int]:
    """Avoider counts of q, a permutation of 1..k, for every length 0..n, at the cost of n."""
    if len(q) < 2:  # () occurs in every permutation, (1) in every nonempty one
        return [int(len(q) == 1 and m == 0) for m in range(n + 1)]
    if n < len(q):  # q never occurs; the engine's setup grows as len(q) cubed
        return [factorial(m) for m in range(n + 1)]
    if n > _COMPILED_MAX_N:
        return _pure.count_avoiders_dfs(q, n)
    return _impl.count_avoiders_dfs(q, n)


def _lowered(k: int, n: int) -> int:
    """k, capped at the least k' > 2n + 3 of its parity, which acts alike on length-n input:
    past 2n + 3 no level reaches 3, no odd level letters an entry, and no staircase occurs."""
    return min(k, 2 * n + 4 + k % 2)


def encode_levels(p, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The code (w, wp) of p, a permutation of 1..n avoiding the length-k staircase, k >= 3."""
    return _impl.encode_levels(p, _lowered(k, len(p)))


def decode_fill(w, wp, k: int) -> tuple[int, ...]:
    """The greedy fill of (w, wp), equal-length words; NotInImage where it gets stuck."""
    low = _lowered(k, len(w))
    if low < k and max((*w, *wp), default=0) >= 3 * (low // 2 - 1):  # the lowered base level
        raise NotInImage("a letter names a level that no code of this length reaches")
    return _impl.decode_fill(w, wp, low)


def staircase_floor(p, k: int) -> int:
    """The floor of the length-k staircase over p, a permutation, k >= 3: 0 iff p avoids it."""
    return _impl.staircase_floor(p, _lowered(k, len(p)))


def verify_shard(q, k: int, n: int, first: int, cap: int):
    """(total, defect counts, defect examples) of the length-n avoiders of q whose first
    entry is ``first`` (0: any) under the code for k; see ``_pure.verify_shard``."""
    return _impl.verify_shard(q, k, n, first, cap)
