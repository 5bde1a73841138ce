"""Kernel selection: the compiled kernels when built from the source beside them, pure Python otherwise.

``permcodec._ext``, built from ``_ext.c``, compiles the memoized count
engine (see ``_pure.count_avoiders_dfs``), the codec's ``encode`` and
``decode`` (see ``_pure.encode`` and ``decode``), each one call that checks
its input and runs the level passes, and the verify sweep
(``_pure.verify_shard``), which walks one shard's avoiders and encodes,
fills and checks each. Each backend runs the same algorithms, so
counts, codes, decode outcomes and sweep reports agree bit for bit. The
avoider walk behind ``enumerate_avoiders`` yields Python tuples, and the
occurrence search names an encode's witness and backs ``perms.avoids``, so
both are the pure ones on either backend.
``_pure`` is imported only where it runs, so a compiled count or verify
never loads it.

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


def _select():
    """The compiled kernels if built, fresh and not turned off; the pure ones otherwise."""
    if not os.environ.get("PERMCODEC_PURE"):
        try:
            from permcodec import _ext

            with open(os.path.join(os.path.dirname(__file__), "_ext.c"), "rb") as source:
                if getattr(_ext, "SOURCE_CRC32", None) == zlib.crc32(source.read()):
                    return _ext
        except ImportError:
            pass
        except FileNotFoundError:  # an installed package ships no source
            return _ext
    from permcodec import _pure

    return _pure


_impl = _select()
BACKEND = _impl.BACKEND

#: the compiled engine keeps a 64-bit total and refuses n past 20 (20! < 2**63 < 21!)
_COMPILED_MAX_N = 20

#: the compiled decode reads the caller's k as a C integer, up to 2**62
_COMPILED_MAX_K = 2**62


def first_occurrence(p, q):
    """The first occurrence of q in p as 1-based indices, or None; pure on both backends."""
    from permcodec import _pure

    return _pure.first_occurrence(p, q)


def avoiders(q, n: int, first: int = 0):
    """The length-n avoiders of q in lexicographic order; pure on both backends."""
    from permcodec import _pure

    return _pure.avoiders(q, n, first)


def count_avoiders_dfs(q, n: int) -> list[int]:
    """Avoider counts of q, a permutation of 1..k, for every length 0..n, at the cost of n."""
    if len(q) < 2:  # () occurs in every permutation, (1) in every nonempty one
        return [int(len(q) == 1 and m == 0) for m in range(n + 1)]
    if n < len(q):  # q never occurs; the engine's setup grows as len(q) cubed
        return [factorial(m) for m in range(n + 1)]
    if n > _COMPILED_MAX_N:
        from permcodec import _pure

        return _pure.count_avoiders_dfs(q, n)
    return _impl.count_avoiders_dfs(q, n)


def _lowered(k: int, n: int) -> int:
    """k, capped at the least k' > 2n + 3 of its parity, which acts alike on length-n input:
    past 2n + 3 no level reaches 3, no odd level letters an entry, and no staircase occurs.
    So a decode for a lowered k refuses a letter from the base level of k' up: it names a
    level that no code of length n reaches."""
    return min(k, 2 * n + 4 + k % 2)


def encode(p, k: int):
    """The code (w, wp) of p for k >= 3, or None when p holds the length-k staircase;
    MalformedInput unless p is a permutation of 1..n."""
    return _impl.encode(p, _lowered(k, len(p)))


def decode(w, wp, k: int) -> tuple[int, ...]:
    """The avoider whose code for k >= 3 is (w, wp), equal-length words: MalformedInput for a
    letter outside the alphabet for k, NotInImage where no avoider has this code."""
    impl = _impl
    if k > _COMPILED_MAX_K:
        from permcodec import _pure as impl
    return impl.decode(w, wp, k, _lowered(k, len(w)))


def verify_shard(q, k: int, n: int, first: int, cap: int):
    """(total, defect counts, defect examples) of the length-n avoiders of q whose first
    entry is ``first`` (0: any) under the code for k; see ``_pure.verify_shard``."""
    return _impl.verify_shard(q, k, n, first, cap)
