"""Search-kernel selection: the compiled avoider count when built, pure Python otherwise.

Only counting is compiled (``permcodec._ext``, built from ``_ext.c``); both
backends count with the same memoized engine (see
``_pure.count_avoiders_dfs``). The avoider walk yields Python tuples, and the
occurrence search only names the witness of a failed precondition, so both
are the pure ones on either backend.

Set PERMCODEC_PURE=1 to force the pure backend; the README's recipe for
timing the two implementations runs the benchmark once with it and once
without.
"""

import os
from math import factorial

from permcodec import _pure

if os.environ.get("PERMCODEC_PURE"):
    _impl = _pure
else:
    try:
        from permcodec import _ext as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _pure

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
