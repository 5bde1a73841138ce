"""Search-kernel selection: the compiled count DFS when built, pure Python otherwise.

Only counting is compiled (``permcodec._ext``, built from ``_ext.c``). The
avoider walk yields Python tuples, and the occurrence search only names the
witness of a failed precondition, so both are the pure ones on either backend.

Set PERMCODEC_PURE=1 to force the pure backend; the benchmark uses that to
time the two implementations.
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

#: the compiled walk keeps a 64-bit total and refuses n past 20 (20! < 2**63 < 21!)
_COMPILED_MAX_N = 20


def count_avoiders_dfs(q, n: int, first: int = 0) -> int:
    """Count permutations of 1..n avoiding q, optionally with a fixed first entry.

    q must be a permutation of 1..k, and ``first`` 0 (any) or an entry 1..n.
    """
    if 0 < n < len(q):  # q never occurs, so skip walking n! leaves
        return factorial(n - 1) if first else factorial(n)
    if n > _COMPILED_MAX_N:
        return _pure.count_avoiders_dfs(q, n, first)
    return _impl.count_avoiders_dfs(q, n, first)
