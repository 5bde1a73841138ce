"""Search-kernel selection: compiled extension when available, pure Python otherwise.

The avoider walk yields Python tuples either way, so it is the pure one on
both backends; only the occurrence search and the count DFS are compiled.

Set PERMCODEC_PURE=1 to force the pure backend; the benchmark and the
cross-checking tests use that to compare the two implementations.
"""

import os

from permcodec import _pure

if os.environ.get("PERMCODEC_PURE"):
    _impl = _pure
else:
    try:
        from permcodec import _ext as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _pure

BACKEND = _impl.BACKEND
first_occurrence = _impl.first_occurrence
count_avoiders_dfs = _impl.count_avoiders_dfs
avoiders = _pure.avoiders
