"""Search-kernel selection: compiled extension when available, pure Python otherwise.

Set PERMCODEC_PURE=1 to force the pure backend; the benchmark and the
cross-checking tests use that to compare the two implementations.
"""

import os

if os.environ.get("PERMCODEC_PURE"):
    from permcodec import _pure as _impl
else:
    try:
        from permcodec import _ext as _impl  # type: ignore[no-redef]
    except ImportError:
        from permcodec import _pure as _impl  # type: ignore[no-redef]

BACKEND = _impl.BACKEND
first_occurrence = _impl.first_occurrence
has_occurrence_ending_at_last = _impl.has_occurrence_ending_at_last
count_avoiders_dfs = _impl.count_avoiders_dfs
