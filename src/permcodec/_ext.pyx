# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled pattern-search kernels.

Compiled ``first_occurrence`` and ``count_avoiders_dfs``, with the same
semantics as those in ``permcodec._pure``; see that module for the algorithm
notes. The avoider walk that yields every avoider has no compiled form: both
backends use ``permcodec._pure.avoiders``. Haystack and pattern are copied
into C integer arrays once per call and the window-pruned search runs without
the GIL.
"""

from libc.stdlib cimport free, malloc

BACKEND = "compiled"


cdef int* _alloc(int length) except NULL:
    cdef int* buf = <int*> malloc((length if length > 0 else 1) * sizeof(int))
    if buf == NULL:
        raise MemoryError()
    return buf


cdef int* _to_ints(object seq, int length) except NULL:
    cdef int* buf = _alloc(length)
    cdef int i
    for i in range(length):
        buf[i] = seq[i]
    return buf


cdef void _c_bounds(int* q, int k, int* order, int* lo, int* hi) noexcept nogil:
    # per-slot window providers; -1 marks an unbounded side
    cdef int ai, bi, a, b, lo_val, hi_val
    for ai in range(k):
        a = order[ai]
        lo[a] = -1
        hi[a] = -1
        lo_val = -1
        hi_val = -1
        for bi in range(ai):
            b = order[bi]
            if q[b] < q[a]:
                if lo_val == -1 or q[b] > lo_val:
                    lo_val = q[b]
                    lo[a] = b
            elif q[b] > q[a]:
                if hi_val == -1 or q[b] < hi_val:
                    hi_val = q[b]
                    hi[a] = b


cdef bint _c_search(int* p, int* lo, int* hi, int* chosen, int* pos,
                    int a, int a_last, int start, int stop) noexcept nogil:
    # assign slots a..a_last to increasing indices in [start, stop)
    cdef int remaining = a_last - a
    cdef int la = lo[a]
    cdef int ha = hi[a]
    cdef int i, v
    for i in range(start, stop - remaining):
        v = p[i]
        if la >= 0 and chosen[la] >= v:
            continue
        if ha >= 0 and chosen[ha] <= v:
            continue
        chosen[a] = v
        pos[a] = i
        if a == a_last:
            return True
        if _c_search(p, lo, hi, chosen, pos, a + 1, a_last, i + 1, stop):
            return True
    return False


cdef long long _c_walk(int d, int n, int first, int k,
                       int* prefix, unsigned char* used,
                       int* lo, int* hi, int* chosen, int* pos) noexcept nogil:
    if d == n:
        return 1
    cdef long long total = 0
    cdef int v
    cdef int vstart = 1
    cdef int vstop = n + 1
    cdef bint blocked
    if d == 0 and first != 0:
        vstart = first
        vstop = first + 1
    for v in range(vstart, vstop):
        if used[v]:
            continue
        prefix[d] = v
        blocked = False
        if k <= d + 1:
            chosen[k - 1] = v
            blocked = _c_search(prefix, lo, hi, chosen, pos, 0, k - 2, 0, d)
        if not blocked:
            used[v] = 1
            total += _c_walk(d + 1, n, first, k, prefix, used, lo, hi, chosen, pos)
            used[v] = 0
    return total


def first_occurrence(p, q):
    """Lexicographically first index tuple of an occurrence of q, or None."""
    cdef int n = len(p)
    cdef int k = len(q)
    if k == 0:
        return ()
    if k > n:
        return None
    cdef int* buf = _alloc(n + 6 * k)
    cdef int* pa = buf
    cdef int* qa = buf + n
    cdef int* order = qa + k
    cdef int* lo = order + k
    cdef int* hi = lo + k
    cdef int* chosen = hi + k
    cdef int* pos = chosen + k
    cdef int i
    cdef bint found
    try:
        for i in range(n):
            pa[i] = p[i]
        for i in range(k):
            qa[i] = q[i]
            order[i] = i
        _c_bounds(qa, k, order, lo, hi)
        with nogil:
            found = _c_search(pa, lo, hi, chosen, pos, 0, k - 1, 0, n)
        if not found:
            return None
        return tuple(pos[i] for i in range(k))
    finally:
        free(buf)


def count_avoiders_dfs(q, int n, int first=0):
    """Count permutations of 1..n avoiding q, optionally with a fixed first entry."""
    cdef int k = len(q)
    if k == 0:
        return 0
    if n == 0:
        return 1
    if k == 1:
        return 0
    cdef int* buf = _alloc(n + 6 * k)
    cdef int* prefix = buf
    cdef int* qa = buf + n
    cdef int* order = qa + k
    cdef int* lo = order + k
    cdef int* hi = lo + k
    cdef int* chosen = hi + k
    cdef int* pos = chosen + k
    cdef unsigned char* used = <unsigned char*> malloc(n + 1)
    cdef int i
    cdef long long total
    if used == NULL:
        free(buf)
        raise MemoryError()
    try:
        for i in range(k):
            qa[i] = q[i]
        order[0] = k - 1
        for i in range(k - 1):
            order[i + 1] = i
        _c_bounds(qa, k, order, lo, hi)
        for i in range(n + 1):
            used[i] = 0
        with nogil:
            total = _c_walk(0, n, first, k, prefix, used, lo, hi, chosen, pos)
        return total
    finally:
        free(used)
        free(buf)
