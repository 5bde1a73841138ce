/*
 * Compiled avoider count for permcodec.kernels.
 *
 * count_avoiders_dfs(q, n) returns the avoider counts of q for every length
 * 0..n, with the memoized engine of permcodec._pure.count_avoiders_dfs (see
 * that function for the algorithm): a prefix is reduced to the gaps, among
 * the unused values, of the partial occurrences of q that it holds, and the
 * count of each reduced state is computed once. The memo key does not
 * depend on n, and counting n passes through the empty state at every
 * shorter length, so one table answers all n + 1 lengths at the cost of n
 * alone. A state is packed one byte per gap: for j = 1..k-1 its q[:j]
 * tuples, j bytes each, in canonical order, then the byte END. Counts are
 * kept in an open-addressing table keyed by the number of unused values and
 * the packed state. The engine runs without the GIL; its buffers grow as
 * needed.
 *
 * The caller, permcodec.kernels, checks that q is a permutation of 1..k and
 * answers len(q) < 2, which the engine refuses, and n < len(q) itself.
 * Counts are 64-bit integers, so n past MAX_N is refused: 20! < 2**63. Gaps
 * are at most n, so a byte holds each.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAX_N 20
#define END 0xFF
#define IGNORED 2  /* a slot whose gap never matters; it is stored as 0 */

typedef struct {
    unsigned char *data;
    size_t len, cap;
} Bytes;

typedef struct {
    uint64_t hash, count;
    size_t off, len;  /* the key in the arena; len 0 marks a free slot */
} Entry;

typedef struct {
    int k, n, failed;
    int *lo, *hi;         /* per slot: the earlier slot bounding it below/above, or -1 */
    signed char *kind;    /* kind[j*k + s]: -1 lower-only, 1 upper-only, 0 mixed, IGNORED */
    Bytes *states;        /* states[d]: the state after d entries */
    size_t *groups;       /* groups[d*k + j]: offset of state d's q[:j] tuples */
    Bytes cand;           /* the candidate tuples of one group */
    int *order;           /* candidate indices, sorted, then the kept ones */
    size_t order_cap;
    unsigned char *tuple; /* one tuple under construction */
    Entry *table;
    size_t cap, used;
    Bytes arena;          /* memo keys: m, then the packed state */
} Engine;

static int
reserve(Engine *e, Bytes *b, size_t extra)
{
    if (b->len + extra <= b->cap)
        return 1;
    size_t cap = b->cap ? b->cap : 64;
    while (cap < b->len + extra)
        cap *= 2;
    unsigned char *data = realloc(b->data, cap);
    if (!data) {
        e->failed = 1;
        return 0;
    }
    b->data = data;
    b->cap = cap;
    return 1;
}

static int
push(Engine *e, Bytes *b, const unsigned char *src, size_t len)
{
    if (!reserve(e, b, len))
        return 0;
    memcpy(b->data + b->len, src, len);
    b->len += len;
    return 1;
}

/* Window providers and slot kinds; see _bounds and _slot_kinds in _pure. */
static void
describe(const long long *q, int k, int *lo, int *hi, signed char *kind)
{
    for (int a = 0; a < k; a++) {
        lo[a] = hi[a] = -1;
        for (int b = 0; b < a; b++) {
            if (q[b] < q[a] && (lo[a] < 0 || q[b] > q[lo[a]]))
                lo[a] = b;
            else if (q[b] > q[a] && (hi[a] < 0 || q[b] < q[hi[a]]))
                hi[a] = b;
        }
    }
    for (int j = 0; j < k; j++) {
        signed char *row = kind + (size_t)j * k;
        for (int s = 0; s < j; s++)
            row[s] = IGNORED;
        long long later_lo = q[j], later_hi = q[j];
        for (int t = j; t < k; t++) {
            int below = -1, above = -1;
            for (int s = 0; s < j; s++) {
                if (q[s] < q[t] && (below < 0 || q[s] > q[below]))
                    below = s;
                else if (q[s] > q[t] && (above < 0 || q[s] < q[above]))
                    above = s;
            }
            if (below >= 0)
                row[below] = 0;
            if (above >= 0)
                row[above] = 0;
            later_lo = q[t] < later_lo ? q[t] : later_lo;
            later_hi = q[t] > later_hi ? q[t] : later_hi;
        }
        for (int s = 0; s < j; s++)
            if (row[s] == 0)
                row[s] = q[s] < later_lo ? -1 : q[s] > later_hi ? 1 : 0;
    }
}

/* u_i, of m unused values, may be slot j after the q[:j] tuple t iff low < i <= high. */
static void
window(const Engine *e, const unsigned char *t, int j, int m, int *low, int *high)
{
    *low = e->lo[j] >= 0 ? t[e->lo[j]] : 0;
    *high = e->hi[j] >= 0 ? t[e->hi[j]] : m;
}

static int
admits(const Engine *e, const unsigned char *t, int j, int i, int m)
{
    int low, high;
    window(e, t, j, m, &low, &high);
    return low < i && i <= high;
}

/* Add the q[:j] tuple in e->tuple to the candidates if slot j can still be filled. */
static void
offer(Engine *e, int j, int m)
{
    int low, high;
    window(e, e->tuple, j, m, &low, &high);
    if (low < high)
        push(e, &e->cand, e->tuple, j);
}

/* Order of tuples a and b with upper-only gaps negated. */
static int
compare(const signed char *kind, const unsigned char *a, const unsigned char *b, int j)
{
    for (int s = 0; s < j; s++)
        if (a[s] != b[s])
            return (kind[s] == 1) == (a[s] > b[s]) ? -1 : 1;
    return 0;
}

static int
dominates(const signed char *kind, const unsigned char *a, const unsigned char *t, int j)
{
    for (int s = 0; s < j; s++) {
        if (kind[s] == -1 ? a[s] > t[s] : kind[s] == 1 ? a[s] < t[s] : a[s] != t[s])
            return 0;
    }
    return 1;
}

/* Append the candidates that no other one dominates, sorted, then END. */
static void
pareto(Engine *e, int j, Bytes *out)
{
    const signed char *kind = e->kind + (size_t)j * e->k;
    const unsigned char *c = e->cand.data;
    size_t count = e->cand.len / j;
    if (count > e->order_cap) {
        size_t cap = 2 * count;
        int *order = realloc(e->order, cap * sizeof(int));
        if (!order) {
            e->failed = 1;
            return;
        }
        e->order = order;
        e->order_cap = cap;
    }
    for (size_t x = 0; x < count; x++) {  /* insertion sort: groups are small */
        size_t y = x;
        while (y > 0 && compare(kind, c + (size_t)j * x, c + (size_t)j * e->order[y - 1], j) < 0) {
            e->order[y] = e->order[y - 1];
            y--;
        }
        e->order[y] = (int)x;
    }
    size_t kept = 0;
    for (size_t x = 0; x < count; x++) {  /* a dominating tuple sorts first */
        const unsigned char *t = c + (size_t)j * e->order[x];
        size_t y = 0;
        while (y < kept && !dominates(kind, c + (size_t)j * e->order[y], t, j))
            y++;
        if (y == kept) {
            e->order[kept++] = e->order[x];
            push(e, out, t, j);
        }
    }
    unsigned char end = END;
    push(e, out, &end, 1);
}

static uint64_t
hash_key(int m, const unsigned char *s, size_t len)
{
    uint64_t h = 1469598103934665603ULL ^ (uint64_t)m;  /* FNV-1a */
    for (size_t x = 0; x < len; x++)
        h = (h ^ s[x]) * 1099511628211ULL;
    return h;
}

/* The table slot holding (m, state), or the free slot where it belongs. */
static Entry *
find(const Engine *e, uint64_t h, int m, const unsigned char *s, size_t len)
{
    for (size_t x = h & (e->cap - 1);; x = (x + 1) & (e->cap - 1)) {
        Entry *slot = &e->table[x];
        if (!slot->len)
            return slot;
        const unsigned char *key = e->arena.data + slot->off;
        if (slot->hash == h && slot->len == len + 1 && key[0] == m && !memcmp(key + 1, s, len))
            return slot;
    }
}

static void
remember(Engine *e, uint64_t h, int m, const unsigned char *s, size_t len, uint64_t count)
{
    if (2 * (e->used + 1) > e->cap) {
        size_t cap = 2 * e->cap;
        Entry *table = calloc(cap, sizeof(Entry));
        if (!table) {
            e->failed = 1;
            return;
        }
        for (size_t x = 0; x < e->cap; x++) {
            if (!e->table[x].len)
                continue;
            size_t y = e->table[x].hash & (cap - 1);
            while (table[y].len)
                y = (y + 1) & (cap - 1);
            table[y] = e->table[x];
        }
        free(e->table);
        e->table = table;
        e->cap = cap;
    }
    unsigned char mb = (unsigned char)m;
    size_t off = e->arena.len;
    if (!push(e, &e->arena, &mb, 1) || !push(e, &e->arena, s, len))
        return;
    Entry *slot = find(e, h, m, s, len);
    *slot = (Entry){.hash = h, .count = count, .off = off, .len = len + 1};
    e->used++;
}

/* Avoider completions of the state after d entries. */
static uint64_t
count(Engine *e, int d)
{
    int k = e->k, m = e->n - d;
    if (m == 0)
        return 1;
    const unsigned char *s = e->states[d].data;
    size_t len = e->states[d].len;
    uint64_t h = hash_key(m, s, len);
    Entry *hit = find(e, h, m, s, len);
    if (hit->len)
        return hit->count;
    size_t *groups = e->groups + (size_t)d * k;
    size_t off = 0;
    for (int j = 1; j < k; j++) {
        groups[j] = off;
        while (s[off] != END)
            off += j;
        off++;
    }
    uint64_t total = 0;
    Bytes *next = &e->states[d + 1];
    for (int i = 1; i <= m; i++) {
        const unsigned char *t = s + groups[k - 1];
        for (; *t != END; t += k - 1)
            if (admits(e, t, k - 1, i, m))
                break;
        if (*t != END)
            continue;  /* u_i would complete q */
        next->len = 0;
        for (int j = 1; j < k; j++) {
            e->cand.len = 0;
            if (m - 1 >= k - j) {
                for (t = s + groups[j]; *t != END; t += j) {
                    for (int x = 0; x < j; x++)
                        e->tuple[x] = t[x] - (t[x] >= i);  /* gaps i-1 and i merge */
                    offer(e, j, m - 1);
                }
                const signed char *kind = e->kind + (size_t)j * k;
                if (j == 1) {  /* u_i starts a q[:1] tuple */
                    e->tuple[0] = (unsigned char)(i - 1);
                    offer(e, j, m - 1);
                } else {  /* q[:j-1] tuples that admit u_i grow by one slot */
                    for (t = s + groups[j - 1]; *t != END; t += j - 1) {
                        if (!admits(e, t, j - 1, i, m))
                            continue;
                        for (int x = 0; x < j - 1; x++)
                            e->tuple[x] = kind[x] == IGNORED ? 0 : t[x] - (t[x] >= i);
                        e->tuple[j - 1] = kind[j - 1] == IGNORED ? 0 : (unsigned char)(i - 1);
                        offer(e, j, m - 1);
                    }
                }
            }
            pareto(e, j, next);
        }
        if (e->failed)
            return 0;
        total += count(e, d + 1);
        if (e->failed)
            return 0;
    }
    remember(e, h, m, s, len, total);
    return total;
}

/* counts[m], for m = 0..n: the completions of the empty state with m values left. */
static void
run(Engine *e, uint64_t *counts)
{
    int k = e->k, n = e->n;
    e->cap = 1024;
    e->table = calloc(e->cap, sizeof(Entry));
    e->states = calloc(n + 1, sizeof(Bytes));
    e->groups = malloc((size_t)(n + 1) * k * sizeof(size_t));
    e->tuple = malloc(k);
    if (!e->table || !e->states || !e->groups || !e->tuple) {
        e->failed = 1;
        return;
    }
    unsigned char end = END;
    for (int d = n; d >= 0 && !e->failed; d--) {  /* count(e, d) writes only states past d */
        for (int j = 1; j < k; j++)
            push(e, &e->states[d], &end, 1);
        counts[n - d] = count(e, d);
    }
}

static void
release(Engine *e)
{
    for (int d = 0; e->states && d <= e->n; d++)
        free(e->states[d].data);
    free(e->states);
    free(e->groups);
    free(e->cand.data);
    free(e->order);
    free(e->tuple);
    free(e->table);
    free(e->arena.data);
}

static PyObject *
count_avoiders_dfs(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"q", "n", NULL};
    PyObject *q_obj, *seq, *result = NULL;
    int n;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "Oi:count_avoiders_dfs", kwlist,
                                     &q_obj, &n))
        return NULL;
    if (n < 0 || n > MAX_N)
        return PyErr_Format(PyExc_OverflowError,
                            "the compiled count takes n in 0..%d, got n=%d", MAX_N, n);
    if (!(seq = PySequence_Fast(q_obj, "q must be a sequence")))
        return NULL;
    Py_ssize_t k = PySequence_Fast_GET_SIZE(seq);
    if (k < 2) {  /* kernels answers these; the engine would read a q[:k-1] group */
        Py_DECREF(seq);
        return PyErr_Format(PyExc_ValueError, "the compiled count takes len(q) >= 2");
    }
    Engine e = {.k = (int)k, .n = n};
    long long *q = PyMem_Malloc(k * sizeof(long long));
    e.lo = PyMem_Malloc(2 * k * sizeof(int));
    e.kind = PyMem_Malloc(k * k);
    if (!q || !e.lo || !e.kind) {
        PyErr_NoMemory();
        goto done;
    }
    e.hi = e.lo + k;
    for (Py_ssize_t i = 0; i < k; i++) {
        q[i] = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(seq, i));
        if (q[i] == -1 && PyErr_Occurred())
            goto done;
    }
    describe(q, e.k, e.lo, e.hi, e.kind);
    uint64_t counts[MAX_N + 1];
    Py_BEGIN_ALLOW_THREADS
    run(&e, counts);
    release(&e);
    Py_END_ALLOW_THREADS
    if (e.failed) {
        PyErr_NoMemory();
        goto done;
    }
    result = PyList_New(n + 1);
    for (int m = 0; result && m <= n; m++) {
        PyObject *c = PyLong_FromUnsignedLongLong(counts[m]);
        if (!c)
            Py_CLEAR(result);
        else
            PyList_SET_ITEM(result, m, c);
    }
done:
    PyMem_Free(q);
    PyMem_Free(e.lo);
    PyMem_Free(e.kind);
    Py_DECREF(seq);
    return result;
}

static PyMethodDef methods[] = {
    {"count_avoiders_dfs", (PyCFunction)(void (*)(void))count_avoiders_dfs,
     METH_VARARGS | METH_KEYWORDS, "Avoider counts of q for the lengths 0..n."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_ext", "Compiled avoider count for permcodec.kernels.", -1, methods,
};

PyMODINIT_FUNC
PyInit__ext(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m && PyModule_AddStringConstant(m, "BACKEND", "compiled") < 0)
        Py_CLEAR(m);
    return m;
}
