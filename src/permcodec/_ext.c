/*
 * Compiled kernels for permcodec.kernels: the avoider count, the codec's
 * encode and decode, each one call that checks its input and runs the level
 * passes, and the verify sweep, which walks the avoiders and sends each
 * through those passes. setup.py passes SOURCE_CRC32, the CRC-32 of this
 * file, which the module exposes so that permcodec.kernels can tell a stale
 * build from a fresh one.
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

#ifndef SOURCE_CRC32
#error "build with setup.py, which defines SOURCE_CRC32 as the CRC-32 of this file"
#endif

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

/* ---------------------------------------------------------------------------
 * The codec and the verify sweep: encode, decode and verify_shard, ported
 * one for one from their twins in permcodec._pure (see those for the
 * algorithms), so that codes, decode outcomes and sweep reports are
 * bit-exact. Three cores, the staircase floor, the per-level encode and
 * the greedy fill, serve every entry. encode and decode each do a whole codec
 * operation: encode checks that p is a permutation of 1..n and runs the floor
 * before it encodes; decode checks every letter against the alphabet of the
 * caller's k, then fills, runs the floor over the fill and re-encodes it into
 * scratch, and raises permcodec.errors.MalformedInput or NotInImage with the
 * messages of its twin. Entries and letters are C integers: permcodec.kernels
 * lowers every k to at most 2n + 5, so every level and offset fits 64 bits,
 * and it hands decode the caller's k only up to MAX_K. The cores report a
 * failed allocation by their result, and the entries raise MemoryError
 * holding the GIL. The sweep runs them without the GIL, so their buffers then
 * come from PyMem_Raw*; under the GIL they come from PyMem_*, whose small
 * blocks are cheaper.
 */

#define MAX_K ((long long)1 << 62)
#define INF PY_SSIZE_T_MAX

/* Read a sequence of integers in 1..top; set an exception and return 0 otherwise. */
static int
read_entries(PyObject *seq, Py_ssize_t *out, Py_ssize_t top)
{
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(seq); i++) {
        out[i] = PyLong_AsSsize_t(PySequence_Fast_GET_ITEM(seq, i));
        if (out[i] == -1 && PyErr_Occurred())
            return 0;
        if (out[i] < 1 || out[i] > top) {
            PyErr_Format(PyExc_ValueError, "entries must lie in 1..%zd", top);
            return 0;
        }
    }
    return 1;
}

static PyObject *
tuple_of(const Py_ssize_t *values, Py_ssize_t n)
{
    PyObject *t = PyTuple_New(n);
    for (Py_ssize_t i = 0; t && i < n; i++) {
        PyObject *v = PyLong_FromSsize_t(values[i]);
        if (!v)
            Py_CLEAR(t);
        else
            PyTuple_SET_ITEM(t, i, v);
    }
    return t;
}

static PyObject *
letters_of(const long long *letters, Py_ssize_t n)
{
    PyObject *t = PyTuple_New(n);
    for (Py_ssize_t i = 0; t && i < n; i++) {
        PyObject *v = PyLong_FromLongLong(letters[i]);
        if (!v)
            Py_CLEAR(t);
        else
            PyTuple_SET_ITEM(t, i, v);
    }
    return t;
}

/* Resize or free a block from PyMem_Raw* (raw) or PyMem_*, which needs the GIL. */
static void *
mem_resize(int raw, void *block, size_t size)
{
    return raw ? PyMem_RawRealloc(block, size) : PyMem_Realloc(block, size);
}

static void
mem_free(int raw, void *block)
{
    if (raw)
        PyMem_RawFree(block);
    else
        PyMem_Free(block);
}

/* The staircase floor of permcodec.perms.StaircaseFloor, over entries pushed right to left. */
typedef struct {
    Py_ssize_t b, above;  /* an entry of a pair layer, and the floor of the layers after it */
} Tail;

typedef struct {
    int raw;                              /* its buffers come from PyMem_Raw* */
    Py_ssize_t layers, first_pair, room;  /* room: the layers its buffers hold */
    Py_ssize_t *floors;  /* floors[0..layers]; floors[layers] is INF */
    Py_ssize_t *len, *cap;
    Tail **tails;        /* per layer; only the pair layers fill theirs */
} Floor;

static void
floor_free(Floor *f)
{
    for (Py_ssize_t j = 0; j < f->room; j++)
        mem_free(f->raw, f->tails[j]);
    mem_free(f->raw, f->floors);
    *f = (Floor){.raw = f->raw};
}

/* Empty f for the length-k staircase, k >= 3, keeping the buffers it has; 0 on a
 * failed allocation, when the caller still frees it. */
static int
floor_init(Floor *f, Py_ssize_t k)
{
    Py_ssize_t layers = k / 2 + 1;
    if (layers > f->room) {  /* one block: floors, len and cap, then the tails */
        size_t size = (3 * layers + 1) * sizeof(Py_ssize_t) + layers * sizeof(Tail *);
        floor_free(f);
        if (!(f->floors = mem_resize(f->raw, NULL, size)))
            return 0;
        memset(f->floors, 0, size);
        f->room = layers;
        f->len = f->floors + layers + 1;
        f->cap = f->len + layers;
        f->tails = (Tail **)(f->cap + layers);
    }
    f->layers = layers;
    f->first_pair = 1 - k % 2;  /* an even k opens with a singleton layer */
    for (Py_ssize_t j = 0; j < layers; j++)
        f->floors[j] = f->len[j] = 0;
    f->floors[layers] = INF;  /* any entry may open the top layer */
    return 1;
}

/* Add x left of every entry pushed so far; 0 on a failed allocation. */
static int
floor_push(Floor *f, Py_ssize_t x)
{
    Py_ssize_t *floors = f->floors;
    for (Py_ssize_t j = 0; j < f->layers; j++) {
        int fits = x < floors[j + 1];  /* x may open layer j */
        if (j < f->first_pair || j == f->layers - 1) {
            if (fits && x > floors[j])
                floors[j] = x;
            continue;
        }
        Py_ssize_t best = floors[j];
        for (Py_ssize_t t = f->len[j]; t-- > 0 && f->tails[j][t].above > x;)
            if (best < f->tails[j][t].b && f->tails[j][t].b < x)
                best = f->tails[j][t].b;
        floors[j] = best;
        if (!fits)
            continue;
        if (f->len[j] == f->cap[j]) {
            Py_ssize_t cap = f->cap[j] ? 2 * f->cap[j] : 16;
            Tail *tails = mem_resize(f->raw, f->tails[j], cap * sizeof(Tail));
            if (!tails)
                return 0;
            f->tails[j] = tails;
            f->cap[j] = cap;
        }
        f->tails[j][f->len[j]++] = (Tail){x, floors[j + 1]};
    }
    return 1;
}

/* The level and letter offset of permcodec._pure._level and _offset. */
static long long
level_of(long long letter, long long k)
{
    long long level = 2 * (k / 2 - letter / 3) + (letter % 3 == 0);
    return level > 3 ? level : 3;
}

static long long
offset_of(long long level, long long k)
{
    return 3 * (k / 2 - level / 2);
}

/* The inputs, outputs and scratch of the cores, for n entries. */
typedef struct {
    Py_ssize_t n;
    Py_ssize_t *p, *out;                  /* a permutation to encode, and a fill */
    long long *w, *again;                 /* codes: n letters by position, then n by value */
    Py_ssize_t *rest, *values, *lo, *hi;  /* encode: the unlettered positions, their values, spans */
    Py_ssize_t *slots, *marked, *pool;    /* fill: one level's slots, its marked and other values */
    long long *levels;
    char *mask;
    Floor f;
} Work;

/* One block for all, from PyMem_Raw* if raw; 0 on a failed allocation, when the
 * caller still frees s. */
static int
work_init(Work *s, Py_ssize_t n, int raw)
{
    s->n = n;
    s->f.raw = raw;
    s->p = mem_resize(raw, NULL, 9 * n * sizeof(Py_ssize_t) + 5 * n * sizeof(long long) + n + 1);
    if (!s->p)
        return 0;
    s->out = s->p + n;
    s->rest = s->out + n;
    s->values = s->rest + n;
    s->lo = s->values + n;
    s->hi = s->lo + n;
    s->slots = s->hi + n;
    s->marked = s->slots + n;
    s->pool = s->marked + n;
    s->w = (long long *)(s->pool + n);
    s->again = s->w + 2 * n;
    s->levels = s->again + 2 * n;
    s->mask = (char *)(s->levels + n);
    return 1;
}

static void
work_free(Work *s)
{
    mem_free(s->f.raw, s->p);
    floor_free(&s->f);
}

/* The red/blue mask of permcodec.coloring.canonical_coloring over values[0..count). */
static void
color(const Py_ssize_t *values, Py_ssize_t count, char *red, Py_ssize_t *lo, Py_ssize_t *hi)
{
    Py_ssize_t spans = 0, least_red = INF, min_blue = INF;
    for (Py_ssize_t x = 0; x < count; x++) {
        Py_ssize_t v = values[x];
        int blue = v > min_blue;
        for (Py_ssize_t s = 0; !blue && s < spans; s++)
            blue = lo[s] < v && v < hi[s];
        red[x] = !blue;
        if (blue) {
            min_blue = v < min_blue ? v : min_blue;
        } else if (v < least_red) {
            least_red = v;
        } else {
            lo[spans] = least_red;
            hi[spans++] = v;
        }
    }
}

/* The code of p, n entries in 1..n, for k, into w (2n letters). 0 on a failed allocation. */
static int
encode_core(Work *s, const Py_ssize_t *p, long long *w, long long k)
{
    Py_ssize_t n = s->n, *rest = s->rest, *values = s->values, count = n;
    long long *wp = w + n;
    char *mask = s->mask;
    for (Py_ssize_t i = 0; i < n; i++) {
        rest[i] = i;
        w[i] = wp[i] = 0;
    }
    /* outside in; each even level letters at least one entry, so at most 2n + 2 levels run */
    for (long long level = k; level > 2 && count; level--) {
        long long offset = offset_of(level, k);
        Py_ssize_t kept = 0;
        for (Py_ssize_t x = 0; x < count; x++)
            values[x] = p[rest[x]];
        if (level == 3) {  /* right-to-left maxima get offset + 1 */
            Py_ssize_t best = 0;
            for (Py_ssize_t x = count; x-- > 0;) {
                w[rest[x]] = offset + (values[x] > best);
                best = values[x] > best ? values[x] : best;
            }
        } else if (level % 2) {  /* entries below the floor of those after them get offset */
            if (level - 1 > count)
                continue;  /* no entry starts a marker longer than the rest */
            if (!floor_init(&s->f, (Py_ssize_t)level - 2))
                return 0;
            for (Py_ssize_t x = count; x-- > 0;) {
                mask[x] = values[x] < s->f.floors[0];
                if (!floor_push(&s->f, values[x]))
                    return 0;
            }
            for (Py_ssize_t x = 0; x < count; x++) {
                if (mask[x])
                    w[rest[x]] = offset;
                else
                    rest[kept++] = rest[x];
            }
            count = kept;
        } else {  /* red entries: offset + 1 on their left-to-right minima, offset + 2 elsewhere */
            Py_ssize_t best = INF;
            color(values, count, mask, s->lo, s->hi);
            for (Py_ssize_t x = 0; x < count; x++) {
                if (!mask[x]) {
                    rest[kept++] = rest[x];
                    continue;
                }
                w[rest[x]] = offset + 1 + (values[x] >= best);
                best = values[x] < best ? values[x] : best;
            }
            count = kept;
        }
    }
    for (Py_ssize_t i = 0; i < n; i++)
        wp[p[i] - 1] = w[i];
    return 1;
}

/* Raise the exception class `name` of permcodec.errors with a PyUnicode_FromFormat message. */
static void
raise_error(const char *name, const char *format, ...)
{
    va_list args;
    va_start(args, format);
    PyObject *message = PyUnicode_FromFormatV(format, args);
    va_end(args);
    PyObject *errors = message ? PyImport_ImportModule("permcodec.errors") : NULL;
    PyObject *cls = errors ? PyObject_GetAttrString(errors, name) : NULL;
    if (cls)
        PyErr_SetObject(cls, message);
    Py_XDECREF(cls);
    Py_XDECREF(errors);
    Py_XDECREF(message);
}

/* The floor of the length-k staircase over p, n entries (0 iff p avoids it), or -1 on a
 * failed allocation. */
static Py_ssize_t
floor_over(Work *s, const Py_ssize_t *p, long long k)
{
    if (k > s->n)  /* a longer pattern never occurs */
        return 0;
    if (!floor_init(&s->f, (Py_ssize_t)k))
        return -1;
    for (Py_ssize_t i = s->n; i-- > 0;)
        if (!floor_push(&s->f, p[i]))
            return -1;
    return s->f.floors[0];
}

/* The pair (w, wp) of the 2n letters of a code. */
static PyObject *
code_of(const long long *w, Py_ssize_t n)
{
    PyObject *w_obj = letters_of(w, n), *wp_obj = w_obj ? letters_of(w + n, n) : NULL;
    PyObject *pair = wp_obj ? PyTuple_Pack(2, w_obj, wp_obj) : NULL;
    Py_XDECREF(w_obj);
    Py_XDECREF(wp_obj);
    return pair;
}

/* The code (w, wp) of p for k, or None when p holds the length-k staircase; MalformedInput
 * unless p is a permutation of 1..n. */
static PyObject *
encode(PyObject *self, PyObject *args)
{
    PyObject *p_obj, *seq, *result = NULL;
    long long k;
    if (!PyArg_ParseTuple(args, "OL:encode", &p_obj, &k))
        return NULL;
    if (k < 3 || k > MAX_K)
        return PyErr_Format(PyExc_ValueError, "the compiled encode takes k in 3..2**62, got %lld",
                            k);
    if (!(seq = PySequence_Fast(p_obj, "p must be a sequence")))
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq), floor;
    Work s = {0};
    if (!work_init(&s, n, 0)) {
        PyErr_NoMemory();
        goto done;
    }
    memset(s.mask, 0, n);  /* the values seen so far */
    for (Py_ssize_t i = 0; i < n; i++) {
        int overflow;
        long long v = PyLong_AsLongLongAndOverflow(PySequence_Fast_GET_ITEM(seq, i), &overflow);
        if (v == -1 && PyErr_Occurred())
            goto done;
        if (overflow || v < 1 || v > n || s.mask[v - 1]++) {
            PyObject *t = PySequence_Tuple(seq);
            if (t)
                raise_error("MalformedInput", "not a permutation of 1..%zd: %R", n, t);
            Py_XDECREF(t);
            goto done;
        }
        s.p[i] = (Py_ssize_t)v;
    }
    if ((floor = floor_over(&s, s.p, k)) < 0 || (!floor && !encode_core(&s, s.p, s.w, k))) {
        PyErr_NoMemory();
        goto done;
    }
    result = floor ? Py_NewRef(Py_None) : code_of(s.w, n);
done:
    work_free(&s);
    Py_DECREF(seq);
    return result;
}

static int
compare_levels(const void *a, const void *b)
{
    long long x = *(const long long *)a, y = *(const long long *)b;
    return (x > y) - (x < y);
}

/* The first index of sorted[0..count) whose value is above x (right) or at least x (left). */
static Py_ssize_t
bisect(const Py_ssize_t *sorted, Py_ssize_t count, Py_ssize_t x, int right)
{
    Py_ssize_t low = 0, high = count;
    while (low < high) {
        Py_ssize_t mid = low + (high - low) / 2;
        if (sorted[mid] < x || (right && sorted[mid] == x))
            low = mid + 1;
        else
            high = mid;
    }
    return low;
}

static Py_ssize_t
pop(Py_ssize_t *sorted, Py_ssize_t *count, Py_ssize_t at)
{
    Py_ssize_t v = sorted[at];
    memmove(sorted + at, sorted + at + 1, (--*count - at) * sizeof(Py_ssize_t));
    return v;
}

enum { NO_MEMORY = -1, STUCK, FILLED };

static int
stuck(const char **why, const char *message)
{
    *why = message;
    return STUCK;
}

/* The greedy fill of the code in s->w, n letters a word, none negative, for k in
 * 3..MAX_K, into s->out: FILLED, STUCK with *why the NotInImage message, or NO_MEMORY. */
static int
fill_core(Work *s, long long k, const char **why)
{
    const long long *w = s->w, *wp = w + s->n;
    long long *levels = s->levels;
    Py_ssize_t n = s->n, *out = s->out, *slots = s->slots, *marked = s->marked, *pool = s->pool;
    Py_ssize_t distinct = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        out[i] = 0;
        levels[i] = level_of(w[i], k);
    }
    qsort(levels, n, sizeof(long long), compare_levels);
    for (Py_ssize_t i = 0; i < n; i++)  /* a level without letters fills nothing */
        if (!distinct || levels[i] != levels[distinct - 1])
            levels[distinct++] = levels[i];
    for (Py_ssize_t d = 0; d < distinct; d++) {
        long long level = levels[d], offset = offset_of(level, k);
        Py_ssize_t count = 0, marks = 0, unmarked = 0, at;
        if (level == 3) {
            /* rl-max greedy: right to left, the marked values rise, and each
             * other slot takes the largest value below the next maximum */
            Py_ssize_t limit = 0, next = 0;
            for (Py_ssize_t i = 0; i < n; i++)
                if (w[i] >= offset)
                    slots[count++] = i;
            for (Py_ssize_t v = 1; v <= n; v++) {
                if (wp[v - 1] == offset + 1)
                    marked[marks++] = v;
                else if (wp[v - 1] == offset)
                    pool[unmarked++] = v;
            }
            for (Py_ssize_t x = count; x-- > 0;) {
                Py_ssize_t i = slots[x];
                if (w[i] != offset) {
                    if (next == marks)
                        return stuck(why, "the two words must share one letter multiset");
                    limit = out[i] = marked[next++];
                    continue;
                }
                if ((at = bisect(pool, unmarked, limit, 0) - 1) < 0)
                    return stuck(why, "no unmarked value fits below the next maximum");
                out[i] = pop(pool, &unmarked, at);
            }
        } else if (level % 2 == 0) {
            /* lr-min greedy: left to right, the marked values fall, and each
             * other slot takes the smallest value above the latest minimum */
            Py_ssize_t minimum = 0;
            for (Py_ssize_t i = 0; i < n; i++)
                if (offset < w[i] && w[i] <= offset + 2)
                    slots[count++] = i;
            for (Py_ssize_t v = 1; v <= n; v++) {
                if (wp[v - 1] == offset + 1)
                    marked[marks++] = v;
                else if (wp[v - 1] == offset + 2)
                    pool[unmarked++] = v;
            }
            for (Py_ssize_t x = 0; x < count; x++) {
                Py_ssize_t i = slots[x];
                if (w[i] != offset + 2) {
                    if (!marks)
                        return stuck(why, "the two words must share one letter multiset");
                    minimum = out[i] = marked[--marks];
                    continue;
                }
                if ((at = bisect(pool, unmarked, minimum, 1)) >= unmarked)
                    return stuck(why, "no unmarked value stays above the running minimum");
                out[i] = pop(pool, &unmarked, at);
            }
        } else {
            /* right to left, the largest free value below the floor of the slots after it */
            for (Py_ssize_t i = 0; i < n; i++)
                if (w[i] >= offset)
                    slots[count++] = i;
            if (level - 1 > count)  /* also keeps a huge level from building its floor */
                return stuck(why, "too few entries to start the required pattern");
            for (Py_ssize_t v = 1; v <= n; v++)
                if (wp[v - 1] == offset)
                    pool[unmarked++] = v;
            if (!floor_init(&s->f, (Py_ssize_t)level - 2))
                return NO_MEMORY;
            for (Py_ssize_t x = count; x-- > 0;) {
                Py_ssize_t i = slots[x];
                if (w[i] == offset) {
                    if ((at = bisect(pool, unmarked, s->f.floors[0], 0) - 1) < 0)
                        return stuck(why, "no remaining value starts the required pattern here");
                    out[i] = pop(pool, &unmarked, at);
                }
                if (!floor_push(&s->f, out[i]))
                    return NO_MEMORY;
            }
        }
    }
    return FILLED;
}

/* The avoider of the code in s->w for low, which kernels lowered from k: FILLED with it in
 * s->out, STUCK with *why the NotInImage message, or NO_MEMORY. */
static int
decode_core(Work *s, long long k, long long low, const char **why)
{
    Py_ssize_t n = s->n, floor;
    int state;
    /* from the lowered base level up, a letter names a level that no length-n code reaches */
    if (low < k)
        for (Py_ssize_t i = 0; i < 2 * n; i++)
            if (s->w[i] >= 3 * (low / 2 - 1))
                return stuck(why, "a letter names a level that no code of this length reaches");
    if ((state = fill_core(s, low, why)) != FILLED)
        return state;
    if ((floor = floor_over(s, s->out, low)) != 0)
        return floor < 0 ? NO_MEMORY : stuck(why, "greedy fill produced a pattern occurrence");
    if (!encode_core(s, s->out, s->again, low))
        return NO_MEMORY;
    if (memcmp(s->again, s->w, 2 * n * sizeof(long long)))
        return stuck(why, "re-encoding does not reproduce the pair");
    return FILLED;
}

/* Read the letters of word (seq, its fast sequence) into out; 0 with an exception set on a
 * letter that is not an int, or with MalformedInput on one outside the alphabet for k. */
static int
read_word(PyObject *word, PyObject *seq, long long *out, long long k)
{
    /* the alphabet of permcodec.words.WordFamily.for_pattern_length(k) */
    long long bottom = k % 2 == 0, top = k % 2 ? 3 * ((k + 1) / 2) - 5 : 3 * (k / 2) - 2;
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(seq); i++) {
        int overflow;
        out[i] = PyLong_AsLongLongAndOverflow(PySequence_Fast_GET_ITEM(seq, i), &overflow);
        if (out[i] == -1 && PyErr_Occurred())
            return 0;
        if (overflow || out[i] < bottom || out[i] > top) {
            raise_error("MalformedInput", "letters outside the alphabet for k=%lld: %S", k, word);
            return 0;
        }
    }
    return 1;
}

/* The avoider whose code for k is (w, wp), decoded with the passes for low; MalformedInput
 * or NotInImage otherwise. */
static PyObject *
decode(PyObject *self, PyObject *args)
{
    PyObject *w_obj, *wp_obj, *w_seq = NULL, *wp_seq = NULL, *result = NULL;
    long long k, low;
    const char *why;
    Work s = {0};
    if (!PyArg_ParseTuple(args, "OOLL:decode", &w_obj, &wp_obj, &k, &low))
        return NULL;
    if (low < 3 || low > k || k > MAX_K)
        return PyErr_Format(PyExc_ValueError,
                            "the compiled decode takes 3 <= low <= k <= 2**62, got %lld and %lld",
                            low, k);
    if (!(w_seq = PySequence_Fast(w_obj, "w must be a sequence"))
        || !(wp_seq = PySequence_Fast(wp_obj, "wp must be a sequence")))
        goto done;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(w_seq);
    if (PySequence_Fast_GET_SIZE(wp_seq) != n) {
        PyErr_SetString(PyExc_ValueError, "the two words must have one length");
        goto done;
    }
    if (!work_init(&s, n, 0)) {
        PyErr_NoMemory();
        goto done;
    }
    if (!read_word(w_obj, w_seq, s.w, k) || !read_word(wp_obj, wp_seq, s.w + n, k))
        goto done;
    switch (decode_core(&s, k, low, &why)) {
    case FILLED:
        result = tuple_of(s.out, n);
        break;
    case STUCK:
        raise_error("NotInImage", "%s", why);
        break;
    default:
        PyErr_NoMemory();
    }
done:
    work_free(&s);
    Py_XDECREF(w_seq);
    Py_XDECREF(wp_seq);
    return result;
}

/* ---------------------------------------------------------------------------
 * verify_shard: the sweep of permcodec._pure.verify_shard. It walks the
 * avoiders of q as _pure.avoiders does (prefix DFS in lexicographic order,
 * one search per new entry for an occurrence ending at it), kept on explicit
 * stacks instead of recursion, and sends each avoider through the two cores,
 * the round-trip compare, the word check of permcodec.words.validate_word on
 * both words and, for an even k, the first-letter check. It runs without the
 * GIL and keeps its example permutations in C buffers until it has it back.
 */

enum { ROUND_TRIP, IMAGE, FIRST_LETTER, DEFECTS };

typedef struct {
    Py_ssize_t *data;  /* count permutations of n entries each */
    Py_ssize_t count, room;
} Found;

typedef struct {
    Py_ssize_t kq, n, first, cap;
    long long k, bottom, top;  /* the codec's k and its alphabet bottom..top */
    int check_first, failed;
    Py_ssize_t *q, *lo, *hi;   /* the walked pattern and its window providers */
    Py_ssize_t *chosen, *at;   /* the search: one value and the next position per slot */
    Py_ssize_t *prefix, *next; /* the walk: the avoider so far (work.p) and the next value per depth */
    char *used;
    Work work;
    unsigned long long total, counts[DEFECTS];
    Found found[DEFECTS];
} Shard;

/* Window providers for the walk's slot order kq-1, 0, 1, ..., kq-2; see _pure._bounds. */
static void
walk_bounds(Shard *s)
{
    Py_ssize_t kq = s->kq, *q = s->q, *lo = s->lo, *hi = s->hi;
    for (Py_ssize_t a = 0; a < kq; a++) {
        lo[a] = hi[a] = -1;
        for (Py_ssize_t b = -1; a < kq - 1 && b < a; b++) {
            Py_ssize_t seen = b < 0 ? kq - 1 : b;  /* slot kq-1 is assigned first */
            if (q[seen] < q[a] && (lo[a] < 0 || q[seen] > q[lo[a]]))
                lo[a] = seen;
            else if (q[seen] > q[a] && (hi[a] < 0 || q[seen] < q[hi[a]]))
                hi[a] = seen;
        }
    }
}

/* Whether slots 0..last fit increasing positions of prefix[0..stop) within their
 * windows, slot kq-1 being chosen already: _pure._search on a stack. */
static int
search(Shard *s, Py_ssize_t last, Py_ssize_t stop)
{
    Py_ssize_t a = 0, *at = s->at, *chosen = s->chosen;
    at[0] = 0;
    while (a >= 0) {
        Py_ssize_t i = at[a];
        if (i >= stop - (last - a)) {  /* slot a is out of positions: back to slot a - 1 */
            a--;
            continue;
        }
        at[a] = i + 1;
        Py_ssize_t v = s->prefix[i], la = s->lo[a], ha = s->hi[a];
        if ((la >= 0 && chosen[la] >= v) || (ha >= 0 && chosen[ha] <= v))
            continue;
        chosen[a] = v;
        if (a == last)
            return 1;
        at[++a] = i + 1;
    }
    return 0;
}

/* permcodec.words.validate_word for the family of k. */
static int
word_ok(const Shard *s, const long long *word)
{
    long long before = 0;  /* no letter is -1, so the first one ends no factor */
    for (Py_ssize_t i = 0; i < s->n; i++) {
        long long x = word[i];
        if (x < s->bottom || x > s->top || (x == before - 1 && x % 3 == 2))
            return 0;
        before = x;
    }
    return 1;
}

/* Encode, fill and check the avoider in s->prefix. */
static void
check(Shard *s)
{
    Py_ssize_t n = s->n;
    long long *w = s->work.w, *wp = w + n;
    const char *why;
    s->total++;
    if (!encode_core(&s->work, s->prefix, w, s->k)) {
        s->failed = 1;
        return;
    }
    int filled = fill_core(&s->work, s->k, &why);
    if (filled == NO_MEMORY) {
        s->failed = 1;
        return;
    }
    int bad[DEFECTS] = {
        [ROUND_TRIP] = filled == STUCK || memcmp(s->work.out, s->prefix, n * sizeof(Py_ssize_t)),
        [IMAGE] = !word_ok(s, w) || !word_ok(s, wp),
        [FIRST_LETTER] = s->check_first && !(w[0] == 1 && wp[0] == 1),
    };
    for (int x = 0; x < DEFECTS; x++) {
        Found *f = &s->found[x];
        if (!bad[x])
            continue;
        s->counts[x]++;
        if (f->count == s->cap)
            continue;
        if (f->count == f->room) {
            Py_ssize_t room = f->room ? 2 * f->room : 4;
            Py_ssize_t *data = PyMem_RawRealloc(f->data, (room * n + 1) * sizeof(Py_ssize_t));
            if (!data) {
                s->failed = 1;
                return;
            }
            f->data = data;
            f->room = room;
        }
        memcpy(f->data + f->count++ * n, s->prefix, n * sizeof(Py_ssize_t));
    }
}

/* Check every length-n avoider of q, kq >= 2 and n >= 1, in lexicographic order. */
static void
walk(Shard *s)
{
    Py_ssize_t n = s->n, kq = s->kq, d = 0;
    s->next[0] = s->first ? s->first : 1;
    while (d >= 0 && !s->failed) {
        Py_ssize_t v = s->next[d], high = d == 0 && s->first ? s->first : n;
        if (v > high) {  /* depth d is done: free the entry before it */
            if (--d >= 0)
                s->used[s->prefix[d]] = 0;
            continue;
        }
        s->next[d] = v + 1;
        if (s->used[v])
            continue;
        s->prefix[d] = v;
        s->chosen[kq - 1] = v;
        if (kq <= d + 1 && search(s, kq - 2, d))
            continue;  /* q occurs ending at v */
        if (d + 1 == n) {
            check(s);
            continue;
        }
        s->used[v] = 1;
        s->next[++d] = 1;
    }
}

static PyObject *
found_tuple(const Found *f, Py_ssize_t n)
{
    PyObject *t = PyTuple_New(f->count);
    for (Py_ssize_t x = 0; t && x < f->count; x++) {
        PyObject *p = tuple_of(f->data + x * n, n);
        if (!p)
            Py_CLEAR(t);
        else
            PyTuple_SET_ITEM(t, x, p);
    }
    return t;
}

static PyObject *
verify_shard(PyObject *self, PyObject *args)
{
    PyObject *q_obj, *seq, *found[DEFECTS] = {NULL}, *result = NULL;
    Shard s = {0};
    if (!PyArg_ParseTuple(args, "OLnnn:verify_shard", &q_obj, &s.k, &s.n, &s.first, &s.cap))
        return NULL;
    if (s.k < 3 || s.k > MAX_K)
        return PyErr_Format(PyExc_ValueError, "the compiled sweep takes k in 3..2**62, got %lld",
                            s.k);
    if (s.n < 0 || s.first < 0 || s.first > s.n || s.cap < 0)
        return PyErr_Format(PyExc_ValueError,
                            "the compiled sweep takes 0 <= first <= n and cap >= 0");
    if (!(seq = PySequence_Fast(q_obj, "q must be a sequence")))
        return NULL;
    Py_ssize_t kq = s.kq = PySequence_Fast_GET_SIZE(seq), n = s.n;
    s.q = PyMem_RawCalloc(5 * kq + n + 1, sizeof(Py_ssize_t));
    s.used = PyMem_RawCalloc(n + 1, 1);
    if (!s.q || !s.used || !work_init(&s.work, n, 1)) {
        PyErr_NoMemory();
        goto done;
    }
    s.lo = s.q + kq;
    s.hi = s.lo + kq;
    s.chosen = s.hi + kq;
    s.at = s.chosen + kq;
    s.next = s.at + kq;
    s.prefix = s.work.p;
    if (!read_entries(seq, s.q, kq))
        goto done;
    for (Py_ssize_t a = 0; a < kq; a++) {  /* chosen tallies q's entries until the walk */
        if (s.chosen[s.q[a] - 1]++) {
            PyErr_SetString(PyExc_ValueError, "q must be a permutation of 1..len(q)");
            goto done;
        }
    }
    long long m = (s.k + 1) / 2;  /* the word family of k, as WordFamily.for_pattern_length */
    s.bottom = s.k % 2 == 0;
    s.top = s.k % 2 ? 3 * m - 5 : 3 * m - 2;
    s.check_first = s.k % 2 == 0 && n >= 1;
    Py_BEGIN_ALLOW_THREADS
    if (kq == 0 || (kq == 1 && n > 0))
        ;  /* () occurs in every permutation, (1) in every nonempty one */
    else if (n == 0)
        check(&s);
    else {
        walk_bounds(&s);
        walk(&s);
    }
    Py_END_ALLOW_THREADS
    if (s.failed) {
        PyErr_NoMemory();
        goto done;
    }
    for (int x = 0; x < DEFECTS; x++)
        if (!(found[x] = found_tuple(&s.found[x], n)))
            goto done;
    result = Py_BuildValue("K(KKK)(OOO)", s.total, s.counts[ROUND_TRIP], s.counts[IMAGE],
                           s.counts[FIRST_LETTER], found[ROUND_TRIP], found[IMAGE],
                           found[FIRST_LETTER]);
done:
    for (int x = 0; x < DEFECTS; x++) {
        Py_XDECREF(found[x]);
        PyMem_RawFree(s.found[x].data);
    }
    work_free(&s.work);
    PyMem_RawFree(s.q);
    PyMem_RawFree(s.used);
    Py_DECREF(seq);
    return result;
}

static PyMethodDef methods[] = {
    {"count_avoiders_dfs", (PyCFunction)(void (*)(void))count_avoiders_dfs,
     METH_VARARGS | METH_KEYWORDS, "Avoider counts of q for the lengths 0..n."},
    {"encode", encode, METH_VARARGS, "The code (w, wp) of p, or None when p holds the staircase."},
    {"decode", decode, METH_VARARGS, "The avoider whose code for k is (w, wp)."},
    {"verify_shard", verify_shard, METH_VARARGS,
     "The round-trip, image and first-letter defects of q's avoiders under the code for k."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_ext",
    "Compiled avoider count, codec and verify sweep for permcodec.kernels.", -1, methods,
};

PyMODINIT_FUNC
PyInit__ext(void)
{
    PyObject *m = PyModule_Create(&module), *crc = NULL;
    if (!m || PyModule_AddStringConstant(m, "BACKEND", "compiled") < 0
        || !(crc = PyLong_FromUnsignedLong(SOURCE_CRC32))
        || PyModule_AddObject(m, "SOURCE_CRC32", crc) < 0) {
        Py_XDECREF(crc);
        Py_CLEAR(m);
    }
    return m;
}
