/*
 * Compiled count DFS for permcodec.kernels.
 *
 * count_avoiders_dfs(q, n, first=0) counts the permutations of 1..n that
 * avoid q, and walks the same tree as permcodec._pure.avoiders (see that
 * module for the algorithm): a prefix is extended value by value while it
 * stays q-free, so each extension needs one search, for an occurrence of q
 * ending at the new entry. The window providers are built once per call and
 * the walk runs without the GIL.
 *
 * The caller, permcodec.kernels, checks that q is a permutation of 1..k.
 * The total is a 64-bit integer, so n past MAX_N is refused: 20! < 2**63.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#define MAX_N 20

typedef struct {
    int n, k, first;
    const int *lo, *hi;  /* per slot: the earlier slot bounding it below/above, or -1 */
    int *chosen;         /* value assigned to each slot so far */
    int prefix[MAX_N];
    unsigned char used[MAX_N + 1];
} Walk;

/* Window providers for the assignment order k-1, 0, 1, ..., k-2. */
static void
bounds(const long long *q, int k, int *lo, int *hi)
{
    for (int ai = 0; ai < k; ai++) {
        int a = ai == 0 ? k - 1 : ai - 1;
        lo[a] = hi[a] = -1;
        for (int bi = 0; bi < ai; bi++) {
            int b = bi == 0 ? k - 1 : bi - 1;
            if (q[b] < q[a] && (lo[a] < 0 || q[b] > q[lo[a]]))
                lo[a] = b;
            else if (q[b] > q[a] && (hi[a] < 0 || q[b] < q[hi[a]]))
                hi[a] = b;
        }
    }
}

/* Can slots a..k-2 take increasing indices in prefix[start:stop]? */
static int
search(Walk *w, int a, int start, int stop)
{
    int la = w->lo[a], ha = w->hi[a];
    for (int i = start; i < stop - (w->k - 2 - a); i++) {
        int v = w->prefix[i];
        if ((la >= 0 && w->chosen[la] >= v) || (ha >= 0 && w->chosen[ha] <= v))
            continue;
        w->chosen[a] = v;
        if (a == w->k - 2 || search(w, a + 1, i + 1, stop))
            return 1;
    }
    return 0;
}

static unsigned long long
walk(Walk *w, int d)
{
    if (d == w->n)
        return 1;
    unsigned long long total = 0;
    int v_lo = 1, v_hi = w->n;
    if (d == 0 && w->first)
        v_lo = v_hi = w->first;
    for (int v = v_lo; v <= v_hi; v++) {
        if (w->used[v])
            continue;
        w->prefix[d] = v;
        w->chosen[w->k - 1] = v;
        if (d + 1 >= w->k && search(w, 0, 0, d))
            continue;
        w->used[v] = 1;
        total += walk(w, d + 1);
        w->used[v] = 0;
    }
    return total;
}

static PyObject *
count_avoiders_dfs(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"q", "n", "first", NULL};
    PyObject *q_obj, *seq, *result = NULL;
    int n, first = 0;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "Oi|i:count_avoiders_dfs", kwlist,
                                     &q_obj, &n, &first))
        return NULL;
    if (n < 0 || n > MAX_N)
        return PyErr_Format(PyExc_OverflowError,
                            "the compiled count takes n in 0..%d, got n=%d", MAX_N, n);
    if (first < 0 || first > n)
        return PyErr_Format(PyExc_ValueError, "first must lie in 0..%d, got %d", n, first);
    if (!(seq = PySequence_Fast(q_obj, "q must be a sequence")))
        return NULL;
    Py_ssize_t k = PySequence_Fast_GET_SIZE(seq);
    if (k < 2) {  /* () occurs in every permutation, (1) in every nonempty one */
        Py_DECREF(seq);
        return PyLong_FromLong(k == 1 && n == 0);
    }
    long long *q = PyMem_Malloc(k * sizeof(long long));
    int *slots = PyMem_Malloc(3 * k * sizeof(int));
    if (!q || !slots) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < k; i++) {
        q[i] = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(seq, i));
        if (q[i] == -1 && PyErr_Occurred())
            goto done;
    }
    Walk w = {.n = n, .k = (int)k, .first = first,
              .lo = slots, .hi = slots + k, .chosen = slots + 2 * k};
    bounds(q, w.k, slots, slots + k);
    unsigned long long total;
    Py_BEGIN_ALLOW_THREADS
    total = walk(&w, 0);
    Py_END_ALLOW_THREADS
    result = PyLong_FromUnsignedLongLong(total);
done:
    PyMem_Free(q);
    PyMem_Free(slots);
    Py_DECREF(seq);
    return result;
}

static PyMethodDef methods[] = {
    {"count_avoiders_dfs", (PyCFunction)(void (*)(void))count_avoiders_dfs,
     METH_VARARGS | METH_KEYWORDS,
     "Count permutations of 1..n avoiding q, optionally with a fixed first entry."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_ext", "Compiled count DFS for permcodec.kernels.", -1, methods,
};

PyMODINIT_FUNC
PyInit__ext(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m && PyModule_AddStringConstant(m, "BACKEND", "compiled") < 0)
        Py_CLEAR(m);
    return m;
}
