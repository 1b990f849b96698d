/* Compiled replication kernel for the flow-level balance simulator.
 *
 * Twin of allpath._balance_py, which is the executable specification.  It
 * mirrors that code operation for operation: the same splitmix64 stream and
 * draw order, the same arrival-before-departure tie rule, the same k-th
 * maximizer tie break, departures in a binary heap on (time, path) sifted
 * exactly as heapq sifts them, and the same busy credit: each admitted flow's
 * holding time clipped to [warmup, duration], added once when it is admitted.
 * So both kernels return identical results, busy floats included, for a given
 * seed.
 *
 * The event loop, simulate(), runs without the GIL: it touches no Python
 * object, and each call owns its Replication struct and the buffers in it,
 * so allpath.balance runs replications on several threads at once.  Argument
 * parsing and building the result hold the GIL.
 *
 * Build with -ffp-contract=off (setup.py does): a fused multiply-add rounds
 * once where the Python twin rounds twice.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>

enum { HOLD_EXP = 0, HOLD_DCMIX = 1, HOLD_DET = 2 };

typedef struct { double time; Py_ssize_t path; } Departure;

static uint64_t next_u64(uint64_t *state)
{
    uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* In (0, 1]: safe for log(). */
static double uniform(uint64_t *state)
{
    return (double)((next_u64(state) >> 11) + 1) * 0x1p-53;
}

/* Tuple order of (time, path), as heapq compares its items. */
static int dep_less(const Departure *a, const Departure *b)
{
    return a->time != b->time ? a->time < b->time : a->path < b->path;
}

/* heapq._siftdown: move heap[pos] up towards startpos. */
static void sift_down(Departure *heap, Py_ssize_t startpos, Py_ssize_t pos)
{
    Departure item = heap[pos];
    while (pos > startpos) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!dep_less(&item, &heap[parent]))
            break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = item;
}

/* heapq._siftup: move the smaller child up to a leaf, then sift_down. */
static void sift_up(Departure *heap, Py_ssize_t end, Py_ssize_t pos)
{
    Py_ssize_t start = pos, child = 2 * pos + 1;
    Departure item = heap[pos];
    while (child < end) {
        if (child + 1 < end && !dep_less(&heap[child], &heap[child + 1]))
            child++;
        heap[pos] = heap[child];
        pos = child;
        child = 2 * pos + 1;
    }
    heap[pos] = item;
    sift_down(heap, start, pos);
}

static double draw_holding(uint64_t *state, int kind, const double *p)
{
    if (kind == HOLD_EXP)
        return -log(uniform(state)) * p[0];
    if (kind == HOLD_DCMIX) {
        if (uniform(state) < p[0])
            return p[1];
        return p[2] + (p[3] - p[2]) * uniform(state);
    }
    return p[0];
}

typedef struct {
    Py_ssize_t n;
    long *caps, *occ;
    double *busy, lam, duration, warmup, p[4];
    Departure *heap;
    int hold_kind;
    uint64_t state;
    long long arrivals, losses;
} Replication;

/* The event loop of _balance_py.run_replication. */
static void simulate(Replication *r)
{
    const Py_ssize_t n = r->n;
    const long *caps = r->caps;
    long *occ = r->occ;
    Departure *heap = r->heap;
    Py_ssize_t n_active = 0, i;
    double next_arr = -log(uniform(&r->state)) / r->lam;

    for (;;) {
        double next_dep = n_active ? heap[0].time : INFINITY;
        double t = next_dep < next_arr ? next_dep : next_arr;
        if (t >= r->duration)
            break;
        if (next_arr <= next_dep) {
            long best = caps[0] - occ[0];
            Py_ssize_t n_best = 1, choice = 0;
            if (t > r->warmup)
                r->arrivals++;
            for (i = 1; i < n; i++) {
                long avail = caps[i] - occ[i];
                if (avail > best) {
                    best = avail;
                    n_best = 1;
                    choice = i;
                } else if (avail == best)
                    n_best++;
            }
            if (best <= 0) {
                if (t > r->warmup)
                    r->losses++;
            } else {
                if (n_best > 1) {
                    /* the k-th maximizer in path order */
                    Py_ssize_t k = (Py_ssize_t)(uniform(&r->state) * (double)n_best);
                    if (k >= n_best)
                        k = n_best - 1;
                    for (i = 0; i < n; i++)
                        if (caps[i] - occ[i] == best && k-- == 0)
                            break;
                    choice = i;
                }
                occ[choice]++;
                double end = t + draw_holding(&r->state, r->hold_kind, r->p);
                double share = (end < r->duration ? end : r->duration)
                               - (t > r->warmup ? t : r->warmup);
                if (share > 0)
                    r->busy[choice] += share;
                heap[n_active].time = end;
                heap[n_active].path = choice;
                sift_down(heap, 0, n_active++);
            }
            next_arr = t - log(uniform(&r->state)) / r->lam;
        } else {
            Departure first = heap[0];
            if (--n_active) {
                heap[0] = heap[n_active];
                sift_up(heap, n_active, 0);
            }
            occ[first.path]--;
        }
    }
}

PyDoc_STRVAR(run_replication_doc,
"run_replication(capacities, lam, duration, warmup, seed, hold_kind, p0, p1, p2, p3)\n"
"--\n\n"
"Simulate one replication; returns (busy_integrals, span, arrivals, losses).\n"
"Same contract and results as allpath._balance_py.run_replication.");

static PyObject *run_replication(PyObject *module, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"capacities", "lam", "duration", "warmup", "seed",
                             "hold_kind", "p0", "p1", "p2", "p3", NULL};
    PyObject *capacities, *seed, *seq, *busy_out = NULL;
    Replication r = {0};
    Py_ssize_t i, total = 0;

    (void)module;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OdddOidddd", kwlist, &capacities,
                                     &r.lam, &r.duration, &r.warmup, &seed, &r.hold_kind,
                                     &r.p[0], &r.p[1], &r.p[2], &r.p[3]))
        return NULL;
    /* a NaN rate would pop an empty heap, an infinite duration never ends */
    if (!(r.lam > 0 && r.lam < INFINITY && r.duration > 0 && r.duration < INFINITY)) {
        PyErr_SetString(PyExc_ValueError, "lam and duration must be finite and positive");
        return NULL;
    }
    if ((seed = PyNumber_Index(seed)) == NULL)
        return NULL;
    r.state = PyLong_AsUnsignedLongLongMask(seed);  /* seed mod 2**64, as the twin */
    Py_DECREF(seed);
    if ((seq = PySequence_Fast(capacities, "capacities must be a sequence")) == NULL)
        return NULL;
    r.n = PySequence_Fast_GET_SIZE(seq);
    if (r.n == 0) {
        PyErr_SetString(PyExc_ValueError, "capacities must not be empty");
        goto done;
    }
    r.caps = PyMem_New(long, r.n);
    r.occ = PyMem_Calloc(r.n, sizeof(long));
    r.busy = PyMem_Calloc(r.n, sizeof(double));
    if (r.caps == NULL || r.occ == NULL || r.busy == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < r.n; i++) {
        /* TypeError for a non-integer, OverflowError beyond a C long */
        long cap = r.caps[i] = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, i));
        if (cap == -1 && PyErr_Occurred())
            goto done;
        /* a flow is admitted only while occ < cap, so no more flows than the
           sum of the positive capacities are ever active */
        if (cap > 0) {
            if (cap > PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(Departure) - total) {
                PyErr_NoMemory();
                goto done;
            }
            total += cap;
        }
    }
    if ((r.heap = PyMem_New(Departure, total ? total : 1)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    Py_BEGIN_ALLOW_THREADS
    simulate(&r);
    Py_END_ALLOW_THREADS
    if ((busy_out = PyList_New(r.n)) == NULL)
        goto done;
    for (i = 0; i < r.n; i++) {
        PyObject *x = PyFloat_FromDouble(r.busy[i]);
        if (x == NULL) {
            Py_CLEAR(busy_out);
            goto done;
        }
        PyList_SET_ITEM(busy_out, i, x);
    }
done:
    Py_DECREF(seq);
    PyMem_Free(r.caps);
    PyMem_Free(r.occ);
    PyMem_Free(r.busy);
    PyMem_Free(r.heap);
    if (busy_out == NULL)
        return NULL;
    return Py_BuildValue("(NdLL)", busy_out, r.duration - r.warmup, r.arrivals, r.losses);
}

static PyMethodDef methods[] = {
    {"run_replication", (PyCFunction)(void (*)(void))run_replication,
     METH_VARARGS | METH_KEYWORDS, run_replication_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_balance_core",
    .m_doc = "Compiled twin of allpath._balance_py.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__balance_core(void)
{
    return PyModule_Create(&module);
}
