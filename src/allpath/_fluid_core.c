/* Compiled max-min fill for the fluid plane of allpath.simnet.
 *
 * Twin of simnet.fill_py, which is the executable specification.  It does
 * the same floating-point operations in the same order: each round scans the
 * live links in order of first appearance (over the flows in order, over
 * each flow's links in tuple order) and keeps the first whose residual / count
 * is strictly smallest; each newly frozen flow takes the share once off each
 * of its links; a link's load is the left-to-right sum of its flows' rates in
 * flow order.  So both return identical rates and utilizations, bit for bit.
 *
 * Build with -ffp-contract=off (setup.py does): a fused multiply-add rounds
 * once where the Python twin rounds twice.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

typedef struct {
    Py_ssize_t *flow_start;  /* flow f's links are link_of[flow_start[f]..flow_start[f + 1]] */
    Py_ssize_t *link_of;
    Py_ssize_t *count;       /* per link: its unfrozen flows */
    Py_ssize_t *cross_start; /* per link: its flows, in flow order, are */
    Py_ssize_t *cross_end;   /* flow_on[cross_start[l]..cross_end[l]] */
    Py_ssize_t *flow_on;
    Py_ssize_t *live;        /* links with unfrozen flows, in order of first appearance */
    double *residual;
    double *bandwidth;
    double *load;
    double *rate;
    char *frozen;
} Fill;

static void fill_free(Fill *s)
{
    PyMem_Free(s->flow_start);
    PyMem_Free(s->link_of);
    PyMem_Free(s->count);
    PyMem_Free(s->cross_start);
    PyMem_Free(s->cross_end);
    PyMem_Free(s->flow_on);
    PyMem_Free(s->live);
    PyMem_Free(s->residual);
    PyMem_Free(s->bandwidth);
    PyMem_Free(s->load);
    PyMem_Free(s->rate);
    PyMem_Free(s->frozen);
}

/* Progressive filling over the parsed flows; n_live links are live. */
static void progressive_fill(Fill *s, Py_ssize_t n_live)
{
    for (;;) {
        Py_ssize_t k, j, w = 0, best = -1;
        double best_share = 0.0;
        for (k = 0; k < n_live; k++) {
            Py_ssize_t l = s->live[k];
            double share;
            if (s->count[l] == 0)
                continue;
            s->live[w++] = l;
            share = s->residual[l] / (double)s->count[l];
            if (best < 0 || share < best_share) {
                best = l;
                best_share = share;
            }
        }
        n_live = w;
        if (best < 0)
            return;
        for (j = s->cross_start[best]; j < s->cross_end[best]; j++) {
            Py_ssize_t f = s->flow_on[j];
            if (s->frozen[f])
                continue;
            s->frozen[f] = 1;
            s->rate[f] = best_share;
            for (k = s->flow_start[f]; k < s->flow_start[f + 1]; k++) {
                Py_ssize_t l = s->link_of[k];
                s->residual[l] -= best_share;
                s->count[l]--;
            }
        }
    }
}

/* (rates, utilization) of the filled flows, or NULL with an exception set. */
static PyObject *fill_result(const Fill *s, Py_ssize_t n_flows, Py_ssize_t n_links)
{
    PyObject *rates, *util = NULL, *x;
    Py_ssize_t f, l;
    if ((rates = PyList_New(n_flows)) == NULL)
        return NULL;
    for (f = 0; f < n_flows; f++) {
        if ((x = PyFloat_FromDouble(s->rate[f])) == NULL)
            goto fail;
        PyList_SET_ITEM(rates, f, x);
    }
    if ((util = PyList_New(0)) == NULL)
        goto fail;
    for (l = 0; l < n_links; l++) {
        PyObject *index, *u;
        if (s->cross_end[l] == 0)  /* no flow crosses link l */
            continue;
        index = PyLong_FromSsize_t(l);
        u = PyFloat_FromDouble(s->load[l] / s->bandwidth[l]);
        x = (index && u) ? PyTuple_Pack(2, index, u) : NULL;
        Py_XDECREF(index);
        Py_XDECREF(u);
        if (x == NULL || PyList_Append(util, x) < 0) {
            Py_XDECREF(x);
            goto fail;
        }
        Py_DECREF(x);
    }
    return Py_BuildValue("(NN)", rates, util);
fail:
    Py_DECREF(rates);
    Py_XDECREF(util);
    return NULL;
}

PyDoc_STRVAR(fill_doc,
"fill(flows, bandwidth) -> (rates, utilization)\n\n"
"Max-min fair rates by progressive filling.  flows holds one tuple of link\n"
"indices per flow; bandwidth[k] is the capacity of link k.  rates is aligned\n"
"with flows; utilization lists (k, load / bandwidth[k]) for every link k that\n"
"a flow crosses, in ascending k.  Bit-identical to simnet.fill_py.");

static PyObject *fill(PyObject *self, PyObject *args)
{
    PyObject *flows, *bandwidth, *fseq, *bseq = NULL, *result = NULL;
    Fill s = {0};
    Py_ssize_t n_flows, n_links, n_inc = 0, n_live = 0, pos = 0, f, k, l;

    if (!PyArg_ParseTuple(args, "OO:fill", &flows, &bandwidth))
        return NULL;
    if ((fseq = PySequence_Fast(flows, "flows must be a sequence")) == NULL)
        return NULL;
    if ((bseq = PySequence_Fast(bandwidth, "bandwidth must be a sequence")) == NULL)
        goto done;
    n_flows = PySequence_Fast_GET_SIZE(fseq);
    n_links = PySequence_Fast_GET_SIZE(bseq);
    for (f = 0; f < n_flows; f++) {
        PyObject *links = PySequence_Fast_GET_ITEM(fseq, f);
        if (!PyTuple_Check(links)) {
            PyErr_SetString(PyExc_TypeError, "each flow must be a tuple of link indices");
            goto done;
        }
        if (PyTuple_GET_SIZE(links) == 0) {
            PyErr_Format(PyExc_ValueError, "flow %zd crosses no link", f);
            goto done;
        }
        n_inc += PyTuple_GET_SIZE(links);
    }
    /* PyMem returns a distinct pointer for zero elements, so NULL is out of memory */
    s.flow_start = PyMem_New(Py_ssize_t, n_flows + 1);
    s.link_of = PyMem_New(Py_ssize_t, n_inc);
    s.flow_on = PyMem_New(Py_ssize_t, n_inc);
    s.count = PyMem_Calloc(n_links, sizeof(Py_ssize_t));
    s.cross_start = PyMem_Calloc(n_links, sizeof(Py_ssize_t));
    s.cross_end = PyMem_Calloc(n_links, sizeof(Py_ssize_t));
    s.live = PyMem_New(Py_ssize_t, n_links);
    s.residual = PyMem_New(double, n_links);
    s.bandwidth = PyMem_New(double, n_links);
    s.load = PyMem_Calloc(n_links, sizeof(double));
    s.rate = PyMem_New(double, n_flows);
    s.frozen = PyMem_Calloc(n_flows, 1);
    if (!s.flow_start || !s.link_of || !s.flow_on || !s.count || !s.cross_start
            || !s.cross_end || !s.live || !s.residual || !s.bandwidth || !s.load
            || !s.rate || !s.frozen) {
        PyErr_NoMemory();
        goto done;
    }

    /* parse the flows; number the live links in order of first appearance */
    for (f = 0; f < n_flows; f++) {
        PyObject *links = PySequence_Fast_GET_ITEM(fseq, f);
        s.flow_start[f] = pos;
        for (k = 0; k < PyTuple_GET_SIZE(links); k++) {
            PyObject *item = PyTuple_GET_ITEM(links, k);
            if (!PyLong_Check(item)) {
                PyErr_Format(PyExc_TypeError, "link indices must be ints, not %R", item);
                goto done;
            }
            l = PyLong_AsSsize_t(item);
            if (l == -1 && PyErr_Occurred())
                PyErr_Clear();  /* beyond a Py_ssize_t: out of range below */
            if (l < 0 || l >= n_links) {
                PyErr_Format(PyExc_IndexError, "link index %R out of range", item);
                goto done;
            }
            if (s.count[l] == 0) {
                double bw = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(bseq, l));
                if (bw == -1.0 && PyErr_Occurred())
                    goto done;
                if (!(bw > 0)) {
                    PyErr_Format(PyExc_ValueError, "bandwidth must be positive, not %R",
                                 PySequence_Fast_GET_ITEM(bseq, l));
                    goto done;
                }
                s.residual[l] = s.bandwidth[l] = bw;
                s.live[n_live++] = l;
            }
            s.count[l]++;
            s.link_of[pos++] = l;
        }
    }
    s.flow_start[n_flows] = pos;

    /* each link's flows, in flow order */
    pos = 0;
    for (k = 0; k < n_live; k++) {
        l = s.live[k];
        s.cross_start[l] = s.cross_end[l] = pos;
        pos += s.count[l];
    }
    for (f = 0; f < n_flows; f++)
        for (k = s.flow_start[f]; k < s.flow_start[f + 1]; k++)
            s.flow_on[s.cross_end[s.link_of[k]]++] = f;

    progressive_fill(&s, n_live);

    for (f = 0; f < n_flows; f++)
        for (k = s.flow_start[f]; k < s.flow_start[f + 1]; k++)
            s.load[s.link_of[k]] += s.rate[f];
    result = fill_result(&s, n_flows, n_links);
done:
    Py_DECREF(fseq);
    Py_XDECREF(bseq);
    fill_free(&s);
    return result;
}

static PyMethodDef methods[] = {
    {"fill", fill, METH_VARARGS, fill_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_fluid_core",
    .m_doc = "Compiled twin of allpath.simnet.fill_py.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__fluid_core(void)
{
    return PyModule_Create(&module);
}
