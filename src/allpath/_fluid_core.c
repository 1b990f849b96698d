/* Compiled fluid plane of allpath.simnet: one function, step.
 *
 * step is the twin of simnet.step_py, the executable specification of the
 * whole step, fill included: fill_parse, progressive_fill and sum_loads are
 * the parse, the max-min fill and the load sums of step_py's steps 3 and 4.
 * The fill does the same floating-point operations in the same order: each
 * round scans the live links in order of first appearance (over the flows in
 * order, over each flow's links in tuple order) and keeps the first whose
 * residual / count is strictly smallest; each newly frozen flow takes the
 * share once off each of its links; a link's load is the left-to-right sum
 * of its flows' rates in flow order.  So both return identical rates and
 * utilizations, bit for bit.
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

/* Parse the flows fseq over the links bseq into s and number the live links
 * in order of first appearance; their count goes to *n_live.  0, or -1 with
 * an exception set. */
static int fill_parse(Fill *s, PyObject *fseq, PyObject *bseq, Py_ssize_t *n_live)
{
    Py_ssize_t n_flows = PySequence_Fast_GET_SIZE(fseq);
    Py_ssize_t n_links = PySequence_Fast_GET_SIZE(bseq);
    Py_ssize_t n_inc = 0, pos = 0, f, k, l;

    *n_live = 0;
    for (f = 0; f < n_flows; f++) {
        PyObject *links = PySequence_Fast_GET_ITEM(fseq, f);
        if (!PyTuple_Check(links)) {
            PyErr_SetString(PyExc_TypeError, "each flow must be a tuple of link indices");
            return -1;
        }
        if (PyTuple_GET_SIZE(links) == 0) {
            PyErr_Format(PyExc_ValueError, "flow %zd crosses no link", f);
            return -1;
        }
        n_inc += PyTuple_GET_SIZE(links);
    }
    /* PyMem returns a distinct pointer for zero elements, so NULL is out of memory */
    s->flow_start = PyMem_New(Py_ssize_t, n_flows + 1);
    s->link_of = PyMem_New(Py_ssize_t, n_inc);
    s->flow_on = PyMem_New(Py_ssize_t, n_inc);
    s->count = PyMem_Calloc(n_links, sizeof(Py_ssize_t));
    s->cross_start = PyMem_Calloc(n_links, sizeof(Py_ssize_t));
    s->cross_end = PyMem_Calloc(n_links, sizeof(Py_ssize_t));
    s->live = PyMem_New(Py_ssize_t, n_links);
    s->residual = PyMem_New(double, n_links);
    s->bandwidth = PyMem_New(double, n_links);
    s->load = PyMem_Calloc(n_links, sizeof(double));
    s->rate = PyMem_New(double, n_flows);
    s->frozen = PyMem_Calloc(n_flows, 1);
    if (!s->flow_start || !s->link_of || !s->flow_on || !s->count || !s->cross_start
            || !s->cross_end || !s->live || !s->residual || !s->bandwidth || !s->load
            || !s->rate || !s->frozen) {
        PyErr_NoMemory();
        return -1;
    }

    for (f = 0; f < n_flows; f++) {
        PyObject *links = PySequence_Fast_GET_ITEM(fseq, f);
        s->flow_start[f] = pos;
        for (k = 0; k < PyTuple_GET_SIZE(links); k++) {
            PyObject *item = PyTuple_GET_ITEM(links, k);
            if (!PyLong_Check(item)) {
                PyErr_Format(PyExc_TypeError, "link indices must be ints, not %R", item);
                return -1;
            }
            l = PyLong_AsSsize_t(item);
            if (l == -1 && PyErr_Occurred())
                PyErr_Clear();  /* beyond a Py_ssize_t: out of range below */
            if (l < 0 || l >= n_links) {
                PyErr_Format(PyExc_IndexError, "link index %R out of range", item);
                return -1;
            }
            if (s->count[l] == 0) {
                double bw = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(bseq, l));
                if (bw == -1.0 && PyErr_Occurred())
                    return -1;
                if (!(bw > 0)) {
                    PyErr_Format(PyExc_ValueError, "bandwidth must be positive, not %R",
                                 PySequence_Fast_GET_ITEM(bseq, l));
                    return -1;
                }
                s->residual[l] = s->bandwidth[l] = bw;
                s->live[(*n_live)++] = l;
            }
            s->count[l]++;
            s->link_of[pos++] = l;
        }
    }
    s->flow_start[n_flows] = pos;

    /* each link's flows, in flow order */
    pos = 0;
    for (k = 0; k < *n_live; k++) {
        l = s->live[k];
        s->cross_start[l] = s->cross_end[l] = pos;
        pos += s->count[l];
    }
    for (f = 0; f < n_flows; f++)
        for (k = s->flow_start[f]; k < s->flow_start[f + 1]; k++)
            s->flow_on[s->cross_end[s->link_of[k]]++] = f;
    return 0;
}

/* Each link's load: the left-to-right sum of its flows' rates, in flow order. */
static void sum_loads(Fill *s, Py_ssize_t n_flows)
{
    Py_ssize_t f, k;
    for (f = 0; f < n_flows; f++)
        for (k = s->flow_start[f]; k < s->flow_start[f + 1]; k++)
            s->load[s->link_of[k]] += s->rate[f];
}

/* Store the double x at list[i], or return -1 with an exception set. */
static int set_float(PyObject *list, Py_ssize_t i, double x)
{
    PyObject *item = PyFloat_FromDouble(x);
    return item == NULL ? -1 : PyList_SetItem(list, i, item);
}

PyDoc_STRVAR(step_doc,
"step(flows, remaining, rates, busy, bandwidth, names, prev, now, rows) -> (retired, eta)\n\n"
"One fluid recompute at now, the previous one having been at prev <= now:\n"
"retire each flow with rate > 0 and prev + remaining / rate <= now, the\n"
"completion time the previous step computed for it, advance the others by\n"
"now - prev, fill them, append the change points to rows and find the next\n"
"completion.  Bit-identical to simnet.step_py, which specifies the whole\n"
"step, fill included.");

static PyObject *step(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *flows, *remaining, *rates, *busy, *bandwidth, *names, *now_obj, *rows;
    PyObject *bseq = NULL, *nseq = NULL, *retired = NULL, *zero = NULL, *result = NULL;
    double prev, now, dt, eta = 0.0, *kept = NULL;  /* the survivors' remaining bits */
    int have_eta = 0;
    Fill s = {0};
    Py_ssize_t n, n_links, n_live, i, k;

    if (!PyArg_ParseTuple(args, "O!O!O!O!OOdOO!:step", &PyList_Type, &flows,
                          &PyList_Type, &remaining, &PyList_Type, &rates, &PyList_Type, &busy,
                          &bandwidth, &names, &prev, &now_obj, &PyList_Type, &rows))
        return NULL;
    now = PyFloat_AsDouble(now_obj);
    if (now == -1.0 && PyErr_Occurred())
        return NULL;
    dt = now - prev;
    n = PyList_GET_SIZE(flows);
    if (PyList_GET_SIZE(remaining) != n || PyList_GET_SIZE(rates) != n) {
        PyErr_SetString(PyExc_ValueError,
                        "flows, remaining and rates must have one entry per flow");
        return NULL;
    }
    if ((bseq = PySequence_Fast(bandwidth, "bandwidth must be a sequence")) == NULL)
        return NULL;
    if ((nseq = PySequence_Fast(names, "names must be a sequence")) == NULL)
        goto done;
    n_links = PySequence_Fast_GET_SIZE(bseq);
    if (PyList_GET_SIZE(busy) != n_links || PySequence_Fast_GET_SIZE(nseq) != n_links) {
        PyErr_SetString(PyExc_ValueError,
                        "busy, bandwidth and names must have one entry per link");
        goto done;
    }

    /* retire each flow due by now, its eta as the previous step computed
     * it, and advance the others; then delete the retired ones from the
     * back, so that the positions stay put */
    if ((retired = PyList_New(0)) == NULL)
        goto done;
    if ((kept = PyMem_New(double, n)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0, k = 0; i < n; i++) {
        double left, rate;
        if ((left = PyFloat_AsDouble(PyList_GET_ITEM(remaining, i))) == -1.0 && PyErr_Occurred())
            goto done;
        if ((rate = PyFloat_AsDouble(PyList_GET_ITEM(rates, i))) == -1.0 && PyErr_Occurred())
            goto done;
        if (rate > 0 && prev + left / rate <= now) {
            PyObject *pos = PyLong_FromSsize_t(i);
            int err = pos == NULL || PyList_Append(retired, pos) < 0;
            Py_XDECREF(pos);
            if (err)
                goto done;
            continue;
        }
        left = left - rate * dt;
        left = left > 0.0 ? left : 0.0;  /* max(0.0, left) */
        if (set_float(remaining, i, left) < 0)
            goto done;
        kept[k++] = left;
    }
    for (k = PyList_GET_SIZE(retired) - 1; k >= 0; k--) {
        i = PyLong_AsSsize_t(PyList_GET_ITEM(retired, k));
        if (PyList_SetSlice(flows, i, i + 1, NULL) < 0
                || PyList_SetSlice(remaining, i, i + 1, NULL) < 0
                || PyList_SetSlice(rates, i, i + 1, NULL) < 0)
            goto done;
    }
    n = PyList_GET_SIZE(flows);

    /* fill the survivors; a list is its own fast sequence */
    if (fill_parse(&s, flows, bseq, &n_live) < 0)
        goto done;
    progressive_fill(&s, n_live);
    sum_loads(&s, n);
    for (i = 0; i < n; i++)
        if (set_float(rates, i, s.rate[i]) < 0)
            goto done;

    /* change points in ascending link index: busy[k] becomes the new
     * utilization u of a crossed link, or None for a link gone idle */
    if ((zero = PyFloat_FromDouble(0.0)) == NULL)
        goto done;
    for (k = 0; k < n_links; k++) {
        PyObject *last = PyList_GET_ITEM(busy, k), *u, *mark, *row;
        if (s.cross_end[k] != 0) {  /* some flow crosses link k */
            double x = s.load[k] / s.bandwidth[k];
            if (last != Py_None) {
                double was = PyFloat_AsDouble(last);
                if (was == -1.0 && PyErr_Occurred())
                    goto done;
                if (was == x)
                    continue;
            }
            if ((u = PyFloat_FromDouble(x)) == NULL)
                goto done;
            mark = u;
        }
        else if (last != Py_None) {
            Py_INCREF(zero);
            u = zero;
            mark = Py_None;
        }
        else
            continue;
        Py_INCREF(mark);
        PyList_SetItem(busy, k, mark);  /* cannot fail: k is in range */
        row = PyTuple_Pack(3, now_obj, PySequence_Fast_GET_ITEM(nseq, k), u);
        Py_DECREF(u);
        if (row == NULL || PyList_Append(rows, row) < 0) {
            Py_XDECREF(row);
            goto done;
        }
        Py_DECREF(row);
    }

    /* the next completion: the first smallest now + remaining / rate */
    for (i = 0; i < n; i++) {
        if (s.rate[i] > 0) {
            double t = now + kept[i] / s.rate[i];
            if (!have_eta || t < eta) {
                eta = t;
                have_eta = 1;
            }
        }
    }
    if (have_eta)
        result = Py_BuildValue("(Od)", retired, eta);
    else
        result = Py_BuildValue("(OO)", retired, Py_None);
done:
    Py_XDECREF(bseq);
    Py_XDECREF(nseq);
    Py_XDECREF(retired);
    Py_XDECREF(zero);
    PyMem_Free(kept);
    fill_free(&s);
    return result;
}

static PyMethodDef methods[] = {
    {"step", step, METH_VARARGS, step_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_fluid_core",
    .m_doc = "Compiled twin of allpath.simnet.step_py, the specification of the whole step.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__fluid_core(void)
{
    return PyModule_Create(&module);
}
