/* The columnar LTC's update, as a CPython extension type over its columns.
 *
 * Per arrival this is the reference update of src/repro/core/ltc.py, step
 * for step, over the four columns of ColumnarLTC: place is LTC._place,
 * decrement_smallest LTC._decrement_smallest, longtail_initial
 * LTC._longtail_initial, harvest LTC._harvest, and arrive's tail the
 * count-based ClockPointer.on_arrival (DESIGN.md 11.2).  Scores are
 * alpha * f + beta * p rounded after the multiply and after the add, as in
 * Python: build with -ffp-contract=off.  An empty cell holds EMPTY_KEY,
 * which no key passes as_key.
 *
 * One Kernel object serves one table.  It holds the column buffers for its
 * life and is the only home of the count-based CLOCK state (acc, hand,
 * scanned) and the period's flag bits; its setters refuse values outside
 * the CLOCK invariants, so the loops below never index out of range.  Its
 * methods insert, insert_many, place and sweep add to the ltc_* deltas,
 * which take_counts reads and zeroes, and, when a touched mask is set,
 * mark every slot whose key, frequency or persistency they changed (the
 * cell listener's notification); the caller zeroes that mask.  When a
 * watch is set, insert, insert_many and sweep then call it with their
 * number of arrivals, so a bound Kernel.insert is a whole insert, metrics
 * and listener included; place leaves that to the sweep that completes
 * its timed arrival, so the watch runs once per arrival.  insert_many reads a uint64 buffer in place; pack_keys makes
 * one from a list of ints.  The module is a C extension, so every call
 * holds the GIL.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#define EMPTY_KEY UINT64_MAX

enum { POLICY_LONGTAIL = 0, POLICY_ONE = 1, POLICY_SPACE_SAVING = 2 };

typedef struct {
    int64_t w, d, m, n; /* geometry, fixed at construction */
    uint64_t seed;
    double alpha, beta;
    int64_t policy;
    /* ClockPointer._acc, hand, scanned_in_period and the period's flag
     * bits. */
    int64_t acc, hand, scanned, set_bit, harvest_bit;
    /* Deltas of the ltc_significance_decrements, ltc_evictions,
     * ltc_longtail_replacements and ltc_harvests totals since the last
     * take_counts. */
    int64_t decrements, evictions, longtail, harvests;
    /* The columns (fixed for the table's life) and the touched mask. */
    uint64_t *keys;
    int64_t *freqs, *counters, *flags;
    uint8_t *touched;
} ltc_state;

static uint64_t splitmix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

static double score(const ltc_state *s, int64_t j)
{
    return s->alpha * (double)s->freqs[j] + s->beta * (double)s->counters[j];
}

static void touch(const ltc_state *s, int64_t j)
{
    if (s->touched)
        s->touched[j] = 1;
}

static void install(const ltc_state *s, int64_t j, uint64_t item)
{
    s->keys[j] = item;
    s->flags[j] = s->set_bit;
    touch(s, j);
}

static void longtail_initial(const ltc_state *s, int64_t base, int64_t jmin,
                             int64_t *f0, int64_t *c0)
{
    int64_t f2 = INT64_MAX, c2 = INT64_MAX;
    for (int64_t j = base; j < base + s->d; j++) {
        if (j == jmin)
            continue;
        if (s->freqs[j] < f2)
            f2 = s->freqs[j];
        if (s->counters[j] < c2)
            c2 = s->counters[j];
    }
    *f0 = f2 - 1 > 1 ? f2 - 1 : 1;
    *c0 = c2 - 1 > 0 ? c2 - 1 : 0;
    if (*c0 > *f0 - 1)
        *c0 = *f0 - 1;
}

static void decrement_smallest(ltc_state *s, uint64_t item, int64_t base)
{
    int64_t *freqs = s->freqs, *counters = s->counters, *flags = s->flags;
    int64_t jmin = base;
    double smin = score(s, base);
    for (int64_t j = base + 1; j < base + s->d; j++) {
        double sj = score(s, j);
        if (sj < smin) {
            smin = sj;
            jmin = j;
        }
    }
    if (s->policy == POLICY_SPACE_SAVING) {
        s->evictions++;
        freqs[jmin] += 1;
        install(s, jmin, item);
        return;
    }
    s->decrements++;
    if (counters[jmin] > 0) {
        counters[jmin] -= 1;
    } else if (freqs[jmin] > 0) {
        /* Charge the decrement to the oldest pending flag when the flags
         * cover the whole frequency (see LTC._decrement_smallest). */
        int64_t bits = flags[jmin];
        if ((bits & 1) + (bits >> 1 & 1) >= freqs[jmin]) {
            if (bits & s->harvest_bit)
                flags[jmin] = bits & ~s->harvest_bit & 0xFF;
            else
                flags[jmin] = bits & ~s->set_bit & 0xFF;
        }
    }
    if (freqs[jmin] > 0)
        freqs[jmin] -= 1;
    if (score(s, jmin) > 0) {
        touch(s, jmin);
        return;
    }
    int64_t f0 = 1, c0 = 0;
    if (s->policy == POLICY_LONGTAIL && s->d > 1) {
        longtail_initial(s, base, jmin, &f0, &c0);
        s->longtail++;
    }
    s->evictions++;
    freqs[jmin] = f0;
    counters[jmin] = c0;
    install(s, jmin, item);
}

static void place(ltc_state *s, uint64_t item)
{
    uint64_t h = splitmix64(item ^ s->seed);
    uint64_t w = (uint64_t)s->w;
    int64_t base = (int64_t)((w & (w - 1)) ? h % w : h & (w - 1)) * s->d;
    int64_t empty = -1;
    for (int64_t j = base; j < base + s->d; j++) {
        uint64_t key = s->keys[j];
        if (key == item) { /* Case 1: hit. */
            s->freqs[j] += 1;
            s->flags[j] |= s->set_bit;
            touch(s, j);
            return;
        }
        if (key == EMPTY_KEY && empty < 0)
            empty = j;
    }
    if (empty >= 0) { /* Case 2: free cell. */
        s->freqs[empty] = 1;
        s->counters[empty] = 0;
        install(s, empty, item);
        return;
    }
    decrement_smallest(s, item, base); /* Case 3: full bucket. */
}

static void harvest(ltc_state *s, int64_t slot)
{
    int64_t bits = s->flags[slot];
    if (bits & s->harvest_bit) {
        s->flags[slot] = bits & ~s->harvest_bit & 0xFF;
        if (s->keys[slot] != EMPTY_KEY) {
            s->counters[slot] += 1;
            s->harvests++;
            touch(s, slot);
        }
    }
}

/* Harvest the next `steps` slots from the hand, wrapping at m, and move the
 * hand past them: ClockPointer._take and LTC._sweep in one.  Never scans a
 * slot twice within one period. */
static void sweep(ltc_state *s, int64_t steps)
{
    if (steps > s->m - s->scanned)
        steps = s->m - s->scanned;
    if (steps <= 0)
        return;
    int64_t slot = s->hand;
    for (int64_t k = 0; k < steps; k++) {
        harvest(s, slot);
        slot = slot + 1 == s->m ? 0 : slot + 1;
    }
    s->hand = slot;
    s->scanned += steps;
}

/* One count-based arrival: the place, then the CLOCK's m/n slots.  The
 * setters keep 0 <= acc < n, and n + m fits an int64, so `acc + m` cannot
 * overflow. */
static void arrive(ltc_state *s, uint64_t item)
{
    place(s, item);
    s->acc += s->m;
    if (s->acc < s->n)
        return;
    int64_t steps = s->acc / s->n;
    s->acc -= steps * s->n;
    sweep(s, steps);
}

/* The common case of as_key: a plain int in [0, INT64_MAX].  Runs no
 * Python code and sets no error; returns 1 when it applies. */
static int small_key(PyObject *obj, uint64_t *key)
{
    if (!PyLong_CheckExact(obj))
        return 0;
    int overflow;
    long long small = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (overflow || small < 0)
        return 0;
    *key = (uint64_t)small;
    return 1;
}

/* `obj` as a key: an int, or an object with __index__, in [0, EMPTY_KEY).
 * TypeError for anything else, and ValueError (LTC's out_of_range message)
 * outside the range. */
static int as_key(PyObject *obj, uint64_t *key)
{
    if (small_key(obj, key))
        return 0;
    PyObject *num = PyNumber_Index(obj);
    if (num == NULL)
        return -1;
    int overflow, bad;
    long long small = PyLong_AsLongLongAndOverflow(num, &overflow);
    unsigned long long k = (unsigned long long)small;
    if (overflow > 0) { /* Above INT64_MAX: a uint64, or past 2**64. */
        k = PyLong_AsUnsignedLongLong(num);
        bad = PyErr_Occurred() != NULL;
        PyErr_Clear();
    } else {
        bad = overflow < 0 || small < 0;
    }
    if (bad || k == EMPTY_KEY) {
        PyErr_Format(PyExc_ValueError,
                     "key %R is outside the LTC key range [0, %llu]", num,
                     (unsigned long long)(EMPTY_KEY - 1));
        Py_DECREF(num);
        return -1;
    }
    Py_DECREF(num);
    *key = k;
    return 0;
}

/* Whether `obj` exports a C-contiguous one-dimensional buffer of 8-byte
 * unsigned ints (struct format Q, or L where a long is 64 bits), as a
 * numpy uint64 array and pack_keys' result do; fills `view` when it does.
 * Any other object is left to the sequence path, with no error set. */
static int key_buffer(PyObject *obj, Py_buffer *view)
{
    if (!PyObject_CheckBuffer(obj))
        return 0;
    if (PyObject_GetBuffer(obj, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0) {
        PyErr_Clear();
        return 0;
    }
    const char *format = view->format ? view->format : "B";
    if (*format == '@' || *format == '=')
        format++;
    int ok = view->ndim == 1 && view->itemsize == 8
             && (!strcmp(format, "Q") || (!strcmp(format, "L") && sizeof(long) == 8));
    if (!ok)
        PyBuffer_Release(view);
    return ok;
}

typedef struct {
    PyObject_HEAD
    ltc_state s;
    Py_buffer columns[4]; /* keys, freqs, counters, flags */
    Py_buffer touched;    /* .obj is NULL while no mask is set */
    PyObject *watch;      /* called with each call's arrivals, or NULL */
} Kernel;

/* The end of every mutating method: `result` (a new reference, or NULL
 * for an error already set) after the watch has seen `arrivals`; NULL
 * when the watch raises. */
static PyObject *watched(Kernel *self, Py_ssize_t arrivals, PyObject *result)
{
    PyObject *watch = self->watch;
    if (result == NULL || watch == NULL)
        return result;
    /* The watch may replace itself: hold it for the call. */
    Py_INCREF(watch);
    PyObject *count = PyLong_FromSsize_t(arrivals);
    PyObject *done = count ? PyObject_CallOneArg(watch, count) : NULL;
    Py_XDECREF(count);
    Py_DECREF(watch);
    if (done == NULL) {
        Py_DECREF(result);
        return NULL;
    }
    Py_DECREF(done);
    return result;
}

static PyObject *Kernel_insert(Kernel *self, PyObject *item)
{
    uint64_t key;
    if (as_key(item, &key) < 0)
        return NULL;
    arrive(&self->s, key);
    return watched(self, 1, Py_NewRef(Py_None));
}

static PyObject *Kernel_place(Kernel *self, PyObject *item)
{
    uint64_t key;
    if (as_key(item, &key) < 0)
        return NULL;
    place(&self->s, key);
    Py_RETURN_NONE;
}

/* A uint64 buffer's arrivals, read in place once no key in it is
 * EMPTY_KEY.  Releases the buffer. */
static PyObject *insert_buffer(Kernel *self, Py_buffer *view)
{
    const uint64_t *keys = view->buf;
    Py_ssize_t count = view->len / 8;
    for (Py_ssize_t i = 0; i < count; i++) {
        if (keys[i] == EMPTY_KEY) {
            PyBuffer_Release(view);
            PyErr_Format(PyExc_ValueError,
                         "key %llu is outside the LTC key range [0, %llu]",
                         (unsigned long long)EMPTY_KEY,
                         (unsigned long long)(EMPTY_KEY - 1));
            return NULL;
        }
    }
    for (Py_ssize_t i = 0; i < count; i++)
        arrive(&self->s, keys[i]);
    PyBuffer_Release(view);
    return watched(self, count, PyLong_FromSsize_t(count));
}

/* Every key of the batch is checked before the first arrival, so a bad
 * one raises with the table untouched.  Returns the number of arrivals. */
static PyObject *Kernel_insert_many(Kernel *self, PyObject *items)
{
    Py_buffer view;
    if (key_buffer(items, &view))
        return insert_buffer(self, &view);
    PyObject *seq = PySequence_Fast(items, "insert_many() needs a sequence of keys");
    if (seq == NULL)
        return NULL;
    Py_ssize_t count = PySequence_Fast_GET_SIZE(seq);
    uint64_t *keys = PyMem_Malloc(count > 0 ? count * sizeof(uint64_t) : 1);
    if (keys == NULL) {
        Py_DECREF(seq);
        return PyErr_NoMemory();
    }
    /* An __index__ method may change a list under us: re-read its size. */
    Py_ssize_t i = 0;
    for (; i < count && i < PySequence_Fast_GET_SIZE(seq); i++) {
        PyObject *item = PySequence_Fast_GET_ITEM(seq, i);
        if (small_key(item, &keys[i]))
            continue;
        Py_INCREF(item);
        int bad = as_key(item, &keys[i]);
        Py_DECREF(item);
        if (bad) {
            PyMem_Free(keys);
            Py_DECREF(seq);
            return NULL;
        }
    }
    Py_DECREF(seq);
    count = i;
    for (i = 0; i < count; i++)
        arrive(&self->s, keys[i]);
    PyMem_Free(keys);
    return watched(self, count, PyLong_FromSsize_t(count));
}

/* sweep(steps, arrivals=0): the watch sees `arrivals`, so a timed arrival
 * (place, then its sweep) reaches the watch once, with 1. */
static PyObject *Kernel_sweep(Kernel *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 1 || nargs > 2) {
        PyErr_SetString(PyExc_TypeError, "sweep() takes steps and optional arrivals");
        return NULL;
    }
    Py_ssize_t arrivals = nargs == 2 ? PyLong_AsSsize_t(args[1]) : 0;
    if (arrivals == -1 && PyErr_Occurred())
        return NULL;
    int overflow;
    long long steps = PyLong_AsLongLongAndOverflow(args[0], &overflow);
    if (steps == -1 && PyErr_Occurred())
        return NULL;
    /* Past INT64_MAX, `steps` reads -1 with `overflow` set: a full sweep. */
    if (overflow < 0 || (!overflow && steps < 0) || arrivals < 0) {
        PyErr_SetString(PyExc_ValueError,
                        "sweep() needs non-negative step and arrival counts");
        return NULL;
    }
    sweep(&self->s, overflow > 0 ? INT64_MAX : steps);
    return watched(self, arrivals, Py_NewRef(Py_None));
}

static PyObject *Kernel_take_counts(Kernel *self, PyObject *Py_UNUSED(ignored))
{
    ltc_state *s = &self->s;
    PyObject *counts = Py_BuildValue("(LLLL)", (long long)s->decrements,
                                     (long long)s->evictions,
                                     (long long)s->longtail,
                                     (long long)s->harvests);
    if (counts != NULL)
        s->decrements = s->evictions = s->longtail = s->harvests = 0;
    return counts;
}

static PyMethodDef Kernel_methods[] = {
    {"insert", (PyCFunction)Kernel_insert, METH_O,
     "insert(key): one count-based arrival, CLOCK step included."},
    {"insert_many", (PyCFunction)Kernel_insert_many, METH_O,
     "insert_many(keys) -> count: the arrivals of a sequence, or of a\n"
     "uint64 buffer read in place, in order, after every key is checked."},
    {"place", (PyCFunction)Kernel_place, METH_O,
     "place(key): one arrival's lossy-table update, no CLOCK step and no\n"
     "watch call: the sweep that follows it reports the arrival."},
    {"sweep", (PyCFunction)(void (*)(void))Kernel_sweep, METH_FASTCALL,
     "sweep(steps, arrivals=0): harvest up to `steps` slots from the hand,\n"
     "never past the period's last unscanned slot, and advance the hand;\n"
     "the watch sees `arrivals` (1 when this sweep ends a timed arrival)."},
    {"take_counts", (PyCFunction)Kernel_take_counts, METH_NOARGS,
     "take_counts() -> (decrements, evictions, longtail, harvests) since\n"
     "the last call."},
    {NULL, NULL, 0, NULL},
};

/* The CLOCK fields, each with the invariant its setter enforces: value in
 * [0, bound(s)) or, with `inclusive`, [0, bound(s)]. */
typedef struct {
    size_t offset;
    int which; /* 0: m, 1: n, 2: a flag bit (1 or 2) */
    int inclusive;
} clock_field;

static const clock_field HAND = {offsetof(ltc_state, hand), 0, 0};
static const clock_field ACC = {offsetof(ltc_state, acc), 1, 0};
static const clock_field SCANNED = {offsetof(ltc_state, scanned), 0, 1};
static const clock_field SET_BIT = {offsetof(ltc_state, set_bit), 2, 0};
static const clock_field HARVEST_BIT = {offsetof(ltc_state, harvest_bit), 2, 0};

static int64_t *field_of(Kernel *self, const clock_field *f)
{
    return (int64_t *)((char *)&self->s + f->offset);
}

static PyObject *Kernel_get(Kernel *self, void *closure)
{
    return PyLong_FromLongLong(*field_of(self, closure));
}

static int Kernel_set(Kernel *self, PyObject *value, void *closure)
{
    const clock_field *f = closure;
    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete a CLOCK field");
        return -1;
    }
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(value, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    int ok;
    if (f->which == 2)
        ok = !overflow && (v == 1 || v == 2);
    else {
        int64_t bound = f->which == 0 ? self->s.m : self->s.n;
        ok = !overflow && v >= 0 && (f->inclusive ? v <= bound : v < bound);
    }
    if (!ok) {
        PyErr_Format(PyExc_ValueError, "CLOCK state out of range: %R", value);
        return -1;
    }
    *field_of(self, f) = v;
    return 0;
}

static PyObject *Kernel_get_touched(Kernel *self, void *Py_UNUSED(closure))
{
    PyObject *mask = self->touched.obj ? self->touched.obj : Py_None;
    Py_INCREF(mask);
    return mask;
}

static int Kernel_set_touched(Kernel *self, PyObject *value, void *Py_UNUSED(closure))
{
    Py_buffer view = {0};
    if (value != NULL && value != Py_None) {
        if (PyObject_GetBuffer(value, &view, PyBUF_CONTIG) < 0)
            return -1;
        if (view.len != self->s.m) {
            PyBuffer_Release(&view);
            PyErr_SetString(PyExc_ValueError, "touched mask needs one byte per cell");
            return -1;
        }
    }
    if (self->touched.obj)
        PyBuffer_Release(&self->touched);
    self->touched = view;
    self->s.touched = view.obj ? view.buf : NULL;
    return 0;
}

static PyObject *Kernel_get_watch(Kernel *self, void *Py_UNUSED(closure))
{
    return Py_NewRef(self->watch ? self->watch : Py_None);
}

static int Kernel_set_watch(Kernel *self, PyObject *value, void *Py_UNUSED(closure))
{
    if (value == Py_None)
        value = NULL;
    if (value != NULL && !PyCallable_Check(value)) {
        PyErr_SetString(PyExc_TypeError, "watch must be callable or None");
        return -1;
    }
    Py_XSETREF(self->watch, Py_XNewRef(value));
    return 0;
}

static PyGetSetDef Kernel_getset[] = {
    {"hand", (getter)Kernel_get, (setter)Kernel_set, "next slot the CLOCK passes", (void *)&HAND},
    {"acc", (getter)Kernel_get, (setter)Kernel_set, "arrival accumulator (1/n periods)", (void *)&ACC},
    {"scanned", (getter)Kernel_get, (setter)Kernel_set, "slots swept this period", (void *)&SCANNED},
    {"set_bit", (getter)Kernel_get, (setter)Kernel_set, "this period's flag bit", (void *)&SET_BIT},
    {"harvest_bit", (getter)Kernel_get, (setter)Kernel_set, "the flag bit a sweep harvests", (void *)&HARVEST_BIT},
    {"touched", (getter)Kernel_get_touched, (setter)Kernel_set_touched,
     "a writable byte per cell marked by every change, or None", NULL},
    {"watch", (getter)Kernel_get_watch, (setter)Kernel_set_watch,
     "called with the arrival count after insert, insert_many and sweep, or None",
     NULL},
    {NULL},
};

/* The watch is usually a bound method of the table that owns this
 * kernel: a cycle, so the type takes part in garbage collection. */
static int Kernel_traverse(Kernel *self, visitproc visit, void *arg)
{
    Py_VISIT(self->watch);
    return 0;
}

static int Kernel_clear(Kernel *self)
{
    Py_CLEAR(self->watch);
    return 0;
}

static void Kernel_dealloc(Kernel *self)
{
    PyObject_GC_UnTrack(self);
    Kernel_clear(self);
    for (int c = 0; c < 4; c++)
        if (self->columns[c].obj)
            PyBuffer_Release(&self->columns[c]);
    if (self->touched.obj)
        PyBuffer_Release(&self->touched);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *Kernel_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *names[] = {"keys", "freqs", "counters", "flags", "w", "d",
                            "n", "seed", "alpha", "beta", "policy", NULL};
    PyObject *cols[4];
    long long w, d, n, policy;
    unsigned long long seed;
    double alpha, beta;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOOOLLLKddL", names,
                                     &cols[0], &cols[1], &cols[2], &cols[3],
                                     &w, &d, &n, &seed, &alpha, &beta, &policy))
        return NULL;
    if (w < 1 || d < 1 || n < 1 || w > INT64_MAX / d || n > INT64_MAX - w * d
        || policy < POLICY_LONGTAIL || policy > POLICY_SPACE_SAVING) {
        PyErr_SetString(PyExc_ValueError, "bad LTC kernel geometry or policy");
        return NULL;
    }
    Kernel *self = (Kernel *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    ltc_state *s = &self->s;
    s->w = w, s->d = d, s->m = w * d, s->n = n, s->seed = seed;
    s->alpha = alpha, s->beta = beta, s->policy = policy;
    s->set_bit = s->harvest_bit = 1;
    for (int c = 0; c < 4; c++) {
        Py_buffer *view = &self->columns[c];
        if (PyObject_GetBuffer(cols[c], view, PyBUF_CONTIG) < 0) {
            view->obj = NULL;
            Py_DECREF(self);
            return NULL;
        }
        if (view->itemsize != 8 || view->len != s->m * 8) {
            PyErr_SetString(PyExc_ValueError, "each column needs one 8-byte item per cell");
            Py_DECREF(self);
            return NULL;
        }
    }
    s->keys = self->columns[0].buf;
    s->freqs = self->columns[1].buf;
    s->counters = self->columns[2].buf;
    s->flags = self->columns[3].buf;
    return (PyObject *)self;
}

static PyTypeObject KernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.core._ltc_kernel.Kernel",
    .tp_doc = "Kernel(keys, freqs, counters, flags, w, d, n, seed, alpha, beta, policy)\n"
              "--\n\n"
              "One LTC table's update over its four writable 8-byte columns.",
    .tp_basicsize = sizeof(Kernel),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = Kernel_new,
    .tp_dealloc = (destructor)Kernel_dealloc,
    .tp_traverse = (traverseproc)Kernel_traverse,
    .tp_clear = (inquiry)Kernel_clear,
    .tp_methods = Kernel_methods,
    .tp_getset = Kernel_getset,
};

/* A list of exact ints in [0, EMPTY_KEY) as a read-only uint64 buffer (a
 * memoryview of format Q).  A non-int anywhere raises TypeError, even
 * after a key out of range; otherwise such a key raises ValueError. */
static PyObject *pack_keys(PyObject *Py_UNUSED(module), PyObject *list)
{
    if (!PyList_Check(list)) {
        PyErr_SetString(PyExc_TypeError, "pack_keys() needs a list");
        return NULL;
    }
    Py_ssize_t count = PyList_GET_SIZE(list), bad = -1;
    PyObject *bytes = PyBytes_FromStringAndSize(NULL, count * 8);
    if (bytes == NULL)
        return NULL;
    uint64_t *keys = (uint64_t *)PyBytes_AS_STRING(bytes);
    /* Exact ints run no Python code, so the list cannot change here. */
    for (Py_ssize_t i = 0; i < count; i++) {
        PyObject *item = PyList_GET_ITEM(list, i);
        if (!PyLong_CheckExact(item)) {
            PyErr_Format(PyExc_TypeError, "pack_keys() takes ints, not %.100s",
                         Py_TYPE(item)->tp_name);
            Py_DECREF(bytes);
            return NULL;
        }
        if (bad >= 0 || small_key(item, &keys[i]))
            continue;
        unsigned long long k = PyLong_AsUnsignedLongLong(item);
        if (PyErr_Occurred()) { /* negative, or past 2**64 */
            PyErr_Clear();
            bad = i;
        } else if (k == EMPTY_KEY) {
            bad = i;
        } else {
            keys[i] = k;
        }
    }
    if (bad >= 0) {
        Py_DECREF(bytes);
        PyErr_Format(PyExc_ValueError,
                     "key at index %zd is outside the LTC key range [0, %llu]",
                     bad, (unsigned long long)(EMPTY_KEY - 1));
        return NULL;
    }
    PyObject *view = PyMemoryView_FromObject(bytes);
    Py_DECREF(bytes);
    if (view == NULL)
        return NULL;
    PyObject *packed = PyObject_CallMethod(view, "cast", "s", "Q");
    Py_DECREF(view);
    return packed;
}

static PyMethodDef module_methods[] = {
    {"pack_keys", pack_keys, METH_O,
     "pack_keys(keys) -> memoryview: a list of ints in the LTC key range\n"
     "as a uint64 buffer that Kernel.insert_many reads in place.  TypeError\n"
     "for any item that is not exactly an int (bool included), else\n"
     "ValueError for a key outside [0, 2**64 - 2]."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_ltc_kernel",
    .m_doc = "The columnar LTC's compiled update (see repro.core.ckernel).",
    .m_size = -1,
    .m_methods = module_methods,
};

PyMODINIT_FUNC PyInit__ltc_kernel(void)
{
    if (PyType_Ready(&KernelType) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&kernel_module);
    if (module == NULL)
        return NULL;
    if (PyModule_AddObjectRef(module, "Kernel", (PyObject *)&KernelType) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
