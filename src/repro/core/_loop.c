/* The seams-off scheduler loop, in C.
 *
 * A bit-exact copy of ``Scheduler.run`` (``repro/core/scheduler.py``) for
 * runs without an enabled telemetry session or sanitizer; DESIGN.md
 * section 5, "The loop in C", has the design.  ``scheduler.py`` compiles
 * and loads this file on import and falls back to its own loop when that
 * fails, so the Python loop stays the reference: both take the same path
 * through every step, and a cut may hand a run from one to the other.
 *
 * The host-side scheduling state (context clocks, last threads and thread
 * counts; per thread the state, ready time, steps and SplitMix64 state;
 * the parked list, the migrate-min context and the HostStats counters the
 * loop owns) is mirrored in C arrays.  It is read from the Python objects
 * on entry and after a controller hook that acted, and written back before
 * every controller hook, on a cut, on an error and at the end.  Simulation
 * work stays in Python: runner steps, the controller hook, the cut
 * predicate, ``reset_idle``, ``quiescent`` and the CoreState reads of the
 * wake scan.  Every iteration calls into Python at least once, so signals
 * and other threads are served as under the Python loop.
 *
 * Build with -ffp-contract=off: each float operation must round exactly as
 * CPython's does, and GCC contracts a*b+c into one FMA by default on
 * targets that have it.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

/* ThreadState values (repro.core.hostmodel). */
enum { READY = 0, BLOCKED = 1, DONE = 2 };

/* run() results besides 0 (finished or cut); scheduler.py raises the
 * matching DeadlockError, so the messages have one definition. */
enum { DEADLOCK = 1, RUNAWAY = 2, NO_THREAD = 3 };

#define NAMES(X)                                                              \
    X(sim) X(stats) X(host) X(cost) X(jitter_frac) X(context_switch_ns)        \
    X(manager_cycle_ns) X(manager_poll_ns) X(wake_latency_ns)                 \
    X(_manager_migrates) X(threads) X(contexts) X(_parked) X(_parked_dirty)   \
    X(_migrate_min) X(_heap) X(runner) X(step) X(state) X(ready_time)         \
    X(context) X(rng) X(steps) X(pos) X(queued) X(index) X(clock)             \
    X(last_thread) X(manager_steps) X(core_steps) X(wakeups)                  \
    X(context_busy_ns) X(manager_busy_ns) X(submanager_busy_ns)               \
    X(violations_observed) X(controller) X(after_manager_step) X(cores)       \
    X(_models) X(scheme) X(uniform_window) X(wants_core_clocks) X(finished)   \
    X(manager) X(quiescent) X(inq) X(model) X(waiting_sync) X(_idx)           \
    X(_times) X(_limits) X(ts) X(cost_ns) X(done) X(blocked) X(outcome)       \
    X(idle) X(violations) X(maybe_wake) X(settled) X(global_time)             \
    X(reset_idle)

#define DECLARE(n) static PyObject *s_##n;
NAMES(DECLARE)
#undef DECLARE

/* The scheduler's Python objects and their C mirror. */
typedef struct {
    PyObject *sched, *sim, *stats, *states;
    PyObject *threads;  /* list: position == index */
    PyObject *contexts; /* list: HostContext.index == index */
    PyObject **step;    /* bound runner.step per thread */
    Py_ssize_t nthreads, nctx, mgr;
    /* per context */
    double *clock, *busy;
    int *last, *count;
    /* per thread */
    double *ready;
    int *state, *ctx;
    long long *steps;
    uint64_t *rng;
    /* the parked list (thread positions, in order) */
    int *parked;
    Py_ssize_t nparked;
    int parked_dirty, migrate_min;
    int mirrored; /* the arrays hold the scheduler's state */
    long long manager_steps, core_steps, wakeups, violations_observed;
    double manager_busy, submanager_busy;
} Loop;

/* ------------------------------------------------------------------ */
/* Attribute helpers: 0 / a value on success, -1 with an exception set. */

static int
get_double(PyObject *obj, PyObject *name, double *out)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value == NULL)
        return -1;
    *out = PyFloat_AsDouble(value);
    Py_DECREF(value);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

static int
get_ll(PyObject *obj, PyObject *name, long long *out)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value == NULL)
        return -1;
    *out = PyLong_AsLongLong(value);
    Py_DECREF(value);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

static int
get_int(PyObject *obj, PyObject *name, int *out)
{
    long long value;
    if (get_ll(obj, name, &value) < 0)
        return -1;
    *out = (int)value;
    return 0;
}

static int
get_bool(PyObject *obj, PyObject *name)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    int truth;
    if (value == NULL)
        return -1;
    truth = PyObject_IsTrue(value);
    Py_DECREF(value);
    return truth;
}

/* The ``index`` of ``obj.name`` (a context), or -1 for None; -2 on error. */
static int
get_index(PyObject *obj, PyObject *name, PyObject *index_name)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    int index = -1;
    if (value == NULL)
        return -2;
    if (value != Py_None && get_int(value, index_name, &index) < 0)
        index = -2;
    Py_DECREF(value);
    return index;
}

static int
set_steal(PyObject *obj, PyObject *name, PyObject *value)
{
    int rc;
    if (value == NULL)
        return -1;
    rc = PyObject_SetAttr(obj, name, value);
    Py_DECREF(value);
    return rc;
}

static int
set_double(PyObject *obj, PyObject *name, double value)
{
    return set_steal(obj, name, PyFloat_FromDouble(value));
}

static int
set_ll(PyObject *obj, PyObject *name, long long value)
{
    return set_steal(obj, name, PyLong_FromLongLong(value));
}

/* ------------------------------------------------------------------ */
/* Mirror in and out. */

static int
load(Loop *L)
{
    Py_ssize_t i;
    PyObject *seq, *busy;
    for (i = 0; i < L->nctx; i++) {
        PyObject *ctx = PyList_GET_ITEM(L->contexts, i);
        PyObject *members;
        if (get_double(ctx, s_clock, &L->clock[i]) < 0)
            return -1;
        if ((L->last[i] = get_index(ctx, s_last_thread, s_pos)) == -2)
            return -1;
        members = PyObject_GetAttr(ctx, s_threads);
        if (members == NULL)
            return -1;
        L->count[i] = (int)PyObject_Length(members);
        Py_DECREF(members);
        if (L->count[i] < 0)
            return -1;
    }
    for (i = 0; i < L->nthreads; i++) {
        PyObject *thread = PyList_GET_ITEM(L->threads, i);
        PyObject *rng;
        if (get_int(thread, s_state, &L->state[i]) < 0
            || get_double(thread, s_ready_time, &L->ready[i]) < 0
            || get_ll(thread, s_steps, &L->steps[i]) < 0)
            return -1;
        if (L->state[i] < READY || L->state[i] > DONE) {
            PyErr_SetString(PyExc_ValueError, "HostThread.state is not a ThreadState");
            return -1;
        }
        if ((L->ctx[i] = get_index(thread, s_context, s_index)) < 0 || L->ctx[i] >= L->nctx) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_ValueError, "HostThread.context is not a scheduler context");
            return -1;
        }
        rng = PyObject_GetAttr(thread, s_rng);
        if (rng == NULL)
            return -1;
        seq = PyObject_GetAttr(rng, s_state);
        Py_DECREF(rng);
        if (seq == NULL)
            return -1;
        L->rng[i] = PyLong_AsUnsignedLongLong(seq);
        Py_DECREF(seq);
        if (L->rng[i] == (uint64_t)-1 && PyErr_Occurred())
            return -1;
    }
    seq = PyObject_GetAttr(L->sched, s__parked);
    if (seq == NULL)
        return -1;
    L->nparked = PyList_Check(seq) ? PyList_GET_SIZE(seq) : -1;
    for (i = 0; i < L->nparked && i < L->nthreads; i++) {
        if (get_int(PyList_GET_ITEM(seq, i), s_pos, &L->parked[i]) < 0
            || L->parked[i] < 0 || L->parked[i] >= L->mgr) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_ValueError, "Scheduler._parked holds a non-core thread");
            Py_DECREF(seq);
            return -1;
        }
    }
    Py_DECREF(seq);
    if (L->nparked < 0 || L->nparked > L->nthreads) {
        PyErr_SetString(PyExc_TypeError, "Scheduler._parked must list threads once");
        return -1;
    }
    if ((L->parked_dirty = get_bool(L->sched, s__parked_dirty)) < 0)
        return -1;
    if ((L->migrate_min = get_index(L->sched, s__migrate_min, s_index)) == -2)
        return -1;
    if (get_ll(L->stats, s_manager_steps, &L->manager_steps) < 0
        || get_ll(L->stats, s_core_steps, &L->core_steps) < 0
        || get_ll(L->stats, s_wakeups, &L->wakeups) < 0
        || get_ll(L->stats, s_violations_observed, &L->violations_observed) < 0
        || get_double(L->stats, s_manager_busy_ns, &L->manager_busy) < 0
        || get_double(L->stats, s_submanager_busy_ns, &L->submanager_busy) < 0)
        return -1;
    busy = PyObject_GetAttr(L->stats, s_context_busy_ns);
    if (busy == NULL)
        return -1;
    for (i = 0; i < L->nctx; i++) {
        PyObject *item = PySequence_GetItem(busy, i);
        if (item == NULL) {
            Py_DECREF(busy);
            return -1;
        }
        L->busy[i] = PyFloat_AsDouble(item);
        Py_DECREF(item);
        if (L->busy[i] == -1.0 && PyErr_Occurred()) {
            Py_DECREF(busy);
            return -1;
        }
    }
    Py_DECREF(busy);
    return 0;
}

/* The ready heap as Scheduler.run keeps it: one exact-key entry per
 * READY non-manager thread.  A sorted list is a valid heap. */
static int
store_heap(Loop *L)
{
    PyObject *entries = PyList_New(0), *heap;
    Py_ssize_t i;
    int rc = -1;
    if (entries == NULL)
        return -1;
    for (i = 0; i < L->nthreads; i++) {
        PyObject *thread = PyList_GET_ITEM(L->threads, i), *entry;
        double ready = L->ready[i], dispatch = L->clock[L->ctx[i]];
        int queued = i != L->mgr && L->state[i] == READY;
        if (PyObject_SetAttr(thread, s_queued, queued ? Py_True : Py_False) < 0)
            goto done;
        if (!queued)
            continue;
        if (ready > dispatch)
            dispatch = ready;
        entry = Py_BuildValue("(ddnO)", dispatch, ready, i, thread);
        if (entry == NULL || PyList_Append(entries, entry) < 0) {
            Py_XDECREF(entry);
            goto done;
        }
        Py_DECREF(entry);
    }
    if (PyList_Sort(entries) < 0)
        goto done;
    heap = PyObject_GetAttr(L->sched, s__heap);
    if (heap == NULL)
        goto done;
    rc = PyList_SetSlice(heap, 0, PyList_GET_SIZE(heap), entries);
    Py_DECREF(heap);
done:
    Py_DECREF(entries);
    return rc;
}

static int
store(Loop *L, int heap)
{
    Py_ssize_t i;
    PyObject *manager, *target, *current, *parked, *busy;
    for (i = 0; i < L->nctx; i++) {
        PyObject *ctx = PyList_GET_ITEM(L->contexts, i);
        PyObject *last = L->last[i] < 0 ? Py_None : PyList_GET_ITEM(L->threads, L->last[i]);
        if (set_double(ctx, s_clock, L->clock[i]) < 0
            || PyObject_SetAttr(ctx, s_last_thread, last) < 0)
            return -1;
    }
    for (i = 0; i < L->nthreads; i++) {
        PyObject *thread = PyList_GET_ITEM(L->threads, i);
        PyObject *rng;
        int rc;
        if (PyObject_SetAttr(thread, s_state, PyTuple_GET_ITEM(L->states, L->state[i])) < 0
            || set_double(thread, s_ready_time, L->ready[i]) < 0
            || set_ll(thread, s_steps, L->steps[i]) < 0)
            return -1;
        rng = PyObject_GetAttr(thread, s_rng);
        if (rng == NULL)
            return -1;
        rc = set_steal(rng, s_state, PyLong_FromUnsignedLongLong(L->rng[i]));
        Py_DECREF(rng);
        if (rc < 0)
            return -1;
    }
    /* Only the manager changes context. */
    manager = PyList_GET_ITEM(L->threads, L->mgr);
    target = PyList_GET_ITEM(L->contexts, L->ctx[L->mgr]);
    current = PyObject_GetAttr(manager, s_context);
    if (current == NULL)
        return -1;
    if (current != target) {
        PyObject *old_set = PyObject_GetAttr(current, s_threads);
        PyObject *new_set = PyObject_GetAttr(target, s_threads);
        int rc = (old_set == NULL || new_set == NULL
                  || PyObject_DelItem(old_set, manager) < 0
                  || PyObject_SetItem(new_set, manager, Py_None) < 0
                  || PyObject_SetAttr(manager, s_context, target) < 0);
        Py_XDECREF(old_set);
        Py_XDECREF(new_set);
        if (rc) {
            Py_DECREF(current);
            return -1;
        }
    }
    Py_DECREF(current);
    parked = PyList_New(L->nparked);
    if (parked == NULL)
        return -1;
    for (i = 0; i < L->nparked; i++) {
        PyObject *thread = PyList_GET_ITEM(L->threads, L->parked[i]);
        Py_INCREF(thread);
        PyList_SET_ITEM(parked, i, thread);
    }
    if (set_steal(L->sched, s__parked, parked) < 0
        || PyObject_SetAttr(L->sched, s__parked_dirty, L->parked_dirty ? Py_True : Py_False) < 0
        || PyObject_SetAttr(L->sched, s__migrate_min,
                            L->migrate_min < 0 ? Py_None
                                               : PyList_GET_ITEM(L->contexts, L->migrate_min)) < 0)
        return -1;
    if (set_ll(L->stats, s_manager_steps, L->manager_steps) < 0
        || set_ll(L->stats, s_core_steps, L->core_steps) < 0
        || set_ll(L->stats, s_wakeups, L->wakeups) < 0
        || set_ll(L->stats, s_violations_observed, L->violations_observed) < 0
        || set_double(L->stats, s_manager_busy_ns, L->manager_busy) < 0
        || set_double(L->stats, s_submanager_busy_ns, L->submanager_busy) < 0)
        return -1;
    busy = PyObject_GetAttr(L->stats, s_context_busy_ns);
    if (busy == NULL)
        return -1;
    for (i = 0; i < L->nctx; i++) {
        PyObject *value = PyFloat_FromDouble(L->busy[i]);
        int rc = value == NULL ? -1 : PySequence_SetItem(busy, i, value);
        Py_XDECREF(value);
        if (rc < 0) {
            Py_DECREF(busy);
            return -1;
        }
    }
    Py_DECREF(busy);
    return heap ? store_heap(L) : 0;
}

/* store() with the pending exception (if any) kept as the one raised. */
static void
store_on_error(Loop *L)
{
    PyObject *type, *value, *traceback;
    PyErr_Fetch(&type, &value, &traceback);
    if (store(L, 1) < 0)
        PyErr_Clear();
    PyErr_Restore(type, value, traceback);
}

/* ------------------------------------------------------------------ */

static void
release(Loop *L)
{
    Py_ssize_t i;
    if (L->step != NULL) {
        for (i = 0; i < L->nthreads; i++)
            Py_XDECREF(L->step[i]);
    }
    PyMem_Free(L->step);
    PyMem_Free(L->clock);
    PyMem_Free(L->busy);
    PyMem_Free(L->last);
    PyMem_Free(L->count);
    PyMem_Free(L->ready);
    PyMem_Free(L->state);
    PyMem_Free(L->ctx);
    PyMem_Free(L->steps);
    PyMem_Free(L->rng);
    PyMem_Free(L->parked);
    Py_XDECREF(L->sim);
    Py_XDECREF(L->stats);
    Py_XDECREF(L->threads);
    Py_XDECREF(L->contexts);
}

static int
setup(Loop *L)
{
    Py_ssize_t i, n, c;
    L->sim = PyObject_GetAttr(L->sched, s_sim);
    L->stats = PyObject_GetAttr(L->sched, s_stats);
    L->threads = PyObject_GetAttr(L->sched, s_threads);
    L->contexts = PyObject_GetAttr(L->sched, s_contexts);
    if (L->sim == NULL || L->stats == NULL || L->threads == NULL || L->contexts == NULL)
        return -1;
    if (!PyList_Check(L->threads) || !PyList_Check(L->contexts)
        || PyList_GET_SIZE(L->threads) == 0 || PyList_GET_SIZE(L->contexts) == 0) {
        PyErr_SetString(PyExc_TypeError, "Scheduler.threads and .contexts must be lists");
        return -1;
    }
    if (!PyTuple_Check(L->states) || PyTuple_GET_SIZE(L->states) != 3) {
        PyErr_SetString(PyExc_TypeError, "states must be (READY, BLOCKED, DONE)");
        return -1;
    }
    n = L->nthreads = PyList_GET_SIZE(L->threads);
    c = L->nctx = PyList_GET_SIZE(L->contexts);
    L->mgr = n - 1; /* the manager is last in thread order */
    L->step = PyMem_Calloc(n, sizeof(PyObject *));
    L->clock = PyMem_Calloc(c, sizeof(double));
    L->busy = PyMem_Calloc(c, sizeof(double));
    L->last = PyMem_Calloc(c, sizeof(int));
    L->count = PyMem_Calloc(c, sizeof(int));
    L->ready = PyMem_Calloc(n, sizeof(double));
    L->state = PyMem_Calloc(n, sizeof(int));
    L->ctx = PyMem_Calloc(n, sizeof(int));
    L->steps = PyMem_Calloc(n, sizeof(long long));
    L->rng = PyMem_Calloc(n, sizeof(uint64_t));
    L->parked = PyMem_Calloc(n, sizeof(int));
    if (!L->step || !L->clock || !L->busy || !L->last || !L->count || !L->ready
        || !L->state || !L->ctx || !L->steps || !L->rng || !L->parked) {
        PyErr_NoMemory();
        return -1;
    }
    for (i = 0; i < n; i++) {
        PyObject *runner = PyObject_GetAttr(PyList_GET_ITEM(L->threads, i), s_runner);
        if (runner == NULL)
            return -1;
        L->step[i] = PyObject_GetAttr(runner, s_step);
        Py_DECREF(runner);
        if (L->step[i] == NULL)
            return -1;
    }
    return 0;
}

/* Scheduler._wake_cores(manager_end), on the mirror. */
static int
wake_cores(Loop *L, double manager_end, double wake_latency)
{
    PyObject *state, *cores;
    Py_ssize_t i, kept = 0;
    double wake_at = manager_end + wake_latency;
    if (L->nparked == 0)
        return 0;
    state = PyObject_GetAttr(L->sim, s_state);
    if (state == NULL)
        return -1;
    cores = PyObject_GetAttr(state, s_cores);
    Py_DECREF(state);
    if (cores == NULL)
        return -1;
    for (i = 0; i < L->nparked; i++) {
        int t = L->parked[i], stay = 0, truth;
        PyObject *cs = PySequence_GetItem(cores, t);
        PyObject *inq = NULL, *model = NULL;
        if (cs == NULL)
            goto fail;
        inq = PyObject_GetAttr(cs, s_inq);
        if (inq == NULL)
            goto fail_item;
        if (L->state[t] == DONE) {
            /* A finished core thread revives to drain its InQ. */
            if ((truth = PyObject_IsTrue(inq)) < 0)
                goto fail_item;
            stay = !truth;
        }
        else {
            model = PyObject_GetAttr(cs, s_model);
            if (model == NULL || (truth = get_bool(model, s_finished)) < 0)
                goto fail_item;
            if (!truth) {
                int waiting = get_bool(model, s_waiting_sync);
                int nonempty = PyObject_IsTrue(inq);
                if (waiting < 0 || nonempty < 0)
                    goto fail_item;
                if (waiting) {
                    stay = !nonempty;
                }
                else {
                    PyObject *idx = PyObject_GetAttr(cs, s__idx), *seq, *local, *limit;
                    int due = 0;
                    if (idx == NULL)
                        goto fail_item;
                    seq = PyObject_GetAttr(cs, s__times);
                    local = seq == NULL ? NULL : PyObject_GetItem(seq, idx);
                    Py_XDECREF(seq);
                    if (local == NULL) {
                        Py_DECREF(idx);
                        goto fail_item;
                    }
                    if (nonempty) {
                        PyObject *head = PySequence_GetItem(inq, 0);
                        PyObject *ts = head == NULL ? NULL : PyObject_GetAttr(head, s_ts);
                        Py_XDECREF(head);
                        due = ts == NULL ? -1 : PyObject_RichCompareBool(ts, local, Py_LE);
                        Py_XDECREF(ts);
                    }
                    if (due == 0) {
                        seq = PyObject_GetAttr(cs, s__limits);
                        limit = seq == NULL ? NULL : PyObject_GetItem(seq, idx);
                        Py_XDECREF(seq);
                        if (limit == NULL)
                            due = -1;
                        else if (limit != Py_None
                                 && (stay = PyObject_RichCompareBool(local, limit, Py_GE)) < 0)
                            due = -1;
                        Py_XDECREF(limit);
                    }
                    Py_DECREF(idx);
                    Py_DECREF(local);
                    if (due < 0)
                        goto fail_item;
                }
            }
            if (!stay)
                L->wakeups++;
        }
        Py_XDECREF(model);
        Py_DECREF(inq);
        Py_DECREF(cs);
        if (stay) {
            L->parked[kept++] = t;
            continue;
        }
        L->state[t] = READY;
        if (L->ready[t] < wake_at)
            L->ready[t] = wake_at;
        continue;
    fail_item:
        Py_XDECREF(model);
        Py_XDECREF(inq);
        Py_DECREF(cs);
        goto fail;
    }
    L->nparked = kept;
    Py_DECREF(cores);
    return 0;
fail:
    /* Keep every thread not woken parked, as the Python scan does. */
    memmove(L->parked + kept, L->parked + i, (L->nparked - i) * sizeof(int));
    L->nparked = kept + (L->nparked - i);
    Py_DECREF(cores);
    return -1;
}

/* run(scheduler, max_target_cycles, stop_when, deadlock_limit, states)
 * -> 0, or DEADLOCK / RUNAWAY / NO_THREAD for the caller to raise. */
static PyObject *
loop_run(PyObject *module, PyObject *args)
{
    Loop L;
    PyObject *max_cycles, *stop_when;
    long long deadlock_limit, idle_manager_steps = 0;
    PyObject *controller = NULL, *hook = NULL, *host = NULL, *cost = NULL;
    PyObject *last_state = NULL, *cores = NULL, *models = NULL, *outcome = NULL, *returned;
    double jitter_frac, context_switch_ns, manager_cycle_ns, manager_poll_ns, wake_latency;
    double settled_cost;
    int migrates, can_settle = 0, settled = 0, check_done = 1, status = 0;
    Py_ssize_t ncores;

    memset(&L, 0, sizeof(L));
    if (!PyArg_ParseTuple(args, "OOOLO!:run", &L.sched, &max_cycles, &stop_when,
                          &deadlock_limit, &PyTuple_Type, &L.states))
        return NULL;
    if (setup(&L) < 0)
        goto error;
    host = PyObject_GetAttr(L.sched, s_host);
    cost = host == NULL ? NULL : PyObject_GetAttr(host, s_cost);
    if (cost == NULL
        || get_double(cost, s_jitter_frac, &jitter_frac) < 0
        || get_double(cost, s_context_switch_ns, &context_switch_ns) < 0
        || get_double(cost, s_manager_cycle_ns, &manager_cycle_ns) < 0
        || get_double(cost, s_wake_latency_ns, &wake_latency) < 0
        || get_double(host, s_manager_poll_ns, &manager_poll_ns) < 0
        || (migrates = get_bool(L.sched, s__manager_migrates)) < 0)
        goto error;
    settled_cost = manager_cycle_ns + manager_poll_ns;
    controller = PyObject_GetAttr(L.sim, s_controller);
    if (controller == NULL)
        goto error;
    if (controller != Py_None && (hook = PyObject_GetAttr(controller, s_after_manager_step)) == NULL)
        goto error;
    {
        PyObject *state = PyObject_GetAttr(L.sim, s_state);
        PyObject *seq = state == NULL ? NULL : PyObject_GetAttr(state, s_cores);
        Py_XDECREF(state);
        ncores = seq == NULL ? -1 : PyObject_Length(seq);
        Py_XDECREF(seq);
        if (ncores < 0)
            goto error;
    }
    if (load(&L) < 0)
        goto error;
    L.mirrored = 1;

    for (;;) {
        Py_ssize_t i;
        int t, ctx, have_manager, best, replay;
        double m_dispatch = 0.0, m_ready = 0.0, start, step_cost, end;
        double best_dispatch = 0.0, best_ready = 0.0;
        PyObject *state = PyObject_GetAttr(L.sim, s_state), *result = NULL;

        if (state == NULL)
            goto error;
        if (state != last_state) {
            PyObject *scheme;
            int uniform, wants;
            Py_XSETREF(last_state, state);
            Py_XSETREF(cores, PyObject_GetAttr(state, s_cores));
            Py_XSETREF(models, PyObject_GetAttr(state, s__models));
            if (cores == NULL || models == NULL)
                goto error;
            Py_SETREF(models, PySequence_Fast(models, "SimulationState._models"));
            if (models == NULL)
                goto error;
            check_done = 1;
            scheme = PyObject_GetAttr(state, s_scheme);
            if (scheme == NULL)
                goto error;
            uniform = get_bool(scheme, s_uniform_window);
            wants = uniform > 0 ? get_bool(scheme, s_wants_core_clocks) : 0;
            Py_DECREF(scheme);
            if (uniform < 0 || wants < 0)
                goto error;
            can_settle = uniform && !wants;
        }
        else {
            Py_DECREF(state);
        }
        if (check_done) {
            Py_ssize_t n = PySequence_Fast_GET_SIZE(models);
            PyObject **items = PySequence_Fast_ITEMS(models);
            for (i = 0; i < n; i++) {
                int finished = get_bool(items[i], s_finished);
                if (finished < 0)
                    goto error;
                if (!finished) {
                    check_done = 0;
                    break;
                }
            }
            if (check_done) {
                PyObject *manager = PyObject_GetAttr(last_state, s_manager), *quiet;
                int drained;
                if (manager == NULL)
                    goto error;
                quiet = PyObject_CallMethodOneArg(manager, s_quiescent, last_state);
                Py_DECREF(manager);
                if (quiet == NULL)
                    goto error;
                drained = PyObject_IsTrue(quiet);
                Py_DECREF(quiet);
                if (drained < 0)
                    goto error;
                if (drained) {
                    Py_ssize_t k, m = PyObject_Length(cores);
                    if (m < 0)
                        goto error;
                    for (k = 0; k < m && drained; k++) {
                        PyObject *cs = PySequence_GetItem(cores, k);
                        int busy;
                        if (cs == NULL)
                            goto error;
                        busy = get_bool(cs, s_inq);
                        Py_DECREF(cs);
                        if (busy < 0)
                            goto error;
                        drained = !busy;
                    }
                    if (drained)
                        break;
                }
            }
        }

        /* The pick: the manager (migrated first) against the argmin of the
         * READY non-manager threads over the exact key (dispatch, ready,
         * position) -- the thread Scheduler.run's lazy heap validates. */
        have_manager = L.state[L.mgr] == READY;
        if (have_manager) {
            if (migrates) {
                int target = L.migrate_min;
                if (target < 0) {
                    double low = L.clock[0];
                    target = 0;
                    for (i = 1; i < L.nctx; i++) {
                        if (L.clock[i] < low) {
                            low = L.clock[i];
                            target = (int)i;
                        }
                    }
                    L.migrate_min = target;
                }
                if (target != L.ctx[L.mgr]) {
                    L.count[L.ctx[L.mgr]]--;
                    L.count[target]++;
                    L.ctx[L.mgr] = target;
                }
            }
            m_ready = L.ready[L.mgr];
            m_dispatch = L.clock[L.ctx[L.mgr]];
            if (m_ready > m_dispatch)
                m_dispatch = m_ready;
        }
        best = -1;
        for (i = 0; i < L.mgr; i++) {
            double ready, dispatch;
            if (L.state[i] != READY)
                continue;
            ready = L.ready[i];
            dispatch = L.clock[L.ctx[i]];
            if (ready > dispatch)
                dispatch = ready;
            if (best < 0 || dispatch < best_dispatch
                || (dispatch == best_dispatch && ready < best_ready)) {
                best = (int)i;
                best_dispatch = dispatch;
                best_ready = ready;
            }
        }
        /* The manager is last in thread order: it wins only strictly. */
        if (best >= 0 && (!have_manager || m_dispatch > best_dispatch
                          || (m_dispatch == best_dispatch && m_ready >= best_ready))) {
            t = best;
            start = best_dispatch;
        }
        else if (have_manager) {
            t = (int)L.mgr;
            start = m_dispatch;
        }
        else {
            status = NO_THREAD;
            goto finish;
        }

        replay = settled && t == L.mgr;
        if (replay) {
            step_cost = settled_cost;
        }
        else {
            PyObject *now = PyFloat_FromDouble(start);
            if (now == NULL)
                goto error;
            result = PyObject_CallOneArg(L.step[t], now);
            Py_DECREF(now);
            if (result == NULL || get_double(result, s_cost_ns, &step_cost) < 0)
                goto error_result;
        }
        if (jitter_frac > 0.0) {
            /* SplitMix64.next_float, as Scheduler.run inlines it. */
            uint64_t s = L.rng[t] + 0x9E3779B97F4A7C15ULL, z;
            double u;
            L.rng[t] = s;
            z = (s ^ (s >> 30)) * 0xBF58476D1CE4E5B9ULL;
            z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
            u = (double)((z ^ (z >> 31)) >> 11) * (1.0 / 9007199254740992.0);
            step_cost *= 1.0 + jitter_frac * (2.0 * u - 1.0);
        }
        ctx = L.ctx[t];
        if (L.last[ctx] != t && L.count[ctx] > 1)
            step_cost += context_switch_ns;
        L.last[ctx] = t;
        end = start + step_cost;
        L.clock[ctx] = end;
        L.ready[t] = end;
        L.steps[t]++;
        L.busy[ctx] += step_cost;
        if (ctx == L.migrate_min)
            L.migrate_min = -1; /* its clock advanced; recompute */

        if (t == L.mgr) {
            L.manager_steps++;
            if (replay) {
                /* A settled poll: nothing to serve, hook or wake. */
                PyObject *none = PyObject_CallMethodNoArgs(outcome, s_reset_idle);
                if (none == NULL)
                    goto error;
                Py_DECREF(none);
                if (++idle_manager_steps > deadlock_limit) {
                    status = DEADLOCK;
                    goto finish;
                }
            }
            else {
                PyObject *violations, *gtime;
                Py_ssize_t nviolations;
                int idle, acted = 0, wake, outcome_settled, over;
                Py_XSETREF(outcome, PyObject_GetAttr(result, s_outcome));
                Py_CLEAR(result);
                if (outcome == NULL || (idle = get_bool(outcome, s_idle)) < 0)
                    goto error;
                if (!idle)
                    L.manager_busy += step_cost;
                violations = PyObject_GetAttr(outcome, s_violations);
                if (violations == NULL)
                    goto error;
                nviolations = PyObject_Length(violations);
                Py_DECREF(violations);
                if (nviolations < 0)
                    goto error;
                L.violations_observed += nviolations;
                if (hook != NULL) {
                    /* The hook sees (and may move) the real scheduler. */
                    PyObject *now, *acted_obj;
                    if (store(&L, 0) < 0)
                        goto error;
                    now = PyFloat_FromDouble(L.clock[ctx]);
                    if (now == NULL)
                        goto error;
                    acted_obj = PyObject_CallFunctionObjArgs(hook, L.sched, outcome, now, NULL);
                    Py_DECREF(now);
                    if (acted_obj == NULL)
                        goto error;
                    acted = PyObject_IsTrue(acted_obj);
                    Py_DECREF(acted_obj);
                    if (acted < 0)
                        goto error;
                    if (acted) {
                        L.mirrored = 0;
                        if (load(&L) < 0)
                            goto error;
                        L.mirrored = 1;
                    }
                }
                if ((wake = get_bool(outcome, s_maybe_wake)) < 0)
                    goto error;
                if (wake || L.parked_dirty) {
                    L.parked_dirty = 0;
                    if (wake_cores(&L, L.clock[ctx], wake_latency) < 0)
                        goto error;
                }
                idle_manager_steps = idle ? idle_manager_steps + 1 : 0;
                if (idle_manager_steps > deadlock_limit) {
                    status = DEADLOCK;
                    goto finish;
                }
                if (max_cycles != Py_None) {
                    gtime = PyObject_GetAttr(outcome, s_global_time);
                    if (gtime == NULL)
                        goto error;
                    over = PyObject_RichCompareBool(gtime, max_cycles, Py_GT);
                    Py_DECREF(gtime);
                    if (over < 0)
                        goto error;
                    if (over) {
                        status = RUNAWAY;
                        goto finish;
                    }
                }
                settled = 0;
                if (can_settle && !acted) {
                    PyObject *now_state;
                    if ((outcome_settled = get_bool(outcome, s_settled)) < 0)
                        goto error;
                    now_state = PyObject_GetAttr(L.sim, s_state);
                    if (now_state == NULL)
                        goto error;
                    settled = outcome_settled && now_state == last_state;
                    Py_DECREF(now_state);
                }
            }
            if (stop_when != Py_None) {
                PyObject *stop = PyObject_CallOneArg(stop_when, outcome);
                int cut;
                if (stop == NULL)
                    goto error;
                cut = PyObject_IsTrue(stop);
                Py_DECREF(stop);
                if (cut < 0)
                    goto error;
                if (cut)
                    break; /* an epoch cut: resumable, as in Python */
            }
        }
        else if (t < ncores) {
            int done, blocked = 0;
            settled = 0;
            L.core_steps++;
            done = get_bool(result, s_done);
            if (done == 0)
                blocked = get_bool(result, s_blocked);
            Py_CLEAR(result);
            if (done < 0 || blocked < 0)
                goto error;
            if (done) {
                check_done = 1; /* a model may have just finished */
                L.state[t] = DONE;
            }
            else if (blocked) {
                L.state[t] = BLOCKED;
            }
            if (done || blocked) {
                L.parked[L.nparked++] = t;
                L.parked_dirty = 1;
            }
        }
        else { /* sub-manager */
            settled = 0;
            L.submanager_busy += step_cost;
            Py_CLEAR(result);
        }
        continue;
    error_result:
        Py_XDECREF(result);
        goto error;
    }

finish:
    if (store(&L, 1) < 0)
        goto error_stored;
    returned = PyLong_FromLong(status);
    goto cleanup;
error:
    if (L.mirrored)
        store_on_error(&L);
error_stored:
    returned = NULL;
cleanup:
    Py_XDECREF(host);
    Py_XDECREF(cost);
    Py_XDECREF(controller);
    Py_XDECREF(hook);
    Py_XDECREF(last_state);
    Py_XDECREF(cores);
    Py_XDECREF(models);
    Py_XDECREF(outcome);
    release(&L);
    return returned;
}

static PyMethodDef loop_methods[] = {
    {"run", loop_run, METH_VARARGS,
     "run(scheduler, max_target_cycles, stop_when, deadlock_limit, states)\n"
     "--\n\n"
     "Scheduler.run's loop for a run without enabled probe seams.  Returns\n"
     "0 when the run finished or was cut, else the DeadlockError to raise:\n"
     "1 deadlock, 2 runaway, 3 no runnable thread."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef loop_module = {
    PyModuleDef_HEAD_INIT, "_loop",
    "The seams-off scheduler loop in C (see repro.core.scheduler).", -1, loop_methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__loop(void)
{
#define INTERN(n) \
    if (s_##n == NULL && (s_##n = PyUnicode_InternFromString(#n)) == NULL) return NULL;
    NAMES(INTERN)
#undef INTERN
    return PyModule_Create(&loop_module);
}
