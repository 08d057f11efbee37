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
 * every controller hook, on a cut, on an error and at the end.  Core
 * runners of the fused fast pipeline are stepped here too (the core step
 * section below).  The rest of the simulation stays in Python: manager,
 * sub-manager and icache core steps, the controller hook, the cut
 * predicate, ``reset_idle``, ``quiescent`` and the CoreState reads of the
 * wake scan.  Every manager step calls into Python, and a long run of C
 * core steps lets signals and other threads in every YIELD_EVERY steps,
 * so they are served as under the Python loop.
 *
 * Build with -ffp-contract=off: each float operation must round exactly as
 * CPython's does, and GCC contracts a*b+c into one FMA by default on
 * targets that have it.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
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
    X(reset_idle) X(_stall) X(_apply) X(_drain_while_sync_blocked)            \
    X(_replayable) X(_barrier_static) X(_stall_ns) X(_stall_barrier_ns)       \
    X(_cost_binds) X(_batch) X(replaying) X(max_stall_batch) X(barrier_ns)    \
    X(outq) X(outbox) X(program) X(l1) X(pages_touched) X(_page_shift)        \
    X(_issue_width) X(_window_size) X(_icache) X(_issue_op) X(_buffer)        \
    X(next_op) X(popleft) X(append) X(array) X(mshrs) X(_line_bits) X(loads)  \
    X(stores) X(load_misses) X(store_misses) X(upgrades) X(last_bus_op)       \
    X(_index) X(_state) X(_lru) X(_clock) X(hits) X(misses) X(_entries)       \
    X(capacity) X(merges) X(full_stalls) X(allocations) X(cycles)             \
    X(stall_cycles) X(sync_stall_cycles) X(instructions) X(_issue_seq)        \
    X(_fetch_seq) X(_compute_remaining) X(_compute_rate) X(_current_op)       \
    X(_pending_loads)

#define DECLARE(n) static PyObject *s_##n;
NAMES(DECLARE)
#undef DECLARE

typedef struct core Core; /* a core runner the C step may take */

/* The scheduler's Python objects and their C mirror. */
typedef struct {
    PyObject *sched, *sim, *stats, *states;
    PyObject *threads;  /* list: position == index */
    PyObject *contexts; /* list: HostContext.index == index */
    PyObject **step;    /* bound runner.step per thread */
    Core *core;         /* per core thread (positions [0, ncores)) */
    Py_ssize_t nthreads, nctx, mgr, ncores;
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

/* ------------------------------------------------------------------ */
/* The core step in C: CoreRunner.step for the fused fast pipeline.
 *
 * A core whose model has no icache is stepped here instead of through
 * ``runner.step``, bit for bit as CoreRunner.step steps it (the Python
 * step stays the reference; DESIGN.md section 5, "The core step in C").
 * The model's and L1's integer fields are mirrored in a Mirror for one
 * step: the model's at its start, the L1's at its first access.  They
 * are written back at its end and before every call into Python that
 * may read them, and read again after it.  The callees are
 * CoreRunner._apply (InQ deliveries), _drain_while_sync_blocked and
 * model._issue_op, plus program.next_op, which reads nothing mirrored;
 * everything else a step does (the stall replay, the burst commit, the
 * issue loop with its L1 and MSHR accesses, request and OutMsg
 * emission, the stall skip and the barrier charge) is here. */

/* What scheduler.py binds once after loading this module. */
static int bound;
static PyTypeObject *T_runner, *T_model, *T_l1, *T_array, *T_mshrs;
static PyTypeObject *T_entry, *T_op, *T_inmsg, *T_outmsg, *T_request;
static PyObject *K_LOAD, *K_STORE, *K_COMPUTE, *K_BUS, *K_GETS, *K_GETX, *K_UPGR;
static PyObject *K_MODIFIED, *ILP_RATE, *ZERO;
static long EXCLUSIVE;
/* __slots__ offsets of the records the step reads or builds. */
static Py_ssize_t O_op_kind, O_op_arg1, O_op_arg2, O_in_ts;
static Py_ssize_t O_out_core, O_out_ts, O_out_host, O_out_request;
static Py_ssize_t O_req_kind, O_req_line, O_req_bus, O_req_sync, O_req_parts;
static Py_ssize_t O_entry_line, O_entry_kind, O_entry_time, O_entry_ids;

enum { HIT, MISS, MERGED, BLOCKED_L1, MSHR_FULL };
enum { NO_STALL, WINDOW_STALL, ACCESS_STALL };

/* The mirrored integer fields and the object each lives on. */
enum {
    F_CYCLES, F_STALLS, F_INSTRS, F_ISSUE, F_FETCH, F_REMAIN, F_RATE, N_MODEL,
    F_LOADS = N_MODEL, F_STORES, F_LOAD_MISSES, F_STORE_MISSES, F_UPGRADES,
    F_HITS, F_MISSES, F_CLOCK, F_MERGES, F_FULL, F_ALLOCS, N_FIELDS
};
enum { ON_MODEL, ON_L1, ON_ARRAY, ON_MSHRS };
static PyObject **const field_name[N_FIELDS] = {
    &s_cycles, &s_stall_cycles, &s_instructions, &s__issue_seq, &s__fetch_seq,
    &s__compute_remaining, &s__compute_rate,
    &s_loads, &s_stores, &s_load_misses, &s_store_misses, &s_upgrades,
    &s_hits, &s_misses, &s__clock, &s_merges, &s_full_stalls, &s_allocations,
};
static const int field_owner[N_FIELDS] = {
    ON_MODEL, ON_MODEL, ON_MODEL, ON_MODEL, ON_MODEL, ON_MODEL, ON_MODEL,
    ON_L1, ON_L1, ON_L1, ON_L1, ON_L1,
    ON_ARRAY, ON_ARRAY, ON_ARRAY, ON_MSHRS, ON_MSHRS, ON_MSHRS,
};

/* One core runner: its constants, its root binds and its stall record. */
struct core {
    int eligible;      /* a CoreRunner the C step may stand in for */
    int native;        /* the bound root's model takes the C step */
    int stall_cleared; /* runner._stall was reset since C took over */
    PyObject *runner, *apply, *drain, *index;
    int barrier_static, replayable;
    long long batch, stall_batch;
    double pme, pin, slack, cycle_slack, stall_slack, stall_ns, stall_barrier_ns, barrier_ns;
    /* CoreRunner._state_binds: fixed while sim.state is ``state``. */
    PyObject *state, *cs, *model, *md, *inq, *times, *limits, *outbox, *outq_append;
    PyObject *buffer, *popleft, *next_op, *issue_op, *l1, *l1d, *pages;
    Py_ssize_t cidx;
    long long width, window, line_bits, page_shift;
    /* CoreRunner._stall, kept here while C steps the core. */
    int stall, stall_store;
    long long stall_line, stall_page;
};

/* One step's mirror of the model and L1 fields. */
typedef struct {
    Core *c;
    long long v[N_FIELDS], o[N_FIELDS];
    PyObject *owner[4]; /* the __dict__ of model, l1, array, mshrs */
    int have_model, have_l1;
    PyObject *op;       /* model._current_op */
    int op_dirty;
    PyObject *pending;  /* model._pending_loads */
    int waiting, finished;
    PyObject *index, *states, *lru, *entries;
    Py_ssize_t capacity;
} Mirror;

static PyObject *
slot_get(PyObject *obj, Py_ssize_t offset)
{
    PyObject *value = *(PyObject **)((char *)obj + offset);
    if (value == NULL)
        PyErr_SetString(PyExc_AttributeError, "unset slot");
    return value; /* borrowed */
}

static void
slot_set(PyObject *obj, Py_ssize_t offset, PyObject *value)
{
    PyObject **field = (PyObject **)((char *)obj + offset);
    Py_INCREF(value);
    Py_XSETREF(*field, value);
}

static int
as_ll(PyObject *value, long long *out)
{
    *out = PyLong_AsLongLong(value);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* A borrowed ``d[key]``, AttributeError when absent. */
static PyObject *
dget(PyObject *d, PyObject *key)
{
    PyObject *value = PyDict_GetItemWithError(d, key);
    if (value == NULL && !PyErr_Occurred())
        PyErr_SetObject(PyExc_AttributeError, key);
    return value;
}

static int
dget_ll(PyObject *d, PyObject *key, long long *out)
{
    PyObject *value = dget(d, key);
    return value == NULL ? -1 : as_ll(value, out);
}

static int
dset_ll(PyObject *d, PyObject *key, long long v)
{
    PyObject *value = PyLong_FromLongLong(v);
    int rc = value == NULL ? -1 : PyDict_SetItem(d, key, value);
    Py_XDECREF(value);
    return rc;
}

static int
list_get_ll(PyObject *list, Py_ssize_t i, long long *out)
{
    PyObject *item = PyList_GetItem(list, i);
    return item == NULL ? -1 : as_ll(item, out);
}

static int
list_set_ll(PyObject *list, Py_ssize_t i, long long v)
{
    PyObject *value = PyLong_FromLongLong(v);
    return value == NULL ? -1 : PyList_SetItem(list, i, value);
}

/* ``limits[cidx]``: 1 with *out set, 0 for None, -1 on error. */
static int
get_limit(Core *c, long long *out)
{
    PyObject *limit = PyList_GetItem(c->limits, c->cidx);
    if (limit == NULL)
        return -1;
    if (limit == Py_None)
        return 0;
    return as_ll(limit, out) < 0 ? -1 : 1;
}

/* ``inq[0].ts``: 1 with *out set, 0 for an empty InQ, -1 on error. */
static int
head_ts(PyObject *queue, long long *out)
{
    PyObject *head, *ts;
    int rc;
    Py_ssize_t n = PySequence_Size(queue);
    if (n <= 0)
        return (int)n;
    head = PySequence_GetItem(queue, 0);
    if (head == NULL)
        return -1;
    if (!Py_IS_TYPE(head, T_inmsg)) {
        PyErr_SetString(PyExc_TypeError, "an InQ holds a non-InMsg");
        rc = -1;
    }
    else {
        rc = (ts = slot_get(head, O_in_ts)) == NULL || as_ll(ts, out) < 0 ? -1 : 1;
    }
    Py_DECREF(head);
    return rc;
}

/* ``pending[0][0]``: 1 with *out set, 0 for no pending load, -1 on error. */
static int
oldest_load(PyObject *pending, long long *out)
{
    PyObject *head, *seq;
    int rc;
    Py_ssize_t n = PySequence_Size(pending);
    if (n <= 0)
        return (int)n;
    head = PySequence_GetItem(pending, 0);
    if (head == NULL)
        return -1;
    seq = PySequence_GetItem(head, 0);
    Py_DECREF(head);
    if (seq == NULL)
        return -1;
    rc = as_ll(seq, out) < 0 ? -1 : 1;
    Py_DECREF(seq);
    return rc;
}

/* ---- the mirror ---- */

static void
mirror_init(Mirror *M, Core *c)
{
    memset(M, 0, sizeof(*M));
    M->c = c;
    M->owner[ON_MODEL] = c->md;
    M->owner[ON_L1] = c->l1d;
}

static int
mirror_model(Mirror *M)
{
    PyObject *md = M->c->md, *value;
    int i;
    for (i = 0; i < N_MODEL; i++) {
        if (dget_ll(md, *field_name[i], &M->v[i]) < 0)
            return -1;
        M->o[i] = M->v[i];
    }
    M->have_model = 1;
    if ((value = dget(md, s__current_op)) == NULL)
        return -1;
    Py_INCREF(value);
    Py_XSETREF(M->op, value);
    M->op_dirty = 0;
    if ((value = dget(md, s__pending_loads)) == NULL)
        return -1;
    Py_INCREF(value);
    Py_XSETREF(M->pending, value);
    if ((value = dget(md, s_waiting_sync)) == NULL || (M->waiting = PyObject_IsTrue(value)) < 0)
        return -1;
    if ((value = dget(md, s_finished)) == NULL || (M->finished = PyObject_IsTrue(value)) < 0)
        return -1;
    return 0;
}

static void
mirror_drop_l1(Mirror *M)
{
    M->have_l1 = 0;
    Py_CLEAR(M->owner[ON_ARRAY]);
    Py_CLEAR(M->owner[ON_MSHRS]);
    Py_CLEAR(M->index);
    Py_CLEAR(M->states);
    Py_CLEAR(M->lru);
    Py_CLEAR(M->entries);
}

/* The L1's counters and the banks, read afresh: a delivery fills them. */
static int
mirror_l1(Mirror *M)
{
    PyObject *l1d = M->c->l1d, *obj, *capacity;
    int i;
    if ((obj = dget(l1d, s_array)) == NULL
        || (M->owner[ON_ARRAY] = PyObject_GenericGetDict(obj, NULL)) == NULL)
        goto fail;
    if ((obj = dget(l1d, s_mshrs)) == NULL
        || (M->owner[ON_MSHRS] = PyObject_GenericGetDict(obj, NULL)) == NULL)
        goto fail;
    M->index = dget(M->owner[ON_ARRAY], s__index);
    Py_XINCREF(M->index);
    M->states = dget(M->owner[ON_ARRAY], s__state);
    Py_XINCREF(M->states);
    M->lru = dget(M->owner[ON_ARRAY], s__lru);
    Py_XINCREF(M->lru);
    M->entries = dget(M->owner[ON_MSHRS], s__entries);
    Py_XINCREF(M->entries);
    capacity = dget(M->owner[ON_MSHRS], s_capacity);
    if (M->index == NULL || M->states == NULL || M->lru == NULL || M->entries == NULL
        || capacity == NULL)
        goto fail;
    if (!PyDict_Check(M->index) || !PyList_Check(M->states) || !PyList_Check(M->lru)
        || !PyDict_Check(M->entries)) {
        PyErr_SetString(PyExc_TypeError, "unexpected L1 bank types");
        goto fail;
    }
    if ((M->capacity = PyLong_AsSsize_t(capacity)) == -1 && PyErr_Occurred())
        goto fail;
    for (i = N_MODEL; i < N_FIELDS; i++) {
        if (dget_ll(M->owner[field_owner[i]], *field_name[i], &M->v[i]) < 0)
            goto fail;
        M->o[i] = M->v[i];
    }
    M->have_l1 = 1;
    return 0;
fail:
    mirror_drop_l1(M);
    return -1;
}

/* Write every changed mirrored field back to its object. */
static int
mirror_flush(Mirror *M)
{
    int i;
    if (M->have_model && M->op_dirty) {
        if (PyDict_SetItem(M->c->md, s__current_op, M->op) < 0)
            return -1;
        M->op_dirty = 0;
    }
    for (i = 0; i < N_FIELDS; i++) {
        if (i < N_MODEL ? !M->have_model : !M->have_l1)
            continue;
        if (M->v[i] != M->o[i]) {
            if (dset_ll(M->owner[field_owner[i]], *field_name[i], M->v[i]) < 0)
                return -1;
            M->o[i] = M->v[i];
        }
    }
    return 0;
}

/* After a call into Python: everything mirrored may have moved. */
static int
mirror_reload(Mirror *M)
{
    mirror_drop_l1(M);
    return mirror_model(M);
}

static void
mirror_release(Mirror *M)
{
    mirror_drop_l1(M);
    Py_CLEAR(M->op);
    Py_CLEAR(M->pending);
}

/* mirror_flush() keeping a pending exception as the one raised. */
static void
mirror_flush_on_error(Mirror *M)
{
    PyObject *type, *value, *traceback;
    PyErr_Fetch(&type, &value, &traceback);
    if (mirror_flush(M) < 0)
        PyErr_Clear();
    PyErr_Restore(type, value, traceback);
}

/* ---- L1Cache.access_line ---- */

/* MshrFile.allocate(line_addr, kind, now) on the mirror. */
static int
mshr_allocate(Mirror *M, PyObject *key, PyObject *kind, long long now)
{
    PyObject *entry = T_entry->tp_alloc(T_entry, 0), *time, *ids;
    int rc;
    if (entry == NULL)
        return -1;
    time = PyLong_FromLongLong(now);
    ids = PyList_New(0);
    if (time == NULL || ids == NULL) {
        Py_XDECREF(time);
        Py_XDECREF(ids);
        Py_DECREF(entry);
        return -1;
    }
    slot_set(entry, O_entry_line, key);
    slot_set(entry, O_entry_kind, kind);
    slot_set(entry, O_entry_time, time);
    slot_set(entry, O_entry_ids, ids);
    Py_DECREF(time);
    Py_DECREF(ids);
    rc = PyDict_SetItem(M->entries, key, entry);
    Py_DECREF(entry);
    M->v[F_ALLOCS]++;
    return rc;
}

/* One load/store of ``key`` (== line) at core-local time ``now``: an
 * outcome above, or -1 on error.  A MISS leaves its bus op in *bus_op. */
static int
l1_access(Mirror *M, PyObject *key, int is_store, long long now, PyObject **bus_op)
{
    PyObject *found, *kind, *entry;
    Py_ssize_t slot = -1;
    if (!M->have_l1 && mirror_l1(M) < 0)
        return -1;
    /* CacheArray.find: the tag probe and LRU touch. */
    found = PyDict_GetItemWithError(M->index, key);
    if (found != NULL) {
        if ((slot = PyLong_AsSsize_t(found)) == -1 && PyErr_Occurred())
            return -1;
        if (list_set_ll(M->lru, slot, ++M->v[F_CLOCK]) < 0)
            return -1;
    }
    else if (PyErr_Occurred())
        return -1;
    if (!is_store) {
        M->v[F_LOADS]++;
        if (slot >= 0) {
            M->v[F_HITS]++;
            return HIT;
        }
        kind = K_GETS;
    }
    else {
        M->v[F_STORES]++;
        if (slot >= 0) {
            PyObject *item = PyList_GetItem(M->states, slot);
            long state;
            if (item == NULL || ((state = PyLong_AsLong(item)) == -1 && PyErr_Occurred()))
                return -1;
            if (state >= EXCLUSIVE) { /* writable (E or M) -> M */
                Py_INCREF(K_MODIFIED);
                if (PyList_SetItem(M->states, slot, K_MODIFIED) < 0)
                    return -1;
                M->v[F_HITS]++;
                return HIT;
            }
            kind = K_UPGR;
        }
        else {
            kind = K_GETX;
        }
    }
    entry = PyDict_GetItemWithError(M->entries, key);
    if (entry != NULL) {
        PyObject *outstanding, *ids;
        if (!Py_IS_TYPE(entry, T_entry)) {
            PyErr_SetString(PyExc_TypeError, "MshrFile._entries holds a non-MshrEntry");
            return -1;
        }
        if ((outstanding = slot_get(entry, O_entry_kind)) == NULL)
            return -1;
        if (!is_store || outstanding == K_GETX || outstanding == K_UPGR) {
            if ((ids = slot_get(entry, O_entry_ids)) == NULL || PyList_Append(ids, ZERO) < 0)
                return -1;
            M->v[F_MERGES]++;
            return MERGED;
        }
        return BLOCKED_L1;
    }
    if (PyErr_Occurred())
        return -1;
    if (PyDict_GET_SIZE(M->entries) >= M->capacity) {
        M->v[F_FULL]++;
        return MSHR_FULL;
    }
    if (mshr_allocate(M, key, kind, now) < 0)
        return -1;
    M->v[F_MISSES]++;
    if (is_store) {
        if (kind == K_UPGR)
            M->v[F_UPGRADES]++;
        else
            M->v[F_STORE_MISSES]++;
    }
    else {
        M->v[F_LOAD_MISSES]++;
    }
    if (PyDict_SetItem(M->c->l1d, s_last_bus_op, kind) < 0)
        return -1;
    *bus_op = kind;
    return MISS;
}

/* ---- binds ---- */

static void
core_unbind(Core *c)
{
    c->native = 0;
    c->stall = NO_STALL;
    Py_CLEAR(c->state);
    Py_CLEAR(c->cs);
    Py_CLEAR(c->model);
    Py_CLEAR(c->md);
    Py_CLEAR(c->inq);
    Py_CLEAR(c->times);
    Py_CLEAR(c->limits);
    Py_CLEAR(c->outbox);
    Py_CLEAR(c->outq_append);
    Py_CLEAR(c->buffer);
    Py_CLEAR(c->popleft);
    Py_CLEAR(c->next_op);
    Py_CLEAR(c->issue_op);
    Py_CLEAR(c->l1);
    Py_CLEAR(c->l1d);
    Py_CLEAR(c->pages);
}

/* CoreRunner._state_binds for a new root; c->native says whether the
 * root's model takes the C step (no icache, the expected types). */
static int
core_bind(Core *c, PyObject *state, PyObject *cores)
{
    PyObject *obj, *program = NULL, *icache, *outq;
    long long cidx;
    core_unbind(c);
    Py_INCREF(state);
    c->state = state;
    if ((c->cs = PySequence_GetItem(cores, PyLong_AsSsize_t(c->index))) == NULL)
        return -1;
    if ((c->model = PyObject_GetAttr(c->cs, s_model)) == NULL)
        return -1;
    if (!Py_IS_TYPE(c->model, T_model))
        return 0;
    if ((icache = PyObject_GetAttr(c->model, s__icache)) == NULL)
        return -1;
    Py_DECREF(icache);
    if (icache != Py_None)
        return 0; /* the Python step's model.cycle() path */
    if ((c->md = PyObject_GenericGetDict(c->model, NULL)) == NULL
        || (c->inq = PyObject_GetAttr(c->cs, s_inq)) == NULL
        || (c->times = PyObject_GetAttr(c->cs, s__times)) == NULL
        || (c->limits = PyObject_GetAttr(c->cs, s__limits)) == NULL
        || get_ll(c->cs, s__idx, &cidx) < 0
        || (c->outbox = PyObject_GetAttr(c->model, s_outbox)) == NULL
        || (program = PyObject_GetAttr(c->model, s_program)) == NULL
        || (c->buffer = PyObject_GetAttr(program, s__buffer)) == NULL
        || (c->popleft = PyObject_GetAttr(c->buffer, s_popleft)) == NULL
        || (c->next_op = PyObject_GetAttr(program, s_next_op)) == NULL
        || (c->issue_op = PyObject_GetAttr(c->model, s__issue_op)) == NULL
        || (c->l1 = PyObject_GetAttr(c->model, s_l1)) == NULL
        || (c->pages = PyObject_GetAttr(c->model, s_pages_touched)) == NULL
        || get_ll(c->model, s__issue_width, &c->width) < 0
        || get_ll(c->model, s__window_size, &c->window) < 0
        || get_ll(c->model, s__page_shift, &c->page_shift) < 0)
        goto fail;
    Py_CLEAR(program);
    if (!PyList_Check(c->times) || !PyList_Check(c->limits) || !PyList_Check(c->outbox)
        || !PySet_Check(c->pages) || !Py_IS_TYPE(c->l1, T_l1))
        return 0;
    c->cidx = (Py_ssize_t)cidx;
    if ((c->l1d = PyObject_GenericGetDict(c->l1, NULL)) == NULL
        || get_ll(c->l1, s__line_bits, &c->line_bits) < 0)
        return -1;
    if ((obj = dget(c->l1d, s_array)) == NULL || !Py_IS_TYPE(obj, T_array)
        || (obj = dget(c->l1d, s_mshrs)) == NULL || !Py_IS_TYPE(obj, T_mshrs)) {
        PyErr_Clear();
        return 0;
    }
    if ((outq = PyObject_GetAttr(c->cs, s_outq)) == NULL)
        return -1;
    c->outq_append = PyObject_GetAttr(outq, s_append);
    Py_DECREF(outq);
    if (c->outq_append == NULL)
        return -1;
    c->native = 1;
    return 0;
fail:
    Py_XDECREF(program);
    return -1;
}

/* ---- the step ---- */

/* ``model.pages_touched.add(page)``: a store dirties its page. */
static int
touch_page(Core *c, long long page)
{
    PyObject *value = PyLong_FromLongLong(page);
    int rc = value == NULL ? -1 : PySet_Add(c->pages, value);
    Py_XDECREF(value);
    return rc;
}

/* CoreRunner._skip_stalls on the mirror: the host cost. */
static int
skip_stalls(Mirror *M, double *cost)
{
    Core *c = M->c;
    long long local, target, limit, due, skip;
    int has;
    *cost = 0.0;
    if (list_get_ll(c->times, c->cidx, &local) < 0)
        return -1;
    target = local + c->stall_batch;
    if ((has = get_limit(c, &limit)) < 0)
        return -1;
    if (has && limit < target)
        target = limit;
    if ((has = head_ts(c->inq, &due)) < 0)
        return -1;
    if (has && due < target)
        target = due;
    skip = target - local;
    if (skip <= 0)
        return 0;
    /* CoreModel.skip_stall_cycles */
    M->v[F_CYCLES] += skip;
    M->v[F_STALLS] += skip;
    if (M->waiting) {
        long long sync;
        if (dget_ll(c->md, s_sync_stall_cycles, &sync) < 0
            || dset_ll(c->md, s_sync_stall_cycles, sync + skip) < 0)
            return -1;
    }
    if (list_set_ll(c->times, c->cidx, local + skip) < 0)
        return -1;
    *cost = (double)skip * c->stall_slack;
    return 0;
}

/* CoreRunner._record_stall */
static int
record_stall(Mirror *M)
{
    Core *c = M->c;
    long long oldest, addr;
    PyObject *kind, *arg;
    int has = oldest_load(M->pending, &oldest);
    if (has < 0)
        return -1;
    if (has && M->v[F_ISSUE] - oldest >= c->window) {
        c->stall = WINDOW_STALL;
        return 0;
    }
    if (!Py_IS_TYPE(M->op, T_op))
        return 0; /* None: an end-of-program stall, not replayed */
    if ((kind = slot_get(M->op, O_op_kind)) == NULL)
        return -1;
    if (kind != K_LOAD && kind != K_STORE)
        return 0; /* a structural or end-of-program stall: not replayed */
    if ((arg = slot_get(M->op, O_op_arg1)) == NULL || as_ll(arg, &addr) < 0)
        return -1;
    c->stall = ACCESS_STALL;
    c->stall_line = addr >> c->line_bits;
    c->stall_store = kind == K_STORE;
    c->stall_page = addr >> c->page_shift;
    return 0;
}

/* The barrier charge of a step that blocks at its pacing limit. */
static int
barrier_charge(Core *c, PyObject *controller, int *charge)
{
    *charge = c->barrier_static;
    if (!*charge && controller != Py_None)
        *charge = get_bool(controller, s_replaying);
    return *charge < 0 ? -1 : 0;
}

/* CoreRunner._replay_stall: 1 replayed, 0 not (record dropped), -1. */
static int
replay_stall(Core *c, PyObject *controller, double *cost)
{
    Mirror M;
    long long local, limit, due, value;
    int has, charge, rc = -1;
    if (list_get_ll(c->times, c->cidx, &local) < 0 || (has = get_limit(c, &limit)) < 0)
        return -1;
    if (!has || limit != local + 1) {
        c->stall = NO_STALL;
        return 0;
    }
    if ((has = head_ts(c->inq, &due)) < 0)
        return -1;
    if (has && due <= local) {
        c->stall = NO_STALL;
        return 0;
    }
    if (dget_ll(c->md, s_cycles, &value) < 0 || dset_ll(c->md, s_cycles, value + 1) < 0
        || dget_ll(c->md, s_stall_cycles, &value) < 0
        || dset_ll(c->md, s_stall_cycles, value + 1) < 0)
        return -1;
    if (c->stall == ACCESS_STALL) {
        PyObject *key, *bus_op;
        if (c->stall_store && touch_page(c, c->stall_page) < 0)
            return -1;
        mirror_init(&M, c);
        if ((key = PyLong_FromLongLong(c->stall_line)) == NULL)
            return -1;
        if (l1_access(&M, key, c->stall_store, local, &bus_op) >= 0 && mirror_flush(&M) == 0)
            rc = 0;
        else
            mirror_flush_on_error(&M);
        Py_DECREF(key);
        mirror_release(&M);
        if (rc < 0)
            return -1;
    }
    if (list_set_ll(c->times, c->cidx, local + 1) < 0 || barrier_charge(c, controller, &charge) < 0)
        return -1;
    *cost = charge ? c->stall_barrier_ns : c->stall_ns;
    return 1;
}

/* CoreRequest(BUS, key, bus_op), built through its __slots__ as its
 * __init__ would build it. */
static PyObject *
new_request(PyObject *key, PyObject *bus_op)
{
    PyObject *request = T_request->tp_alloc(T_request, 0);
    if (request == NULL)
        return NULL;
    slot_set(request, O_req_kind, K_BUS);
    slot_set(request, O_req_line, key);
    slot_set(request, O_req_bus, bus_op);
    slot_set(request, O_req_sync, ZERO);
    slot_set(request, O_req_parts, ZERO);
    return request;
}

/* Post the outbox to the OutQ (stamped ``host_now + cost`` before each
 * request's event cost is added) and clear it: 1 if any, 0 if none. */
static int
emit(Core *c, long long local, double host_now, double *cost)
{
    Py_ssize_t i, n = PyList_GET_SIZE(c->outbox);
    PyObject *ts;
    if (n == 0)
        return 0;
    if ((ts = PyLong_FromLongLong(local)) == NULL)
        return -1;
    for (i = 0; i < PyList_GET_SIZE(c->outbox); i++) {
        PyObject *msg = T_outmsg->tp_alloc(T_outmsg, 0), *host, *done;
        if (msg == NULL || (host = PyFloat_FromDouble(host_now + *cost)) == NULL) {
            Py_XDECREF(msg);
            Py_DECREF(ts);
            return -1;
        }
        slot_set(msg, O_out_core, c->index);
        slot_set(msg, O_out_ts, ts);
        slot_set(msg, O_out_host, host);
        slot_set(msg, O_out_request, PyList_GET_ITEM(c->outbox, i));
        Py_DECREF(host);
        done = PyObject_CallOneArg(c->outq_append, msg);
        Py_DECREF(msg);
        if (done == NULL) {
            Py_DECREF(ts);
            return -1;
        }
        Py_DECREF(done);
        *cost += c->pme;
    }
    Py_DECREF(ts);
    return PyList_SetSlice(c->outbox, 0, PyList_GET_SIZE(c->outbox), NULL) < 0 ? -1 : 1;
}

/* Deliver every InQ entry due at ``local`` through CoreRunner._apply. */
static int
deliver(Mirror *M, long long local, double *cost)
{
    Core *c = M->c;
    long long ts;
    int has;
    if (mirror_flush(M) < 0)
        return -1;
    while ((has = head_ts(c->inq, &ts)) > 0 && ts <= local) {
        PyObject *msg = PyObject_CallMethodNoArgs(c->inq, s_popleft), *done;
        if (msg == NULL)
            return -1;
        done = PyObject_CallFunctionObjArgs(c->apply, c->cs, msg, NULL);
        Py_DECREF(msg);
        if (done == NULL)
            return -1;
        Py_DECREF(done);
        *cost += c->pme;
    }
    if (has < 0)
        return -1;
    return mirror_reload(M);
}

/* ``model._current_op = None``: the current op issued. */
static void
issued(Mirror *M)
{
    Py_INCREF(Py_None);
    Py_SETREF(M->op, Py_None);
    M->op_dirty = 1;
}

/* One cycle of the fused fast pipeline (CoreModel.cycle inlined, as in
 * CoreRunner.step): the instructions committed, or -1 on error. */
static long long
pipeline_cycle(Mirror *M, long long local)
{
    Core *c = M->c;
    long long committed = 0, slots = c->width, issue_seq = M->v[F_ISSUE];
    M->v[F_CYCLES]++;
    while (slots > 0) {
        long long remaining = M->v[F_REMAIN], oldest, addr;
        PyObject *op, *kind, *arg;
        int has = oldest_load(M->pending, &oldest);
        if (has < 0)
            return -1;
        if (has && issue_seq - oldest >= c->window)
            break; /* reorder window full behind the oldest miss */
        if (remaining > 0) {
            long long take = M->v[F_RATE];
            if (slots < take)
                take = slots;
            if (remaining < take)
                take = remaining;
            M->v[F_REMAIN] = remaining - take;
            issue_seq += take;
            committed += take;
            slots -= take;
            if (remaining > take)
                break;
            continue;
        }
        if (M->op == Py_None) {
            Py_ssize_t buffered = PySequence_Size(c->buffer);
            if (buffered < 0)
                return -1;
            /* program.next_op reads nothing mirrored: no write-back. */
            op = buffered ? PyObject_CallNoArgs(c->popleft) : PyObject_CallNoArgs(c->next_op);
            if (op == NULL)
                return -1;
            Py_SETREF(M->op, op);
            M->op_dirty = 1;
            if (op == Py_None)
                break;
        }
        op = M->op;
        if (!Py_IS_TYPE(op, T_op)) {
            PyErr_SetString(PyExc_TypeError, "the program yielded a non-Op");
            return -1;
        }
        if ((kind = slot_get(op, O_op_kind)) == NULL)
            return -1;
        if (kind == K_LOAD || kind == K_STORE) {
            int is_store = kind == K_STORE, outcome;
            PyObject *key, *bus_op = NULL;
            if ((arg = slot_get(op, O_op_arg1)) == NULL || as_ll(arg, &addr) < 0)
                return -1;
            if (is_store && touch_page(c, addr >> c->page_shift) < 0)
                return -1;
            if ((key = PyLong_FromLongLong(addr >> c->line_bits)) == NULL)
                return -1;
            outcome = l1_access(M, key, is_store, local, &bus_op);
            if (outcome == MISS) {
                PyObject *request = new_request(key, bus_op);
                if (request == NULL || PyList_Append(c->outbox, request) < 0)
                    outcome = -1;
                Py_XDECREF(request);
            }
            if ((outcome == MISS || outcome == MERGED) && !is_store) {
                PyObject *entry = Py_BuildValue("(LO)", issue_seq, key), *done = NULL;
                if (entry != NULL)
                    done = PyObject_CallMethodOneArg(M->pending, s_append, entry);
                Py_XDECREF(entry);
                if (done == NULL)
                    outcome = -1;
                Py_XDECREF(done);
            }
            Py_DECREF(key);
            if (outcome < 0)
                return -1;
            if (outcome == BLOCKED_L1 || outcome == MSHR_FULL)
                break; /* stall this cycle */
            issue_seq++;
            issued(M);
            committed++;
            slots--;
            continue;
        }
        if (kind == K_COMPUTE) {
            PyObject *rate;
            if ((arg = slot_get(op, O_op_arg1)) == NULL || as_ll(arg, &M->v[F_REMAIN]) < 0
                || (arg = slot_get(op, O_op_arg2)) == NULL)
                return -1;
            if ((rate = PyDict_GetItemWithError(ILP_RATE, arg)) == NULL) {
                if (!PyErr_Occurred())
                    PyErr_SetObject(PyExc_KeyError, arg);
                return -1;
            }
            if (as_ll(rate, &M->v[F_RATE]) < 0)
                return -1;
            issued(M);
            continue;
        }
        {
            /* model._issue_op(op): a sync op or THREAD_END. */
            PyObject *done;
            if (mirror_flush(M) < 0)
                return -1;
            done = PyObject_CallOneArg(c->issue_op, op);
            if (done == NULL)
                return -1;
            Py_DECREF(done);
            if (mirror_reload(M) < 0)
                return -1;
        }
        issue_seq++;
        committed++;
        slots--;
        if (M->waiting || M->finished)
            break;
    }
    M->v[F_ISSUE] = issue_seq;
    M->v[F_INSTRS] += committed;
    M->v[F_FETCH] += committed;
    if (committed == 0)
        M->v[F_STALLS]++;
    return committed;
}

/* CoreModel.commit_burst(max_cycles) on the mirror; sets *m, *instrs. */
static int
commit_burst(Mirror *M, long long max_cycles, long long *m, long long *instrs)
{
    Core *c = M->c;
    long long remaining = M->v[F_REMAIN], k, oldest;
    int has;
    *m = *instrs = 0;
    if (remaining <= 1 || M->finished || M->waiting)
        return 0;
    k = c->width;
    if (M->v[F_RATE] < k)
        k = M->v[F_RATE];
    *m = (remaining - 1) / k;
    if (*m > max_cycles)
        *m = max_cycles;
    if ((has = oldest_load(M->pending, &oldest)) < 0)
        return -1;
    if (has) {
        /* Stop one cycle short of filling the reorder window. */
        long long avail = c->window - (M->v[F_ISSUE] - oldest), cap;
        if (avail <= 0) {
            *m = 0;
            return 0;
        }
        cap = (avail - 1) / k + 1;
        if (*m > cap)
            *m = cap;
    }
    if (*m <= 0) {
        *m = 0;
        return 0;
    }
    *instrs = *m * k;
    M->v[F_REMAIN] = remaining - *instrs;
    M->v[F_ISSUE] += *instrs;
    M->v[F_FETCH] += *instrs;
    M->v[F_INSTRS] += *instrs;
    M->v[F_CYCLES] += *m;
    return 0;
}

/* CoreRunner.step(host_now) for a native core: its cost, and whether the
 * core thread blocks or is done. */
static int
core_step_native(Core *c, PyObject *controller, double host_now, double *cost_out,
                 int *blocked, int *done)
{
    Mirror M;
    double cost = 0.0;
    long long cycles = 0, local, due, limit = 0;
    int has_due, has_limit = 0, at_limit, charge;

    if (!c->stall_cleared) {
        /* The record lives here now: a later Python step starts afresh. */
        if (PyObject_SetAttr(c->runner, s__stall, Py_None) < 0)
            return -1;
        c->stall_cleared = 1;
    }
    *blocked = *done = 0;
    if (c->stall != NO_STALL) {
        int replayed = replay_stall(c, controller, cost_out);
        if (replayed != 0) {
            *blocked = 1;
            return replayed < 0 ? -1 : 0;
        }
    }
    mirror_init(&M, c);
    if (mirror_model(&M) < 0)
        goto error;
    if (M.finished) {
        /* Drain coherence traffic still addressed to the exited thread. */
        if (deliver(&M, LLONG_MAX, &cost) < 0)
            goto error;
        *cost_out = cost > c->slack ? cost : c->slack;
        *done = 1;
        mirror_release(&M);
        return 0;
    }
    if ((has_due = head_ts(c->inq, &due)) < 0)
        goto error;
    while (cycles < c->batch) {
        long long committed;
        int emitted;
        if (list_get_ll(c->times, c->cidx, &local) < 0)
            goto error;
        if (has_due && due <= local) {
            if (deliver(&M, local, &cost) < 0 || (has_due = head_ts(c->inq, &due)) < 0)
                goto error;
        }
        if (M.waiting) {
            PyObject *spent;
            double extra;
            if (mirror_flush(&M) < 0)
                goto error;
            spent = PyObject_CallOneArg(c->drain, c->cs);
            if (spent == NULL)
                goto error;
            extra = PyFloat_AsDouble(spent);
            Py_DECREF(spent);
            if (extra == -1.0 && PyErr_Occurred())
                goto error;
            cost += extra;
            if (mirror_reload(&M) < 0 || (has_due = head_ts(c->inq, &due)) < 0)
                goto error;
            if (M.waiting)
                break; /* wait for the manager's grant delivery */
            continue;
        }
        if (M.finished)
            break;
        if ((has_limit = get_limit(c, &limit)) < 0)
            goto error;
        if (has_limit && local >= limit)
            break; /* at_limit */

        if (M.v[F_REMAIN] > 1 && PyList_GET_SIZE(c->outbox) == 0) {
            long long m_cap = c->batch - cycles;
            if (has_limit && limit - local < m_cap)
                m_cap = limit - local;
            if (has_due && due - local < m_cap)
                m_cap = due - local;
            if (m_cap > 1) {
                long long m, instrs;
                if (commit_burst(&M, m_cap, &m, &instrs) < 0)
                    goto error;
                if (m) {
                    if (list_set_ll(c->times, c->cidx, local + m) < 0)
                        goto error;
                    cycles += m;
                    cost += (double)m * c->cycle_slack + (double)instrs * c->pin;
                    continue;
                }
            }
        }

        if ((committed = pipeline_cycle(&M, local)) < 0)
            goto error;
        if ((emitted = emit(c, local, host_now, &cost)) < 0)
            goto error;
        if (list_set_ll(c->times, c->cidx, local + 1) < 0)
            goto error;
        cycles++;
        if (committed)
            cost += c->cycle_slack + (double)committed * c->pin;
        else
            cost += c->stall_slack;

        if (committed == 0 && !emitted && !M.finished) {
            /* The pipeline can only resume after an InQ delivery. */
            if (!has_limit || local + 1 != limit) {
                double skipped;
                if (skip_stalls(&M, &skipped) < 0)
                    goto error;
                cost += skipped;
            }
            else if (c->replayable && record_stall(&M) < 0) {
                goto error;
            }
            break;
        }
    }
    if (mirror_flush(&M) < 0)
        goto error;

    if (cost <= 0.0)
        cost = c->slack;
    if (M.finished) {
        *cost_out = cost;
        *done = 1;
        mirror_release(&M);
        return 0;
    }
    if (list_get_ll(c->times, c->cidx, &local) < 0 || (has_limit = get_limit(c, &limit)) < 0)
        goto error;
    at_limit = has_limit && local >= limit;
    if (at_limit) {
        *blocked = 1;
    }
    else if (M.waiting) {
        Py_ssize_t queued = PySequence_Size(c->inq);
        if (queued < 0)
            goto error;
        *blocked = queued == 0;
    }
    if (at_limit) {
        if (barrier_charge(c, controller, &charge) < 0)
            goto error;
        if (charge)
            cost += c->barrier_ns; /* futex sleep at the barrier */
    }
    *cost_out = cost;
    mirror_release(&M);
    return 0;
error:
    mirror_flush_on_error(&M);
    mirror_release(&M);
    return -1;
}

/* The Core of every core thread; the C step stands in only for an exact
 * CoreRunner, and only while the methods it copies are unpatched. */
static int
cores_setup(Loop *L, PyObject *host, PyObject *cost, int native_step)
{
    Py_ssize_t i;
    double barrier_ns;
    long long stall_batch;
    if ((L->core = PyMem_Calloc(L->ncores + 1, sizeof(Core))) == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    if (!bound || !native_step)
        return 0;
    if (get_double(cost, s_barrier_ns, &barrier_ns) < 0
        || get_ll(host, s_max_stall_batch, &stall_batch) < 0)
        return -1;
    for (i = 0; i < L->ncores; i++) {
        Core *c = &L->core[i];
        PyObject *binds;
        int ok;
        c->runner = PyObject_GetAttr(PyList_GET_ITEM(L->threads, i), s_runner);
        if (c->runner == NULL)
            return -1;
        if (!Py_IS_TYPE(c->runner, T_runner))
            continue;
        if ((c->apply = PyObject_GetAttr(c->runner, s__apply)) == NULL
            || (c->drain = PyObject_GetAttr(c->runner, s__drain_while_sync_blocked)) == NULL
            || (c->index = PyObject_GetAttr(c->runner, s_index)) == NULL
            || (c->barrier_static = get_bool(c->runner, s__barrier_static)) < 0
            || (c->replayable = get_bool(c->runner, s__replayable)) < 0
            || get_ll(c->runner, s__batch, &c->batch) < 0
            || get_double(c->runner, s__stall_ns, &c->stall_ns) < 0
            || get_double(c->runner, s__stall_barrier_ns, &c->stall_barrier_ns) < 0
            || (binds = PyObject_GetAttr(c->runner, s__cost_binds)) == NULL)
            return -1;
        ok = PyArg_ParseTuple(binds, "ddddd;CoreRunner._cost_binds", &c->pme, &c->pin,
                              &c->slack, &c->cycle_slack, &c->stall_slack);
        Py_DECREF(binds);
        if (!ok)
            return -1;
        c->stall_batch = stall_batch;
        c->barrier_ns = barrier_ns;
        c->eligible = 1;
    }
    return 0;
}

static void
cores_release(Loop *L)
{
    Py_ssize_t i;
    if (L->core == NULL)
        return;
    for (i = 0; i < L->ncores; i++) {
        Core *c = &L->core[i];
        core_unbind(c);
        Py_XDECREF(c->runner);
        Py_XDECREF(c->apply);
        Py_XDECREF(c->drain);
        Py_XDECREF(c->index);
    }
    PyMem_Free(L->core);
}

/* Consecutive C core steps after which the loop lets other threads and
 * signal handlers in, as the eval loop would (a manager step enters
 * Python and so does the same). */
#define YIELD_EVERY 4096

/* run(scheduler, max_target_cycles, stop_when, deadlock_limit, states,
 *     native_step) -> 0, or DEADLOCK / RUNAWAY / NO_THREAD to raise. */
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
    int migrates, can_settle = 0, settled = 0, check_done = 1, status = 0, native_step;
    int native_run = 0;
    Py_ssize_t ncores;

    memset(&L, 0, sizeof(L));
    if (!PyArg_ParseTuple(args, "OOOLO!p:run", &L.sched, &max_cycles, &stop_when,
                          &deadlock_limit, &PyTuple_Type, &L.states, &native_step))
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
    L.ncores = ncores < L.mgr ? ncores : L.mgr;
    if (cores_setup(&L, host, cost, native_step) < 0)
        goto error;
    if (load(&L) < 0)
        goto error;
    L.mirrored = 1;

    for (;;) {
        Py_ssize_t i;
        int t, ctx, have_manager, best, replay, native = 0, native_done = 0, native_blocked = 0;
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
        else if (t < L.ncores && L.core[t].eligible
                 && (L.core[t].state == last_state || core_bind(&L.core[t], last_state, cores) == 0)
                 && L.core[t].native) {
            native = 1;
            if (core_step_native(&L.core[t], controller, start, &step_cost, &native_blocked,
                                 &native_done) < 0)
                goto error;
            if (++native_run >= YIELD_EVERY) {
                native_run = 0;
                if (PyErr_CheckSignals() < 0)
                    goto error;
                Py_BEGIN_ALLOW_THREADS
                Py_END_ALLOW_THREADS
            }
        }
        else if (PyErr_Occurred()) {
            goto error; /* core_bind failed */
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
            native_run = 0;
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
            if (native) {
                done = native_done;
                blocked = native_blocked;
            }
            else {
                done = get_bool(result, s_done);
                if (done == 0)
                    blocked = get_bool(result, s_blocked);
                Py_CLEAR(result);
            }
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
    cores_release(&L);
    release(&L);
    return returned;
}

/* The offset of a __slots__ member of ``type``, or -1 with an exception. */
static Py_ssize_t
slot_offset(PyTypeObject *type, const char *name)
{
    PyObject *descr = PyDict_GetItemString(type->tp_dict, name);
    if (descr == NULL || !Py_IS_TYPE(descr, &PyMemberDescr_Type)
        || ((PyMemberDescrObject *)descr)->d_member->type != T_OBJECT_EX) {
        PyErr_Format(PyExc_TypeError, "%s.%s is not a __slots__ member", type->tp_name, name);
        return -1;
    }
    return ((PyMemberDescrObject *)descr)->d_member->offset;
}

/* bind(types, constants): what the C core step needs of the model. */
static PyObject *
loop_bind(PyObject *module, PyObject *args)
{
    static const struct { Py_ssize_t *offset; PyTypeObject **type; const char *name; } slots[] = {
        {&O_op_kind, &T_op, "kind"}, {&O_op_arg1, &T_op, "arg1"}, {&O_op_arg2, &T_op, "arg2"},
        {&O_in_ts, &T_inmsg, "ts"},
        {&O_out_core, &T_outmsg, "core_id"}, {&O_out_ts, &T_outmsg, "ts"},
        {&O_out_host, &T_outmsg, "host_time"}, {&O_out_request, &T_outmsg, "request"},
        {&O_req_kind, &T_request, "kind"}, {&O_req_line, &T_request, "line_addr"},
        {&O_req_bus, &T_request, "bus_op"}, {&O_req_sync, &T_request, "sync_id"},
        {&O_req_parts, &T_request, "participants"},
        {&O_entry_line, &T_entry, "line_addr"}, {&O_entry_kind, &T_entry, "kind"},
        {&O_entry_time, &T_entry, "issue_time"}, {&O_entry_ids, &T_entry, "merged_rob_ids"},
    };
    PyTypeObject **types[] = {&T_runner, &T_model, &T_l1, &T_array, &T_mshrs,
                              &T_entry, &T_op, &T_inmsg, &T_outmsg, &T_request};
    PyObject **constants[] = {&K_LOAD, &K_STORE, &K_COMPUTE, &K_BUS, &K_GETS, &K_GETX,
                              &K_UPGR, &K_MODIFIED, &ILP_RATE};
    PyTypeObject *t[10];
    PyObject *k[9];
    size_t i;
    bound = 0;
    if (!PyArg_ParseTuple(args, "(O!O!O!O!O!O!O!O!O!O!)(OOOOOOOOO!l):bind",
                          &PyType_Type, &t[0], &PyType_Type, &t[1], &PyType_Type, &t[2],
                          &PyType_Type, &t[3], &PyType_Type, &t[4], &PyType_Type, &t[5],
                          &PyType_Type, &t[6], &PyType_Type, &t[7], &PyType_Type, &t[8],
                          &PyType_Type, &t[9], &k[0], &k[1], &k[2], &k[3], &k[4], &k[5],
                          &k[6], &k[7], &PyDict_Type, &k[8], &EXCLUSIVE))
        return NULL;
    for (i = 0; i < 10; i++) {
        Py_INCREF(t[i]);
        Py_XSETREF(*types[i], t[i]);
    }
    for (i = 0; i < 9; i++) {
        Py_INCREF(k[i]);
        Py_XSETREF(*constants[i], k[i]);
    }
    for (i = 0; i < sizeof(slots) / sizeof(slots[0]); i++) {
        if ((*slots[i].offset = slot_offset(*slots[i].type, slots[i].name)) < 0)
            return NULL;
    }
    if (ZERO == NULL && (ZERO = PyLong_FromLong(0)) == NULL)
        return NULL;
    bound = 1;
    Py_RETURN_NONE;
}

static PyMethodDef loop_methods[] = {
    {"run", loop_run, METH_VARARGS,
     "run(scheduler, max_target_cycles, stop_when, deadlock_limit, states,\n"
     "    native_step)\n"
     "--\n\n"
     "Scheduler.run's loop for a run without enabled probe seams; with\n"
     "native_step, core runners of the fused fast pipeline step in C.  Returns\n"
     "0 when the run finished or was cut, else the DeadlockError to raise:\n"
     "1 deadlock, 2 runaway, 3 no runnable thread."},
    {"bind", loop_bind, METH_VARARGS,
     "bind(types, constants)\n"
     "--\n\n"
     "Give the C core step the model's classes and constants: types are\n"
     "(CoreRunner, CoreModel, L1Cache, CacheArray, MshrFile, MshrEntry, Op,\n"
     "InMsg, OutMsg, CoreRequest), constants are (OpKind.LOAD, .STORE,\n"
     ".COMPUTE, RequestKind.BUS, BusOpKind.GETS, .GETX, .UPGR,\n"
     "MesiState.MODIFIED, the ILP-rate dict, int(MesiState.EXCLUSIVE))."},
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
