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
 * every controller hook call, on a cut, on an error and at the end (after
 * a C manager step the loop calls the hook only when it may act: see
 * core_moves_below).  Core
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

/* Scheduler._path_counts: how each manager and core step ran, the InQ
 * deliveries and program refills the C core step made, and the controller
 * hooks the loop skipped (decided idle in C) and called. */
enum {
    MANAGER_C, MANAGER_PYTHON, MANAGER_REPLAYED, CORE_C, CORE_PYTHON,
    DELIVERIES_C, REFILLS_C, HOOKS_C, HOOKS_PYTHON, N_PATHS
};

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
    X(reset_idle) X(_stall)                                                   \
    X(_replayable) X(_barrier_static) X(_stall_ns) X(_stall_barrier_ns)       \
    X(_cost_binds) X(_batch) X(replaying) X(max_stall_batch) X(barrier_ns)    \
    X(outq) X(outbox) X(program) X(l1) X(pages_touched) X(_page_shift)        \
    X(_issue_width) X(_window_size) X(_icache) X(_issue_op) X(_buffer)        \
    X(popleft) X(append) X(array) X(mshrs) X(_line_bits) X(loads)  \
    X(stores) X(load_misses) X(store_misses) X(upgrades) X(last_bus_op)       \
    X(_index) X(_state) X(_lru) X(_clock) X(hits) X(misses) X(_entries)       \
    X(capacity) X(merges) X(full_stalls) X(allocations) X(cycles)             \
    X(stall_cycles) X(sync_stall_cycles) X(instructions) X(_issue_seq)        \
    X(_fetch_seq) X(_compute_remaining) X(_compute_rate) X(_current_op)       \
    X(_pending_loads) X(_shadow) X(_dirty) X(_path_counts) X(direct_cores)    \
    X(gq) X(_grant_floor) X(events_served) X(_serving_conservative)           \
    X(_batch_grant_min) X(_limits_key) X(_outcome) X(bus) X(l2) X(cache_map)  \
    X(detector) X(c2c_latency) X(config) X(arbitration_latency)               \
    X(request_cycles) X(response_cycles) X(requests) X(responses)             \
    X(request_conflict_cycles) X(response_conflict_cycles) X(stale_grants)    \
    X(request_free_at) X(response_free_at) X(_last_request_ts) X(num_banks)   \
    X(_bank_free_at) X(BANK_BUSY_CYCLES) X(dram) X(accesses)                  \
    X(writebacks_received) X(bank_conflict_cycles) X(cache) X(hit_latency)    \
    X(miss_latency) X(_tag) X(evictions) X(_assoc) X(_set_mask) X(_set_bits)  \
    X(_journal) X(gets_served) X(getx_served) X(upgr_served) X(writebacks)    \
    X(cache_to_cache) X(enabled) X(counts) X(window_counts) X(_bus_monitor)   \
    X(_map_monitors) X(_pending) X(last_violation) X(local_times)             \
    X(max_local_times) X(conservative_service) X(control_tick) X(window)      \
    X(_serve_one) X(per_gq_event_ns) X(violation_tracking_ns)                \
    X(per_mem_event_ns) X(adaptive_adjust_ns) X(clear) X(next_boundary)       \
    X(_frames) X(ctx) X(_ended) X(snoop_invalidations) X(snoop_downgrades)    \
    X(pop)

#define DECLARE(n) static PyObject *s_##n;
NAMES(DECLARE)
#undef DECLARE

typedef struct core Core; /* a core runner the C step may take */
typedef struct manager Manager; /* the flat manager the C step may take */

/* The scheduler's Python objects and their C mirror. */
typedef struct {
    PyObject *sched, *sim, *stats, *states;
    PyObject *threads;  /* list: position == index */
    PyObject *contexts; /* list: HostContext.index == index */
    PyObject **step;    /* bound runner.step per thread */
    Core *core;         /* per core thread (positions [0, ncores)) */
    Manager *manager;   /* the manager thread's */
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
    long long paths[N_PATHS]; /* Scheduler._path_counts */
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
    seq = PyObject_GetAttr(L->sched, s__path_counts);
    if (seq == NULL)
        return -1;
    for (i = 0; i < N_PATHS; i++) {
        PyObject *item = PySequence_GetItem(seq, i);
        int rc = -1;
        if (item != NULL) {
            L->paths[i] = PyLong_AsLongLong(item);
            rc = L->paths[i] == -1 && PyErr_Occurred() ? -1 : 0;
            Py_DECREF(item);
        }
        if (rc < 0) {
            Py_DECREF(seq);
            return -1;
        }
    }
    Py_DECREF(seq);
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
    PyObject *manager, *target, *current, *parked, *paths, *busy;
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
    paths = PyObject_GetAttr(L->sched, s__path_counts);
    if (paths == NULL)
        return -1;
    for (i = 0; i < N_PATHS; i++) {
        PyObject *value = PyLong_FromLongLong(L->paths[i]);
        int rc = value == NULL ? -1 : PySequence_SetItem(paths, i, value);
        Py_XDECREF(value);
        if (rc < 0) {
            Py_DECREF(paths);
            return -1;
        }
    }
    Py_DECREF(paths);
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
 * model._issue_op and the workload's own Emit, If and loop-count
 * callables, which see only the program context; everything else a step
 * does (the stall replay, the InQ deliveries of CoreRunner._apply and
 * the sync drain, the burst commit, the issue loop with its L1 and MSHR
 * accesses and its program refills, request and OutMsg emission, the
 * stall skip and the barrier charge) is here.  IFILL deliveries reach
 * only icache cores, which keep the Python step, and a run with an
 * enabled telemetry session or sanitizer never enters this loop, so the
 * step makes none of their probes. */

/* What scheduler.py binds once after loading this module. */
static int bound;
static PyTypeObject *T_runner, *T_model, *T_l1, *T_array, *T_mshrs;
static PyTypeObject *T_entry, *T_op, *T_inmsg, *T_outmsg, *T_request;
static PyTypeObject *T_interp, *T_context, *T_frame, *T_emit, *T_loop_stmt, *T_if, *T_deque;
static PyObject *K_LOAD, *K_STORE, *K_COMPUTE, *K_THREAD_END, *K_BUS, *K_WRITEBACK;
static PyObject *K_GETS, *K_GETX, *K_UPGR, *K_SHARED, *K_MODIFIED;
static PyObject *K_FILL, *K_SYNC_GRANT, *K_INVALIDATE, *K_DOWNGRADE;
static PyObject *ILP_RATE, *WORKLOAD_ERROR, *ZERO, *ONE, *EMPTY;
static long EXCLUSIVE, MODIFIED, PAGE_BITS;
/* __slots__ offsets of the records the step reads or builds. */
static Py_ssize_t O_op_kind, O_op_arg1, O_op_arg2, O_in_kind, O_in_ts, O_in_line, O_in_state;
static Py_ssize_t O_ctx_vars, O_frame_stmts, O_frame_idx, O_frame_var, O_frame_remaining;
static Py_ssize_t O_frame_trip, O_emit_fn, O_loop_var, O_loop_count, O_loop_body;
static Py_ssize_t O_if_pred, O_if_then, O_if_else;
static Py_ssize_t O_out_core, O_out_ts, O_out_host, O_out_request;
static Py_ssize_t O_req_kind, O_req_line, O_req_bus, O_req_sync, O_req_parts;
static Py_ssize_t O_entry_line, O_entry_kind, O_entry_time, O_entry_ids;

enum { HIT, MISS, MERGED, BLOCKED_L1, MSHR_FULL };
enum { NO_STALL, WINDOW_STALL, ACCESS_STALL };

/* The mirrored integer fields and the object each lives on. */
enum {
    F_CYCLES, F_STALLS, F_INSTRS, F_ISSUE, F_FETCH, F_REMAIN, F_RATE, N_MODEL,
    F_LOADS = N_MODEL, F_STORES, F_LOAD_MISSES, F_STORE_MISSES, F_UPGRADES,
    F_WRITEBACKS, F_SNOOP_INV, F_SNOOP_DOWN,
    F_HITS, F_MISSES, F_CLOCK, F_EVICTIONS, F_MERGES, F_FULL, F_ALLOCS, N_FIELDS
};
enum { ON_MODEL, ON_L1, ON_ARRAY, ON_MSHRS };
static PyObject **const field_name[N_FIELDS] = {
    &s_cycles, &s_stall_cycles, &s_instructions, &s__issue_seq, &s__fetch_seq,
    &s__compute_remaining, &s__compute_rate,
    &s_loads, &s_stores, &s_load_misses, &s_store_misses, &s_upgrades,
    &s_writebacks, &s_snoop_invalidations, &s_snoop_downgrades,
    &s_hits, &s_misses, &s__clock, &s_evictions, &s_merges, &s_full_stalls, &s_allocations,
};
static const int field_owner[N_FIELDS] = {
    ON_MODEL, ON_MODEL, ON_MODEL, ON_MODEL, ON_MODEL, ON_MODEL, ON_MODEL,
    ON_L1, ON_L1, ON_L1, ON_L1, ON_L1, ON_L1, ON_L1, ON_L1,
    ON_ARRAY, ON_ARRAY, ON_ARRAY, ON_ARRAY, ON_MSHRS, ON_MSHRS, ON_MSHRS,
};

/* One core runner: its constants, its root binds and its stall record. */
struct core {
    int eligible;      /* a CoreRunner the C step may stand in for */
    int native;        /* the bound root's model takes the C step */
    int stall_cleared; /* runner._stall was reset since C took over */
    long long *paths;  /* Loop.paths */
    PyObject *runner, *index;
    int barrier_static, replayable;
    long long batch, stall_batch;
    double pme, pin, slack, cycle_slack, stall_slack, stall_ns, stall_barrier_ns, barrier_ns;
    /* CoreRunner._state_binds: fixed while sim.state is ``state``. */
    PyObject *state, *cs, *model, *md, *inq, *inq_popleft, *times, *limits, *outbox;
    PyObject *outq_append, *pd, *buffer, *popleft, *buffer_append, *issue_op;
    PyObject *l1, *l1d, *pages;
    Py_ssize_t cidx;
    long long width, window, line_bits, page_shift;
    /* CoreRunner._stall, kept here while C steps the core. */
    int stall, stall_store;
    long long stall_line, stall_page;
};

/* One CacheArray's banks and geometry (an L1's or the L2's), with the
 * LRU clock and eviction count its caller mirrors. */
typedef struct {
    PyObject *ad; /* its __dict__, borrowed */
    PyObject *tags, *states, *lrus, *index;
    long long *clock, *evictions;
    long long assoc, set_mask, set_bits;
} Array;

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
    Array array;        /* the L1's, with the L1 fields */
    PyObject *entries;
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

/* ``list[i] = value`` */
static int
list_put(PyObject *list, Py_ssize_t i, PyObject *value)
{
    Py_INCREF(value);
    return PyList_SetItem(list, i, value);
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

/* ---- CacheArray, the L1's and the L2's ---- */

static void
array_drop(Array *A)
{
    Py_CLEAR(A->tags);
    Py_CLEAR(A->states);
    Py_CLEAR(A->lrus);
    Py_CLEAR(A->index);
}

/* The banks and geometry of the array whose __dict__ is ``ad``. */
static int
array_load(Array *A, PyObject *ad, long long *clock, long long *evictions)
{
    A->ad = ad;
    A->clock = clock;
    A->evictions = evictions;
    if ((A->tags = dget(ad, s__tag)) == NULL || (A->states = dget(ad, s__state)) == NULL
        || (A->lrus = dget(ad, s__lru)) == NULL || (A->index = dget(ad, s__index)) == NULL) {
        A->tags = A->states = A->lrus = A->index = NULL;
        return -1;
    }
    if (!PyList_Check(A->tags) || !PyList_Check(A->states) || !PyList_Check(A->lrus)
        || !PyDict_Check(A->index)) {
        A->tags = A->states = A->lrus = A->index = NULL;
        PyErr_SetString(PyExc_TypeError, "unexpected cache bank types");
        return -1;
    }
    Py_INCREF(A->tags);
    Py_INCREF(A->states);
    Py_INCREF(A->lrus);
    Py_INCREF(A->index);
    if (dget_ll(ad, s__assoc, &A->assoc) < 0 || dget_ll(ad, s__set_mask, &A->set_mask) < 0
        || dget_ll(ad, s__set_bits, &A->set_bits) < 0) {
        array_drop(A);
        return -1;
    }
    return 0;
}

/* A content write to ``slot`` of the CacheArray whose __dict__ is ``ad``:
 * with a shadow (a checkpoint exists) its page is dirtied, as every
 * CacheArray mutator does, so a rollback rewinds it. */
static int
mark_page(PyObject *ad, Py_ssize_t slot)
{
    PyObject *shadow = dget(ad, s__shadow), *dirty, *page;
    int rc;
    if (shadow == NULL)
        return -1;
    if (shadow == Py_None)
        return 0;
    if ((dirty = dget(ad, s__dirty)) == NULL || (page = PyLong_FromSsize_t(slot >> PAGE_BITS)) == NULL)
        return -1;
    rc = PySet_Add(dirty, page);
    Py_DECREF(page);
    return rc;
}

/* CacheArray.find(line, touch): *slot, or -1 on a miss. */
static int
array_find(Array *A, PyObject *line, int touch, Py_ssize_t *slot)
{
    PyObject *found = PyDict_GetItemWithError(A->index, line);
    *slot = -1;
    if (found == NULL)
        return PyErr_Occurred() ? -1 : 0;
    if ((*slot = PyLong_AsSsize_t(found)) == -1 && PyErr_Occurred())
        return -1;
    if (touch)
        return list_set_ll(A->lrus, *slot, ++*A->clock);
    return 0;
}

/* CacheArray.fill(line, state) for ``addr`` == line: *victim is the line
 * evicted, or -1 when an invalid way was used, and *victim_state its
 * state.  Victim priority: invalid ways first, then least recently used;
 * ties keep the lowest way. */
static int
array_fill(Array *A, PyObject *line, long long addr, PyObject *state, long long *victim,
           long long *victim_state)
{
    long long set_index = addr & A->set_mask, best_lru, lru, filled;
    Py_ssize_t base = (Py_ssize_t)(set_index * A->assoc), pick = base, slot;
    int best_valid, valid;
    if (base < 0 || base + A->assoc > PyList_GET_SIZE(A->states)
        || base + A->assoc > PyList_GET_SIZE(A->lrus)) {
        PyErr_SetString(PyExc_IndexError, "cache set out of range");
        return -1;
    }
    if (list_get_ll(A->states, base, victim_state) < 0 || list_get_ll(A->lrus, base, &best_lru) < 0)
        return -1;
    best_valid = *victim_state != 0;
    for (slot = base + 1; slot < base + A->assoc; slot++) {
        long long st;
        if (list_get_ll(A->states, slot, &st) < 0 || list_get_ll(A->lrus, slot, &lru) < 0)
            return -1;
        valid = st != 0;
        if (valid < best_valid || (valid == best_valid && lru < best_lru)) {
            pick = slot;
            best_valid = valid;
            best_lru = lru;
        }
    }
    if (list_get_ll(A->states, pick, victim_state) < 0)
        return -1;
    *victim = -1;
    if (*victim_state != 0) {
        long long tag;
        PyObject *key;
        int rc;
        if (list_get_ll(A->tags, pick, &tag) < 0
            || (key = PyLong_FromLongLong((tag << A->set_bits) | set_index)) == NULL)
            return -1;
        *victim = (tag << A->set_bits) | set_index;
        ++*A->evictions;
        rc = PyDict_DelItem(A->index, key);
        Py_DECREF(key);
        if (rc < 0)
            return -1;
    }
    if (list_set_ll(A->tags, pick, addr >> A->set_bits) < 0 || list_put(A->states, pick, state) < 0
        || list_set_ll(A->lrus, pick, ++*A->clock) < 0 || mark_page(A->ad, pick) < 0)
        return -1;
    if ((filled = PyLong_AsLong(state)) == -1 && PyErr_Occurred())
        return -1;
    if (filled != 0) {
        PyObject *where = PyLong_FromSsize_t(pick);
        int rc = where == NULL ? -1 : PyDict_SetItem(A->index, line, where);
        Py_XDECREF(where);
        return rc;
    }
    return 0;
}

/* ---- the mirror ---- */

static void
mirror_drop_l1(Mirror *M)
{
    M->have_l1 = 0;
    Py_CLEAR(M->owner[ON_ARRAY]);
    Py_CLEAR(M->owner[ON_MSHRS]);
    array_drop(&M->array);
    Py_CLEAR(M->entries);
}

/* The L1's counters and the banks, read afresh after a call into Python. */
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
    if (array_load(&M->array, M->owner[ON_ARRAY], &M->v[F_CLOCK], &M->v[F_EVICTIONS]) < 0)
        goto fail;
    M->entries = dget(M->owner[ON_MSHRS], s__entries);
    Py_XINCREF(M->entries);
    capacity = dget(M->owner[ON_MSHRS], s_capacity);
    if (M->entries == NULL || capacity == NULL)
        goto fail;
    if (!PyDict_Check(M->entries)) {
        PyErr_SetString(PyExc_TypeError, "unexpected MSHR file type");
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
    PyObject *kind, *entry;
    Py_ssize_t slot;
    if ((!M->have_l1 && mirror_l1(M) < 0) || array_find(&M->array, key, 1, &slot) < 0)
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
            PyObject *item = PyList_GetItem(M->array.states, slot);
            long state;
            if (item == NULL || ((state = PyLong_AsLong(item)) == -1 && PyErr_Occurred()))
                return -1;
            if (state >= EXCLUSIVE) { /* writable (E or M) -> M */
                if (list_put(M->array.states, slot, K_MODIFIED) < 0
                    || mark_page(M->array.ad, slot) < 0)
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
    Py_CLEAR(c->inq_popleft);
    Py_CLEAR(c->times);
    Py_CLEAR(c->limits);
    Py_CLEAR(c->outbox);
    Py_CLEAR(c->outq_append);
    Py_CLEAR(c->pd);
    Py_CLEAR(c->buffer);
    Py_CLEAR(c->popleft);
    Py_CLEAR(c->buffer_append);
    Py_CLEAR(c->issue_op);
    Py_CLEAR(c->l1);
    Py_CLEAR(c->l1d);
    Py_CLEAR(c->pages);
}

/* CoreRunner._state_binds for a new root; c->native says whether the
 * root's model takes the C step (no icache, the expected types, an exact
 * ProgramInterpreter for the C refill). */
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
        || (c->buffer_append = PyObject_GetAttr(c->buffer, s_append)) == NULL
        || (c->inq_popleft = PyObject_GetAttr(c->inq, s_popleft)) == NULL
        || (c->issue_op = PyObject_GetAttr(c->model, s__issue_op)) == NULL
        || (c->l1 = PyObject_GetAttr(c->model, s_l1)) == NULL
        || (c->pages = PyObject_GetAttr(c->model, s_pages_touched)) == NULL
        || get_ll(c->model, s__issue_width, &c->width) < 0
        || get_ll(c->model, s__window_size, &c->window) < 0
        || get_ll(c->model, s__page_shift, &c->page_shift) < 0)
        goto fail;
    if (!Py_IS_TYPE(program, T_interp)) {
        Py_DECREF(program);
        return 0;
    }
    c->pd = PyObject_GenericGetDict(program, NULL);
    Py_CLEAR(program);
    if (c->pd == NULL)
        return -1;
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

/* CoreModel.skip_stall_cycles(count) on the mirror. */
static int
skip_stall_cycles(Mirror *M, long long count)
{
    long long sync;
    M->v[F_CYCLES] += count;
    M->v[F_STALLS] += count;
    if (!M->waiting)
        return 0;
    return dget_ll(M->c->md, s_sync_stall_cycles, &sync) < 0
        ? -1 : dset_ll(M->c->md, s_sync_stall_cycles, sync + count);
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
    if (skip_stall_cycles(M, skip) < 0 || list_set_ll(c->times, c->cidx, local + skip) < 0)
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

/* CoreRequest(kind, key, bus_op), built through its __slots__ as its
 * __init__ would build it. */
static PyObject *
new_request(PyObject *kind, PyObject *key, PyObject *bus_op)
{
    PyObject *request = T_request->tp_alloc(T_request, 0);
    if (request == NULL)
        return NULL;
    slot_set(request, O_req_kind, kind);
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

/* ---- InQ deliveries: CoreRunner._apply ---- */

/* complete_fill's rebuild of the pending loads, made only when ``line``
 * is one of them: a new deque without its entries. */
static int
drop_pending(Mirror *M, PyObject *line)
{
    PyObject *iter, *item, *kept, *fresh;
    int found = 0;
    if (PySequence_Size(M->pending) <= 0)
        return PyErr_Occurred() ? -1 : 0;
    if ((iter = PyObject_GetIter(M->pending)) == NULL)
        return -1;
    while (!found && (item = PyIter_Next(iter)) != NULL) {
        PyObject *addr = PySequence_GetItem(item, 1);
        found = addr == NULL ? -1 : PyObject_RichCompareBool(addr, line, Py_EQ);
        Py_XDECREF(addr);
        Py_DECREF(item);
    }
    Py_DECREF(iter);
    if (found <= 0)
        return found < 0 || PyErr_Occurred() ? -1 : 0;
    if ((kept = PyList_New(0)) == NULL || (iter = PyObject_GetIter(M->pending)) == NULL) {
        Py_XDECREF(kept);
        return -1;
    }
    while ((item = PyIter_Next(iter)) != NULL) {
        PyObject *addr = PySequence_GetItem(item, 1);
        int other = addr == NULL ? -1 : PyObject_RichCompareBool(addr, line, Py_NE);
        Py_XDECREF(addr);
        if (other > 0)
            other = PyList_Append(kept, item) < 0 ? -1 : 0;
        Py_DECREF(item);
        if (other < 0)
            break;
    }
    Py_DECREF(iter);
    fresh = PyErr_Occurred() ? NULL : PyObject_CallOneArg((PyObject *)T_deque, kept);
    Py_DECREF(kept);
    if (fresh == NULL)
        return -1;
    if (PyDict_SetItem(M->c->md, s__pending_loads, fresh) < 0) {
        Py_DECREF(fresh);
        return -1;
    }
    Py_SETREF(M->pending, fresh);
    return 0;
}

/* CoreModel.complete_fill(line, state): L1Cache.fill (the MSHR release,
 * an upgrade's in-place state write or the array fill with its victim),
 * the dirty victim's WRITEBACK request and the pending-load rebuild. */
static int
complete_fill(Mirror *M, PyObject *line, PyObject *state)
{
    Core *c = M->c;
    PyObject *entry, *kind;
    long long addr, victim, victim_state;
    Py_ssize_t slot = -1;
    int upgrade;
    if (!M->have_l1 && mirror_l1(M) < 0)
        return -1;
    /* MshrFile.release: the entry, or the KeyError of dict.pop. */
    if ((entry = PyDict_GetItemWithError(M->entries, line)) == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetObject(PyExc_KeyError, line);
        return -1;
    }
    if (!Py_IS_TYPE(entry, T_entry)) {
        PyErr_SetString(PyExc_TypeError, "MshrFile._entries holds a non-MshrEntry");
        return -1;
    }
    if ((kind = slot_get(entry, O_entry_kind)) == NULL
        || (upgrade = PyObject_RichCompareBool(kind, K_UPGR, Py_EQ)) < 0
        || PyDict_DelItem(M->entries, line) < 0 || as_ll(line, &addr) < 0)
        return -1;
    if (upgrade) {
        /* The line stays resident unless a remote GETX took it meanwhile. */
        if (array_find(&M->array, line, 0, &slot) < 0)
            return -1;
        if (slot >= 0 && (list_put(M->array.states, slot, state) < 0
                          || mark_page(M->array.ad, slot) < 0))
            return -1;
    }
    if (slot < 0) {
        if (array_fill(&M->array, line, addr, state, &victim, &victim_state) < 0)
            return -1;
        if (victim_state == MODIFIED) {
            PyObject *key = PyLong_FromLongLong(victim), *request;
            int rc;
            M->v[F_WRITEBACKS]++;
            if (key == NULL)
                return -1;
            request = new_request(K_WRITEBACK, key, Py_None);
            Py_DECREF(key);
            rc = request == NULL ? -1 : PyList_Append(c->outbox, request);
            Py_XDECREF(request);
            if (rc < 0)
                return -1;
        }
    }
    return drop_pending(M, line);
}

/* CoreModel.complete_sync */
static int
complete_sync(Mirror *M)
{
    if (PyDict_SetItem(M->c->md, s_waiting_sync, Py_False) < 0)
        return -1;
    M->waiting = 0;
    return 0;
}

/* CoreModel.snoop_invalidate: CacheArray.invalidate and its count. */
static int
snoop_invalidate(Mirror *M, PyObject *line)
{
    PyObject *found;
    Py_ssize_t slot;
    long long prior;
    if (!M->have_l1 && mirror_l1(M) < 0)
        return -1;
    if ((found = PyDict_GetItemWithError(M->array.index, line)) == NULL)
        return PyErr_Occurred() ? -1 : 0;
    if (((slot = PyLong_AsSsize_t(found)) == -1 && PyErr_Occurred())
        || PyDict_DelItem(M->array.index, line) < 0
        || list_get_ll(M->array.states, slot, &prior) < 0
        || list_put(M->array.states, slot, ZERO) < 0 || mark_page(M->array.ad, slot) < 0)
        return -1;
    if (prior != 0)
        M->v[F_SNOOP_INV]++;
    return 0;
}

/* CoreModel.snoop_downgrade: M or E becomes S, and is counted. */
static int
snoop_downgrade(Mirror *M, PyObject *line)
{
    Py_ssize_t slot;
    long long prior;
    if ((!M->have_l1 && mirror_l1(M) < 0) || array_find(&M->array, line, 0, &slot) < 0)
        return -1;
    if (slot < 0)
        return 0;
    if (list_get_ll(M->array.states, slot, &prior) < 0)
        return -1;
    if (prior == MODIFIED || prior == EXCLUSIVE) {
        if (list_put(M->array.states, slot, K_SHARED) < 0 || mark_page(M->array.ad, slot) < 0)
            return -1;
        M->v[F_SNOOP_DOWN]++;
    }
    return 0;
}

/* CoreRunner._apply(cs, msg) for the kinds a core without an icache
 * receives: FILL, SYNC_GRANT, INVALIDATE and DOWNGRADE. */
static int
apply(Mirror *M, PyObject *msg)
{
    Core *c = M->c;
    PyObject *kind, *line, *state;
    if ((kind = slot_get(msg, O_in_kind)) == NULL || (line = slot_get(msg, O_in_line)) == NULL)
        return -1;
    c->paths[DELIVERIES_C]++;
    if (kind == K_FILL)
        return (state = slot_get(msg, O_in_state)) == NULL ? -1 : complete_fill(M, line, state);
    if (kind == K_SYNC_GRANT)
        return complete_sync(M);
    if (kind == K_INVALIDATE)
        return snoop_invalidate(M, line);
    if (kind == K_DOWNGRADE)
        return snoop_downgrade(M, line);
    PyErr_Format(PyExc_TypeError, "the C core step cannot apply an InQ %R", kind);
    return -1;
}

/* Deliver every InQ entry due at ``local``. */
static int
deliver(Mirror *M, long long local, double *cost)
{
    Core *c = M->c;
    long long ts;
    int has;
    while ((has = head_ts(c->inq, &ts)) > 0 && ts <= local) {
        PyObject *msg = PyObject_CallNoArgs(c->inq_popleft);
        int rc;
        if (msg == NULL)
            return -1;
        rc = apply(M, msg);
        Py_DECREF(msg);
        if (rc < 0)
            return -1;
        *cost += c->pme;
    }
    return has < 0 ? -1 : 0;
}

/* CoreRunner._drain_while_sync_blocked: apply InQ entries while the
 * core waits on a sync; a grant warps the local clock to its stamp.
 * (Its sanitizer and telemetry probes are left out: a run with either
 * seam enabled never enters the C loop.) */
static int
drain_sync(Mirror *M, double *cost)
{
    Core *c = M->c;
    while (M->waiting) {
        PyObject *msg, *kind, *value;
        long long ts, local;
        int grant, rc = -1;
        Py_ssize_t queued = PySequence_Size(c->inq);
        if (queued <= 0)
            return (int)queued;
        if ((msg = PyObject_CallNoArgs(c->inq_popleft)) == NULL)
            return -1;
        if (!Py_IS_TYPE(msg, T_inmsg)) {
            PyErr_SetString(PyExc_TypeError, "an InQ holds a non-InMsg");
            goto done;
        }
        if ((kind = slot_get(msg, O_in_kind)) == NULL
            || (grant = PyObject_RichCompareBool(kind, K_SYNC_GRANT, Py_EQ)) < 0)
            goto done;
        if (grant) {
            if ((value = slot_get(msg, O_in_ts)) == NULL || as_ll(value, &ts) < 0
                || list_get_ll(c->times, c->cidx, &local) < 0)
                goto done;
            if (ts > local && (skip_stall_cycles(M, ts - local) < 0
                               || list_set_ll(c->times, c->cidx, ts) < 0))
                goto done;
        }
        if (apply(M, msg) == 0) {
            *cost += c->pme;
            rc = 0;
        }
    done:
        Py_DECREF(msg);
        if (rc < 0)
            return -1;
    }
    return 0;
}

/* ---- the program refill: ProgramInterpreter.next_op ---- */

/* ProgramInterpreter.next_op refills its buffer to this many ops. */
#define REFILL_OPS 64

/* _Frame(stmts, var, remaining, trip), through its __slots__. */
static PyObject *
new_frame(PyObject *stmts, PyObject *var, PyObject *remaining)
{
    PyObject *frame = T_frame->tp_alloc(T_frame, 0);
    if (frame == NULL)
        return NULL;
    slot_set(frame, O_frame_stmts, stmts);
    slot_set(frame, O_frame_idx, ZERO);
    slot_set(frame, O_frame_var, var);
    slot_set(frame, O_frame_remaining, remaining);
    slot_set(frame, O_frame_trip, ZERO);
    return frame;
}

static int
push_frame(PyObject *frames, PyObject *stmts, PyObject *var, PyObject *remaining)
{
    PyObject *frame = new_frame(stmts, var, remaining);
    int rc = frame == NULL ? -1 : PyList_Append(frames, frame);
    Py_XDECREF(frame);
    return rc;
}

static int
buffer_op(Core *c, PyObject *op)
{
    PyObject *done = PyObject_CallOneArg(c->buffer_append, op);
    Py_XDECREF(done);
    return done == NULL ? -1 : 0;
}

/* ProgramInterpreter._run_emit: 1 if it buffered an op, 0 if not. */
static int
run_emit(Core *c, PyObject *stmt, PyObject *ctx)
{
    PyObject *fn = slot_get(stmt, O_emit_fn), *result, *iter, *op;
    int produced = 0, is_op;
    if (fn == NULL || (result = PyObject_CallOneArg(fn, ctx)) == NULL)
        return -1;
    if (result == Py_None) {
        Py_DECREF(result);
        return 0;
    }
    if ((is_op = PyObject_IsInstance(result, (PyObject *)T_op)) != 0) {
        int rc = is_op < 0 ? -1 : buffer_op(c, result);
        Py_DECREF(result);
        return rc < 0 ? -1 : 1;
    }
    iter = PyObject_GetIter(result);
    Py_DECREF(result);
    if (iter == NULL)
        return -1;
    while ((op = PyIter_Next(iter)) != NULL) {
        int ok = PyObject_IsInstance(op, (PyObject *)T_op);
        if (ok == 0)
            PyErr_Format(WORKLOAD_ERROR, "Emit produced a non-Op value: %R", op);
        if (ok <= 0 || buffer_op(c, op) < 0) {
            Py_DECREF(op);
            Py_DECREF(iter);
            return -1;
        }
        Py_DECREF(op);
        produced = 1;
    }
    Py_DECREF(iter);
    return PyErr_Occurred() ? -1 : produced;
}

/* ProgramInterpreter._enter_loop */
static int
enter_loop(PyObject *stmt, PyObject *ctx, PyObject *frames)
{
    PyObject *count = slot_get(stmt, O_loop_count), *var, *body, *vars;
    int cmp, rc = -1;
    if (count == NULL)
        return -1;
    count = PyCallable_Check(count) ? PyObject_CallOneArg(count, ctx) : Py_NewRef(count);
    if (count == NULL || (var = slot_get(stmt, O_loop_var)) == NULL)
        goto done;
    if ((cmp = PyObject_RichCompareBool(count, ZERO, Py_LT)) != 0) {
        if (cmp > 0) {
            PyObject *text = PyObject_Format(count, EMPTY);
            if (text != NULL)
                PyErr_Format(WORKLOAD_ERROR, "negative loop count %U for %R", text, var);
            Py_XDECREF(text);
        }
        goto done;
    }
    if ((cmp = PyObject_RichCompareBool(count, ZERO, Py_EQ)) != 0) {
        rc = cmp < 0 ? -1 : 0;
        goto done;
    }
    if ((vars = slot_get(ctx, O_ctx_vars)) != NULL && PyObject_SetItem(vars, var, ZERO) == 0
        && (body = slot_get(stmt, O_loop_body)) != NULL)
        rc = push_frame(frames, body, var, count);
done:
    Py_XDECREF(count);
    return rc;
}

/* The If statement of ProgramInterpreter._step */
static int
enter_if(PyObject *stmt, PyObject *ctx, PyObject *frames)
{
    PyObject *pred = slot_get(stmt, O_if_pred), *taken, *body;
    int truth;
    if (pred == NULL || (taken = PyObject_CallOneArg(pred, ctx)) == NULL)
        return -1;
    truth = PyObject_IsTrue(taken);
    Py_DECREF(taken);
    if (truth < 0 || (body = slot_get(stmt, truth ? O_if_then : O_if_else)) == NULL
        || (truth = PyObject_IsTrue(body)) < 0)
        return -1;
    return truth ? push_frame(frames, body, Py_None, ZERO) : 0;
}

/* ProgramInterpreter._pop_frame(frame), ``frame`` being the last. */
static int
pop_frame(PyObject *frame, PyObject *ctx, PyObject *frames)
{
    PyObject *var = slot_get(frame, O_frame_var), *vars, *value;
    int more;
    if (var == NULL)
        return -1;
    if (var != Py_None) {
        if ((value = slot_get(frame, O_frame_remaining)) == NULL
            || (more = PyObject_RichCompareBool(value, ONE, Py_GT)) < 0)
            return -1;
        if (more) {
            /* The next trip: remaining -= 1, trip += 1, idx = 0. */
            int rc;
            if ((value = PyNumber_InPlaceSubtract(value, ONE)) == NULL)
                return -1;
            slot_set(frame, O_frame_remaining, value);
            Py_DECREF(value);
            if ((value = slot_get(frame, O_frame_trip)) == NULL
                || (value = PyNumber_InPlaceAdd(value, ONE)) == NULL)
                return -1;
            slot_set(frame, O_frame_trip, value);
            slot_set(frame, O_frame_idx, ZERO);
            rc = (vars = slot_get(ctx, O_ctx_vars)) == NULL ? -1 : PyObject_SetItem(vars, var, value);
            Py_DECREF(value);
            return rc;
        }
        /* ctx.vars.pop(var, None) */
        if ((vars = slot_get(ctx, O_ctx_vars)) == NULL
            || (value = PyObject_CallMethodObjArgs(vars, s_pop, var, Py_None, NULL)) == NULL)
            return -1;
        Py_DECREF(value);
    }
    return PyList_SetSlice(frames, PyList_GET_SIZE(frames) - 1, PyList_GET_SIZE(frames), NULL);
}

/* ProgramInterpreter._step: run statements until one buffers an op or
 * the program ends (*ended). */
static int
interp_step(Core *c, PyObject *frames, PyObject *ctx, int *ended)
{
    for (;;) {
        Py_ssize_t n = PyList_GET_SIZE(frames), idx, len;
        PyObject *frame, *stmts, *stmt, *value;
        int rc;
        if (n == 0) {
            /* thread_end() */
            PyObject *op = T_op->tp_alloc(T_op, 0);
            if (op == NULL)
                return -1;
            slot_set(op, O_op_kind, K_THREAD_END);
            slot_set(op, O_op_arg1, ZERO);
            slot_set(op, O_op_arg2, ZERO);
            rc = buffer_op(c, op);
            Py_DECREF(op);
            if (rc < 0 || PyDict_SetItem(c->pd, s__ended, Py_True) < 0)
                return -1;
            *ended = 1;
            return 0;
        }
        frame = PyList_GET_ITEM(frames, n - 1);
        if (!Py_IS_TYPE(frame, T_frame)) {
            PyErr_SetString(PyExc_TypeError, "the frame stack holds a non-_Frame");
            return -1;
        }
        Py_INCREF(frame);
        if ((stmts = slot_get(frame, O_frame_stmts)) == NULL
            || (value = slot_get(frame, O_frame_idx)) == NULL
            || ((idx = PyLong_AsSsize_t(value)) == -1 && PyErr_Occurred())
            || (len = PyObject_Length(stmts)) < 0) {
            Py_DECREF(frame);
            return -1;
        }
        if (idx >= len) {
            rc = pop_frame(frame, ctx, frames);
            Py_DECREF(frame);
            if (rc < 0)
                return -1;
            continue;
        }
        stmt = PySequence_GetItem(stmts, idx);
        value = stmt == NULL ? NULL : PyLong_FromSsize_t(idx + 1);
        if (value != NULL) {
            slot_set(frame, O_frame_idx, value);
            Py_DECREF(value);
        }
        Py_DECREF(frame);
        if (value == NULL) {
            Py_XDECREF(stmt);
            return -1;
        }
        if ((rc = PyObject_IsInstance(stmt, (PyObject *)T_emit)) > 0) {
            rc = run_emit(c, stmt, ctx);
        }
        else if (rc == 0 && (rc = PyObject_IsInstance(stmt, (PyObject *)T_loop_stmt)) > 0) {
            rc = enter_loop(stmt, ctx, frames);
        }
        else if (rc == 0 && (rc = PyObject_IsInstance(stmt, (PyObject *)T_if)) > 0) {
            rc = enter_if(stmt, ctx, frames);
        }
        else if (rc == 0) {
            /* type(stmt).__name__: a static type's tp_name after its last dot */
            const char *name = Py_TYPE(stmt)->tp_name, *dot = strrchr(name, '.');
            PyErr_Format(WORKLOAD_ERROR, "unknown statement type %s",
                         dot != NULL && !(Py_TYPE(stmt)->tp_flags & Py_TPFLAGS_HEAPTYPE)
                             ? dot + 1 : name);
            rc = -1;
        }
        Py_DECREF(stmt);
        if (rc != 0)
            return rc < 0 ? -1 : 0; /* an error, or an op buffered */
    }
}

/* program.next_op() with the op buffer empty: the next op, None once the
 * program has ended, or NULL on error. */
static PyObject *
refill(Core *c)
{
    PyObject *ended_obj, *frames, *ctx, *op = NULL;
    int ended;
    if ((ended_obj = dget(c->pd, s__ended)) == NULL || (ended = PyObject_IsTrue(ended_obj)) < 0
        || (frames = dget(c->pd, s__frames)) == NULL || (ctx = dget(c->pd, s_ctx)) == NULL)
        return NULL;
    if (!PyList_CheckExact(frames) || !Py_IS_TYPE(ctx, T_context)) {
        PyErr_SetString(PyExc_TypeError, "a ProgramInterpreter without a frame list or context");
        return NULL;
    }
    c->paths[REFILLS_C]++;
    if (ended)
        Py_RETURN_NONE;
    Py_INCREF(frames);
    Py_INCREF(ctx);
    for (;;) {
        Py_ssize_t buffered = PySequence_Size(c->buffer);
        if (buffered < 0)
            break;
        if (buffered >= REFILL_OPS || ended) {
            op = PyObject_CallNoArgs(c->popleft);
            break;
        }
        if (interp_step(c, frames, ctx, &ended) < 0)
            break;
    }
    Py_DECREF(frames);
    Py_DECREF(ctx);
    return op;
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
            /* The refill reads nothing mirrored: no write-back. */
            op = buffered ? PyObject_CallNoArgs(c->popleft) : refill(c);
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
                PyObject *request = new_request(K_BUS, key, bus_op);
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
        if (deliver(&M, LLONG_MAX, &cost) < 0 || mirror_flush(&M) < 0)
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
            if (drain_sync(&M, &cost) < 0 || (has_due = head_ts(c->inq, &due)) < 0)
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
        if ((c->index = PyObject_GetAttr(c->runner, s_index)) == NULL
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
        c->paths = L->paths;
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
        Py_XDECREF(c->index);
    }
    PyMem_Free(L->core);
}

/* ------------------------------------------------------------------ */
/* The manager step in C: ManagerRunner.step for the flat manager.
 *
 * The manager of a run without sub-managers, whose scheme paces every
 * core with one window (``uniform_window`` and not
 * ``wants_core_clocks``) and whose L2 has no DRAM model, is stepped here
 * instead of through ``runner.step``, bit for bit as ManagerRunner.step
 * and ManagerState.service step it (the Python manager stays the
 * reference; DESIGN.md section 5, "The manager step in C").  Here: the
 * OutQ merge and its stable arrival-order sort, both service disciplines
 * (an arrival-order batch, and the conservative horizon with its requeue
 * behind a sync grant), the bus and writeback service with the snoop bus,
 * the cache status map and its journal, the L2 and its array, the
 * violation monitors, the InQ pushes, the global time, the uniform pacing
 * limits, the drain of the pending violations, the outcome and the cost.
 * Python callbacks: ``manager._serve_one`` for IFETCH and the sync kinds,
 * ``scheme.window`` and, where the scheme overrides the base no-op,
 * ``scheme.control_tick``.  The controller's overrides are read from its
 * fields (Ctl below): scheduler.py passes native_manager only for an
 * exact CheckpointController (or none).
 *
 * The integer fields of the manager, bus, L2, its array and the map are
 * mirrored in an MStep for one step, each object's at its first use.
 * They are written back at its end and before every callback, and read
 * again after it.  Per root only the objects are cached (Manager below),
 * keyed on the identity of ``sim.state``: a rollback replaces the root. */

/* What scheduler.py binds for the manager step (bind_manager). */
static int mbound;
static PyTypeObject *T_mrunner, *T_manager, *T_outcome, *T_bus, *T_l2, *T_map;
static PyTypeObject *T_detector, *T_monitor, *T_monitors, *T_record;
static PyObject *K_EXCLUSIVE, *V_BUS, *V_MAP, *NO_VIOLATIONS, *BASE_CONTROL_TICK;
static Py_ssize_t O_oc_served, O_oc_merged, O_oc_adjusted, O_oc_violations, O_oc_global;
static Py_ssize_t O_oc_idle, O_oc_wake, O_oc_settled;
static Py_ssize_t O_mon_last, O_monitors, O_rec_vtype, O_rec_ts, O_rec_global, O_rec_core;

/* The mirrored fields, the object each lives on and the group that loads
 * it (an object's fields load together, at the first use in a step). */
enum {
    MF_GLOBAL, MF_FLOOR, MF_SERVED,
    MF_REQUESTS, MF_RESPONSES, MF_REQ_CONFLICT, MF_RESP_CONFLICT, MF_STALE, MF_REQ_FREE,
    MF_RESP_FREE, MF_LAST_REQ,
    MF_ACCESSES, MF_L2_MISSES, MF_WB_RECEIVED, MF_BANK_CONFLICT, MF_L2_CLOCK, MF_EVICTIONS,
    MF_GETS, MF_GETX, MF_UPGR, MF_WRITEBACKS, MF_C2C,
    N_MFIELDS
};
enum { OWN_MGR, OWN_BUS, OWN_L2, OWN_ARRAY, OWN_MAP, N_OWNERS };
enum { G_MGR, G_BUS, G_L2, G_MAP, N_GROUPS };
static PyObject **const mfield_name[N_MFIELDS] = {
    &s_global_time, &s__grant_floor, &s_events_served,
    &s_requests, &s_responses, &s_request_conflict_cycles, &s_response_conflict_cycles,
    &s_stale_grants, &s_request_free_at, &s_response_free_at, &s__last_request_ts,
    &s_accesses, &s_misses, &s_writebacks_received, &s_bank_conflict_cycles, &s__clock,
    &s_evictions,
    &s_gets_served, &s_getx_served, &s_upgr_served, &s_writebacks, &s_cache_to_cache,
};
static const int mfield_owner[N_MFIELDS] = {
    OWN_MGR, OWN_MGR, OWN_MGR,
    OWN_BUS, OWN_BUS, OWN_BUS, OWN_BUS, OWN_BUS, OWN_BUS, OWN_BUS, OWN_BUS,
    OWN_L2, OWN_L2, OWN_L2, OWN_L2, OWN_ARRAY, OWN_ARRAY,
    OWN_MAP, OWN_MAP, OWN_MAP, OWN_MAP, OWN_MAP,
};
static const int mfield_group[N_MFIELDS] = {
    G_MGR, G_MGR, G_MGR,
    G_BUS, G_BUS, G_BUS, G_BUS, G_BUS, G_BUS, G_BUS, G_BUS,
    G_L2, G_L2, G_L2, G_L2, G_L2, G_L2,
    G_MAP, G_MAP, G_MAP, G_MAP, G_MAP,
};

/* The flat manager: its constants and its per-root binds. */
struct manager {
    int eligible; /* an exact flat ManagerRunner the C step may stand in for */
    int native;   /* the bound root takes the C step */
    double cycle_ns, gq_ns, tracking_ns, mem_ns, adjust_ns, poll_ns;
    /* Fixed while sim.state is ``state``. */
    PyObject *state, *manager, *scheme, *window, *control_tick, *serve_one, *outcome;
    PyObject *detector, *dd, *bus_monitor, *monitors, *times, *limits;
    PyObject *own[N_OWNERS]; /* the __dict__ of manager, bus, L2, array, map */
    PyObject **inq, **inq_append, **outq, **model;
    Py_ssize_t ncores;
    int conservative;
    long long arbitration, request_cycles, response_cycles, c2c;
    long long banks, bank_busy, hit_latency, miss_latency;
    PyObject *no_args;
    /* Scratch for the two sorts (holds no reference between steps). */
    struct entry *sorted, *spare;
    Py_ssize_t room;
};

/* One step's mirror. */
typedef struct {
    Manager *m;
    long long v[N_MFIELDS], o[N_MFIELDS];
    int have[N_GROUPS];
    Array array;                                        /* G_L2 */
    PyObject *bank_free;
    PyObject *entries, *journal;                        /* G_MAP */
} MStep;

/* What one manager step hands the loop. */
typedef struct {
    int idle, wake, settled;
    Py_ssize_t violations;
    long long global_time;
} MOut;

struct entry {
    PyObject *msg; /* borrowed from the list the sort reads */
    long long first, second;
    double host;
};

/* (host_time, core_id): the GQ's arrival order. */
static int
arrival_before(const struct entry *a, const struct entry *b)
{
    return a->host < b->host || (a->host == b->host && a->first < b->first);
}

/* (ts, core_id, host_time): a service batch's timestamp order. */
static int
timestamp_before(const struct entry *a, const struct entry *b)
{
    if (a->first != b->first)
        return a->first < b->first;
    if (a->second != b->second)
        return a->second < b->second;
    return a->host < b->host;
}

/* A stable merge sort of a[0:n] (list.sort's order for equal keys),
 * using spare[0:n]. */
static void
stable_sort(struct entry *a, struct entry *spare, Py_ssize_t n,
            int (*before)(const struct entry *, const struct entry *))
{
    Py_ssize_t width, lo;
    struct entry *src = a, *dst = spare, *swap;
    for (width = 1; width < n; width *= 2) {
        for (lo = 0; lo < n; lo += 2 * width) {
            Py_ssize_t mid = lo + width < n ? lo + width : n;
            Py_ssize_t hi = lo + 2 * width < n ? lo + 2 * width : n;
            Py_ssize_t i = lo, j = mid, k = lo;
            while (i < mid && j < hi)
                dst[k++] = before(&src[j], &src[i]) ? src[j++] : src[i++];
            while (i < mid)
                dst[k++] = src[i++];
            while (j < hi)
                dst[k++] = src[j++];
        }
        swap = src;
        src = dst;
        dst = swap;
    }
    if (src != a)
        memcpy(a, src, n * sizeof(*a));
}

static int
manager_room(Manager *m, Py_ssize_t n)
{
    if (n <= m->room)
        return 0;
    PyMem_Free(m->sorted);
    PyMem_Free(m->spare);
    m->room = n * 2;
    m->sorted = PyMem_Malloc(m->room * sizeof(struct entry));
    m->spare = PyMem_Malloc(m->room * sizeof(struct entry));
    if (m->sorted == NULL || m->spare == NULL) {
        m->room = 0;
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

/* Fill m->sorted[k] from an OutMsg with the keys of ``arrival``. */
static int
entry_of(struct entry *e, PyObject *msg, int arrival)
{
    PyObject *value;
    if (!Py_IS_TYPE(msg, T_outmsg)) {
        PyErr_SetString(PyExc_TypeError, "a queue holds a non-OutMsg");
        return -1;
    }
    e->msg = msg;
    if ((value = slot_get(msg, O_out_host)) == NULL)
        return -1;
    e->host = PyFloat_AsDouble(value);
    if (e->host == -1.0 && PyErr_Occurred())
        return -1;
    if ((value = slot_get(msg, O_out_core)) == NULL
        || as_ll(value, arrival ? &e->first : &e->second) < 0)
        return -1;
    if (!arrival && ((value = slot_get(msg, O_out_ts)) == NULL || as_ll(value, &e->first) < 0))
        return -1;
    return 0;
}

/* ---- the mirror ---- */

static int
mstep_load(MStep *S, int group)
{
    Manager *m = S->m;
    PyObject *md = m->own[OWN_MAP];
    int i;
    for (i = 0; i < N_MFIELDS; i++) {
        if (mfield_group[i] != group)
            continue;
        if (dget_ll(m->own[mfield_owner[i]], *mfield_name[i], &S->v[i]) < 0)
            return -1;
        S->o[i] = S->v[i];
    }
    if (group == G_L2) {
        if ((S->bank_free = dget(m->own[OWN_L2], s__bank_free_at)) == NULL)
            return -1;
        if (!PyList_Check(S->bank_free)) {
            S->bank_free = NULL;
            PyErr_SetString(PyExc_TypeError, "unexpected L2 bank types");
            return -1;
        }
        Py_INCREF(S->bank_free);
        if (array_load(&S->array, m->own[OWN_ARRAY], &S->v[MF_L2_CLOCK], &S->v[MF_EVICTIONS]) < 0)
            return -1;
    }
    else if (group == G_MAP) {
        S->entries = dget(md, s__entries);
        S->journal = dget(md, s__journal);
        if (S->entries == NULL || S->journal == NULL)
            return -1;
        if (!PyDict_Check(S->entries) || !PyDict_Check(S->journal)) {
            PyErr_SetString(PyExc_TypeError, "unexpected cache map types");
            return -1;
        }
        Py_INCREF(S->entries);
        Py_INCREF(S->journal);
    }
    S->have[group] = 1;
    return 0;
}

/* The group's fields, loaded if this step has not yet. */
#define NEED(S, group) ((S)->have[group] || mstep_load((S), (group)) == 0)

static int
mstep_flush(MStep *S)
{
    int i;
    for (i = 0; i < N_MFIELDS; i++) {
        if (!S->have[mfield_group[i]] || S->v[i] == S->o[i])
            continue;
        if (dset_ll(S->m->own[mfield_owner[i]], *mfield_name[i], S->v[i]) < 0)
            return -1;
        S->o[i] = S->v[i];
    }
    return 0;
}

/* After a callback (or at the end): nothing mirrored is kept. */
static void
mstep_drop(MStep *S)
{
    memset(S->have, 0, sizeof(S->have));
    array_drop(&S->array);
    Py_CLEAR(S->bank_free);
    Py_CLEAR(S->entries);
    Py_CLEAR(S->journal);
}

/* A Python callback sees every field as Python leaves it. */
static PyObject *
mstep_call(MStep *S, PyObject *callable, PyObject *args, PyObject *kwargs)
{
    if (mstep_flush(S) < 0)
        return NULL;
    mstep_drop(S);
    return PyObject_Call(callable, args, kwargs);
}

static void
mstep_flush_on_error(MStep *S)
{
    PyObject *type, *value, *traceback;
    PyErr_Fetch(&type, &value, &traceback);
    if (mstep_flush(S) < 0)
        PyErr_Clear();
    PyErr_Restore(type, value, traceback);
}

/* ---- ViolationDetector ---- */

/* ``d[key] += 1`` */
static int
dict_increment(PyObject *d, PyObject *key)
{
    long long value;
    return dget_ll(d, key, &value) < 0 ? -1 : dset_ll(d, key, value + 1);
}

/* ViolationDetector._record */
static int
record_violation(MStep *S, PyObject *vtype, long long ts, long long core)
{
    Manager *m = S->m;
    PyObject *counts, *record, *pending, *value;
    int rc;
    if ((counts = dget(m->dd, s_counts)) == NULL || dict_increment(counts, vtype) < 0
        || (counts = dget(m->dd, s_window_counts)) == NULL || dict_increment(counts, vtype) < 0)
        return -1;
    if ((record = T_record->tp_alloc(T_record, 0)) == NULL)
        return -1;
    slot_set(record, O_rec_vtype, vtype);
    if ((value = PyLong_FromLongLong(ts)) == NULL)
        goto fail;
    slot_set(record, O_rec_ts, value);
    Py_DECREF(value);
    if ((value = PyLong_FromLongLong(S->v[MF_GLOBAL])) == NULL)
        goto fail;
    slot_set(record, O_rec_global, value);
    Py_DECREF(value);
    if ((value = PyLong_FromLongLong(core)) == NULL)
        goto fail;
    slot_set(record, O_rec_core, value);
    Py_DECREF(value);
    if (PyDict_SetItem(m->dd, s_last_violation, record) < 0
        || (pending = dget(m->dd, s__pending)) == NULL)
        goto fail;
    rc = PyList_Append(pending, record);
    Py_DECREF(record);
    return rc;
fail:
    Py_DECREF(record);
    return -1;
}

/* check_bus and check_map for one operation stamped ``ts`` on ``line``. */
static int
check_violations(MStep *S, PyObject *line, long long ts, long long core)
{
    Manager *m = S->m;
    PyObject *value = dget(m->dd, s_enabled), *stamp;
    long long last;
    int enabled;
    if (value == NULL || (enabled = PyObject_IsTrue(value)) < 0)
        return -1;
    if (!enabled)
        return 0;
    if ((value = slot_get(m->bus_monitor, O_mon_last)) == NULL || as_ll(value, &last) < 0)
        return -1;
    if (ts < last) {
        if (record_violation(S, V_BUS, ts, core) < 0)
            return -1;
    }
    else {
        if ((stamp = PyLong_FromLongLong(ts)) == NULL)
            return -1;
        slot_set(m->bus_monitor, O_mon_last, stamp);
        Py_DECREF(stamp);
    }
    value = PyDict_GetItemWithError(m->monitors, line);
    if (value == NULL && PyErr_Occurred())
        return -1;
    last = -1;
    if (value != NULL && as_ll(value, &last) < 0)
        return -1;
    if (ts < last)
        return record_violation(S, V_MAP, ts, core);
    if ((stamp = PyLong_FromLongLong(ts)) == NULL)
        return -1;
    enabled = PyDict_SetItem(m->monitors, line, stamp);
    Py_DECREF(stamp);
    return enabled;
}

/* ---- SnoopBus ---- */

/* grant_request(ts): the target time the snoop request appears. */
static int
grant_request(MStep *S, long long ts, long long *grant)
{
    long long *v = S->v, earliest;
    if (!NEED(S, G_BUS))
        return -1;
    v[MF_REQUESTS]++;
    earliest = ts + S->m->arbitration;
    if (ts < v[MF_LAST_REQ])
        v[MF_STALE]++;
    else
        v[MF_LAST_REQ] = ts;
    *grant = earliest > v[MF_REQ_FREE] ? earliest : v[MF_REQ_FREE];
    v[MF_REQ_CONFLICT] += *grant - earliest;
    v[MF_REQ_FREE] = *grant + S->m->request_cycles;
    return 0;
}

/* schedule_response(data_ready): the ``done`` time (the bus is loaded). */
static long long
schedule_response(MStep *S, long long data_ready)
{
    long long *v = S->v, start;
    v[MF_RESPONSES]++;
    start = data_ready > v[MF_RESP_FREE] ? data_ready : v[MF_RESP_FREE];
    v[MF_RESP_CONFLICT] += start - data_ready;
    v[MF_RESP_FREE] = start + S->m->response_cycles;
    return v[MF_RESP_FREE];
}

/* ---- CacheStatusMap ---- */

/* The line's entry (borrowed; NULL for absent) and its first-touch
 * journal record. */
static int
map_entry(MStep *S, PyObject *line, int journal, PyObject **cur, long long *mask, long long *owner)
{
    PyObject *item;
    if (!NEED(S, G_MAP))
        return -1;
    *cur = PyDict_GetItemWithError(S->entries, line);
    *mask = 0;
    *owner = -1;
    if (*cur == NULL && PyErr_Occurred())
        return -1;
    if (*cur != NULL) {
        if (!PyTuple_Check(*cur) || PyTuple_GET_SIZE(*cur) != 2) {
            PyErr_SetString(PyExc_TypeError, "a cache map entry is not (mask, owner)");
            return -1;
        }
        if (as_ll(PyTuple_GET_ITEM(*cur, 0), mask) < 0)
            return -1;
        item = PyTuple_GET_ITEM(*cur, 1);
        if (item != Py_None && as_ll(item, owner) < 0)
            return -1;
    }
    if (journal) {
        int known = PyDict_Contains(S->journal, line);
        if (known < 0
            || (!known && PyDict_SetItem(S->journal, line, *cur == NULL ? Py_None : *cur) < 0))
            return -1;
    }
    return 0;
}

static int
map_set(MStep *S, PyObject *line, long long mask, long long owner)
{
    PyObject *entry = Py_BuildValue("(LN)", mask,
                                    owner < 0 ? Py_NewRef(Py_None) : PyLong_FromLongLong(owner));
    int rc;
    if (entry == NULL)
        return -1;
    rc = PyDict_SetItem(S->entries, line, entry);
    Py_DECREF(entry);
    return rc;
}

/* ---- L2Cache ---- */

/* L2Cache.access(line, at=at): the latency. */
static int
l2_access(MStep *S, PyObject *line, long long addr, long long at, long long *latency)
{
    Manager *m = S->m;
    long long wait = 0, victim, victim_state;
    Py_ssize_t slot;
    if (!NEED(S, G_L2))
        return -1;
    S->v[MF_ACCESSES]++;
    if (m->banks > 1) {
        Py_ssize_t bank = (Py_ssize_t)(addr % m->banks);
        long long free_at, start;
        if (list_get_ll(S->bank_free, bank, &free_at) < 0)
            return -1;
        start = at > free_at ? at : free_at;
        wait = start - at;
        S->v[MF_BANK_CONFLICT] += wait;
        if (list_set_ll(S->bank_free, bank, start + m->bank_busy) < 0)
            return -1;
    }
    if (array_find(&S->array, line, 1, &slot) < 0)
        return -1;
    if (slot >= 0) {
        *latency = wait + m->hit_latency;
        return 0;
    }
    S->v[MF_L2_MISSES]++;
    if (array_fill(&S->array, line, addr, K_EXCLUSIVE, &victim, &victim_state) < 0)
        return -1;
    *latency = wait + m->miss_latency;
    return 0;
}

/* L2Cache.writeback(line) */
static int
l2_writeback(MStep *S, PyObject *line, long long addr)
{
    Py_ssize_t slot;
    long long victim, victim_state;
    if (!NEED(S, G_L2))
        return -1;
    S->v[MF_WB_RECEIVED]++;
    if (array_find(&S->array, line, 0, &slot) < 0)
        return -1;
    if (slot < 0)
        return array_fill(&S->array, line, addr, K_MODIFIED, &victim, &victim_state);
    if (list_put(S->array.states, slot, K_MODIFIED) < 0)
        return -1;
    return mark_page(S->array.ad, slot);
}

/* ---- the service ---- */

/* ``sim.cores[core].inq.append(InMsg(kind, ts, line, state))`` */
static int
push(Manager *m, long long core, PyObject *kind, long long ts, PyObject *line, PyObject *state)
{
    PyObject *msg, *value, *done;
    if (core < 0 || core >= m->ncores) {
        PyErr_SetString(PyExc_IndexError, "InQ push to a core out of range");
        return -1;
    }
    if ((msg = T_inmsg->tp_alloc(T_inmsg, 0)) == NULL)
        return -1;
    if ((value = PyLong_FromLongLong(ts)) == NULL) {
        Py_DECREF(msg);
        return -1;
    }
    slot_set(msg, O_in_kind, kind);
    slot_set(msg, O_in_ts, value);
    Py_DECREF(value);
    slot_set(msg, O_in_line, line == NULL ? ZERO : line);
    slot_set(msg, O_in_state, state == NULL ? Py_None : state);
    done = PyObject_CallOneArg(m->inq_append[core], msg);
    Py_DECREF(msg);
    if (done == NULL)
        return -1;
    Py_DECREF(done);
    return 0;
}

/* Push ``kind`` at ``ts`` to every core in ``mask``, lowest first. */
static int
push_each(Manager *m, long long mask, PyObject *kind, long long ts, PyObject *line)
{
    long long core;
    for (core = 0; mask; core++, mask >>= 1) {
        if ((mask & 1) && push(m, core, kind, ts, line, NULL) < 0)
            return -1;
    }
    return 0;
}

/* ManagerState._serve_bus */
static int
serve_bus(MStep *S, PyObject *request, long long core, long long ts)
{
    Manager *m = S->m;
    PyObject *line, *bus_op, *cur;
    long long addr, grant, snoop_seen, mask, owner, data_ready, done, latency;
    if ((line = slot_get(request, O_req_line)) == NULL || as_ll(line, &addr) < 0
        || (bus_op = slot_get(request, O_req_bus)) == NULL)
        return -1;
    if (check_violations(S, line, ts, core) < 0 || grant_request(S, ts, &grant) < 0)
        return -1;
    snoop_seen = grant + m->request_cycles;
    if (bus_op == K_UPGR) {
        /* is_sharer: an upgrader invalidated in flight issues a GETX. */
        if (map_entry(S, line, 0, &cur, &mask, &owner) < 0)
            return -1;
        if (!(cur != NULL && ((mask >> core) & 1)))
            bus_op = K_GETX;
    }
    if (map_entry(S, line, 1, &cur, &mask, &owner) < 0)
        return -1;
    if (bus_op == K_GETS) {
        long long others = mask & ~(1LL << core);
        int downgrade = owner >= 0 && owner != core;
        if (downgrade)
            S->v[MF_C2C]++;
        S->v[MF_GETS]++;
        if (map_set(S, line, mask | (1LL << core), (others || downgrade) ? -1 : core) < 0)
            return -1;
        if (downgrade) {
            if (push(m, owner, K_DOWNGRADE, snoop_seen, line, NULL) < 0
                || l2_writeback(S, line, addr) < 0)
                return -1;
            data_ready = grant + m->c2c;
        }
        else {
            if (l2_access(S, line, addr, grant, &latency) < 0)
                return -1;
            data_ready = grant + latency;
        }
        done = schedule_response(S, data_ready);
        return push(m, core, K_FILL, done, line, others ? K_SHARED : K_EXCLUSIVE);
    }
    if (bus_op == K_GETX) {
        int source = owner >= 0 && owner != core;
        S->v[MF_GETX]++;
        if (source)
            S->v[MF_C2C]++;
        if (map_set(S, line, 1LL << core, core) < 0
            || push_each(m, mask & ~(1LL << core), K_INVALIDATE, snoop_seen, line) < 0)
            return -1;
        if (source) {
            data_ready = grant + m->c2c;
        }
        else {
            if (l2_access(S, line, addr, grant, &latency) < 0)
                return -1;
            data_ready = grant + latency;
        }
        done = schedule_response(S, data_ready);
        return push(m, core, K_FILL, done, line, K_MODIFIED);
    }
    if (bus_op == K_UPGR) {
        S->v[MF_UPGR]++;
        if (map_set(S, line, 1LL << core, core) < 0
            || push_each(m, mask & ~(1LL << core), K_INVALIDATE, snoop_seen, line) < 0)
            return -1;
        return push(m, core, K_FILL, snoop_seen, line, K_MODIFIED);
    }
    PyErr_Format(PyExc_ValueError, "unexpected bus op %R", bus_op);
    return -1;
}

/* ManagerState._serve_writeback */
static int
serve_writeback(MStep *S, PyObject *request, long long core, long long ts)
{
    PyObject *line, *cur;
    long long addr, grant, mask, owner;
    if ((line = slot_get(request, O_req_line)) == NULL || as_ll(line, &addr) < 0)
        return -1;
    if (check_violations(S, line, ts, core) < 0 || grant_request(S, ts, &grant) < 0)
        return -1;
    /* CacheStatusMap.apply_writeback */
    if (map_entry(S, line, 0, &cur, &mask, &owner) < 0)
        return -1;
    S->v[MF_WRITEBACKS]++;
    if (cur != NULL) {
        int known = PyDict_Contains(S->journal, line);
        if (known < 0 || (!known && PyDict_SetItem(S->journal, line, cur) < 0))
            return -1;
        mask &= ~(1LL << core);
        if (owner == core)
            owner = -1;
        if (mask) {
            if (map_set(S, line, mask, owner) < 0)
                return -1;
        }
        else if (PyDict_DelItem(S->entries, line) < 0) {
            return -1;
        }
    }
    return l2_writeback(S, line, addr);
}

/* ManagerState._serve_one for one GQ event; IFETCH and the sync kinds go
 * to the Python method. */
static int
serve_one(MStep *S, PyObject *msg, long long core, long long ts)
{
    Manager *m = S->m;
    PyObject *request = slot_get(msg, O_out_request), *kind, *args, *done;
    if (request == NULL)
        return -1;
    if (!Py_IS_TYPE(request, T_request)) {
        PyErr_SetString(PyExc_TypeError, "a GQ event holds a non-CoreRequest");
        return -1;
    }
    if ((kind = slot_get(request, O_req_kind)) == NULL)
        return -1;
    if (kind == K_BUS)
        return serve_bus(S, request, core, ts);
    if (kind == K_WRITEBACK)
        return serve_writeback(S, request, core, ts);
    if ((args = PyTuple_Pack(2, m->state, msg)) == NULL)
        return -1;
    done = mstep_call(S, m->serve_one, args, NULL);
    Py_DECREF(args);
    if (done == NULL)
        return -1;
    Py_DECREF(done);
    return 0;
}

/* ManagerState._merge_outqs over every core: the entries merged. */
static Py_ssize_t
merge_outqs(Manager *m)
{
    Py_ssize_t i, j, n = 0, total = 0;
    PyObject **drained = PyMem_Calloc(m->ncores, sizeof(PyObject *)), *gq;
    int rc = -1;
    if (drained == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (i = 0; i < m->ncores; i++) {
        PyObject *done;
        Py_ssize_t size = PySequence_Size(m->outq[i]);
        if (size < 0)
            goto done;
        if (size == 0)
            continue;
        if ((drained[i] = PySequence_List(m->outq[i])) == NULL)
            goto done;
        if ((done = PyObject_CallMethodNoArgs(m->outq[i], s_clear)) == NULL)
            goto done;
        Py_DECREF(done);
        total += PyList_GET_SIZE(drained[i]);
    }
    if (total == 0) {
        rc = 0;
        goto done;
    }
    if (manager_room(m, total) < 0)
        goto done;
    for (i = 0; i < m->ncores; i++) {
        if (drained[i] == NULL)
            continue;
        for (j = 0; j < PyList_GET_SIZE(drained[i]); j++) {
            if (entry_of(&m->sorted[n++], PyList_GET_ITEM(drained[i], j), 1) < 0)
                goto done;
        }
    }
    stable_sort(m->sorted, m->spare, n, arrival_before);
    if ((gq = dget(m->own[OWN_MGR], s_gq)) == NULL)
        goto done;
    if (!PyList_Check(gq)) {
        PyErr_SetString(PyExc_TypeError, "ManagerState.gq is not a list");
        goto done;
    }
    for (i = 0; i < n; i++) {
        if (PyList_Append(gq, m->sorted[i].msg) < 0)
            goto done;
    }
    rc = 0;
done:
    for (i = 0; i < m->ncores; i++)
        Py_XDECREF(drained[i]);
    PyMem_Free(drained);
    return rc < 0 ? -1 : n;
}

/* SimulationState.service_horizon: 1 with *out set, 0 for None. */
static int
service_horizon(Manager *m, long long *out)
{
    Py_ssize_t i, k;
    int has = 0;
    for (i = 0; i < m->ncores; i++) {
        PyObject *value;
        long long bound = 0, ts;
        int finished, waiting, found = 0;
        Py_ssize_t size = PySequence_Size(m->outq[i]);
        if (size < 0)
            return -1;
        for (k = 0; k < size; k++) {
            PyObject *msg = PySequence_GetItem(m->outq[i], k);
            int rc;
            if (msg == NULL)
                return -1;
            rc = (value = slot_get(msg, O_out_ts)) == NULL || as_ll(value, &ts) < 0;
            Py_DECREF(msg);
            if (rc)
                return -1;
            if (!has || ts < *out) {
                *out = ts;
                has = 1;
            }
        }
        if ((value = dget(m->model[i], s_finished)) == NULL
            || (finished = PyObject_IsTrue(value)) < 0)
            return -1;
        if (finished)
            continue;
        if ((value = dget(m->model[i], s_waiting_sync)) == NULL
            || (waiting = PyObject_IsTrue(value)) < 0)
            return -1;
        if (waiting) {
            size = PySequence_Size(m->inq[i]);
            if (size < 0)
                return -1;
            for (k = 0; k < size; k++) {
                PyObject *msg = PySequence_GetItem(m->inq[i], k), *kind;
                int grant = -1;
                if (msg == NULL)
                    return -1;
                if (!Py_IS_TYPE(msg, T_inmsg))
                    PyErr_SetString(PyExc_TypeError, "an InQ holds a non-InMsg");
                else if ((kind = slot_get(msg, O_in_kind)) != NULL)
                    grant = PyObject_RichCompareBool(kind, K_SYNC_GRANT, Py_EQ);
                if (grant > 0 && ((value = slot_get(msg, O_in_ts)) == NULL || as_ll(value, &ts) < 0))
                    grant = -1;
                Py_DECREF(msg);
                if (grant < 0)
                    return -1;
                if (grant && (!found || ts < bound)) {
                    bound = ts;
                    found = 1;
                }
            }
            if (!found)
                continue;
        }
        else if (list_get_ll(m->times, i, &bound) < 0) {
            return -1;
        }
        if (!has || bound < *out) {
            *out = bound;
            has = 1;
        }
    }
    return has;
}

/* The GQ's events below ``horizon`` appended to ``below``, the rest to
 * ``rest``, each in GQ order. */
static int
split_gq(PyObject *gq, long long horizon, PyObject *below, PyObject *rest)
{
    Py_ssize_t i;
    for (i = 0; i < PyList_GET_SIZE(gq); i++) {
        PyObject *msg = PyList_GET_ITEM(gq, i), *value;
        long long ts;
        if (!Py_IS_TYPE(msg, T_outmsg)) {
            PyErr_SetString(PyExc_TypeError, "the GQ holds a non-OutMsg");
            return -1;
        }
        if ((value = slot_get(msg, O_out_ts)) == NULL || as_ll(value, &ts) < 0)
            return -1;
        if (PyList_Append(ts < horizon ? below : rest, msg) < 0)
            return -1;
    }
    return 0;
}

/* ``md[name] = value``, stealing ``value``. */
static int
dset_steal(PyObject *d, PyObject *name, PyObject *value)
{
    int rc;
    if (value == NULL)
        return -1;
    rc = PyDict_SetItem(d, name, value);
    Py_DECREF(value);
    return rc;
}

/* ManagerState._serve: the events served; clears *settled on a requeue. */
static long long
serve(MStep *S, int conservative, int *settled)
{
    Manager *m = S->m;
    PyObject *md = m->own[OWN_MGR], *gq = dget(md, s_gq), *servable = NULL;
    PyObject *batch_min;
    Py_ssize_t i, n;
    long long served = 0, horizon = 0, bgm = 0;
    int has_bgm = 0;
    if (gq == NULL)
        return -1;
    if (!PyList_Check(gq)) {
        PyErr_SetString(PyExc_TypeError, "ManagerState.gq is not a list");
        return -1;
    }
    if (PyList_GET_SIZE(gq) == 0)
        return 0;
    if (PyDict_SetItem(md, s__serving_conservative, conservative ? Py_True : Py_False) < 0)
        return -1;
    Py_INCREF(gq); /* the list the batch is taken from */
    if (conservative) {
        int has = service_horizon(m, &horizon);
        if (has < 0)
            goto fail;
        if (has) {
            PyObject *rest = PyList_New(0);
            if (rest == NULL || (servable = PyList_New(0)) == NULL
                || split_gq(gq, horizon, servable, rest) < 0) {
                Py_XDECREF(rest);
                goto fail;
            }
            if (PyList_GET_SIZE(servable) == 0) {
                Py_DECREF(rest);
                Py_DECREF(servable);
                Py_DECREF(gq);
                return 0;
            }
            if (dset_steal(md, s_gq, rest) < 0)
                goto fail;
            Py_SETREF(gq, servable);
            servable = NULL;
        }
        else if (dset_steal(md, s_gq, PyList_New(0)) < 0) {
            goto fail;
        }
    }
    else if (dset_steal(md, s_gq, PyList_New(0)) < 0) {
        goto fail;
    }
    /* ``gq`` now holds the batch, in GQ order: sort it by timestamp. */
    n = PyList_GET_SIZE(gq);
    if (manager_room(m, n) < 0)
        goto fail;
    for (i = 0; i < n; i++) {
        if (entry_of(&m->sorted[i], PyList_GET_ITEM(gq, i), 0) < 0)
            goto fail;
    }
    stable_sort(m->sorted, m->spare, n, timestamp_before);
    if (PyDict_SetItem(md, s__batch_grant_min, Py_None) < 0 || !NEED(S, G_MGR))
        goto fail;
    for (i = 0; i < n; i++) {
        struct entry *e = &m->sorted[i];
        if (conservative && has_bgm && e->first >= bgm) {
            /* A sync grant earlier in the batch lowered the horizon:
             * requeue the rest ahead of the GQ. */
            PyObject *rest = PyList_New(0), *tail = dget(md, s_gq);
            Py_ssize_t k;
            if (rest == NULL)
                goto fail;
            for (k = i; k < n; k++) {
                if (PyList_Append(rest, m->sorted[k].msg) < 0) {
                    Py_DECREF(rest);
                    goto fail;
                }
            }
            if (tail == NULL || PySequence_SetSlice(rest, n - i, n - i, tail) < 0) {
                Py_DECREF(rest);
                goto fail;
            }
            if (dset_steal(md, s_gq, rest) < 0)
                goto fail;
            slot_set(m->outcome, O_oc_settled, Py_False);
            *settled = 0;
            break;
        }
        if (serve_one(S, e->msg, e->second, e->first) < 0 || !NEED(S, G_MGR))
            goto fail;
        served++;
        if (e->first > S->v[MF_FLOOR])
            S->v[MF_FLOOR] = e->first;
        if (conservative) {
            /* A Python callback may have issued a sync grant. */
            if ((batch_min = dget(md, s__batch_grant_min)) == NULL)
                goto fail;
            has_bgm = batch_min != Py_None;
            if (has_bgm && as_ll(batch_min, &bgm) < 0)
                goto fail;
        }
    }
    S->v[MF_SERVED] += served;
    Py_DECREF(gq);
    return served;
fail:
    Py_XDECREF(servable);
    Py_DECREF(gq);
    return -1;
}

/* SimulationState.global_time */
static int
global_time(Manager *m, long long *out)
{
    Py_ssize_t i;
    long long running = 0, fallback = 0, local;
    int has_running = 0, has_fallback = 0;
    for (i = 0; i < m->ncores; i++) {
        PyObject *value;
        int finished, waiting;
        if ((value = dget(m->model[i], s_finished)) == NULL
            || (finished = PyObject_IsTrue(value)) < 0)
            return -1;
        if (finished)
            continue;
        if ((value = dget(m->model[i], s_waiting_sync)) == NULL
            || (waiting = PyObject_IsTrue(value)) < 0 || list_get_ll(m->times, i, &local) < 0)
            return -1;
        if (!waiting) {
            if (!has_running || local < running) {
                running = local;
                has_running = 1;
            }
        }
        else if (!has_fallback || local < fallback) {
            fallback = local;
            has_fallback = 1;
        }
    }
    if (has_running)
        *out = running;
    else if (has_fallback)
        *out = fallback;
    else {
        *out = LLONG_MIN;
        for (i = 0; i < m->ncores; i++) {
            if (list_get_ll(m->times, i, &local) < 0)
                return -1;
            if (local > *out)
                *out = local;
        }
    }
    return 0;
}

/* ``item == value`` for a key element that is None (has == 0) or an int. */
static int
key_item_is(PyObject *item, int has, long long value)
{
    long long held;
    int overflow;
    if (!has)
        return item == Py_None;
    if (!PyLong_CheckExact(item))
        return 0;
    held = PyLong_AsLongLongAndOverflow(item, &overflow);
    return !overflow && held == value;
}

/* ManagerState._update_max_locals for a uniform window: 1 if the limit
 * bank moved. */
static int
update_max_locals(MStep *S, PyObject *force_window, PyObject *window_cap)
{
    Manager *m = S->m;
    PyObject *md = m->own[OWN_MGR], *window, *key, *old, *limit;
    long long gt = S->v[MF_GLOBAL], w = 0, cap = 0, value;
    int has_w, has_cap = window_cap != Py_None, has_limit;
    Py_ssize_t i;
    if (force_window != Py_None) {
        window = Py_NewRef(force_window);
    }
    else if ((window = mstep_call(S, m->window, m->no_args, NULL)) == NULL
             || !NEED(S, G_MGR)) {
        Py_XDECREF(window);
        return -1;
    }
    has_w = window != Py_None;
    if ((has_w && as_ll(window, &w) < 0) || (has_cap && as_ll(window_cap, &cap) < 0))
        goto fail;
    if ((old = dget(md, s__limits_key)) == NULL)
        goto fail;
    if (PyTuple_Check(old) && PyTuple_GET_SIZE(old) == 3
        && key_item_is(PyTuple_GET_ITEM(old, 0), 1, gt)
        && key_item_is(PyTuple_GET_ITEM(old, 1), has_w, w)
        && key_item_is(PyTuple_GET_ITEM(old, 2), has_cap, cap)) {
        Py_DECREF(window);
        return 0;
    }
    key = Py_BuildValue("(LOO)", gt, window, window_cap);
    if (dset_steal(md, s__limits_key, key) < 0)
        goto fail;
    has_limit = has_w;
    value = gt + w;
    if (has_cap && (!has_limit || cap < value)) {
        value = cap;
        has_limit = 1;
    }
    limit = has_limit ? PyLong_FromLongLong(value) : Py_NewRef(Py_None);
    if (limit == NULL)
        goto fail;
    for (i = 0; i < m->ncores; i++) {
        PyObject *finished = dget(m->model[i], s_finished);
        int truth = finished == NULL ? -1 : PyObject_IsTrue(finished);
        if (truth < 0) {
            Py_DECREF(limit);
            goto fail;
        }
        if (truth)
            continue;
        Py_INCREF(limit);
        if (PyList_SetItem(m->limits, i, limit) < 0) {
            Py_DECREF(limit);
            goto fail;
        }
    }
    Py_DECREF(limit);
    Py_DECREF(window);
    return 1;
fail:
    Py_DECREF(window);
    return -1;
}

/* What the C manager step and the hook's idle check read of an exact
 * CheckpointController, in place of calling ``overrides()`` and the hook:
 * read on entry and after every hook call that acted (only the hook and
 * ``on_run_start`` move them). */
typedef struct {
    PyObject *cap;      /* next_boundary: the window cap */
    long long boundary; /* its value */
    int replaying;      /* force a window of 1, conservatively, no control */
} Ctl;

static int
ctl_read(Ctl *c, PyObject *controller)
{
    PyObject *cap = PyObject_GetAttr(controller, s_next_boundary);
    if (cap == NULL)
        return -1;
    Py_XSETREF(c->cap, cap);
    if (as_ll(cap, &c->boundary) < 0 || (c->replaying = get_bool(controller, s_replaying)) < 0)
        return -1;
    return 0;
}

/* The negation of CheckpointController._parked: 1 when some core is
 * unfinished, below ``boundary`` and not sync-blocked on an empty InQ. */
static int
core_moves_below(Manager *m, long long boundary)
{
    Py_ssize_t i;
    for (i = 0; i < m->ncores; i++) {
        PyObject *value;
        long long local;
        int truth;
        if ((value = dget(m->model[i], s_finished)) == NULL
            || (truth = PyObject_IsTrue(value)) < 0)
            return -1;
        if (truth)
            continue;
        if (list_get_ll(m->times, i, &local) < 0)
            return -1;
        if (local >= boundary)
            continue;
        if ((value = dget(m->model[i], s_waiting_sync)) == NULL
            || (truth = PyObject_IsTrue(value)) < 0)
            return -1;
        if (truth && (truth = PyObject_IsTrue(m->inq[i])) <= 0) {
            if (truth < 0)
                return -1;
            continue;
        }
        return 1;
    }
    return 0;
}

/* ViolationDetector.drain_pending: the list (new reference). */
static PyObject *
drain_pending(Manager *m)
{
    PyObject *pending = dget(m->dd, s__pending);
    if (pending == NULL)
        return NULL;
    if (PyObject_IsTrue(pending) <= 0)
        return PyErr_Occurred() ? NULL : Py_NewRef(NO_VIOLATIONS);
    Py_INCREF(pending);
    if (dset_steal(m->dd, s__pending, PyList_New(0)) < 0) {
        Py_DECREF(pending);
        return NULL;
    }
    return pending;
}

static int
outcome_set(PyObject *outcome, Py_ssize_t offset, PyObject *value)
{
    if (value == NULL)
        return -1;
    slot_set(outcome, offset, value);
    Py_DECREF(value);
    return 0;
}

/* ManagerRunner.step for the flat manager: its cost and what the loop
 * reads of the outcome. */
static int
manager_step_native(Manager *m, const Ctl *ctl, double *cost_out, MOut *out)
{
    MStep S;
    PyObject *force_window = Py_None, *window_cap = Py_None, *adjusted = NULL;
    PyObject *violations = NULL, *value;
    long long merged, served, old_global;
    int conservative = m->conservative, control_enabled = 1, settled = 1, moved, truth, enabled;
    double cost;

    memset(&S, 0, sizeof(S));
    S.m = m;
    if (ctl != NULL) { /* CheckpointController.overrides() */
        window_cap = ctl->cap;
        if (ctl->replaying) {
            force_window = ONE;
            conservative = 1;
            control_enabled = 0;
        }
    }
    slot_set(m->outcome, O_oc_settled, Py_True);
    if ((merged = merge_outqs(m)) < 0 || (served = serve(&S, conservative, &settled)) < 0)
        goto error;
    if (!NEED(&S, G_MGR))
        goto error;
    old_global = S.v[MF_GLOBAL];
    if (global_time(m, &S.v[MF_GLOBAL]) < 0)
        goto error;
    if (control_enabled && force_window == Py_None && m->control_tick != NULL) {
        PyObject *args = Py_BuildValue("(OL)", m->detector, S.v[MF_GLOBAL]);
        PyObject *kwargs = args == NULL ? NULL
                                        : Py_BuildValue("{OL}", s_events_served, S.v[MF_SERVED]);
        if (kwargs != NULL)
            adjusted = mstep_call(&S, m->control_tick, args, kwargs);
        Py_XDECREF(args);
        Py_XDECREF(kwargs);
        if (adjusted == NULL || !NEED(&S, G_MGR))
            goto error;
    }
    else {
        adjusted = Py_NewRef(Py_False);
    }
    if ((moved = update_max_locals(&S, force_window, window_cap)) < 0)
        goto error;
    if ((violations = drain_pending(m)) == NULL || (truth = PyObject_IsTrue(adjusted)) < 0)
        goto error;
    out->global_time = S.v[MF_GLOBAL];
    out->idle = served == 0 && !truth && S.v[MF_GLOBAL] == old_global;
    out->wake = served > 0 || moved;
    out->settled = settled;
    out->violations = PyList_GET_SIZE(violations);
    if (outcome_set(m->outcome, O_oc_served, PyLong_FromLongLong(served)) < 0
        || outcome_set(m->outcome, O_oc_merged, PyLong_FromLongLong(merged)) < 0
        || outcome_set(m->outcome, O_oc_global, PyLong_FromLongLong(S.v[MF_GLOBAL])) < 0)
        goto error;
    slot_set(m->outcome, O_oc_adjusted, adjusted);
    slot_set(m->outcome, O_oc_violations, violations);
    slot_set(m->outcome, O_oc_idle, out->idle ? Py_True : Py_False);
    slot_set(m->outcome, O_oc_wake, out->wake ? Py_True : Py_False);
    if (mstep_flush(&S) < 0)
        goto error;

    cost = m->cycle_ns;
    if (served) {
        cost += (double)served * m->gq_ns;
        if ((value = dget(m->dd, s_enabled)) == NULL || (enabled = PyObject_IsTrue(value)) < 0)
            goto error;
        if (enabled)
            cost += (double)served * m->tracking_ns;
    }
    if (merged)
        cost += (double)merged * m->mem_ns;
    if (truth)
        cost += m->adjust_ns;
    if (out->idle)
        cost += m->poll_ns;
    *cost_out = cost;
    mstep_drop(&S);
    Py_DECREF(adjusted);
    Py_DECREF(violations);
    return 0;
error:
    mstep_flush_on_error(&S);
    mstep_drop(&S);
    Py_XDECREF(adjusted);
    Py_XDECREF(violations);
    return -1;
}

/* ServiceOutcome.reset_idle */
static void
outcome_reset_idle(PyObject *outcome)
{
    slot_set(outcome, O_oc_served, ZERO);
    slot_set(outcome, O_oc_merged, ZERO);
    slot_set(outcome, O_oc_adjusted, Py_False);
    slot_set(outcome, O_oc_violations, NO_VIOLATIONS);
    slot_set(outcome, O_oc_idle, Py_True);
    slot_set(outcome, O_oc_wake, Py_False);
}

/* ---- binds ---- */

static void
manager_unbind(Manager *m)
{
    Py_ssize_t i;
    int k;
    for (i = 0; i < m->ncores; i++) {
        Py_XDECREF(m->inq[i]);
        Py_XDECREF(m->inq_append[i]);
        Py_XDECREF(m->outq[i]);
        Py_XDECREF(m->model[i]);
    }
    PyMem_Free(m->inq);
    PyMem_Free(m->inq_append);
    PyMem_Free(m->outq);
    PyMem_Free(m->model);
    m->inq = m->inq_append = m->outq = m->model = NULL;
    m->ncores = 0;
    m->native = 0;
    for (k = 0; k < N_OWNERS; k++)
        Py_CLEAR(m->own[k]);
    Py_CLEAR(m->state);
    Py_CLEAR(m->manager);
    Py_CLEAR(m->scheme);
    Py_CLEAR(m->window);
    Py_CLEAR(m->control_tick);
    Py_CLEAR(m->serve_one);
    Py_CLEAR(m->outcome);
    Py_CLEAR(m->detector);
    Py_CLEAR(m->dd);
    Py_CLEAR(m->bus_monitor);
    Py_CLEAR(m->monitors);
    Py_CLEAR(m->times);
    Py_CLEAR(m->limits);
}

/* ``obj.__dict__`` when ``obj`` is exactly ``type``: 1, 0 when not. */
static int
exact_dict(PyObject *obj, PyTypeObject *type, PyObject **dict)
{
    if (obj == NULL)
        return -1;
    if (!Py_IS_TYPE(obj, type))
        return 0;
    return (*dict = PyObject_GenericGetDict(obj, NULL)) == NULL ? -1 : 1;
}

/* The manager's objects for a new root; m->native says whether the
 * root's manager takes the C step. */
static int
manager_bind(Manager *m, PyObject *state)
{
    PyObject *md, *obj, *config = NULL, *cache = NULL, *cores = NULL, *type_tick;
    Py_ssize_t i, n;
    int truth;
    manager_unbind(m);
    m->state = Py_NewRef(state);
    if ((m->scheme = PyObject_GetAttr(state, s_scheme)) == NULL
        || (m->manager = PyObject_GetAttr(state, s_manager)) == NULL)
        return -1;
    if ((truth = get_bool(m->scheme, s_uniform_window)) <= 0)
        return truth;
    if ((truth = get_bool(m->scheme, s_wants_core_clocks)) != 0)
        return truth < 0 ? -1 : 0;
    if ((m->conservative = get_bool(m->scheme, s_conservative_service)) < 0
        || (m->window = PyObject_GetAttr(m->scheme, s_window)) == NULL
        || (type_tick = PyObject_GetAttr((PyObject *)Py_TYPE(m->scheme), s_control_tick)) == NULL)
        return -1;
    if (type_tick != BASE_CONTROL_TICK
        && (m->control_tick = PyObject_GetAttr(m->scheme, s_control_tick)) == NULL) {
        Py_DECREF(type_tick);
        return -1;
    }
    Py_DECREF(type_tick);
    if ((truth = exact_dict(m->manager, T_manager, &m->own[OWN_MGR])) <= 0)
        return truth;
    md = m->own[OWN_MGR];
    if ((truth = exact_dict(dget(md, s_bus), T_bus, &m->own[OWN_BUS])) <= 0
        || (truth = exact_dict(dget(md, s_l2), T_l2, &m->own[OWN_L2])) <= 0
        || (truth = exact_dict(dget(md, s_cache_map), T_map, &m->own[OWN_MAP])) <= 0)
        return truth;
    if ((obj = dget(m->own[OWN_L2], s_dram)) == NULL)
        return -1;
    if (obj != Py_None)
        return 0; /* the DRAM model stays in Python */
    if ((truth = exact_dict(dget(m->own[OWN_L2], s_array), T_array, &m->own[OWN_ARRAY])) <= 0)
        return truth;
    if ((m->detector = dget(md, s_detector)) == NULL)
        return -1;
    Py_INCREF(m->detector);
    if ((truth = exact_dict(m->detector, T_detector, &m->dd)) <= 0)
        return truth;
    if ((obj = dget(m->dd, s__bus_monitor)) == NULL)
        return -1;
    if (!Py_IS_TYPE(obj, T_monitor))
        return 0;
    m->bus_monitor = Py_NewRef(obj);
    if ((obj = dget(m->dd, s__map_monitors)) == NULL)
        return -1;
    if (!Py_IS_TYPE(obj, T_monitors))
        return 0;
    if ((obj = slot_get(obj, O_monitors)) == NULL)
        return -1;
    if (!PyDict_Check(obj))
        return 0;
    m->monitors = Py_NewRef(obj);
    if ((obj = dget(md, s__outcome)) == NULL)
        return -1;
    if (!Py_IS_TYPE(obj, T_outcome))
        return 0;
    m->outcome = Py_NewRef(obj);
    if ((m->serve_one = PyObject_GetAttr(m->manager, s__serve_one)) == NULL
        || dget_ll(md, s_c2c_latency, &m->c2c) < 0
        || (config = PyObject_GetAttr(dget(md, s_bus), s_config)) == NULL
        || get_ll(config, s_arbitration_latency, &m->arbitration) < 0
        || get_ll(config, s_request_cycles, &m->request_cycles) < 0
        || get_ll(config, s_response_cycles, &m->response_cycles) < 0)
        goto fail;
    Py_SETREF(config, PyObject_GetAttr(dget(md, s_l2), s_config));
    if (config == NULL
        || get_ll(config, s_num_banks, &m->banks) < 0
        || get_ll(config, s_miss_latency, &m->miss_latency) < 0
        || (cache = PyObject_GetAttr(config, s_cache)) == NULL
        || get_ll(cache, s_hit_latency, &m->hit_latency) < 0
        || get_ll(dget(md, s_l2), s_BANK_BUSY_CYCLES, &m->bank_busy) < 0)
        goto fail;
    Py_CLEAR(config);
    Py_CLEAR(cache);
    if ((cores = PyObject_GetAttr(state, s_cores)) == NULL
        || (m->times = PyObject_GetAttr(state, s_local_times)) == NULL
        || (m->limits = PyObject_GetAttr(state, s_max_local_times)) == NULL)
        goto fail;
    if (!PyList_Check(cores) || !PyList_Check(m->times) || !PyList_Check(m->limits)) {
        Py_DECREF(cores);
        return 0;
    }
    n = PyList_GET_SIZE(cores);
    if (n < 1 || n > 62 || PyList_GET_SIZE(m->times) != n || PyList_GET_SIZE(m->limits) != n) {
        Py_DECREF(cores); /* a core mask must fit in a long long */
        return 0;
    }
    m->inq = PyMem_Calloc(n, sizeof(PyObject *));
    m->inq_append = PyMem_Calloc(n, sizeof(PyObject *));
    m->outq = PyMem_Calloc(n, sizeof(PyObject *));
    m->model = PyMem_Calloc(n, sizeof(PyObject *));
    if (!m->inq || !m->inq_append || !m->outq || !m->model) {
        PyErr_NoMemory();
        goto fail;
    }
    m->ncores = n;
    for (i = 0; i < n; i++) {
        PyObject *cs = PyList_GET_ITEM(cores, i), *model;
        if ((m->inq[i] = PyObject_GetAttr(cs, s_inq)) == NULL
            || (m->inq_append[i] = PyObject_GetAttr(m->inq[i], s_append)) == NULL
            || (m->outq[i] = PyObject_GetAttr(cs, s_outq)) == NULL
            || (model = PyObject_GetAttr(cs, s_model)) == NULL)
            goto fail;
        m->model[i] = PyObject_GenericGetDict(model, NULL);
        Py_DECREF(model);
        if (m->model[i] == NULL)
            goto fail;
    }
    Py_DECREF(cores);
    m->native = 1;
    return 0;
fail:
    Py_XDECREF(config);
    Py_XDECREF(cache);
    Py_XDECREF(cores);
    return -1;
}

/* The flat manager, when the C step may stand in for its runner. */
static int
manager_setup(Loop *L, int native_manager)
{
    Manager *m;
    PyObject *runner, *obj, *cost = NULL, *host = NULL;
    int rc = -1;
    if ((m = L->manager = PyMem_Calloc(1, sizeof(Manager))) == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    if (!bound || !mbound || !native_manager)
        return 0;
    runner = PyObject_GetAttr(PyList_GET_ITEM(L->threads, L->mgr), s_runner);
    if (runner == NULL)
        return -1;
    if (!Py_IS_TYPE(runner, T_mrunner)) {
        Py_DECREF(runner);
        return 0;
    }
    if ((obj = PyObject_GetAttr(runner, s_direct_cores)) == NULL)
        goto done;
    Py_DECREF(obj);
    if (obj != Py_None) {
        rc = 0; /* sub-managers: the Python manager */
        goto done;
    }
    if ((cost = PyObject_GetAttr(runner, s_cost)) == NULL
        || (host = PyObject_GetAttr(runner, s_host)) == NULL
        || get_double(cost, s_manager_cycle_ns, &m->cycle_ns) < 0
        || get_double(cost, s_per_gq_event_ns, &m->gq_ns) < 0
        || get_double(cost, s_violation_tracking_ns, &m->tracking_ns) < 0
        || get_double(cost, s_per_mem_event_ns, &m->mem_ns) < 0
        || get_double(cost, s_adaptive_adjust_ns, &m->adjust_ns) < 0
        || get_double(host, s_manager_poll_ns, &m->poll_ns) < 0)
        goto done;
    if ((m->no_args = PyTuple_New(0)) == NULL)
        goto done;
    m->eligible = 1;
    rc = 0;
done:
    Py_DECREF(runner);
    Py_XDECREF(cost);
    Py_XDECREF(host);
    return rc;
}

static void
manager_release(Loop *L)
{
    Manager *m = L->manager;
    if (m == NULL)
        return;
    manager_unbind(m);
    Py_CLEAR(m->no_args);
    PyMem_Free(m->sorted);
    PyMem_Free(m->spare);
    PyMem_Free(m);
    L->manager = NULL;
}

/* Consecutive C core steps after which the loop lets other threads and
 * signal handlers in, as the eval loop would (a manager step enters
 * Python and so does the same). */
#define YIELD_EVERY 4096

/* run(scheduler, max_target_cycles, stop_when, deadlock_limit, states,
 *     native_step, native_manager) -> 0,
 * or DEADLOCK / RUNAWAY / NO_THREAD to raise. */
static PyObject *
loop_run(PyObject *module, PyObject *args)
{
    Loop L;
    PyObject *max_cycles, *stop_when;
    long long deadlock_limit, idle_manager_steps = 0;
    PyObject *controller = NULL, *hook = NULL, *host = NULL, *cost = NULL;
    Ctl ctl = {NULL, 0, 0};
    PyObject *last_state = NULL, *cores = NULL, *models = NULL, *outcome = NULL, *returned;
    double jitter_frac, context_switch_ns, manager_cycle_ns, manager_poll_ns, wake_latency;
    double settled_cost;
    int migrates, can_settle = 0, settled = 0, check_done = 1, status = 0, native_step;
    int native_manager, native_run = 0, max_overflow = 0;
    long long max_ll = 0;
    Py_ssize_t ncores;

    memset(&L, 0, sizeof(L));
    if (!PyArg_ParseTuple(args, "OOOLO!pp:run", &L.sched, &max_cycles, &stop_when,
                          &deadlock_limit, &PyTuple_Type, &L.states, &native_step,
                          &native_manager))
        return NULL;
    if (max_cycles != Py_None) {
        max_ll = PyLong_AsLongLongAndOverflow(max_cycles, &max_overflow);
        if (max_ll == -1 && PyErr_Occurred())
            return NULL;
    }
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
    /* native_manager holds only for no controller or an exact one. */
    if (controller != Py_None
        && ((hook = PyObject_GetAttr(controller, s_after_manager_step)) == NULL
            || (native_manager && ctl_read(&ctl, controller) < 0)))
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
    if (cores_setup(&L, host, cost, native_step) < 0
        || manager_setup(&L, native_manager) < 0)
        goto error;
    if (load(&L) < 0)
        goto error;
    L.mirrored = 1;

    for (;;) {
        Py_ssize_t i;
        int t, ctx, have_manager, best, replay, native = 0, native_done = 0, native_blocked = 0;
        int mnative = 0;
        MOut mout;
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
        else if (t == L.mgr && L.manager->eligible
                 && (L.manager->state == last_state || manager_bind(L.manager, last_state) == 0)
                 && L.manager->native) {
            mnative = 1;
            if (manager_step_native(L.manager, hook == NULL ? NULL : &ctl, &step_cost, &mout) < 0)
                goto error;
        }
        else if (PyErr_Occurred()) {
            goto error; /* manager_bind failed */
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
                L.paths[MANAGER_REPLAYED]++;
                if (L.manager->eligible && Py_IS_TYPE(outcome, T_outcome)) {
                    outcome_reset_idle(outcome);
                }
                else {
                    PyObject *none = PyObject_CallMethodNoArgs(outcome, s_reset_idle);
                    if (none == NULL)
                        goto error;
                    Py_DECREF(none);
                }
                if (++idle_manager_steps > deadlock_limit) {
                    status = DEADLOCK;
                    goto finish;
                }
            }
            else {
                PyObject *violations, *gtime;
                Py_ssize_t nviolations;
                int idle, acted = 0, moves = 0, wake, outcome_settled, over;
                if (mnative) {
                    L.paths[MANAGER_C]++;
                    Py_XSETREF(outcome, Py_NewRef(L.manager->outcome));
                    idle = mout.idle;
                    nviolations = mout.violations;
                }
                else {
                    L.paths[MANAGER_PYTHON]++;
                    Py_XSETREF(outcome, PyObject_GetAttr(result, s_outcome));
                    Py_CLEAR(result);
                    if (outcome == NULL || (idle = get_bool(outcome, s_idle)) < 0)
                        goto error;
                    violations = PyObject_GetAttr(outcome, s_violations);
                    if (violations == NULL)
                        goto error;
                    nviolations = PyObject_Length(violations);
                    Py_DECREF(violations);
                    if (nviolations < 0)
                        goto error;
                }
                if (!idle)
                    L.manager_busy += step_cost;
                L.violations_observed += nviolations;
                if (hook != NULL && mnative && nviolations == 0
                    && (moves = core_moves_below(L.manager, ctl.boundary)) < 0)
                    goto error;
                if (moves) {
                    /* No violation to note, and a core still moves below
                     * the boundary (so not all finished, not parked): the
                     * hook would return False and change nothing. */
                    L.paths[HOOKS_C]++;
                }
                else if (hook != NULL) {
                    /* The hook sees (and may move) the real scheduler. */
                    PyObject *now, *acted_obj;
                    L.paths[HOOKS_PYTHON]++;
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
                        if (native_manager && ctl_read(&ctl, controller) < 0)
                            goto error;
                    }
                }
                if (mnative)
                    wake = mout.wake;
                else if ((wake = get_bool(outcome, s_maybe_wake)) < 0)
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
                    if (mnative) {
                        over = max_overflow == 0 ? mout.global_time > max_ll : max_overflow < 0;
                    }
                    else {
                        gtime = PyObject_GetAttr(outcome, s_global_time);
                        if (gtime == NULL)
                            goto error;
                        over = PyObject_RichCompareBool(gtime, max_cycles, Py_GT);
                        Py_DECREF(gtime);
                        if (over < 0)
                            goto error;
                    }
                    if (over) {
                        status = RUNAWAY;
                        goto finish;
                    }
                }
                settled = 0;
                if (can_settle && !acted) {
                    PyObject *now_state;
                    if (mnative)
                        outcome_settled = mout.settled;
                    else if ((outcome_settled = get_bool(outcome, s_settled)) < 0)
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
            L.paths[native ? CORE_C : CORE_PYTHON]++;
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
    Py_XDECREF(ctl.cap);
    Py_XDECREF(last_state);
    Py_XDECREF(cores);
    Py_XDECREF(models);
    Py_XDECREF(outcome);
    cores_release(&L);
    manager_release(&L);
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

struct slot_spec {
    Py_ssize_t *offset;
    PyTypeObject **type;
    const char *name;
};

/* Keep ``types`` and ``constants`` (tuples as long as the arrays given)
 * in the globals the arrays point at, and look up the slot offsets. */
static int
bind_all(const char *who, PyObject *types, PyTypeObject **const *type_vars, Py_ssize_t ntypes,
         PyObject *constants, PyObject **const *constant_vars, Py_ssize_t nconstants,
         const struct slot_spec *slots, size_t nslots)
{
    Py_ssize_t i;
    size_t k;
    if (PyTuple_GET_SIZE(types) != ntypes || PyTuple_GET_SIZE(constants) != nconstants) {
        PyErr_Format(PyExc_TypeError, "%s() takes %zd types and %zd constants", who, ntypes,
                     nconstants);
        return -1;
    }
    for (i = 0; i < ntypes; i++) {
        PyObject *type = PyTuple_GET_ITEM(types, i);
        if (!PyType_Check(type)) {
            PyErr_Format(PyExc_TypeError, "%s(): types[%zd] is not a type", who, i);
            return -1;
        }
        Py_XSETREF(*type_vars[i], (PyTypeObject *)Py_NewRef(type));
    }
    for (i = 0; i < nconstants; i++)
        Py_XSETREF(*constant_vars[i], Py_NewRef(PyTuple_GET_ITEM(constants, i)));
    for (k = 0; k < nslots; k++) {
        if ((*slots[k].offset = slot_offset(*slots[k].type, slots[k].name)) < 0)
            return -1;
    }
    return 0;
}

#define COUNT(array) ((Py_ssize_t)(sizeof(array) / sizeof((array)[0])))

/* bind(types, constants, EXCLUSIVE, PAGE_BITS): what the C core step
 * needs of the model and the program. */
static PyObject *
loop_bind(PyObject *module, PyObject *args)
{
    static const struct slot_spec slots[] = {
        {&O_op_kind, &T_op, "kind"}, {&O_op_arg1, &T_op, "arg1"}, {&O_op_arg2, &T_op, "arg2"},
        {&O_in_kind, &T_inmsg, "kind"}, {&O_in_ts, &T_inmsg, "ts"},
        {&O_in_line, &T_inmsg, "line_addr"}, {&O_in_state, &T_inmsg, "state"},
        {&O_out_core, &T_outmsg, "core_id"}, {&O_out_ts, &T_outmsg, "ts"},
        {&O_out_host, &T_outmsg, "host_time"}, {&O_out_request, &T_outmsg, "request"},
        {&O_req_kind, &T_request, "kind"}, {&O_req_line, &T_request, "line_addr"},
        {&O_req_bus, &T_request, "bus_op"}, {&O_req_sync, &T_request, "sync_id"},
        {&O_req_parts, &T_request, "participants"},
        {&O_entry_line, &T_entry, "line_addr"}, {&O_entry_kind, &T_entry, "kind"},
        {&O_entry_time, &T_entry, "issue_time"}, {&O_entry_ids, &T_entry, "merged_rob_ids"},
        {&O_ctx_vars, &T_context, "vars"},
        {&O_frame_stmts, &T_frame, "stmts"}, {&O_frame_idx, &T_frame, "idx"},
        {&O_frame_var, &T_frame, "var"}, {&O_frame_remaining, &T_frame, "remaining"},
        {&O_frame_trip, &T_frame, "trip"}, {&O_emit_fn, &T_emit, "fn"},
        {&O_loop_var, &T_loop_stmt, "var"}, {&O_loop_count, &T_loop_stmt, "count"},
        {&O_loop_body, &T_loop_stmt, "body"}, {&O_if_pred, &T_if, "pred"},
        {&O_if_then, &T_if, "then_body"}, {&O_if_else, &T_if, "else_body"},
    };
    static PyTypeObject **const types[] = {
        &T_runner, &T_model, &T_l1, &T_array, &T_mshrs, &T_entry, &T_op, &T_inmsg, &T_outmsg,
        &T_request, &T_interp, &T_context, &T_frame, &T_emit, &T_loop_stmt, &T_if, &T_deque,
    };
    static PyObject **const constants[] = {
        &K_LOAD, &K_STORE, &K_COMPUTE, &K_THREAD_END, &K_BUS, &K_WRITEBACK, &K_GETS, &K_GETX,
        &K_UPGR, &K_SHARED, &K_MODIFIED, &K_FILL, &K_SYNC_GRANT, &K_INVALIDATE, &K_DOWNGRADE,
        &ILP_RATE, &WORKLOAD_ERROR,
    };
    PyObject *t, *k;
    bound = 0;
    if (!PyArg_ParseTuple(args, "O!O!ll:bind", &PyTuple_Type, &t, &PyTuple_Type, &k, &EXCLUSIVE,
                          &PAGE_BITS)
        || bind_all("bind", t, types, COUNT(types), k, constants, COUNT(constants), slots,
                    COUNT(slots)) < 0)
        return NULL;
    if (!PyDict_Check(ILP_RATE)) {
        PyErr_SetString(PyExc_TypeError, "bind(): the ILP rates are not a dict");
        return NULL;
    }
    if ((MODIFIED = PyLong_AsLong(K_MODIFIED)) == -1 && PyErr_Occurred())
        return NULL;
    if ((ZERO == NULL && (ZERO = PyLong_FromLong(0)) == NULL)
        || (ONE == NULL && (ONE = PyLong_FromLong(1)) == NULL)
        || (EMPTY == NULL && (EMPTY = PyUnicode_FromString("")) == NULL))
        return NULL;
    bound = 1;
    Py_RETURN_NONE;
}

/* bind_manager(types, constants): what the C manager step needs; after
 * bind(). */
static PyObject *
loop_bind_manager(PyObject *module, PyObject *args)
{
    static const struct slot_spec slots[] = {
        {&O_oc_served, &T_outcome, "events_served"}, {&O_oc_merged, &T_outcome, "events_merged"},
        {&O_oc_adjusted, &T_outcome, "adjusted"}, {&O_oc_violations, &T_outcome, "violations"},
        {&O_oc_global, &T_outcome, "global_time"}, {&O_oc_idle, &T_outcome, "idle"},
        {&O_oc_wake, &T_outcome, "maybe_wake"}, {&O_oc_settled, &T_outcome, "settled"},
        {&O_mon_last, &T_monitor, "last_ts"}, {&O_monitors, &T_monitors, "_monitors"},
        {&O_rec_vtype, &T_record, "vtype"}, {&O_rec_ts, &T_record, "ts"},
        {&O_rec_global, &T_record, "global_time"}, {&O_rec_core, &T_record, "core_id"},
    };
    static PyTypeObject **const types[] = {&T_mrunner, &T_manager, &T_outcome, &T_bus, &T_l2,
                                           &T_map, &T_detector, &T_monitor, &T_monitors,
                                           &T_record};
    static PyObject **const constants[] = {&K_EXCLUSIVE, &V_BUS, &V_MAP, &NO_VIOLATIONS,
                                           &BASE_CONTROL_TICK};
    PyObject *t, *k;
    mbound = 0;
    if (!bound) {
        PyErr_SetString(PyExc_RuntimeError, "bind_manager() before bind()");
        return NULL;
    }
    if (!PyArg_ParseTuple(args, "O!O!:bind_manager", &PyTuple_Type, &t, &PyTuple_Type, &k)
        || bind_all("bind_manager", t, types, COUNT(types), k, constants, COUNT(constants),
                    slots, COUNT(slots)) < 0)
        return NULL;
    if (!PyList_Check(NO_VIOLATIONS)) {
        PyErr_SetString(PyExc_TypeError, "bind_manager(): the empty drain is not a list");
        return NULL;
    }
    mbound = 1;
    Py_RETURN_NONE;
}

static PyMethodDef loop_methods[] = {
    {"run", loop_run, METH_VARARGS,
     "run(scheduler, max_target_cycles, stop_when, deadlock_limit, states,\n"
     "    native_step, native_manager)\n"
     "--\n\n"
     "Scheduler.run's loop for a run without enabled probe seams; with\n"
     "native_step, core runners of the fused fast pipeline step in C, and\n"
     "with native_manager, so does a flat manager pacing one window.  Returns\n"
     "0 when the run finished or was cut, else the DeadlockError to raise:\n"
     "1 deadlock, 2 runaway, 3 no runnable thread."},
    {"bind", loop_bind, METH_VARARGS,
     "bind(types, constants, exclusive, page_bits)\n"
     "--\n\n"
     "Give the C core step the model's and the program's classes and\n"
     "constants: types are (CoreRunner, CoreModel, L1Cache, CacheArray,\n"
     "MshrFile, MshrEntry, Op, InMsg, OutMsg, CoreRequest, ProgramInterpreter,\n"
     "ProgramContext, _Frame, Emit, Loop, If, deque), constants are\n"
     "(OpKind.LOAD, .STORE, .COMPUTE, .THREAD_END, RequestKind.BUS,\n"
     ".WRITEBACK, BusOpKind.GETS, .GETX, .UPGR, MesiState.SHARED, .MODIFIED,\n"
     "InMsgKind.FILL, .SYNC_GRANT, .INVALIDATE, .DOWNGRADE, the ILP-rate dict,\n"
     "WorkloadError); then int(MesiState.EXCLUSIVE) and\n"
     "memory.cache.PAGE_BITS."},
    {"bind_manager", loop_bind_manager, METH_VARARGS,
     "bind_manager(types, constants)\n"
     "--\n\n"
     "Give the C manager step the manager's classes and constants: types are\n"
     "(ManagerRunner, ManagerState, ServiceOutcome, SnoopBus, L2Cache,\n"
     "CacheStatusMap, ViolationDetector, TimestampMonitor, MapMonitorTable,\n"
     "ViolationRecord), constants are (MesiState.EXCLUSIVE, the bus and map\n"
     "violation types, the shared empty drain list, SchemePolicy.control_tick)."},
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
