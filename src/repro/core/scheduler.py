"""Deterministic discrete-event scheduler for the modeled host.

This is the substitution at the heart of the reproduction (DESIGN.md
section 2): instead of real POSIX threads — whose parallel speedup Python
cannot exhibit — the scheduler executes simulation threads one step at a
time on modeled host contexts, always picking the thread with the earliest
possible dispatch time.  Everything the paper measures emerges from this
schedule: barrier serialization makes cycle-by-cycle slow, slack absorbs
load imbalance, host-time interleaving determines the manager's event
arrival order (and therefore violations), and checkpoint costs pause every
context.

The run is bit-for-bit deterministic for a given host seed.

A run without an enabled telemetry session or sanitizer takes the same
loop in C (``_loop.c``, built into ``__pycache__`` when this module is
first imported; DESIGN.md section 5, "The loop in C"), which also steps
the cores of the fused fast pipeline with a C copy of
``CoreRunner.step`` ("The core step in C") and a flat manager with a C
copy of ``ManagerRunner.step`` ("The manager step in C").  Where it
cannot be built, and whenever a probe seam is on, the Python loop below
runs: it, ``CoreRunner.step`` and ``ManagerRunner.step`` are the
reference the C code must match step for step.
"""

from __future__ import annotations

import heapq
from collections import deque
from heapq import heappop, heappush, heapreplace
from operator import attrgetter
from typing import Callable, List, Optional, Tuple

from repro.config import HostConfig
from repro.core.hostmodel import HostContext, HostThread, ThreadState
from repro.core.events import InMsg, InMsgKind, OutMsg
from repro.core.manager import ManagerState, ServiceOutcome
from repro.core.schemes.base import SchemePolicy
from repro.core.state import CoreState, SimulationState
from repro.core.threads import CoreRunner, ManagerRunner, StepResult, SubManagerRunner
from repro.core.violations import (
    _NO_VIOLATIONS,
    BUS,
    MAP,
    MapMonitorTable,
    TimestampMonitor,
    ViolationDetector,
    ViolationRecord,
)
from repro.cpu.core import _ILP_RATE, CoreModel, CoreRequest, RequestKind
from repro.errors import DeadlockError, WorkloadError
from repro.isa.operations import Op, OpKind
from repro.isa.program import Emit, If, Loop, ProgramContext, ProgramInterpreter, _Frame
from repro.memory.bus import SnoopBus
from repro.memory.cache import PAGE_BITS, CacheArray
from repro.memory.cache_map import CacheStatusMap
from repro.memory.l1 import L1Cache
from repro.memory.l2 import L2Cache
from repro.memory.mesi import BusOpKind, MesiState
from repro.memory.mshr import MshrEntry, MshrFile
from repro.util import SplitMix64

#: Consecutive all-idle manager steps before declaring deadlock.
_DEADLOCK_LIMIT = 200_000

_CLOCK_KEY = attrgetter("clock")
_READY = ThreadState.READY
_STATES = tuple(ThreadState)  # indexed by value, for the C loop
_MASK64 = (1 << 64) - 1

#: How the C loop is compiled (with sysconfig's CC); part of its cache key.
_CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")


def _methods(*owners):
    return tuple((owner, name, vars(owner)[name]) for owner, names in owners for name in names)


#: The methods the C core step copies.  It stands in for them only while
#: they are the ones defined here, so a wrapped method (a test counting
#: calls) is still called.
_COPIED = _methods(
    (CoreRunner, (
        "step", "_replay_stall", "_record_stall", "_skip_stalls", "_apply",
        "_drain_while_sync_blocked",
    )),
    (CoreModel, (
        "commit_burst", "skip_stall_cycles", "complete_fill", "complete_sync",
        "snoop_invalidate", "snoop_downgrade",
    )),
    (L1Cache, ("access_line", "fill", "snoop_invalidate", "snoop_downgrade")),
    (CacheArray, ("find", "fill", "invalidate", "write_state")),
    (MshrFile, ("allocate", "release")),
    (ProgramInterpreter, ("next_op", "_step", "_run_emit", "_enter_loop", "_pop_frame")),
)

#: The methods the C manager step copies, under the same rule, with those
#: the C loop's idle check of the controller hook copies after it (the
#: controller's own join at its import: ``copied_controller``).
_MANAGER_COPIED = _methods(
    (ManagerRunner, ("step",)),
    (ManagerState, (
        "service", "_merge_outqs", "_serve", "_serve_one", "_serve_bus",
        "_serve_writeback", "_push", "_update_max_locals", "quiescent",
    )),
    (ServiceOutcome, ("reset_idle",)),
    (SimulationState, ("global_time", "service_horizon", "all_finished")),
    (CoreState, ("finished", "local_time")),
    (SnoopBus, ("grant_request", "schedule_response")),
    (CacheStatusMap, ("apply_gets", "apply_getx", "apply_upgr", "apply_writeback", "is_sharer")),
    (L2Cache, ("access", "writeback")),
    (CacheArray, ("find", "fill", "write_state")),
    (ViolationDetector, ("check_bus", "check_map", "_record", "drain_pending")),
    (TimestampMonitor, ("check_and_update",)),
    (MapMonitorTable, ("check_and_update",)),
)

#: The checkpoint controller class whose fields the C manager step reads in
#: place of its ``overrides()`` and hook, and the methods that copies.
_CONTROLLER: Optional[type] = None
_CONTROLLER_COPIED: frozenset = frozenset()


def copied_controller(cls: type, names: Tuple[str, ...]) -> None:
    """Let the C manager step read an exact ``cls`` in place of calling
    its ``names`` (DESIGN.md section 5, "The controller hook in C"), which
    join ``_MANAGER_COPIED``.  ``repro.core.speculative`` calls this at
    its import, before anything can patch them: a run without checkpoints
    never loads it."""
    global _MANAGER_COPIED, _CONTROLLER, _CONTROLLER_COPIED
    _MANAGER_COPIED += _methods((cls, names))
    _CONTROLLER = cls
    _CONTROLLER_COPIED = frozenset(names)


def _plain_controller(controller) -> bool:
    """None, or exactly the copied controller class with none of the
    copied methods set on the instance (the C loop fetches the hook from
    the instance, so a wrapper there must be called)."""
    return controller is None or (
        type(controller) is _CONTROLLER and _CONTROLLER_COPIED.isdisjoint(vars(controller))
    )


#: The loops' path counters, in order (``Scheduler.path_counts`` adds the
#: Python step's InQ delivery and refill counts).
_PATHS = (
    "manager_c", "manager_python", "manager_replayed", "core_c", "core_python",
    "deliveries_c", "refills_c", "hooks_c", "hooks_python",
)


class HostStats:
    """Host-side accounting accumulated over a run (never rolled back)."""

    def __init__(self, num_contexts: int) -> None:
        self.manager_steps = 0
        self.core_steps = 0
        self.wakeups = 0
        self.context_busy_ns = [0.0] * num_contexts
        self.manager_busy_ns = 0.0
        self.submanager_busy_ns = 0.0
        # Checkpoint/rollback accounting is filled in by the controller.
        self.checkpoints = 0
        self.checkpoint_cost_ns = 0.0
        self.rollbacks = 0
        self.rollback_cost_ns = 0.0
        self.wasted_target_cycles = 0
        self.replay_target_cycles = 0
        self.violations_observed = 0  # includes violations later rolled back


class Scheduler:
    """Runs the whole parallel simulation on the modeled host."""

    def __init__(self, sim, host: HostConfig) -> None:
        self.sim = sim
        self.host = host
        self._manager_migrates = host.manager_migrates
        self.contexts = [HostContext(i) for i in range(host.num_contexts)]
        self.stats = HostStats(host.num_contexts)
        # How each step ran (see path_counts), in _PATHS order.
        self._path_counts = [0] * len(_PATHS)
        # Telemetry (host-side, observation only; None when not attached).
        self._telemetry = getattr(sim, "telemetry", None)

        seed_root = SplitMix64(host.seed)
        self.threads: List[HostThread] = []
        # Ready heap over every thread except the manager, keyed by
        # (dispatch, ready_time, position).  Core/sub-manager keys only
        # grow over a run (context clocks and ready times are monotone),
        # so entries are lower bounds and can be fixed lazily at the top.
        # The manager is excluded: migration can *decrease* its dispatch
        # time, so its key is recomputed fresh on every pick.
        self._heap: List[Tuple[float, float, int, HostThread]] = []
        # Cached min-clock context for manager migration (None = recompute).
        # Valid because context clocks only grow inside the run loop: the
        # cached first-minimum stays the first minimum until *its own*
        # clock advances.  Invalidated by pause_all_contexts.
        self._migrate_min: Optional[HostContext] = None
        # Threads currently not READY (each exactly once); lets the wake
        # scan touch only sleepers instead of every thread.
        self._parked: List[HostThread] = []
        # True while a thread parked since the last wake scan: a thread
        # can park already wake-eligible (e.g. a stall skip landing on its
        # pacing limit with an InQ entry due right there), so the scan
        # after the next manager step must run even if that step was a
        # no-op.
        self._parked_dirty = True
        num_cores = len(sim.state.cores)
        for index in range(num_cores):
            runner = CoreRunner(index, sim, host)
            context = self.contexts[index % host.num_contexts]
            thread = HostThread(runner, context, seed_root.fork())
            context.threads[thread] = None
            self.threads.append(thread)

        # Hierarchical manager (optional): sub-managers each consolidate a
        # round-robin group of cores; the top manager serves the bus/L2.
        direct_cores = None
        next_slot = num_cores
        if host.num_submanagers > 0:
            groups: List[List[int]] = [[] for _ in range(host.num_submanagers)]
            for index in range(num_cores):
                groups[index % host.num_submanagers].append(index)
            for gid, group in enumerate(groups):
                context = self.contexts[next_slot % host.num_contexts]
                thread = HostThread(
                    SubManagerRunner(gid, sim, host, group), context, seed_root.fork()
                )
                context.threads[thread] = None
                self.threads.append(thread)
                next_slot += 1
            direct_cores = []  # every core is covered by a sub-manager

        manager_context = self.contexts[next_slot % host.num_contexts]
        self.manager_thread = HostThread(
            ManagerRunner(sim, host, direct_cores=direct_cores),
            manager_context,
            seed_root.fork(),
        )
        manager_context.threads[self.manager_thread] = None
        self.threads.append(self.manager_thread)

        for pos, thread in enumerate(self.threads):
            thread.pos = pos
        for thread in self.threads:
            if thread is not self.manager_thread:
                self._enqueue(thread)

    @property
    def path_counts(self) -> dict:
        """How the steps so far ran: manager steps in C, in Python and
        replayed (a settled poll), core steps in C and in Python, InQ
        deliveries in C and in Python, program refills in C (the fused
        fast pipeline's in the C core step) and in Python (the Python
        step's and ``CoreModel.cycle``'s), and the controller hooks after
        real manager steps, skipped because the C loop found them idle
        and called.  Host-side only: never part of the report or its
        digest."""
        counts = dict(zip(_PATHS, self._path_counts))
        runners = [t.runner for t in self.threads if isinstance(t.runner, CoreRunner)]
        counts["deliveries_python"] = sum(r.python_deliveries for r in runners)
        counts["refills_python"] = sum(r.python_refills for r in runners)
        return counts

    def _enqueue(self, thread: HostThread) -> None:
        """Add a (non-manager) thread to the ready heap with its exact key."""
        if thread.queued:
            return  # its live entry will be lazily re-keyed at the top
        dispatch = thread.context.clock
        ready = thread.ready_time
        if ready > dispatch:
            dispatch = ready
        heapq.heappush(self._heap, (dispatch, ready, thread.pos, thread))
        thread.queued = True

    # ------------------------------------------------------------------ #

    def run(
        self,
        max_target_cycles: Optional[int] = None,
        stop_when: Optional[Callable[..., bool]] = None,
    ) -> HostStats:
        """Run to completion; return host statistics.

        ``max_target_cycles`` is a safety net: the run aborts with
        :class:`DeadlockError` if the target execution time exceeds it.

        ``stop_when`` (optional) is evaluated with the manager's
        :class:`~repro.core.manager.ServiceOutcome` at the end of every
        manager step; returning True suspends the run at that point.  The
        suspension is resumable: every piece of scheduler state (heap
        membership, parked list, context clocks, statistics) is left
        exactly as the loop maintains it, so a subsequent ``run`` call on
        the same scheduler continues the simulation bit-for-bit as if it
        had never stopped.  This is the cut seam that
        :class:`repro.core.simulation.Run` drives.
        """
        sim = self.sim
        telemetry = self._telemetry
        sanitizer = getattr(sim, "sanitizer", None)
        # An enabled telemetry session or sanitizer observes every step of
        # the general path below; any other run takes the C loop, which
        # must agree with it bit for bit.
        seams_on = (telemetry is not None and telemetry.enabled) or (
            sanitizer is not None and sanitizer.enabled
        )
        if _loop is not None and not seams_on:
            failure = _loop.run(
                self, max_target_cycles, stop_when, _DEADLOCK_LIMIT, _STATES,
                _unpatched(_COPIED),
                _unpatched(_MANAGER_COPIED) and _plain_controller(sim.controller),
            )
            if failure == 1:
                raise DeadlockError(self._deadlock_report())
            if failure == 2:
                raise DeadlockError(_runaway_message(max_target_cycles))
            if failure:  # pragma: no cover
                raise DeadlockError("no runnable simulation thread")
            return self.stats
        stats = self.stats
        busy_ns = stats.context_busy_ns
        cost_cfg = self.host.cost
        jitter_frac = cost_cfg.jitter_frac
        context_switch_ns = cost_cfg.context_switch_ns
        manager_thread = self.manager_thread
        num_cores = len(sim.state.cores)
        heap = self._heap
        controller = sim.controller  # fixed for the life of the Simulation
        idle_manager_steps = 0
        last_state = None
        models = cores = None
        # Settled-poll replay (DESIGN.md section 5): a manager step with
        # no other thread step since the previous manager step, whose
        # service requeued nothing and whose controller hook took no
        # action, is idle by construction.  It is applied as its known
        # effect — the idle poll cost — instead of re-running service().
        # An enabled telemetry session or sanitizer keeps the general
        # path so its probes see every step; a resumed loop starts
        # unsettled, so a cut never splits a replay chain.
        settled_cost = cost_cfg.manager_cycle_ns + self.host.manager_poll_ns
        can_settle = settled = False
        # Termination can only newly hold after a core reports done (a
        # model finished) or a rollback swaps the root; ``check_done``
        # re-arms on exactly those events, sparing the finished-sweep on
        # the bulk of iterations.  Once every model is finished the flag
        # stays armed until the quiescence conditions drain.
        check_done = True
        migrates = self._manager_migrates
        contexts = self.contexts
        paths = self._path_counts
        _ready = _READY
        while True:
            state = sim.state
            if state is not last_state:
                last_state = state
                cores = state.cores
                models = state._models
                check_done = True
                scheme = state.scheme
                can_settle = (
                    scheme.uniform_window
                    and not scheme.wants_core_clocks
                    and not seams_on
                )
            if check_done:
                for model in models:
                    if not model.finished:
                        check_done = False
                        break
                else:
                    if state.manager.quiescent(state) and all(
                        not cs.inq for cs in cores
                    ):
                        break

            # Pick the READY thread with the earliest dispatch time,
            # max(context clock, thread ready time); ties break by ready
            # time (least-recently-run first, so threads sharing a context
            # interleave fairly), then thread position.  The non-manager
            # threads come from the heap, re-keyed lazily (stored keys are
            # lower bounds, so a stale top is re-pushed with its exact key
            # until the top validates); the manager is compared fresh.
            have_manager = manager_thread.state == _ready
            m_dispatch = 0.0
            m_ready = 0.0
            if have_manager:
                if migrates:
                    # The OS load-balances the odd thread out (9 simulation
                    # threads on 8 contexts): the manager migrates to the
                    # least-loaded context instead of starving one core
                    # thread into a permanent laggard (manager_migrates=False
                    # pins it — ablation A3).
                    target = self._migrate_min
                    if target is None:
                        target = contexts[0]
                        best = target.clock
                        for ctx in contexts:
                            clock = ctx.clock
                            if clock < best:
                                best = clock
                                target = ctx
                        self._migrate_min = target
                    mctx = manager_thread.context
                    if target is not mctx:
                        del mctx.threads[manager_thread]
                        target.threads[manager_thread] = None
                        manager_thread.context = target
                m_ready = manager_thread.ready_time
                m_dispatch = manager_thread.context.clock
                if m_ready > m_dispatch:
                    m_dispatch = m_ready
            thread = None
            start = m_dispatch
            while heap:
                dispatch, ready, pos, cand = heap[0]
                if cand.state != _ready:
                    heappop(heap)
                    cand.queued = False
                    continue
                cur_ready = cand.ready_time
                cur_dispatch = cand.context.clock
                if cur_ready > cur_dispatch:
                    cur_dispatch = cur_ready
                if cur_dispatch != dispatch or cur_ready != ready:
                    heapreplace(heap, (cur_dispatch, cur_ready, pos, cand))
                    continue
                # Validated minimum of the non-manager threads; the
                # manager is last in thread order, so it wins only
                # strictly (scalar compare == tuple compare, no allocs).
                if not have_manager or (
                    m_dispatch > dispatch
                    or (m_dispatch == dispatch and m_ready >= ready)
                ):
                    heappop(heap)
                    cand.queued = False
                    thread = cand
                    start = dispatch
                else:
                    thread = manager_thread
                break
            if thread is None:
                if not have_manager:  # pragma: no cover
                    raise DeadlockError("no runnable simulation thread")
                thread = manager_thread

            replay = settled and thread is manager_thread
            if replay:
                cost = settled_cost
            else:
                result: StepResult = thread.runner.step(start)
                cost = result.cost_ns
            if jitter_frac > 0.0:
                # Jitter draw with SplitMix64.next_float inlined (every
                # HostThread rng is a SplitMix64 fork of the host seed;
                # this is the hottest RNG call site in a run).
                rng = thread.rng
                s = (rng.state + 0x9E3779B97F4A7C15) & _MASK64
                rng.state = s
                z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
                u = ((z ^ (z >> 31)) >> 11) * (1.0 / (1 << 53))
                cost *= 1.0 + jitter_frac * (2.0 * u - 1.0)
            context = thread.context
            if context.last_thread is not thread and len(context.threads) > 1:
                cost += context_switch_ns
            context.last_thread = thread
            end = start + cost
            context.clock = end
            thread.ready_time = end
            thread.steps += 1
            busy_ns[context.index] += cost
            if context is self._migrate_min:
                self._migrate_min = None  # its clock advanced; recompute

            if thread is manager_thread:
                stats.manager_steps += 1
                paths[2 if replay else 1] += 1
                if replay:
                    # Nothing to merge or serve, the same global time (so
                    # control_tick is a no-op), no limit moved and no
                    # thread parked: the hook and wake scan would do
                    # nothing either.
                    outcome.reset_idle()
                    idle_manager_steps += 1
                    if idle_manager_steps > _DEADLOCK_LIMIT:
                        raise DeadlockError(self._deadlock_report())
                else:
                    outcome = result.outcome
                    if not outcome.idle:
                        stats.manager_busy_ns += cost
                    stats.violations_observed += len(outcome.violations)
                    if telemetry is not None and telemetry.enabled:
                        for violation in outcome.violations:
                            telemetry.on_violation(violation)
                        sampler = telemetry.sampler
                        if sampler is not None:
                            sampler.maybe_sample(self, outcome, context.clock)
                    acted = False
                    if controller is not None:
                        paths[8] += 1  # hooks_python
                        acted = controller.after_manager_step(self, outcome, context.clock)
                    if outcome.maybe_wake or self._parked_dirty:
                        self._parked_dirty = False
                        self._wake_cores(context.clock)
                    idle_manager_steps = idle_manager_steps + 1 if outcome.idle else 0
                    if idle_manager_steps > _DEADLOCK_LIMIT:
                        raise DeadlockError(self._deadlock_report())
                    if max_target_cycles is not None and outcome.global_time > max_target_cycles:
                        raise DeadlockError(_runaway_message(max_target_cycles))
                    settled = (
                        can_settle
                        and outcome.settled
                        and not acted
                        and sim.state is state
                    )
                if stop_when is not None and stop_when(outcome):
                    # Epoch cut: every loop invariant holds at the end of a
                    # manager step (heap/parked membership, clocks, stats),
                    # so breaking here leaves the scheduler resumable.
                    break
            elif thread.pos < num_cores:  # core runner
                settled = False
                stats.core_steps += 1
                paths[4] += 1
                if sanitizer is not None and sanitizer.enabled:
                    # Re-fetch through sim.state: a rollback swaps the root.
                    pos = thread.pos
                    st = sim.state
                    sanitizer.on_core_step(
                        pos, st.local_times[pos], st.max_local_times[pos]
                    )
                if result.done:
                    check_done = True  # a model may have just finished
                    thread.state = ThreadState.DONE
                    self._parked.append(thread)
                    self._parked_dirty = True
                elif result.blocked:
                    thread.state = ThreadState.BLOCKED
                    self._parked.append(thread)
                    self._parked_dirty = True
                elif not thread.queued:
                    # _enqueue inlined: the context clock and ready time
                    # both equal ``end`` right after the step.
                    heappush(heap, (end, end, thread.pos, thread))
                    thread.queued = True
            else:  # sub-manager
                settled = False
                stats.submanager_busy_ns += cost
                if not thread.queued:
                    heappush(heap, (end, end, thread.pos, thread))
                    thread.queued = True

        return self.stats

    # ------------------------------------------------------------------ #

    def _wake_cores(self, manager_end: float) -> None:
        """Wake core threads whose blocking condition cleared.

        The manager raises max local times during its step; a woken thread
        resumes after the modeled futex wake latency.
        """
        parked = self._parked
        if not parked:
            return
        wake_at = manager_end + self.host.cost.wake_latency_ns
        cores = self.sim.state.cores
        heap = self._heap
        done = ThreadState.DONE
        still_parked: List[HostThread] = []
        for thread in parked:
            # Only core runners are ever parked, and core threads occupy
            # positions [0, num_cores), so pos doubles as the core index.
            cs = cores[thread.pos]
            if thread.state == done:
                # A finished core thread briefly revives to drain coherence
                # messages still addressed to it.
                if not cs.inq:
                    still_parked.append(thread)
                    continue
            else:
                # Runnable when its model finished (the runner reports done
                # and retires); when sync-blocked, once its InQ holds an
                # entry; otherwise when an InQ entry is due or its clock is
                # below its pacing limit.
                model = cs.model
                if not model.finished:
                    inq = cs.inq
                    if model.waiting_sync:
                        if not inq:
                            still_parked.append(thread)
                            continue
                    else:
                        idx = cs._idx
                        local = cs._times[idx]
                        if not inq or inq[0].ts > local:
                            max_local = cs._limits[idx]
                            if max_local is not None and local >= max_local:
                                still_parked.append(thread)
                                continue
                self.stats.wakeups += 1
            thread.state = _READY
            ready = thread.ready_time
            if ready < wake_at:
                thread.ready_time = ready = wake_at
            if not thread.queued:
                # _enqueue inlined
                dispatch = thread.context.clock
                if ready > dispatch:
                    dispatch = ready
                heappush(heap, (dispatch, ready, thread.pos, thread))
                thread.queued = True
        self._parked = still_parked

    def wake_all(self, at_time: float) -> None:
        """Used by the speculative controller after checkpoint/rollback."""
        parked: List[HostThread] = []
        cores = self.sim.state.cores
        num_cores = len(cores)
        for thread in self.threads:
            thread.ready_time = max(thread.ready_time, at_time)
            if thread is self.manager_thread:
                continue
            # Core threads occupy positions [0, num_cores); sub-managers,
            # like the manager, are always ready.
            if thread.pos < num_cores and cores[thread.pos].finished:
                thread.state = ThreadState.DONE
                parked.append(thread)
            else:
                thread.state = ThreadState.READY
                self._enqueue(thread)
        self._parked = parked
        self._parked_dirty = True

    def pause_all_contexts(self, cost_ns: float) -> float:
        """Global pause: synchronize every context, charge ``cost_ns``.

        Models "all threads must synchronize, establish a consistent
        checkpoint, and then proceed" (paper section 5.1).  Returns the
        post-pause host time.
        """
        barrier_time = max(context.clock for context in self.contexts)
        resume = barrier_time + cost_ns
        for context in self.contexts:
            context.clock = resume
        self._migrate_min = None  # every clock changed; recompute the min
        return resume

    def simulation_time_ns(self) -> float:
        """The run's modeled wall-clock: the largest context clock."""
        return max(context.clock for context in self.contexts)

    def _deadlock_report(self) -> str:
        """Everything needed to debug a stuck run from the error alone:
        the global time, each core's simulation-side blocking condition,
        and each host thread's scheduling state (the stuck thread ids)."""
        state = self.sim.state
        lines = [
            "simulation deadlock: manager idle with no core progress "
            f"(> {_DEADLOCK_LIMIT} consecutive idle manager steps).",
            f"global time: {state.manager.global_time}",
            f"simulation time: {self.simulation_time_ns():.0f} ns",
        ]
        for cs in state.cores:
            lines.append(
                f"  core {cs.core_id}: local={cs.local_time} "
                f"max_local={cs.max_local_time} finished={cs.finished} "
                f"waiting_sync={cs.model.waiting_sync} inq={len(cs.inq)}"
            )
        lines.append("host threads:")
        for thread in self.threads:
            lines.append(
                f"  thread {thread.pos} ({type(thread.runner).__name__}): "
                f"state={thread.state.name} context={thread.context.index} "
                f"ready={thread.ready_time:.0f} steps={thread.steps}"
            )
        return "\n".join(lines)


def _unpatched(methods) -> bool:
    """Whether every one of ``methods`` is still the one its class defines."""
    return all(vars(owner).get(name) is fn for owner, name, fn in methods)


def _runaway_message(max_target_cycles: int) -> str:
    return (
        f"target execution exceeded {max_target_cycles} cycles "
        "(runaway simulation; check the workload's barriers)"
    )


def _load_loop():
    """The C loop, or None where it cannot be built or loaded.

    The extension lives in this package's ``__pycache__`` under a name
    keyed by the source, the flags and the interpreter's extension
    suffix, so a warm import only hashes and loads it.  A miss compiles
    it there with sysconfig's C compiler into a temp file that is then
    renamed into place, so concurrent first imports cannot see a torn
    file.
    """
    import hashlib
    import importlib.machinery
    import importlib.util
    import os

    here = os.path.dirname(os.path.abspath(__file__))
    source = os.path.join(here, "_loop.c")
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    try:
        with open(source, "rb") as fh:
            key = hashlib.sha256(fh.read())
        key.update(" ".join(_CFLAGS).encode())
        key.update(suffix.encode())
        path = os.path.join(here, "__pycache__", f"_loop.{key.hexdigest()[:16]}{suffix}")
        if not os.path.exists(path):
            _build_loop(source, path)
        spec = importlib.util.spec_from_file_location("repro.core._loop", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.bind(
            (CoreRunner, CoreModel, L1Cache, CacheArray, MshrFile, MshrEntry, Op,
             InMsg, OutMsg, CoreRequest, ProgramInterpreter, ProgramContext, _Frame,
             Emit, Loop, If, deque),
            (OpKind.LOAD, OpKind.STORE, OpKind.COMPUTE, OpKind.THREAD_END, RequestKind.BUS,
             RequestKind.WRITEBACK, BusOpKind.GETS, BusOpKind.GETX, BusOpKind.UPGR,
             MesiState.SHARED, MesiState.MODIFIED, InMsgKind.FILL, InMsgKind.SYNC_GRANT,
             InMsgKind.INVALIDATE, InMsgKind.DOWNGRADE, _ILP_RATE, WorkloadError),
            int(MesiState.EXCLUSIVE), PAGE_BITS,
        )
        module.bind_manager(
            (ManagerRunner, ManagerState, ServiceOutcome, SnoopBus, L2Cache, CacheStatusMap,
             ViolationDetector, TimestampMonitor, MapMonitorTable, ViolationRecord),
            (MesiState.EXCLUSIVE, BUS, MAP, _NO_VIOLATIONS, SchemePolicy.control_tick),
        )
        return module
    except (OSError, ImportError):  # no compiler, no Python.h, a read-only tree, ...
        return None


def _build_loop(source: str, path: str) -> None:
    """Compile the C loop to ``path``, then remove the builds of older
    sources beside it (a warm import never lists the directory)."""
    import os
    import re
    import shlex
    import subprocess
    import sysconfig

    folder, name = os.path.split(path)
    os.makedirs(folder, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    command = shlex.split(sysconfig.get_config_var("CC") or "cc") + [
        *_CFLAGS, "-I", sysconfig.get_paths()["include"], source, "-o", tmp,
    ]
    try:
        subprocess.run(command, check=True, capture_output=True, timeout=300)
        os.replace(tmp, path)
    except subprocess.SubprocessError as exc:  # failed or hung
        raise OSError(f"cannot build {path}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    build = re.compile(r"_loop\.[0-9a-f]{16}" + re.escape(name[len("_loop.") + 16:]) + r"\Z")
    try:
        stale = [entry for entry in os.listdir(folder) if entry != name and build.match(entry)]
    except OSError:
        stale = []
    for entry in stale:
        try:
            os.unlink(os.path.join(folder, entry))
        except OSError:
            pass  # another process's build, already gone or not ours to remove


_loop = _load_loop()
