"""Tests for the host-model scheduler: determinism, contexts, pacing,
the exact work the settled-poll and stall replays save, the exact cost
of a disabled probe seam, and the C loop, C core step and C manager step
against the Python loop, step and manager."""

import contextlib
import dataclasses
import gc
import os
import pathlib
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.scheduler as scheduler_mod
from repro import (
    AdaptiveConfig,
    AdaptiveQuantumConfig,
    CheckpointConfig,
    HostConfig,
    P2PConfig,
    QuantumConfig,
    Simulation,
    SlackConfig,
    SpeculativeConfig,
)
from repro.analysis.sanitizer import SlackSanitizer
from repro.config import CoreConfig, HostCostModel, quick_target_config
from repro.core.manager import ManagerState
from repro.core.scheduler import Scheduler
from repro.core.speculative import CheckpointController
from repro.core.state import SimulationState
from repro.core.threads import CoreRunner
from repro.core.events import InMsg, InMsgKind
from repro.cpu.core import CoreModel
from repro.errors import DeadlockError, WorkloadError
from repro.isa import Emit, If, Loop, compute, load
from repro.isa.operations import OpKind
from repro.isa.program import ProgramInterpreter
from repro.memory.cache import CacheArray
from repro.memory.dram import DramConfig
from repro.memory.l1 import L1Cache
from repro.memory.mesi import MesiState
from repro.telemetry import TelemetrySession
from repro.workloads import make_workload
from repro.workloads.base import Workload
from repro.workloads.registry import WORKLOADS

#: The C loop as this process loaded it (None: not buildable here).
NATIVE = scheduler_mod._loop

needs_native = pytest.mark.skipif(NATIVE is None, reason="the C loop is not built here")


@contextlib.contextmanager
def loop(native):
    """Run the block on the C loop (True) or the Python loop (False)."""
    saved = scheduler_mod._loop
    scheduler_mod._loop = NATIVE if native else None
    try:
        yield
    finally:
        scheduler_mod._loop = saved


#: The target make_sim runs.
QUICK_TARGET = quick_target_config(num_cores=4)


def make_sim(
    scheme=None, num_contexts=4, seed=1, workload=None, checkpoint=None,
    telemetry=None, sanitizer=None, l2=None, **host_kwargs
):
    workload = workload or make_workload(
        "synthetic", num_threads=4, steps=40, shared_lines=8, barrier_every=20
    )
    return Simulation(
        workload,
        scheme=scheme or SlackConfig(bound=2),
        target=QUICK_TARGET if l2 is None else dataclasses.replace(QUICK_TARGET, l2=l2),
        host=HostConfig(num_contexts=num_contexts, **host_kwargs),
        checkpoint=checkpoint,
        seed=seed,
        telemetry=telemetry,
        sanitizer=sanitizer,
    )


def traced_run(sim):
    """Run ``sim`` under ``sys.settrace``; return the report, the Python
    calls made and the bytecodes executed.

    The collector is emptied first and kept off throughout, so no
    finalizer of an earlier test's garbage runs inside the count.
    """
    counts = [0, 0]

    def on_event(frame, event, arg):
        if event == "opcode":
            counts[1] += 1
        return on_event

    def on_call(frame, event, arg):
        counts[0] += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return on_event

    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        report = sim.run()
    finally:
        sys.settrace(previous)
        if gc_was_enabled:
            gc.enable()
    return report, counts[0], counts[1]


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        r1 = make_sim(seed=3).run()
        r2 = make_sim(seed=3).run()
        assert r1.target_cycles == r2.target_cycles
        assert r1.sim_time_s == r2.sim_time_s
        assert r1.violation_counts == r2.violation_counts
        assert r1.per_core_cpi == r2.per_core_cpi

    def test_host_seed_changes_schedule_not_work(self):
        r1 = Simulation(
            make_workload("synthetic", num_threads=4, steps=40),
            scheme=SlackConfig(bound=4),
            target=quick_target_config(num_cores=4),
            host=HostConfig(num_contexts=4, seed=1),
        ).run()
        r2 = Simulation(
            make_workload("synthetic", num_threads=4, steps=40),
            scheme=SlackConfig(bound=4),
            target=quick_target_config(num_cores=4),
            host=HostConfig(num_contexts=4, seed=2),
        ).run()
        assert r1.instructions == r2.instructions  # same functional work
        assert r1.sim_time_s != r2.sim_time_s  # different host noise


class TestContexts:
    def test_fewer_contexts_slower(self):
        """Halving the host contexts should cost simulation time."""
        fast = make_sim(num_contexts=4).run()
        slow = make_sim(num_contexts=2).run()
        assert slow.sim_time_s > fast.sim_time_s

    def test_single_context_serializes(self):
        one = make_sim(num_contexts=1).run()
        four = make_sim(num_contexts=4).run()
        assert one.sim_time_s > 2 * four.sim_time_s

    def test_simulation_time_is_max_context_clock(self):
        sim = make_sim()
        scheduler = Scheduler(sim, sim.host)
        scheduler.run()
        assert scheduler.simulation_time_ns() == max(
            ctx.clock for ctx in scheduler.contexts
        )


class TestPacingEnforcement:
    def test_slack_bound_enforced_throughout(self, monkeypatch):
        """No core's clock ever exceeds global + bound + batch slop."""
        bound = 3
        sim = make_sim(scheme=SlackConfig(bound=bound))
        scheduler = Scheduler(sim, sim.host)
        max_spread = 0
        import repro.core.threads as threads_mod

        original = threads_mod.CoreRunner.step

        def instrumented(self, host_now):
            nonlocal max_spread
            result = original(self, host_now)
            state = self.sim.state
            locals_running = [
                cs.local_time
                for cs in state.cores
                if not cs.finished and not cs.model.waiting_sync
            ]
            if len(locals_running) > 1:
                max_spread = max(max_spread, max(locals_running) - min(locals_running))
            return result

        monkeypatch.setattr(threads_mod.CoreRunner, "step", instrumented)
        scheduler.run()
        # Spread can exceed the bound transiently by at most one batch
        # (max_local is refreshed by the manager between steps) plus the
        # sync-warp overshoot; it must stay in that envelope.
        slop = sim.host.max_batch_cycles + sim.host.max_stall_batch + 40
        assert max_spread <= bound + slop

    def test_deadlock_guard_fires_on_stuck_workload(self):
        """A barrier that not every thread reaches raises DeadlockError."""
        from repro.isa import Emit, barrier as barrier_op
        from repro.workloads.base import Workload

        def builder(tid):
            if tid == 0:
                return []  # thread 0 never arrives
            return [Emit(lambda ctx: barrier_op(0, 4))]

        broken = Workload("broken", 4, builder)
        sim = make_sim(workload=broken)
        with pytest.raises(DeadlockError):
            sim.run(max_target_cycles=50_000)

    def test_deadlock_backstop_reports_context(self, monkeypatch):
        """Tripping the idle-manager backstop must produce an error with
        enough context to debug the hang: the global time, each core's
        blocking condition, and each host thread's scheduling state."""
        from repro.isa import Emit, barrier as barrier_op
        from repro.workloads.base import Workload
        import repro.core.scheduler as sched_mod

        monkeypatch.setattr(sched_mod, "_DEADLOCK_LIMIT", 500)

        def builder(tid):
            if tid == 0:
                return []  # thread 0 never arrives
            return [Emit(lambda ctx: barrier_op(0, 4))]

        broken = Workload("broken", 4, builder)
        sim = make_sim(workload=broken)
        with pytest.raises(DeadlockError) as excinfo:
            sim.run()
        message = str(excinfo.value)
        assert "simulation deadlock" in message
        assert "> 500 consecutive idle manager steps" in message
        assert "global time:" in message
        # Every core's blocking condition is listed...
        for core_id in range(4):
            assert f"core {core_id}:" in message
        assert "waiting_sync=" in message
        # ...and every host thread's scheduling state (the stuck ids).
        assert "host threads:" in message
        for pos in range(4):
            assert f"thread {pos} (" in message
        assert "state=" in message
        assert "steps=" in message


class TestHierarchicalManager:
    def _run(self, subs):
        sim = make_sim(
            workload=make_workload("synthetic", num_threads=4, steps=60, shared_lines=8),
            scheme=SlackConfig(bound=4),
            num_contexts=4,
            num_submanagers=subs,
        )
        return sim.run()

    def test_same_functional_work(self):
        flat = self._run(0)
        hier = self._run(2)
        assert hier.instructions == flat.instructions

    def test_submanagers_do_the_consolidation(self):
        hier = self._run(2)
        assert hier.submanager_busy_s > 0
        flat = self._run(0)
        assert flat.submanager_busy_s == 0.0

    def test_top_manager_offloaded(self):
        flat = self._run(0)
        hier = self._run(2)
        assert hier.manager_busy_s < flat.manager_busy_s

    def test_violation_detection_still_works(self):
        hier = self._run(2)
        # Bounded slack on a shared workload still detects activity.
        assert hier.target_cycles > 0

    @pytest.mark.parametrize("interval", [50, 100])
    def test_checkpoints_with_submanagers(self, interval):
        """A checkpoint's wake_all readies sub-managers like the manager.
        It used to treat each as the core its group id names: behind a
        finished core the sub-manager was parked as finished, and the
        next wake scan indexed the cores past their end."""
        report = make_sim(
            workload=make_workload("synthetic", num_threads=4, steps=40),
            scheme=SlackConfig(bound=8),
            num_submanagers=2,
            checkpoint=CheckpointConfig(interval=interval),
        ).run()
        assert report.checkpoints > 1
        assert report.submanager_busy_s > 0


class TestManagerMigration:
    def test_no_core_starves(self):
        """With the manager load-balanced, core finishing times stay close
        (the workload is symmetric)."""
        sim = make_sim(
            workload=make_workload("synthetic", num_threads=4, steps=80),
            scheme=SlackConfig(bound=None),
        )
        report = sim.run()
        cpis = [c for c in report.per_core_cpi if c > 0]
        assert max(cpis) / min(cpis) < 2.0


class TestReplayedWork:
    """Exact-count guard for the settled-poll and stall replays (DESIGN.md
    section 5), a perf regression test without a stopwatch.

    The modeled counts (``core_steps``, ``manager_steps``) are digest
    inputs and never move; what the replays save shows as real
    ``ManagerState.service`` calls and core steps applied as a replayed
    stall cycle.  A disabled telemetry session or sanitizer must keep
    both replays engaged and stay inside the bytecode budget below; an
    enabled sanitizer takes the general path.
    """

    #: scheme, core_steps, manager_steps, service() calls, replayed stalls
    CASES = {
        "cc": (lambda: SlackConfig(bound=0), 4040, 3179, 1454, 3374),
        "speculative": (
            lambda: SpeculativeConfig(
                base=AdaptiveConfig(target_rate=1e-3, adjust_period=50),
                checkpoint=CheckpointConfig(interval=100),
            ),
            3950, 2867, 1398, 2618,
        ),
    }

    #: "Free when off", exactly: what attaching a *disabled* seam may add
    #: to the bare run, in bytecodes per modeled step and Python calls per
    #: checkpoint, on either loop.  Measured on CPython 3.11 with the
    #: Python loop: cc +1.59 (telemetry) and +2.34 (sanitizer) bytecodes
    #: per step and no call; speculative +2.92 and +2.67 bytecodes per
    #: step and +140 and +60 calls over its 12 checkpoints (the snapshot
    #: deep-copies reach the shared seam).
    BYTECODES_PER_STEP = 4.0
    CALLS_PER_CHECKPOINT = 16

    #: An attached-but-disabled instance of each probe seam.
    DISABLED = {
        "telemetry": TelemetrySession.disabled,
        "sanitizer": SlackSanitizer.disabled,
    }

    _bare_traces: dict = {}

    def _run(self, monkeypatch, case, **seams):
        counts = {"service": 0, "replayed": 0}
        service = ManagerState.service
        replay_stall = CoreRunner._replay_stall

        def counted_service(self, *args, **kwargs):
            counts["service"] += 1
            return service(self, *args, **kwargs)

        def counted_replay(self):
            replayed = replay_stall(self)
            counts["replayed"] += replayed
            return replayed

        monkeypatch.setattr(ManagerState, "service", counted_service)
        monkeypatch.setattr(CoreRunner, "_replay_stall", counted_replay)
        try:
            report = make_sim(scheme=self.CASES[case][0](), **seams).run()
        finally:
            monkeypatch.undo()
        return report, counts

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_counts_are_pinned(self, monkeypatch, case):
        _, core_steps, manager_steps, services, replayed = self.CASES[case]
        report, counts = self._run(monkeypatch, case)
        assert (report.core_steps, report.manager_steps) == (core_steps, manager_steps)
        assert counts == {"service": services, "replayed": replayed}

    @pytest.mark.parametrize("seam", sorted(DISABLED))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_disabled_seams_keep_both_replays(self, monkeypatch, case, seam):
        plain, plain_counts = self._run(monkeypatch, case)
        disabled = self.DISABLED[seam]()
        report, counts = self._run(monkeypatch, case, **{seam: disabled})
        assert counts == plain_counts
        assert report.digest() == plain.digest()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_enabled_sanitizer_takes_the_general_path(self, monkeypatch, case):
        plain, _ = self._run(monkeypatch, case)
        sanitizer = SlackSanitizer()
        report, counts = self._run(monkeypatch, case, sanitizer=sanitizer)
        assert counts == {"service": report.manager_steps, "replayed": 0}
        assert sanitizer.violations == []
        assert report.digest() == plain.digest()

    @pytest.mark.parametrize("seam", sorted(DISABLED))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_disabled_seams_stay_within_the_bytecode_budget(self, case, seam):
        """On the loop this host runs (the C loop where it builds)."""
        self._check_budget(case, seam, native=NATIVE is not None)

    @pytest.mark.parametrize("seam", sorted(DISABLED))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_disabled_seams_stay_within_the_python_loop_budget(self, case, seam):
        self._check_budget(case, seam, native=False)

    def _check_budget(self, case, seam, native):
        make_scheme = self.CASES[case][0]
        with loop(native):
            bare = self._bare_traces.get((case, native))
            if bare is None:
                bare = traced_run(make_sim(scheme=make_scheme()))
                self._bare_traces[case, native] = bare
            disabled = self.DISABLED[seam]()
            report, calls, bytecodes = traced_run(
                make_sim(scheme=make_scheme(), **{seam: disabled})
            )
        plain, plain_calls, plain_bytecodes = bare
        assert report.digest() == plain.digest()
        steps = report.core_steps + report.manager_steps
        extra = (bytecodes - plain_bytecodes) / steps
        assert extra <= self.BYTECODES_PER_STEP, f"+{extra:.2f} bytecodes per step"
        assert calls - plain_calls <= self.CALLS_PER_CHECKPOINT * report.checkpoints


def host_state(scheduler):
    """What a loop leaves in the scheduler: every HostStats field, per
    thread its steps, ready time, state, jitter stream and context, per
    context its clock, last thread and thread set, and the parked list."""
    return {
        "stats": dict(vars(scheduler.stats)),
        "threads": [
            (t.steps, t.ready_time, t.state, t.rng.state, t.context.index)
            for t in scheduler.threads
        ],
        "contexts": [
            (
                c.clock,
                None if c.last_thread is None else c.last_thread.pos,
                sorted(t.pos for t in c.threads),
            )
            for c in scheduler.contexts
        ],
        "parked": [t.pos for t in scheduler._parked],
    }


#: Every scheme kind, sized so that tiny synthetic programs move their
#: bounds, checkpoints and rollbacks.
EQUIVALENCE_SCHEMES = {
    "cc": lambda: SlackConfig(bound=0),
    "slack": lambda: SlackConfig(bound=4),
    "unbounded": lambda: SlackConfig(bound=None),
    "quantum": lambda: QuantumConfig(quantum=8),
    "adaptive": lambda: AdaptiveConfig(target_rate=1e-3, adjust_period=50),
    "adaptive-quantum": lambda: AdaptiveQuantumConfig(adjust_period=50),
    "p2p": lambda: P2PConfig(period=40, max_lead=40),
    "speculative": lambda: SpeculativeConfig(
        base=AdaptiveConfig(target_rate=1e-3, adjust_period=50),
        checkpoint=CheckpointConfig(interval=150),
    ),
}


@st.composite
def run_specs(draw):
    """A synthetic program x a scheme kind x a target core and L2 x a
    host variant, with or without periodic checkpoints.  An icache core
    takes the Python core step under either loop; every other core takes
    the C step under the C loop.  A flat manager pacing one window takes
    the C manager step under the C loop; sub-managers and p2p keep the
    Python one."""
    cores = draw(st.sampled_from((2, 4)))
    workload = dict(
        num_threads=cores,
        steps=draw(st.integers(5, 40)),
        shared_lines=draw(st.integers(1, 8)),
        shared_fraction=draw(st.sampled_from((0.0, 0.3, 0.8))),
        lock_every=draw(st.sampled_from((0, 7))),
        barrier_every=draw(st.sampled_from((0, 10))),
    )
    scheme = draw(st.sampled_from(sorted(EQUIVALENCE_SCHEMES)))
    core = dict(
        num_mshrs=draw(st.sampled_from((1, 4))),
        window_size=draw(st.sampled_from((4, 16))),
        issue_width=draw(st.sampled_from((1, 2, 4))),
        model_icache=draw(st.booleans()),
    )
    l2 = dict(
        size=draw(st.sampled_from((1024, 4096))),
        num_banks=draw(st.sampled_from((1, 2))),
    )
    host = dict(
        num_contexts=draw(st.sampled_from((1, 4, 8))),
        num_submanagers=draw(st.sampled_from((0, 2))),
        manager_migrates=draw(st.booleans()),
        max_batch_cycles=draw(st.sampled_from((1, 8))),
        max_stall_batch=draw(st.sampled_from((1, 16))),
        seed=draw(st.integers(0, 2**64 - 1)),
        # A free OutQ post stamps a cycle's requests alike, so the GQ's
        # sorts meet equal keys and must keep their order (stable).
        per_mem_event_ns=draw(st.sampled_from((3000.0, 0.0))),
    )
    checkpoint = None
    if scheme != "speculative":
        checkpoint = draw(st.sampled_from((None, 60, 200)))
    return cores, workload, scheme, core, l2, host, checkpoint


#: The L2 of ``quick_target_config``.
QUICK_L2 = dict(size=4096, num_banks=1)


def build(spec):
    cores, workload, scheme, core, l2, host, checkpoint = spec
    host = dict(host)
    host["cost"] = HostCostModel(per_mem_event_ns=host.pop("per_mem_event_ns", 3000.0))
    target = quick_target_config(num_cores=cores)
    l2_config = dataclasses.replace(
        target.l2,
        cache=dataclasses.replace(target.l2.cache, size=l2["size"]),
        num_banks=l2["num_banks"],
    )
    return Simulation(
        make_workload("synthetic", **workload),
        scheme=EQUIVALENCE_SCHEMES[scheme](),
        target=dataclasses.replace(target, core=CoreConfig(**core), l2=l2_config),
        host=HostConfig(**host),
        checkpoint=None if checkpoint is None else CheckpointConfig(interval=checkpoint),
    )


def sequence_paths(program):
    """Each statement sequence of an interpreter's program tree, by
    identity, as its path from the root: a frame's ``stmts`` compared
    across two builds of one workload."""
    paths = {}

    def walk(stmts, path):
        paths.setdefault(id(stmts), path)
        for i, stmt in enumerate(stmts):
            if isinstance(stmt, Loop):
                walk(stmt.body, path + (i, "body"))
            elif isinstance(stmt, If):
                walk(stmt.then_body, path + (i, "then"))
                walk(stmt.else_body, path + (i, "else"))

    walk(program._program, ())
    return paths


def interpreter_state(program):
    """Where an interpreter is: per frame its statement sequence, index,
    loop variable, trips left and trip, the loop variables, the PRNG
    state, the buffered ops and whether the program has ended."""
    paths = sequence_paths(program)
    return (
        [(paths[id(f.stmts)], f.idx, f.var, f.remaining, f.trip) for f in program._frames],
        dict(program.ctx.vars),
        program.ctx.rng.state,
        list(program._buffer),
        program._ended,
    )


def model_state(state):
    """What the core steps leave in each core: the model's counters,
    pending loads and dirtied pages, the L1's counters, LRU clock and
    banks, the MSHR entries with the number of merges into each, and the
    interpreter's position."""
    cores = []
    for cs in state.cores:
        model = cs.model
        l1 = model.l1
        array = l1.array
        mshrs = l1.mshrs
        cores.append((
            cs.local_time,
            (model.cycles, model.stall_cycles, model.sync_stall_cycles, model.instructions),
            (model._issue_seq, model._fetch_seq, model._compute_remaining, model._compute_rate),
            (model._current_op, model.waiting_sync, model.finished),
            list(model._pending_loads),
            sorted(model.pages_touched),
            (l1.loads, l1.stores, l1.load_misses, l1.store_misses, l1.upgrades, l1.last_bus_op),
            (l1.writebacks, l1.snoop_invalidations, l1.snoop_downgrades),
            (array.hits, array.misses, array.evictions, array._clock),
            (array._tag, array._state, array._lru),
            (mshrs.allocations, mshrs.merges, mshrs.full_stalls),
            sorted(
                (line, entry.kind, entry.issue_time, len(entry.merged_rob_ids))
                for line, entry in mshrs._entries.items()
            ),
            interpreter_state(model.program),
        ))
    return cores


def manager_state(sim):
    """What the manager steps and the controller hooks after them leave:
    the GQ in order, the bus, the L2 and its array, the cache map and its
    journal, the detector, the manager's own fields, every core's InQ and
    L1 dirty pages, and the checkpoint controller's interval records,
    boundary, replay flag and last snapshot.  (The checkpoint and rollback
    fields of HostStats are in ``host_state``.)"""
    state, controller = sim.state, sim.controller
    manager = state.manager
    bus, l2, cmap, detector = manager.bus, manager.l2, manager.cache_map, manager.detector
    array = l2.array
    last = detector.last_violation
    return (
        [(m.core_id, m.ts, m.host_time, m.request.kind, m.request.line_addr) for m in manager.gq],
        (bus.request_free_at, bus.response_free_at, bus._last_request_ts, bus.requests,
         bus.responses, bus.request_conflict_cycles, bus.response_conflict_cycles,
         bus.stale_grants),
        (l2.accesses, l2.misses, l2.writebacks_received, l2.bank_conflict_cycles,
         l2._bank_free_at),
        (array._tag, array._state, array._lru, array._index, array._clock,
         sorted(array._dirty), array.evictions),
        (cmap._entries, cmap._journal, cmap.gets_served, cmap.getx_served, cmap.upgr_served,
         cmap.writebacks, cmap.cache_to_cache),
        (detector.counts, detector.window_counts, detector._bus_monitor.last_ts,
         detector._map_monitors._monitors, len(detector._pending),
         None if last is None else (last.vtype, last.ts, last.global_time, last.core_id)),
        (manager._grant_floor, manager._limits_key, manager.events_served,
         manager.global_time, manager._serving_conservative, manager._batch_grant_min),
        [
            ([(m.kind, m.ts, m.line_addr, m.state) for m in cs.inq],
             sorted(cs.model.l1.array._dirty))
            for cs in state.cores
        ],
        None if controller is None else controller_state(controller),
    )


def controller_state(controller):
    snapshot = controller.snapshot
    return (
        [
            (r.index, r.start, r.end, r.violations, r.first_offset, r.rolled_back)
            for r in controller.records + [controller._current]
        ],
        controller.next_boundary,
        controller.replaying,
        None if snapshot is None else (snapshot.boundary, snapshot.host_time, snapshot.pages),
    )


def runaway_cap(reference):
    """A few times the target cycles a ``trajectory`` reached: a loop that
    wedges where the reference finished then fails as a runaway (a
    DeadlockError that mismatches) instead of spinning forever."""
    return 4 * max(core[0] for core in reference[2]) + 100


def local_cap(sim):
    """``runaway_cap`` of a run the Python loop has left ``sim`` in: its
    largest local time, four times over, plus 100."""
    return 4 * max(cs.local_time for cs in sim.state.cores) + 100


def trajectory(sim, segments, max_target_cycles=None, log=True):
    """Advance ``sim`` through ``segments`` — ``(until, native)`` pairs,
    each run on the loop it names — and return the digest (or the
    DeadlockError message) with the host, model and manager state left
    behind, and (with ``log``) every OutQ entry as the manager merged
    it.  (A message's host stamp orders it only among messages of one
    manager step, so the digest alone cannot see a stamp moved by a
    constant.)  The log wraps ``ManagerState._merge_outqs``, which keeps
    the Python manager step under the C loop: without it, a flat
    manager takes the C manager step there."""
    posted = []
    merge = ManagerState._merge_outqs

    def recorded(self, state, core_ids=None):
        for index in range(len(state.cores)) if core_ids is None else core_ids:
            posted.extend(
                (msg.core_id, msg.ts, msg.host_time, msg.request.kind)
                for msg in state.cores[index].outq
            )
        return merge(self, state, core_ids)

    run = sim.start(max_target_cycles)
    with pytest.MonkeyPatch.context() as patch:
        if log:
            patch.setattr(ManagerState, "_merge_outqs", recorded)
        try:
            for until, native in segments:
                with loop(native):
                    run.advance(until)
            outcome = run.report().digest()
        except DeadlockError as exc:
            outcome = f"DeadlockError: {exc}"
    return (
        outcome, host_state(run.scheduler), model_state(sim.state), manager_state(sim),
        posted if log else None,
    )


def kept_blocks(native, make_scheme, steps=40, l2=None, **workload):
    """The run's report and the memory blocks it leaves alive, as
    tracemalloc counts them, on the C loop (True) or the Python loop."""
    workload = make_workload(
        "synthetic", **dict(num_threads=4, steps=steps, shared_lines=8, barrier_every=20),
        **workload,
    )
    with loop(native):
        sim = make_sim(scheme=make_scheme(), workload=workload, l2=l2)
        gc.collect()
        tracemalloc.start()
        try:
            report = sim.run()
            gc.collect()
            kept = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
    return report, sum(stat.count for stat in kept.statistics("filename"))


@needs_native
class TestNativeLoop:
    """The C loop is the Python loop, bit for bit: same digest, same
    host state, same errors, and a cut may hand a run from either loop
    to the other."""

    #: Two runs whose multi-cycle steps touch the L1 before a delivery in
    #: the same step: they fail if the LRU clock is not written back
    #: before the delivery's fill, which 30 drawn examples may miss.
    CLOCK_WRITE_BACK = (
        (
            2,
            dict(num_threads=2, steps=30, shared_lines=5, shared_fraction=0.0,
                 lock_every=0, barrier_every=0),
            "slack",
            dict(num_mshrs=4, window_size=16, issue_width=4, model_icache=False),
            QUICK_L2,
            dict(num_contexts=8, num_submanagers=2, manager_migrates=True,
                 max_batch_cycles=8, max_stall_batch=16, seed=3128971925910127598),
            200,
        ),
        (
            2,
            dict(num_threads=2, steps=13, shared_lines=3, shared_fraction=0.3,
                 lock_every=7, barrier_every=10),
            "speculative",
            dict(num_mshrs=1, window_size=4, issue_width=1, model_icache=False),
            QUICK_L2,
            dict(num_contexts=4, num_submanagers=0, manager_migrates=True,
                 max_batch_cycles=8, max_stall_batch=16, seed=4163994234249967631),
            None,
        ),
    )

    #: A quantum run (conservative service behind barriers) whose locks
    #: make it requeue a batch behind a sync grant, a speculative run on
    #: a small L2 that rolls back, and a slack run with free OutQ posts
    #: whose merges meet equal sort keys, which a sort that reorders
    #: them serves in another order: the manager's rarest paths
    #: (TestNativeManager checks that they still reach them).
    REQUEUE = (
        4,
        dict(num_threads=4, steps=9, shared_lines=6, shared_fraction=0.3,
             lock_every=7, barrier_every=0),
        "quantum",
        dict(num_mshrs=4, window_size=16, issue_width=2, model_icache=False),
        dict(size=1024, num_banks=2),
        dict(num_contexts=8, num_submanagers=0, manager_migrates=False,
             max_batch_cycles=8, max_stall_batch=1, seed=16375494175790753126),
        None,
    )
    ROLLBACK = (
        4,
        dict(num_threads=4, steps=19, shared_lines=2, shared_fraction=0.3,
             lock_every=0, barrier_every=0),
        "speculative",
        dict(num_mshrs=1, window_size=4, issue_width=2, model_icache=False),
        dict(size=1024, num_banks=1),
        dict(num_contexts=4, num_submanagers=0, manager_migrates=True,
             max_batch_cycles=1, max_stall_batch=16, seed=6377047045578648633),
        None,
    )
    TIES = (
        4,
        dict(num_threads=4, steps=40, shared_lines=5, shared_fraction=0.3,
             lock_every=7, barrier_every=10),
        "slack",
        dict(num_mshrs=4, window_size=16, issue_width=4, model_icache=False),
        QUICK_L2,
        dict(num_contexts=8, num_submanagers=0, manager_migrates=True, max_batch_cycles=1,
             max_stall_batch=16, seed=14272559850356971611, per_mem_event_ns=0.0),
        None,
    )

    @settings(max_examples=30, deadline=None)
    @given(
        spec=run_specs(),
        cuts=st.lists(st.tuples(st.integers(1, 1500), st.booleans()), max_size=3),
        last=st.booleans(),
    )
    @example(spec=CLOCK_WRITE_BACK[0], cuts=[(300, True)], last=False)
    @example(spec=CLOCK_WRITE_BACK[1], cuts=[], last=True)
    @example(spec=REQUEUE, cuts=[(40, True)], last=False)
    @example(spec=ROLLBACK, cuts=[(150, False)], last=True)
    @example(spec=TIES, cuts=[], last=True)
    def test_both_loops_take_the_same_path(self, spec, cuts, last):
        python = trajectory(build(spec), [(None, False)])
        cap = runaway_cap(python)
        assert trajectory(build(spec), [(None, True)], cap) == python
        assert trajectory(build(spec), sorted(cuts) + [(None, last)], cap) == python
        # Without the stamp log a flat manager steps in C as well.
        unlogged = python[:-1]
        assert trajectory(build(spec), [(None, True)], cap, log=False)[:-1] == unlogged
        assert (
            trajectory(build(spec), sorted(cuts) + [(None, last)], cap, log=False)[:-1]
            == unlogged
        )

    def test_deadlock_reports_match(self, monkeypatch):
        from repro.isa import Emit, barrier as barrier_op
        from repro.workloads.base import Workload

        def builder(tid):
            return [] if tid == 0 else [Emit(lambda ctx: barrier_op(0, 4))]

        monkeypatch.setattr(scheduler_mod, "_DEADLOCK_LIMIT", 500)
        runs = [
            trajectory(make_sim(workload=Workload("broken", 4, builder)), [(None, native)])
            for native in (False, True)
        ]
        assert runs[0][0].startswith("DeadlockError: simulation deadlock")
        assert runs[1] == runs[0]

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_workload_takes_the_same_path(self, name):
        """Each registered program tree (callable trip counts, zero-trip
        loops and nested If bodies are in lu, barnes and radix, not in
        synthetic) refills alike on both loops, also across a cut."""

        def build_case():
            return Simulation(
                make_workload(name, num_threads=4, scale=0.05),
                scheme=SlackConfig(bound=4),
                target=QUICK_TARGET,
                host=HostConfig(num_contexts=4),
                checkpoint=CheckpointConfig(interval=200),
            )

        python = trajectory(build_case(), [(None, False)], log=False)
        cap = runaway_cap(python)
        assert trajectory(build_case(), [(None, True)], cap, log=False) == python
        assert trajectory(build_case(), [(300, True), (None, False)], cap, log=False) == python
        assert trajectory(build_case(), [(300, False), (None, True)], cap, log=False) == python

    @pytest.mark.parametrize(
        "kind", (InMsgKind.INVALIDATE, InMsgKind.DOWNGRADE), ids=("invalidate", "downgrade")
    )
    def test_a_snoop_dirties_its_page(self, kind):
        """A snoop is a content write: it marks its L1 page, so restoring
        the last snapshot rewinds it, on both loops.  A finished core's
        drain is where a snoop can be the only write to an L1 since a
        checkpoint (a fill or a store hit marks the same page otherwise),
        which the drawn runs do not reach."""
        outcomes = []
        for native in (False, True):
            sim = make_sim(scheme=SlackConfig(bound=0))
            with loop(native):
                run = sim.start(None)
                run.advance()
                l1 = sim.state.cores[0].model.l1
                l1.array.snapshot_sync()
                before = l1.resident_lines()
                line = max(a for a, state in before.items() if state >= MesiState.EXCLUSIVE)
                sim.state.cores[0].inq.append(InMsg(kind, sim.state.manager.global_time, line))
                run.scheduler.wake_all(run.scheduler.simulation_time_ns())
                run.scheduler.run()
                after = l1.resident_lines()
                l1.array.snapshot_restore()
                outcomes.append((
                    before, after, l1.resident_lines(), l1.snoop_invalidations,
                    l1.snoop_downgrades,
                ))
        assert outcomes[1] == outcomes[0]
        before, after, restored = outcomes[0][:3]
        assert after.get(line) != before[line] and restored == before

    #: Programs that fail while a refill interprets them.
    BROKEN_PROGRAMS = {
        "non-op": lambda tid: [Emit(lambda ctx: [compute(2), load(64 * tid), "op"])],
        "negative-count": lambda tid: [
            Loop("i", 3, [Emit(lambda ctx: compute(1))]),
            Loop("j", lambda ctx: -2 if ctx.tid == 3 else 2, [Emit(lambda ctx: load(64 * ctx["j"]))]),
        ],
        "raises": lambda tid: [
            Loop("i", 70, [Emit(lambda ctx: compute(1 + ctx["i"]))]),
            If(lambda ctx: ctx.tid == 2, [Emit(lambda ctx: 1 // 0)]),
        ],
    }

    @pytest.mark.parametrize("case", sorted(BROKEN_PROGRAMS))
    def test_program_errors_match(self, case):
        """A refill that fails raises the same exception, with the same
        message, and leaves the same state on both loops."""
        outcomes = []
        for native in (False, True):
            sim = make_sim(workload=Workload("broken", 4, self.BROKEN_PROGRAMS[case]))
            with loop(native), pytest.raises(Exception) as failure:
                sim.run()
            outcomes.append((type(failure.value), str(failure.value), model_state(sim.state)))
        assert outcomes[1] == outcomes[0]
        expected = {
            "non-op": (WorkloadError, "Emit produced a non-Op value: 'op'"),
            "negative-count": (WorkloadError, "negative loop count -2 for 'j'"),
            "raises": (ZeroDivisionError, "integer division or modulo by zero"),
        }[case]
        assert outcomes[0][:2] == expected

    #: Blocks the C loop may keep beyond what the Python loop keeps for
    #: the same run (measured: +17 on the speculative case).
    KEPT_BLOCKS_SLACK = 100

    def test_the_c_loop_keeps_nothing_per_step(self):
        """The mirror is written back before every controller hook call
        (20 of this speculative case's 1,398 real manager steps; the C
        loop decides the rest idle itself), and the C core step and C
        manager step build their records themselves: a run leaves alive
        what the same run on the Python loop leaves, within a bound set by
        the threads and contexts, not the steps.  (The blocks cannot be
        told apart by file: C allocates the core's banks and queue entries
        under the scheduler's frame.)"""
        make_scheme = TestReplayedWork.CASES["speculative"][0]
        report, python = kept_blocks(False, make_scheme)
        assert report.manager_steps == 2867
        report, native = kept_blocks(True, make_scheme)
        assert report.manager_steps == 2867
        assert native <= python + self.KEPT_BLOCKS_SLACK

    @pytest.mark.parametrize("case", ("slack", "speculative"))
    def test_the_c_manager_keeps_nothing_per_step(self, case):
        """The C manager step builds the GQ lists, InQ messages, map
        entries, L2 bank values and violation records itself: long
        serve-heavy runs (most accesses shared, a 1 KB L2 that evicts)
        leave alive what the Python loop leaves, within the same bound."""
        make_scheme = {
            "slack": lambda: SlackConfig(bound=16),
            "speculative": TestReplayedWork.CASES["speculative"][0],
        }[case]
        l2 = dataclasses.replace(
            QUICK_TARGET.l2, cache=dataclasses.replace(QUICK_TARGET.l2.cache, size=1024)
        )
        runs = [
            kept_blocks(native, make_scheme, steps=300, l2=l2, shared_fraction=0.8)
            for native in (False, True)
        ]
        (report, python), (native_report, native) = runs
        assert native_report.digest() == report.digest()
        # Violations were recorded (a rollback erases the ones behind it).
        assert report.manager_steps > 2000
        assert sum(report.violation_counts.values()) + report.rollbacks > 0
        assert native <= python + self.KEPT_BLOCKS_SLACK

    @pytest.mark.parametrize("bound, steps", ((0, 80), (16, 300)))
    def test_the_c_step_keeps_nothing_per_step(self, bound, steps):
        """The same bound over longer runs, at the stall-replay heavy
        cycle-by-cycle end and the L1-access heavy slack end."""
        make_scheme = lambda: SlackConfig(bound=bound)  # noqa: E731
        report, python = kept_blocks(False, make_scheme, steps=steps)
        native_report, native = kept_blocks(True, make_scheme, steps=steps)
        assert native_report.digest() == report.digest()
        assert report.core_steps > 2000
        assert native <= python + self.KEPT_BLOCKS_SLACK

    @pytest.mark.parametrize("steps", (100, 400))
    def test_the_c_deliveries_keep_nothing_per_step(self, steps):
        """The same bound at two lengths of a delivery-heavy run (most
        accesses shared: fills, invalidations, downgrades and dirty-victim
        writebacks, with their refills, all in C)."""
        make_scheme = lambda: SlackConfig(bound=16)  # noqa: E731
        report, python = kept_blocks(False, make_scheme, steps=steps, shared_fraction=0.8)
        native_report, native = kept_blocks(True, make_scheme, steps=steps, shared_fraction=0.8)
        assert native_report.digest() == report.digest()
        assert report.core_steps > 7 * steps
        assert native <= python + self.KEPT_BLOCKS_SLACK

    def test_runaway_errors_match(self):
        runs = [
            trajectory(make_sim(), [(None, native)], max_target_cycles=300)
            for native in (False, True)
        ]
        assert runs[0][0].startswith("DeadlockError: target execution exceeded 300")
        assert runs[1] == runs[0]


@needs_native
class TestNativeStep:
    """Exact counts of the Python calls the C core step saves: a plain
    run of the fused fast pipeline makes none to the core step, the stall
    replay, the L1 access, the InQ delivery, the fill or the program
    refill, and an icache run takes the Python step on every core step."""

    def _python_calls(self, sim):
        watched = {
            CoreRunner.step.__code__: "step",
            CoreRunner._replay_stall.__code__: "replay_stall",
            L1Cache.access_line.__code__: "access_line",
            CoreRunner._apply.__code__: "apply",
            CoreModel.complete_fill.__code__: "complete_fill",
            L1Cache.fill.__code__: "l1_fill",
            ProgramInterpreter._step.__code__: "interpret",
        }
        counts = dict.fromkeys(watched.values(), 0)

        def profile(frame, event, arg):
            if event == "call":
                name = watched.get(frame.f_code)
                if name is not None:
                    counts[name] += 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            report = sim.run()
        finally:
            sys.setprofile(previous)
        return report, counts

    @pytest.mark.parametrize("case", sorted(TestReplayedWork.CASES))
    def test_a_plain_run_makes_no_python_core_step(self, case):
        report, counts = self._python_calls(
            make_sim(scheme=TestReplayedWork.CASES[case][0]())
        )
        assert report.core_steps == TestReplayedWork.CASES[case][1]
        assert counts == {
            "step": 0, "replay_stall": 0, "access_line": 0, "apply": 0, "complete_fill": 0,
            "l1_fill": 0, "interpret": 0,
        }

    def test_an_icache_run_takes_the_python_step(self):
        target = quick_target_config(num_cores=4)
        sim = Simulation(
            make_workload("synthetic", num_threads=4, steps=40, shared_lines=8, barrier_every=20),
            scheme=SlackConfig(bound=2),
            target=dataclasses.replace(
                target, core=dataclasses.replace(target.core, model_icache=True)
            ),
            host=HostConfig(num_contexts=4),
            seed=1,
        )
        report, counts = self._python_calls(sim)
        assert counts["step"] == report.core_steps > 0
        assert counts["access_line"] > 0 and counts["apply"] > 0 and counts["interpret"] > 0

    @pytest.mark.parametrize(
        "owner, name",
        [(CoreRunner, "_apply"), (L1Cache, "fill"), (ProgramInterpreter, "_step")],
    )
    def test_a_wrapped_copy_sends_every_core_to_the_python_step(self, owner, name):
        """Wrapping a method the C core step copies steps every core in
        Python, which makes every call to it, with the same digest."""
        plain = make_sim(scheme=SlackConfig(bound=0)).run()
        method, calls = getattr(owner, name), []

        def counted(*args):
            calls.append(name)
            return method(*args)

        static = isinstance(vars(owner)[name], staticmethod)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(owner, name, staticmethod(counted) if static else counted)
            run = make_sim(scheme=SlackConfig(bound=0)).start(None)
            run.advance()
            report = run.report()
        paths = run.scheduler.path_counts
        assert calls and report.digest() == plain.digest()
        assert paths["core_c"] == paths["deliveries_c"] == paths["refills_c"] == 0
        assert paths["core_python"] == report.core_steps

    #: Plain runs whose C core steps keep their mirror from one sync
    #: point to the next.
    MIRRORED = {
        "cc": lambda: SlackConfig(bound=0),
        "slack": lambda: SlackConfig(bound=16),
        "speculative": lambda: SpeculativeConfig(
            base=AdaptiveConfig(target_rate=1e-3, adjust_period=50),
            checkpoint=CheckpointConfig(interval=100_000),
        ),
    }

    @pytest.mark.parametrize("case", sorted(MIRRORED))
    def test_mirror_loads_follow_callbacks_not_steps(self, case):
        """A core loads its mirror at its first C step and again only
        after a sync point that may have moved it: ``_issue_op`` (a
        barrier, THREAD_END) or a rollback's new root.  So the loads do
        not grow with the program, only with its sync ops and rollbacks:
        each of the 4 cores loads once at the start, once after its
        THREAD_END (it steps again to drain its InQ), once after each
        barrier and once after each rollback."""
        counted = {}
        for steps in (40, 80):
            for barrier_every in (0, 20):
                workload = make_workload(
                    "synthetic", num_threads=4, steps=steps, shared_lines=8,
                    barrier_every=barrier_every,
                )
                sim = make_sim(scheme=self.MIRRORED[case](), workload=workload)
                with loop(False):
                    sim.run(None)
                cap = local_cap(sim)
                run = make_sim(scheme=self.MIRRORED[case](), workload=workload).start(cap)
                run.advance()
                report, paths = run.report(), run.scheduler.path_counts
                assert paths["core_python"] == 0 and paths["core_c"] == report.core_steps
                barriers = steps // barrier_every if barrier_every else 0
                assert paths["mirror_loads"] == 4 * (2 + barriers + report.rollbacks)
                assert paths["mirror_flushes"] > 0
                counted[steps, barrier_every] = (
                    paths["mirror_loads"], paths["mirror_flushes"], report.core_steps
                )
        # Write-backs follow the same sync points.
        assert counted[40, 0][:2] == counted[80, 0][:2]
        assert counted[80, 0][2] > 1.5 * counted[40, 0][2]

    def test_the_python_loop_counts_no_mirror(self):
        with loop(False):
            run = make_sim().start(None)
            run.advance()
        paths = run.scheduler.path_counts
        assert paths["mirror_loads"] == paths["mirror_flushes"] == 0

    @staticmethod
    def mirrored_fields(model):
        """Every field the C core step mirrors, of one model and its L1."""
        l1 = model.l1
        array, mshrs, op = l1.array, l1.mshrs, model._current_op
        return (
            model.core_id,
            (model.cycles, model.stall_cycles, model.sync_stall_cycles, model.instructions),
            (model._issue_seq, model._fetch_seq, model._compute_remaining, model._compute_rate),
            None if op is None else (op.kind, op.arg1, op.arg2),
            list(model._pending_loads),
            (model.waiting_sync, model.finished),
            (l1.loads, l1.stores, l1.load_misses, l1.store_misses, l1.upgrades),
            (l1.writebacks, l1.snoop_invalidations, l1.snoop_downgrades),
            (array.hits, array.misses, array._clock, array.evictions),
            (mshrs.merges, mshrs.full_stalls, mshrs.allocations, sorted(mshrs._entries)),
        )

    #: Runs whose cores call ``_issue_op`` for locks, barriers and
    #: THREAD_END, and one that rolls back.
    ISSUING = {
        **{
            case: lambda case=case: make_sim(
                scheme=(
                    TestReplayedWork.CASES["speculative"][0]
                    if case == "speculative" else TestNativeStep.MIRRORED[case]
                )(),
                workload=make_workload(
                    "synthetic", num_threads=4, steps=40, shared_lines=8, lock_every=7,
                    barrier_every=10,
                ),
            )
            for case in ("cc", "slack", "speculative")
        },
        "rollback": lambda: build(TestNativeLoop.ROLLBACK),
    }

    @pytest.mark.parametrize("case", sorted(ISSUING))
    def test_issue_op_sees_what_the_python_step_leaves(self, case):
        """``_issue_op`` is a sync point: it is not copied, so wrapping it
        keeps the C step, and the wrapper sees every mirrored field of
        its model and L1 as the Python step leaves them, at every call."""
        issue_op = CoreModel._issue_op
        runs, cap = [], None
        for native in (False, True):
            records = []

            def recorded(model, op):
                records.append((TestNativeStep.mirrored_fields(model), op.kind))
                return issue_op(model, op)

            with loop(native), pytest.MonkeyPatch.context() as patch:
                patch.setattr(CoreModel, "_issue_op", recorded)
                sim = self.ISSUING[case]()
                run = sim.start(cap)
                run.advance()
            cap = local_cap(sim)
            runs.append((records, run.report().digest(), run.scheduler.path_counts))
        (python, digest, _), (native, native_digest, paths) = runs
        assert native_digest == digest
        assert paths["core_python"] == 0 and paths["core_c"] > 0
        assert native == python
        kinds = {kind for _, kind in python}
        if case == "rollback":
            assert kinds == {OpKind.THREAD_END} and run.report().rollbacks > 0
        else:
            assert kinds == {OpKind.LOCK, OpKind.UNLOCK, OpKind.BARRIER, OpKind.THREAD_END}

    def test_a_hook_that_acted_may_move_a_core(self):
        """A controller other than the exact CheckpointController keeps
        the Python manager step, which leaves every mirror loaded; its
        hook may move any core, so a hook that acted marks every mirror
        stale.  Here each checkpoint it takes bumps every model's
        ``cycles``, which the C step moves at every step after it."""
        hook = CheckpointController.after_manager_step

        class Moving(CheckpointController):
            def after_manager_step(self, scheduler, outcome, now):
                acted = hook(self, scheduler, outcome, now)
                if acted:
                    for cs in scheduler.sim.state.cores:
                        cs.model.cycles += 1
                return acted

        runs, cap = [], None
        for native in (False, True):
            sim = make_sim(scheme=TestNativeManager.PLAIN["speculative"]())
            sim.controller.__class__ = Moving
            with loop(native):
                run = sim.start(cap)
                run.advance()
            cap = local_cap(sim)
            runs.append((run.report().digest(), model_state(sim.state), run.report().checkpoints))
        assert runs[1] == runs[0] and runs[0][2] > 0
        assert run.scheduler.path_counts["manager_c"] == 0 and run.scheduler.path_counts["core_c"] > 0

    @staticmethod
    def held(sim):
        """How many references hold each core's L1 banks, MSHR entries,
        pending loads and current op."""
        counts = []
        for cs in sim.state.cores:
            model = cs.model
            array = model.l1.array
            objects = [
                array._tag, array._state, array._lru, array._index, model.l1.mshrs._entries,
                model._pending_loads,
            ]
            if model._current_op is not None:
                objects.append(model._current_op)
            counts.append([sys.getrefcount(obj) for obj in objects])
        return counts

    def test_the_mirror_holds_nothing_after_a_cut(self):
        held, cap = [], None
        for native in (False, True):
            sim = make_sim(scheme=SlackConfig(bound=16))
            with loop(native):
                run = sim.start(cap)
                run.advance(150)
            cap = local_cap(sim)
            gc.collect()
            held.append((self.held(sim), run.scheduler.path_counts["core_c"]))
        (python, _), (native, core_c) = held
        assert core_c > 0 and native == python

    @pytest.mark.parametrize("case", sorted(TestNativeLoop.BROKEN_PROGRAMS))
    def test_the_mirror_holds_nothing_after_an_error(self, case):
        held, cap = [], None
        for native in (False, True):
            sim = make_sim(workload=Workload("broken", 4, TestNativeLoop.BROKEN_PROGRAMS[case]))
            failure = None
            with loop(native):
                try:
                    sim.run(cap)
                except Exception as exc:  # the traceback would hold the frames
                    failure = (type(exc), str(exc))
            cap = local_cap(sim)
            gc.collect()
            held.append((failure, self.held(sim)))
        assert held[0][0] is not None
        assert held[1] == held[0]


@needs_native
class TestNativeManager:
    """Exact counts of the Python calls the C manager step saves: a plain
    run with a flat manager pacing one window makes none to the service,
    the bus service, the global time or any array fill (the L2's here,
    the L1s' in the C core step's deliveries), and a run with
    sub-managers, p2p pacing or a DRAM L2 makes one service call per
    real (not replayed) manager step."""

    def _python_calls(self, sim):
        watched = {
            ManagerState.service.__code__: "service",
            ManagerState._serve_bus.__code__: "serve_bus",
            SimulationState.global_time.__code__: "global_time",
            CacheArray.fill.__code__: "fill",
        }
        counts = dict.fromkeys(watched.values(), 0)

        def profile(frame, event, arg):
            if event == "call":
                name = watched.get(frame.f_code)
                if name is not None:
                    counts[name] += 1

        run = sim.start(None)
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            run.advance()
        finally:
            sys.setprofile(previous)
        return run.report(), counts, run.scheduler.path_counts

    PLAIN = {
        "cc": TestReplayedWork.CASES["cc"][0],
        "slack": lambda: SlackConfig(bound=16),
        "speculative": TestReplayedWork.CASES["speculative"][0],
    }

    @pytest.mark.parametrize("case", sorted(PLAIN))
    def test_a_plain_run_makes_no_python_manager_step(self, case):
        report, counts, paths = self._python_calls(make_sim(scheme=self.PLAIN[case]()))
        assert counts == {"service": 0, "serve_bus": 0, "global_time": 0, "fill": 0}
        assert paths["manager_python"] == 0
        assert paths["manager_c"] + paths["manager_replayed"] == report.manager_steps
        assert paths["manager_c"] > 0 and report.bus_requests > 0

    PYTHON = {
        "submanagers": lambda: make_sim(num_submanagers=2),
        "p2p": lambda: make_sim(scheme=P2PConfig(period=40, max_lead=40)),
        "dram": lambda: make_sim(l2=dataclasses.replace(QUICK_TARGET.l2, dram=DramConfig())),
    }

    @pytest.mark.parametrize("case", sorted(PYTHON))
    def test_other_runs_keep_the_python_manager(self, case):
        report, counts, paths = self._python_calls(self.PYTHON[case]())
        assert paths["manager_c"] == 0
        assert counts["service"] == paths["manager_python"]
        assert paths["manager_python"] + paths["manager_replayed"] == report.manager_steps

    #: Controller hooks a plain speculative run skips and calls after its
    #: real manager steps on the C loop.
    SPECULATIVE_HOOKS = (1378, 20)

    @pytest.mark.parametrize("case", ("cc", "p2p", "icache", "speculative"))
    def test_path_counts_add_up_on_both_loops(self, case):
        """Each loop counts every step and every controller hook once, on
        the path it took."""

        def build_case():
            if case == "speculative":
                return make_sim(scheme=TestReplayedWork.CASES["speculative"][0]())
            if case == "p2p":
                return make_sim(scheme=P2PConfig(period=40, max_lead=40))
            if case == "icache":
                target = quick_target_config(num_cores=4)
                return Simulation(
                    make_workload("synthetic", num_threads=4, steps=40, shared_lines=8),
                    scheme=SlackConfig(bound=0),
                    target=dataclasses.replace(
                        target, core=dataclasses.replace(target.core, model_icache=True)
                    ),
                    host=HostConfig(num_contexts=4),
                )
            return make_sim(scheme=SlackConfig(bound=0))

        counted = []
        for native in (False, True):
            with loop(native):
                run = build_case().start(None)
                run.advance()
            stats, paths = run.scheduler.stats, run.scheduler.path_counts
            manager = paths["manager_c"] + paths["manager_python"] + paths["manager_replayed"]
            assert manager == stats.manager_steps
            assert paths["core_c"] + paths["core_python"] == stats.core_steps
            totals = (
                stats.manager_steps,
                stats.core_steps,
                paths["deliveries_c"] + paths["deliveries_python"],
                paths["refills_c"] + paths["refills_python"],
                paths["hooks_c"] + paths["hooks_python"],
            )
            counted.append((paths, totals, stats))
        (python, python_totals, _), (native, native_totals, stats) = counted
        assert native_totals == python_totals
        assert python_totals[2] > 0
        assert python["manager_c"] == python["core_c"] == 0
        assert python["deliveries_c"] == python["refills_c"] == python["hooks_c"] == 0
        assert native["manager_replayed"] == python["manager_replayed"]
        if case == "speculative":
            # The Python loop calls the hook after every real manager
            # step; the C loop calls it only where it may act, and every
            # checkpoint and rollback is such a call.
            assert python["hooks_python"] == stats.manager_steps - python["manager_replayed"]
            assert native["hooks_python"] >= stats.checkpoints + stats.rollbacks
            assert (native["hooks_c"], native["hooks_python"]) == self.SPECULATIVE_HOOKS
            return
        # No controller: no hook on either loop.
        assert python_totals[4] == 0
        if case == "cc":
            assert native["manager_python"] == native["core_python"] == 0
            # Every delivery and refill the C step makes is made in C.
            assert native["deliveries_python"] == native["refills_python"] == 0
            assert native["deliveries_c"] > 0 and native["refills_c"] > 0
        elif case == "p2p":
            assert native["manager_c"] == 0 and native["core_python"] == 0
            assert native["deliveries_python"] == native["refills_python"] == 0
        else:
            assert native["core_c"] == 0 and native["manager_python"] == 0
            assert native["deliveries_c"] == native["refills_c"] == 0
            # The icache pipeline refills inside CoreModel.cycle.
            assert native["refills_python"] == python["refills_python"] > 0

    def test_a_plain_speculative_run_calls_the_hook_only_where_it_may_act(self):
        """The C manager step reads the controller's boundary and replay
        flag instead of calling ``overrides()``, and the C loop decides the
        hook's idle case without ``_parked``: the hook runs only on the
        steps counted as ``hooks_python``, and every ``_parked`` call (from
        inside the hook) finds the machine parked and takes a checkpoint
        (the time-zero one is ``on_run_start``'s)."""
        watched = {
            CheckpointController.overrides.__code__: "overrides",
            CheckpointController._parked.__code__: "parked",
            CheckpointController.after_manager_step.__code__: "hook",
        }
        counts = dict.fromkeys(watched.values(), 0)

        def profile(frame, event, arg):
            if event == "call":
                name = watched.get(frame.f_code)
                if name is not None:
                    counts[name] += 1

        run = make_sim(scheme=self.PLAIN["speculative"]()).start(None)
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            run.advance()
        finally:
            sys.setprofile(previous)
        paths, stats = run.scheduler.path_counts, run.scheduler.stats
        assert counts == {
            "overrides": 0, "parked": stats.checkpoints - 1, "hook": paths["hooks_python"],
        }
        assert (paths["hooks_c"], paths["hooks_python"]) == self.SPECULATIVE_HOOKS

    @pytest.mark.parametrize("how", ("class", "instance", "subclass"))
    def test_a_wrapped_hook_is_called_after_every_real_manager_step(self, how):
        """A hook wrapped on the class or on the instance, or overridden
        by a subclass, is called after every manager step that was not a
        settled poll, as on the Python loop, with the same digest."""
        make_scheme = self.PLAIN["speculative"]
        plain = make_sim(scheme=make_scheme()).run()
        hook, calls = CheckpointController.after_manager_step, []

        def counted(self, *args):
            calls.append(args[1].global_time)
            return hook(self, *args)

        class Counting(CheckpointController):
            after_manager_step = counted

        with pytest.MonkeyPatch.context() as patch:
            if how == "class":
                patch.setattr(CheckpointController, "after_manager_step", counted)
            sim = make_sim(scheme=make_scheme())
            if how == "instance":
                sim.controller.after_manager_step = counted.__get__(sim.controller)
            elif how == "subclass":
                sim.controller.__class__ = Counting
            run = sim.start(None)
            run.advance()
            report = run.report()
        paths = run.scheduler.path_counts
        assert report.digest() == plain.digest()
        assert len(calls) == report.manager_steps - paths["manager_replayed"]
        assert paths["hooks_python"] == len(calls) and paths["hooks_c"] == 0
        assert paths["manager_c"] == 0

    def test_the_examples_reach_their_paths(self):
        """TestNativeLoop's REQUEUE example requeues a batch behind a sync
        grant, its ROLLBACK example rolls back on a small L2, and its TIES
        example merges equal arrival keys."""
        settled, tied = [], []
        serve, merge = ManagerState._serve, ManagerState._merge_outqs

        def watched_serve(self, sim, conservative):
            served = serve(self, sim, conservative)
            settled.append(self._outcome.settled)
            return served

        def watched_merge(self, sim, core_ids=None):
            keys = [(m.host_time, m.core_id) for cs in sim.cores for m in cs.outq]
            tied.append(len(set(keys)) < len(keys))
            return merge(self, sim, core_ids)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ManagerState, "_serve", watched_serve)
            patch.setattr(ManagerState, "_merge_outqs", watched_merge)
            build(TestNativeLoop.REQUEUE).run()
            build(TestNativeLoop.TIES).run()
        assert False in settled
        assert True in tied
        report = build(TestNativeLoop.ROLLBACK).run()
        assert report.rollbacks >= 1


class TestLoopBuild:
    def test_the_c_loop_loads_wherever_it_can_be_built(self):
        """Where a C compiler and Python.h exist the C loop must load, so
        a broken build fails here instead of falling back silently."""
        compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")[0]
        header = pathlib.Path(sysconfig.get_paths()["include"]) / "Python.h"
        if shutil.which(compiler) is None or not header.exists():
            pytest.skip("no C compiler or no Python.h on this host")
        assert NATIVE is not None

    def test_a_rebuild_removes_the_stale_builds(self, tmp_path):
        """A build removes the builds of older sources beside it (and
        nothing else); a warm import removes nothing."""
        src = pathlib.Path(scheduler_mod.__file__).resolve().parents[2]
        shutil.copytree(
            src / "repro", tmp_path / "repro", ignore=shutil.ignore_patterns("__pycache__")
        )
        cache = tmp_path / "repro" / "core" / "__pycache__"
        cache.mkdir()
        suffix = sysconfig.get_config_var("EXT_SUFFIX")
        stale = cache / f"_loop.0123456789abcdef{suffix}"
        others = [cache / f"_loop.0123456789abcdef{suffix}.77.tmp", cache / "threads.pyc"]
        for path in [stale, *others]:
            path.write_bytes(b"")
        body = "import repro.core.scheduler as s\nprint(s._loop.__file__)\n"

        def load():
            done = subprocess.run(
                [sys.executable, "-c", body],
                env=dict(os.environ, PYTHONPATH=str(tmp_path)),
                capture_output=True, text=True, timeout=300, check=True,
            )
            return pathlib.Path(done.stdout.strip())

        built = load()
        assert re.fullmatch(r"_loop\.[0-9a-f]{16}" + re.escape(suffix), built.name)
        assert sorted(cache.glob("_loop.*")) == sorted([built, others[0]])
        assert others[1].exists()
        stale.write_bytes(b"")
        assert load() == built
        assert stale.exists()

    def test_without_a_compiler_the_python_loop_gives_the_same_digest(self, tmp_path):
        """A fresh copy of the sources on a host whose compiler is
        missing builds nothing, keeps the Python loop and digests alike."""
        src = pathlib.Path(scheduler_mod.__file__).resolve().parents[2]
        shutil.copytree(
            src / "repro", tmp_path / "repro", ignore=shutil.ignore_patterns("__pycache__")
        )
        body = (
            "import sysconfig\n"
            "sysconfig.get_config_vars()['CC'] = '/nonexistent/cc'\n"
            "import repro.core.scheduler as s\n"
            "assert s._loop is None, s._loop\n"
            "from repro import Simulation, SlackConfig\n"
            "from repro.workloads import make_workload\n"
            "print(Simulation(make_workload('fft', num_threads=4, scale=0.05),"
            " scheme=SlackConfig(bound=0)).run().digest())\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", body],
            env=dict(os.environ, PYTHONPATH=str(tmp_path)),
            capture_output=True, text=True, timeout=300, check=True,
        )
        expected = Simulation(
            make_workload("fft", num_threads=4, scale=0.05), scheme=SlackConfig(bound=0)
        ).run().digest()
        assert done.stdout.split() == [expected]
        assert not list((tmp_path / "repro" / "core").glob("__pycache__/_loop.*"))
