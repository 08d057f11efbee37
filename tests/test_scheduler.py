"""Tests for the host-model scheduler: determinism, contexts, pacing,
the exact work the settled-poll and stall replays save, and the exact
cost of a disabled probe seam."""

import gc
import sys

import pytest

from repro import (
    AdaptiveConfig,
    CheckpointConfig,
    HostConfig,
    Simulation,
    SlackConfig,
    SpeculativeConfig,
)
from repro.analysis.sanitizer import SlackSanitizer
from repro.config import quick_target_config
from repro.core.manager import ManagerState
from repro.core.scheduler import Scheduler
from repro.core.threads import CoreRunner
from repro.errors import DeadlockError
from repro.telemetry import TelemetrySession
from repro.workloads import make_workload


def make_sim(
    scheme=None, num_contexts=4, seed=1, workload=None, checkpoint=None,
    telemetry=None, sanitizer=None, **host_kwargs
):
    workload = workload or make_workload(
        "synthetic", num_threads=4, steps=40, shared_lines=8, barrier_every=20
    )
    return Simulation(
        workload,
        scheme=scheme or SlackConfig(bound=2),
        target=quick_target_config(num_cores=4),
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
    #: checkpoint.  Measured on CPython 3.11: cc +1.59 (telemetry) and
    #: +2.34 (sanitizer) bytecodes per step and no call; speculative
    #: +2.92 and +2.67 bytecodes per step and +140 and +60 calls over its
    #: 12 checkpoints (the snapshot deep-copies reach the shared seam).
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
        make_scheme = self.CASES[case][0]
        bare = self._bare_traces.get(case)
        if bare is None:
            bare = self._bare_traces[case] = traced_run(make_sim(scheme=make_scheme()))
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
