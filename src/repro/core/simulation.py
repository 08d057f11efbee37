"""Top-level simulation façade: the library's main entry point.

Typical use::

    from repro import Simulation, SlackConfig
    from repro.workloads import make_workload

    workload = make_workload("fft", num_threads=8)
    report = Simulation(workload, scheme=SlackConfig(bound=4)).run()
    print(report.summary())

A :class:`Simulation` wires the target CMP (cores + L1s, bus, L2), the
workload's per-thread programs, the slack-scheme policy, violation
detection, and — when requested — the checkpoint/speculation controller,
then runs everything on the modeled host and produces a
:class:`~repro.core.report.SimulationReport`.

:meth:`Simulation.start` returns the :class:`Run` handle — the one
cut / resume driver.  ``Simulation.run()`` is ``start()`` advanced to
completion; a caller that needs a mid-run state (encoding the machine at
a cut, diffing two runs) advances the same handle one cut at a time.
"""

from __future__ import annotations

import gc
from typing import Callable, Optional

from repro.config import (
    CheckpointConfig,
    HostConfig,
    SchemeConfig,
    SlackConfig,
    SpeculativeConfig,
    TargetConfig,
    paper_host_config,
    paper_target_config,
)
from repro.core.manager import ManagerState, ServiceOutcome
from repro.core.report import IntervalSummary, SimulationReport
from repro.core.scheduler import Scheduler
from repro.core.schemes import make_policy
from repro.core.schemes.adaptive import AdaptiveSlackPolicy
from repro.core.speculative import CheckpointController
from repro.core.state import CoreState, SimulationState
from repro.core.violations import ViolationDetector
from repro.cpu.core import CoreModel
from repro.errors import ConfigError
from repro.isa.program import ProgramInterpreter
from repro.sync.primitives import SyncTimingConfig
from repro.telemetry import TelemetrySession
from repro.util import SplitMix64

#: Default runaway-simulation guard, in target cycles.
DEFAULT_MAX_TARGET_CYCLES = 20_000_000


class Simulation:
    """One configured simulation run."""

    def __init__(
        self,
        workload,
        scheme: Optional[SchemeConfig] = None,
        target: Optional[TargetConfig] = None,
        host: Optional[HostConfig] = None,
        detection: bool = True,
        checkpoint: Optional[CheckpointConfig] = None,
        sync_timing: Optional[SyncTimingConfig] = None,
        seed: int = 12345,
        telemetry: Optional[TelemetrySession] = None,
        sanitizer=None,
    ) -> None:
        self.workload = workload
        self.target = target or paper_target_config()
        self.host = host or paper_host_config()
        self.seed = seed
        # Telemetry is observation-only: probes never touch simulation
        # state, RNG draws, or modeled host costs, so the report digest is
        # identical whether a session is attached, disabled, or absent.
        self.telemetry = telemetry
        # The slack sanitizer (repro.analysis.sanitizer.SlackSanitizer)
        # shares the same contract: observation-only, shared across
        # checkpoint snapshots, digest-invariant — it raises on breach but
        # never alters a healthy run.
        self.sanitizer = sanitizer
        self.scheme_config = scheme if scheme is not None else SlackConfig(bound=0)

        speculate = False
        tracked: tuple = ()
        base_config = self.scheme_config
        if isinstance(self.scheme_config, SpeculativeConfig):
            speculate = True
            tracked = self.scheme_config.tracked
            base_config = self.scheme_config.base
            if checkpoint is not None:
                raise ConfigError(
                    "SpeculativeConfig carries its own checkpoint config; "
                    "do not also pass checkpoint="
                )
            checkpoint = self.scheme_config.checkpoint
        if speculate and not detection:
            raise ConfigError("speculative slack requires violation detection")

        if workload.num_threads > self.target.num_cores:
            raise ConfigError(
                f"workload has {workload.num_threads} threads but the target "
                f"has only {self.target.num_cores} cores"
            )

        seeds = SplitMix64(seed)
        policy = make_policy(base_config, self.target.num_cores, seeds.next_u64())
        detector = ViolationDetector(enabled=detection)

        programs = list(workload.programs(seeds.next_u64()))
        # Idle cores run an empty program (immediate THREAD_END).
        while len(programs) < self.target.num_cores:
            programs.append(ProgramInterpreter((), len(programs), seeds.next_u64()))

        cores = [
            CoreState(i, CoreModel(i, self.target, program))
            for i, program in enumerate(programs)
        ]
        manager = ManagerState(self.target, detector, sync_timing)
        self.state = SimulationState(self.target, cores, manager, policy)

        if telemetry is not None:
            # Probe wiring: the session is shared (its __deepcopy__ returns
            # self), so checkpoints snapshot around it, never through it.
            telemetry.attach(self.target.num_cores)
            manager.telemetry = telemetry
            policy.telemetry = telemetry
            for cs in cores:
                cs.model.telemetry = telemetry

        if sanitizer is not None:
            sanitizer.attach(self.target.num_cores)
            manager.sanitizer = sanitizer

        self.controller: Optional[CheckpointController] = None
        if checkpoint is not None:
            self.controller = CheckpointController(
                self, checkpoint, self.host.cost, speculate=speculate, tracked=tracked
            )
        self._ran = False

    # ------------------------------------------------------------------ #

    def start(
        self, max_target_cycles: Optional[int] = DEFAULT_MAX_TARGET_CYCLES
    ) -> "Run":
        """Begin the (single) run of this Simulation; return its handle.

        A Simulation is single-shot: its state is consumed by the run.
        Build a fresh Simulation (same arguments, same seed) to repeat a
        run bit-for-bit.
        """
        if self._ran:
            raise ConfigError(
                "this Simulation has already run; construct a new one "
                "(same arguments and seed reproduce the run exactly)"
            )
        self._ran = True
        return Run(self, max_target_cycles)

    def run(self, max_target_cycles: Optional[int] = DEFAULT_MAX_TARGET_CYCLES) -> SimulationReport:
        """Run to workload completion; return the report."""
        run = self.start(max_target_cycles)
        run.advance()
        return run.report()

    # ------------------------------------------------------------------ #

    def _build_report(self, scheduler: Scheduler) -> SimulationReport:
        stats = scheduler.stats
        state = self.state
        manager = state.manager
        detector = manager.detector
        execution_time = state.execution_time()
        instructions = state.total_instructions()

        per_core_cpi = []
        total_core_cycles = 0
        for cs in state.cores:
            total_core_cycles += cs.local_time
            if cs.model.instructions:
                per_core_cpi.append(cs.local_time / cs.model.instructions)
            else:
                per_core_cpi.append(0.0)

        l1_accesses = sum(cs.model.l1.loads + cs.model.l1.stores for cs in state.cores)
        l1_misses = sum(
            cs.model.l1.load_misses + cs.model.l1.store_misses + cs.model.l1.upgrades
            for cs in state.cores
        )

        report = SimulationReport(
            benchmark=self.workload.name,
            scheme=self.scheme_config.kind,
            num_cores=self.target.num_cores,
            seed=self.seed,
            target_cycles=execution_time,
            instructions=instructions,
            cpi=(total_core_cycles / instructions) if instructions else 0.0,
            per_core_cpi=per_core_cpi,
            l1_miss_rate=(l1_misses / l1_accesses) if l1_accesses else 0.0,
            l2_miss_rate=manager.l2.miss_rate(),
            bus_requests=manager.bus.requests,
            bus_conflict_cycles=manager.bus.request_conflict_cycles
            + manager.bus.response_conflict_cycles,
            violation_counts=dict(detector.counts),
            violation_rate=detector.rate(execution_time),
            bus_violation_rate=detector.rate_of("bus", execution_time),
            map_violation_rate=detector.rate_of("map", execution_time),
            detection_enabled=detector.enabled,
            sim_time_s=scheduler.simulation_time_ns() / 1e9,
            manager_steps=stats.manager_steps,
            core_steps=stats.core_steps,
            manager_busy_s=stats.manager_busy_ns / 1e9,
            submanager_busy_s=stats.submanager_busy_ns / 1e9,
            checkpoints=stats.checkpoints,
            checkpoint_cost_s=stats.checkpoint_cost_ns / 1e9,
            rollbacks=stats.rollbacks,
            rollback_cost_s=stats.rollback_cost_ns / 1e9,
            wasted_target_cycles=stats.wasted_target_cycles,
            replay_target_cycles=stats.replay_target_cycles,
        )

        report.stall_cycles = sum(cs.model.stall_cycles for cs in state.cores)
        report.sync_stall_cycles = sum(cs.model.sync_stall_cycles for cs in state.cores)
        report.ifetch_stall_cycles = sum(
            cs.model.ifetch_stall_cycles for cs in state.cores
        )

        policy = state.scheme
        if isinstance(policy, AdaptiveSlackPolicy):
            report.final_bound = policy.bound
            report.average_bound = policy.average_bound(execution_time)
            report.bound_adjustments = policy.adjustments
            report.bound_history = list(policy.history)

        if self.controller is not None:
            report.intervals = [
                IntervalSummary(
                    index=r.index,
                    start=r.start,
                    end=r.end,
                    violations=r.violations,
                    first_offset=r.first_offset,
                    rolled_back=r.rolled_back,
                )
                for r in self.controller.finalize()
            ]
        return report


def cut_rule(sim: Simulation, boundary: int) -> Callable[[ServiceOutcome], bool]:
    """The ``Scheduler.run(stop_when=...)`` predicate for one cut.

    Evaluated at the end of every manager step, the one program point
    where every scheduler loop invariant holds.  Plain schemes cut at the
    first manager step whose global time has reached ``boundary``.
    Checkpointing runs (a :class:`CheckpointController` is attached) cut
    only at the end of the manager step in which a checkpoint at or past
    ``boundary`` was taken, outside any replay window — so the cut state
    always coincides with the controller's own rollback snapshot and a
    mid-replay trajectory is never split.  A cut never mutates clocks or
    state: it merely partitions the deterministic trajectory.
    """
    controller = sim.controller
    if controller is not None:

        def stop_at_checkpoint(outcome: ServiceOutcome) -> bool:
            snap = controller.snapshot
            return (
                not controller.replaying
                and snap is not None
                and snap.boundary >= boundary
            )

        return stop_at_checkpoint

    def stop_at_global_time(outcome: ServiceOutcome) -> bool:
        return outcome.global_time >= boundary

    return stop_at_global_time


class Run:
    """The resumable execution of one :class:`Simulation`.

    Owns the :class:`Scheduler`, the time-zero checkpoint, the GC
    discipline and the cut rule.  :meth:`advance` suspends at a *cut*;
    the scheduler leaves every piece of its state exactly as its loop
    maintains it, so the next ``advance`` continues the trajectory
    bit-for-bit as if it had never stopped.  ``sim`` and ``scheduler``
    are public: checkpoint charging and the machine encoder act on them.
    """

    def __init__(self, sim: Simulation, max_target_cycles: Optional[int]) -> None:
        self.sim = sim
        self.scheduler = Scheduler(sim, sim.host)
        self._max_target_cycles = max_target_cycles
        if sim.controller is not None:
            sim.controller.on_run_start(self.scheduler)

    @property
    def completed(self) -> bool:
        """The scheduler loop's own termination condition: workload done
        and every queue drained — what tells 'finished' from 'cut'."""
        state = self.sim.state
        return (
            state.all_finished
            and state.manager.quiescent(state)
            and all(not cs.inq for cs in state.cores)
        )

    @property
    def position(self) -> int:
        """Where the run is cut: the controller's checkpoint boundary on
        a checkpointing run (cuts land exactly on checkpoints), else the
        global time.  Both are first-manager-step-reaching positions, so
        a later run advanced to a recorded position stops at the
        *identical* machine state."""
        controller = self.sim.controller
        if controller is not None and controller.snapshot is not None:
            return controller.snapshot.boundary
        return self.sim.state.global_time()

    def advance(self, until: Optional[int] = None) -> bool:
        """Run to the first cut at or past target time ``until`` (None:
        to completion); return whether the workload completed."""
        stop = None if until is None else cut_rule(self.sim, until)
        # The run allocates heavily but creates almost no cyclic garbage;
        # collector pauses are pure overhead here.  Refcounting still frees
        # everything promptly; cycles (if any) are collected afterwards.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self.scheduler.run(self._max_target_cycles, stop)
        finally:
            if gc_was_enabled:
                gc.enable()
        return self.completed

    def report(self) -> SimulationReport:
        """The completed run's report."""
        if not self.completed:
            raise ConfigError("the run is cut, not completed; advance() it first")
        return self.sim._build_report(self.scheduler)
