"""Checkpointing and speculative-rollback control (paper section 5).

The controller implements two modes on the same machinery:

- **checkpoint-only** (``speculate=False``): periodic global checkpoints
  are taken and charged, and per-interval violation statistics are
  recorded.  This is exactly how the paper produced Table 2's 5K-100K
  columns and the F / D_r measurements of Tables 3 and 4.
- **full speculation** (``speculate=True``): additionally, whenever a
  *tracked* violation is detected, the simulation rolls back to the last
  checkpoint and replays in cycle-by-cycle mode until the next boundary
  (the forward-progress guarantee), then resumes the base scheme.  The
  paper modeled this analytically (section 5.2); here it is implemented in
  full, as extension E1.

The four critical mechanisms (section 5): 1) checkpointing, 2) violation
detection, 3) rollback, 4) forward progress.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.config import CheckpointConfig, HostCostModel
from repro.core.checkpoint import Snapshot, charged_checkpoint, charged_rollback
from repro.core.manager import ServiceOutcome
from repro.core.scheduler import copied_controller


class IntervalRecord:
    """Violation statistics for one checkpoint interval."""

    __slots__ = ("index", "start", "end", "violations", "first_offset", "rolled_back")

    def __init__(self, index: int, start: int, end: int) -> None:
        self.index = index
        self.start = start
        self.end = end
        self.violations = 0
        self.first_offset: Optional[int] = None  # target cycles into interval
        self.rolled_back = False

    @property
    def violated(self) -> bool:
        return self.violations > 0


class CheckpointController:
    """Coordinates periodic checkpoints and (optionally) rollback."""

    def __init__(
        self,
        sim,
        config: CheckpointConfig,
        cost: HostCostModel,
        speculate: bool = False,
        tracked: Tuple[str, ...] = ("bus", "map"),
    ) -> None:
        self.sim = sim
        self.config = config
        self.cost = cost
        self.speculate = speculate
        self.tracked = frozenset(tracked)
        self.snapshot: Optional[Snapshot] = None
        self.next_boundary = config.interval
        self.replaying = False
        self.records: List[IntervalRecord] = []
        self._current = IntervalRecord(0, 0, config.interval)

    # ------------------------------------------------------------------ #
    # Scheduler integration
    # ------------------------------------------------------------------ #

    def on_run_start(self, scheduler) -> None:
        """Take the initial (time-zero) checkpoint before simulation."""
        self._checkpoint(scheduler, 0)

    def overrides(self) -> Dict[str, object]:
        """Manager-service overrides for the current mode."""
        overrides: Dict[str, object] = {"window_cap": self.next_boundary}
        if self.replaying:
            overrides["force_window"] = 1
            overrides["conservative"] = True
            overrides["control_enabled"] = False
        return overrides

    def after_manager_step(
        self, scheduler, outcome: ServiceOutcome, host_end: float
    ) -> bool:
        """React to violations and boundary arrivals; return True when a
        rollback or a checkpoint was taken."""
        violations = outcome.violations
        if violations:
            for violation in violations:
                self._note_violation(violation)
            if self.speculate and not self.replaying:
                if any(v.vtype in self.tracked for v in violations):
                    self._rollback(scheduler, outcome, host_end)
                    return True

        state = self.sim.state
        if state.all_finished:
            return False
        if self._parked(state) and state.manager.quiescent(state):
            self._checkpoint(scheduler, self.next_boundary)
            return True
        return False

    def finalize(self) -> List[IntervalRecord]:
        """Close the trailing partial interval and return all records."""
        state = self.sim.state
        if state.execution_time() > self._current.start:
            self._current.end = min(self._current.end, state.execution_time())
            self.records.append(self._current)
            self._current = IntervalRecord(
                self._current.index + 1, self._current.end, self._current.end
            )
        return self.records

    # ------------------------------------------------------------------ #

    def _parked(self, state) -> bool:
        """True when no core can move before the boundary.

        A core blocked on workload synchronization with an empty InQ (and a
        quiescent manager, checked by the caller) is legitimately frozen
        below the boundary: in the target execution that barrier/lock wait
        simply spans the checkpoint time.
        """
        for cs in state.cores:
            if cs.finished or cs.local_time >= self.next_boundary:
                continue
            if cs.model.waiting_sync and not cs.inq:
                continue
            return False
        return True

    def _note_violation(self, violation) -> None:
        record = self._current
        record.violations += 1
        offset = violation.ts - record.start
        if offset < 0:
            offset = 0
        elif offset > self.config.interval:
            offset = self.config.interval
        if record.first_offset is None:
            record.first_offset = offset

    def _checkpoint(self, scheduler, boundary: int) -> None:
        """Checkpoint at ``boundary``; every one but the time-zero
        checkpoint also ends a replay and closes the current interval."""
        snapshot, cost = charged_checkpoint(
            scheduler, self.sim.state, boundary, self.cost
        )
        began = snapshot.host_time - cost
        tel = self.sim.telemetry
        if self.replaying:
            scheduler.stats.replay_target_cycles += self.config.interval
            self.replaying = False
            if tel is not None and tel.enabled:
                # Close the replay span before the checkpoint span opens so
                # the controller track stays in timestamp order.
                tel.on_replay_end(began)
        self.snapshot = snapshot
        if tel is not None and tel.enabled:
            tel.on_checkpoint(
                began, cost, boundary, snapshot.pages, snapshot.host_pages
            )
        san = getattr(self.sim, "sanitizer", None)
        if san is not None and san.enabled:
            san.on_checkpoint(snapshot, self.sim.state)
        if boundary:
            self.records.append(self._current)
            self.next_boundary = boundary + self.config.interval
            self._current = IntervalRecord(
                self._current.index + 1, boundary, self.next_boundary
            )

    def _rollback(self, scheduler, outcome: ServiceOutcome, host_end: float) -> None:
        """Restore the last checkpoint; replay conservatively to the next
        boundary (forward progress)."""
        self._current.rolled_back = True
        interval_start = self.next_boundary - self.config.interval
        wasted = max(outcome.global_time - interval_start, 0)
        resume = charged_rollback(scheduler, self.sim, self.snapshot, self.cost, wasted)
        san = getattr(self.sim, "sanitizer", None)
        if san is not None and san.enabled:
            # Digest-check the restored root *before* the post-rollback
            # throttle mutates the scheme bound, and rewind the vector
            # clocks so monotonicity checks restart from the checkpoint.
            san.on_rollback(self.sim.state, self.snapshot)
        self._throttle_after_rollback()
        self.replaying = True
        tel = self.sim.telemetry
        if tel is not None and tel.enabled:
            tel.on_rollback(
                resume - self.cost.rollback_ns, self.cost.rollback_ns,
                outcome.global_time, wasted,
            )

    def _throttle_after_rollback(self) -> None:
        """Clamp an adaptive base scheme to its minimum bound.

        Rolling back restores the checkpointed controller state, erasing
        the violations that *caused* the rollback; without this clamp the
        controller would charge straight back into the same aggressive
        bound, and the erased history would make speculation look
        spuriously cheap.  Throttling on rollback is the section-4 "slack
        throttling" response applied to the strongest possible violation
        signal.
        """
        from repro.core.schemes.adaptive import AdaptiveSlackPolicy

        scheme = self.sim.state.scheme
        if isinstance(scheme, AdaptiveSlackPolicy):
            scheme.bound = scheme.config.min_bound


# The C loop reads the boundary and the replay flag in place of overrides()
# and decides the hook's idle case itself while these are unpatched.
copied_controller(CheckpointController, ("after_manager_step", "_parked", "overrides"))
