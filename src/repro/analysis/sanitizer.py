"""SlackSan: the runtime slack-simulation sanitizer (opt-in).

The paper's correctness argument rests on a handful of timing invariants
that the engine is *supposed* to maintain (sections 2-5):

- **local-time-monotonic** — a core's local clock never moves backwards
  (outside a rollback, which legitimately rewinds the whole state root);
- **slack-bound** — a core never simulates past its ``max_local_time``
  pacing limit, except the sync-grant warp (a descheduled core resuming
  at the grant timestamp);
- **global-time-min** — the manager's global time equals the minimum
  local time over running cores (re-derived independently here);
- **global-time-monotonic** — global time never decreases while the set
  of cores contributing to the minimum is unchanged or shrinking (a core
  resuming from a sync wait re-enters the minimum with a warped clock
  and may legitimately lower it; a rollback rewinds it wholesale);
- **pacing-window** — the active scheme's pacing assignment respects its
  own window: ``max_local <= global + window``, adaptive bounds stay in
  ``[min_bound, max_bound]``, per-scheme constraints hold (see
  :meth:`~repro.core.schemes.base.SchemePolicy.pacing_violation`);
- **service-order** / **service-horizon** — conservative service (the
  cycle-by-cycle / quantum gold standard and the post-rollback replay)
  serves events in nondecreasing timestamp order, strictly below the
  horizon;
- **conservative-violation-free** — conservative service never records a
  simulation violation (the paper's zero-violation guarantee);
- **rollback-state-digest** — restoring a checkpoint reproduces exactly
  the state that was checkpointed (structural digest comparison).

A sanitizer is attached like a telemetry session: the engine's probe
seams hold a reference and guard every call on ``is not None`` (and the
sanitizer's own ``enabled`` flag), so a run without one pays only the
None check and a disabled one that check plus the flag — an exact
bytecode budget in ``tests/test_scheduler.py``.  Like the telemetry
session, the sanitizer deep-copies as itself: checkpoints snapshot
*around* it and its vector clocks survive rollbacks (which reset them
explicitly via :meth:`on_rollback`).

Violations raise :class:`SanitizerError` naming the invariant, the cores
involved, and the target cycle.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError

__all__ = ["SanitizerError", "SlackSanitizer", "state_digest"]

#: ``(core_id, local_time, max_local_time, finished, waiting_sync)`` rows
#: the manager-side checks operate on.
CoreView = Tuple[int, int, Optional[int], bool, bool]


class SanitizerError(SimulationError):
    """A checked timing invariant does not hold.

    Structured: :attr:`invariant` names the broken invariant,
    :attr:`cores` the core ids involved, and :attr:`cycle` the target
    cycle at which the breach was observed.
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        cores: Sequence[int] = (),
        cycle: Optional[int] = None,
    ) -> None:
        self.invariant = invariant
        self.cores = tuple(cores)
        self.cycle = cycle
        where = ""
        if self.cores:
            where += f" cores={list(self.cores)}"
        if cycle is not None:
            where += f" cycle={cycle}"
        super().__init__(f"[{invariant}]{where} {message}")


def state_digest(state) -> str:
    """Structural digest of a :class:`SimulationState` for rollback checks.

    Covers everything a rollback must restore: per-core clocks, pacing
    limits, pipeline/statistic counters, queue contents, manager global
    state, violation-monitor counts, and the scheme's dynamic knobs
    (adaptive bound / quantum).  Host-side objects are deliberately
    excluded — host time is *not* rolled back.
    """
    parts: List[object] = []
    for cs in state.cores:
        model = cs.model
        l1 = model.l1
        parts.append(
            (
                cs.core_id,
                cs.local_time,
                cs.max_local_time,
                model.finished,
                model.waiting_sync,
                model.instructions,
                model.cycles,
                model.stall_cycles,
                model.sync_stall_cycles,
                tuple((msg.core_id, msg.ts) for msg in cs.outq),
                tuple((int(msg.kind), msg.ts, msg.line_addr) for msg in cs.inq),
                l1.loads,
                l1.stores,
                l1.load_misses,
                l1.store_misses,
                l1.upgrades,
            )
        )
    manager = state.manager
    parts.append(
        (
            manager.global_time,
            manager.events_served,
            tuple((msg.core_id, msg.ts) for msg in manager.gq),
            tuple(sorted(manager.detector.counts.items())),
            manager.bus.requests,
        )
    )
    scheme = state.scheme
    parts.append(
        (
            scheme.kind,
            getattr(scheme, "bound", None),
            getattr(scheme, "quantum", None),
        )
    )
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


class SlackSanitizer:
    """Maintains per-core vector clocks and asserts the paper's invariants.

    ``collect_only=True`` records violations instead of raising (used by
    tests that want to observe several breaches); the default raises on
    the first one, which is what ``--sanitize`` runs want — fail loudly
    at the exact step the invariant broke.
    """

    def __init__(self, enabled: bool = True, collect_only: bool = False) -> None:
        self.enabled = enabled
        self.collect_only = collect_only
        self.violations: List[SanitizerError] = []
        #: Checks performed, by invariant name (the run summary).
        self.checks: Dict[str, int] = {}
        self._num_cores = 0
        self._local: List[int] = []
        self._warp: List[int] = []
        self._global = 0
        #: Core ids that contributed to the last derived global time (None
        #: right after attach/rollback: the next step has no reference set).
        self._contrib: Optional[frozenset] = None
        self._ckpt_digests: Dict[int, str] = {}

    @classmethod
    def disabled(cls) -> "SlackSanitizer":
        """An attached-but-inert sanitizer: every probe returns after the
        ``enabled`` check (used to measure the sanitizer-off overhead)."""
        return cls(enabled=False)

    def __deepcopy__(self, memo) -> "SlackSanitizer":
        # Host-side accounting, shared across checkpoint snapshots exactly
        # like a telemetry session (see module docstring).
        return self

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #

    def attach(self, num_cores: int) -> None:
        self._num_cores = num_cores
        self._local = [0] * num_cores
        self._warp = [0] * num_cores
        self._global = 0
        self._contrib = None

    def _fail(
        self,
        invariant: str,
        message: str,
        cores: Sequence[int] = (),
        cycle: Optional[int] = None,
    ) -> None:
        error = SanitizerError(invariant, message, cores, cycle)
        self.violations.append(error)
        if not self.collect_only:
            raise error

    def _count(self, invariant: str) -> None:
        self.checks[invariant] = self.checks.get(invariant, 0) + 1

    # ------------------------------------------------------------------ #
    # Core-thread probes (Scheduler / CoreRunner)
    # ------------------------------------------------------------------ #

    def on_core_step(
        self, core_id: int, local_time: int, max_local: Optional[int]
    ) -> None:
        """One core-runner scheduling step finished at ``local_time``.

        The pacing limit is fixed for the duration of a step (the manager
        cannot interleave), so a step that *advanced* the clock past both
        the limit and any pending sync-grant warp broke the slack bound.
        A step that merely *observed* ``local > max_local`` without
        advancing is legal — an adaptive throttle can lower the limit
        under a core between steps.
        """
        if not self.enabled:
            return
        checks = self.checks  # _count inlined: two probes per core step
        checks["local-time-monotonic"] = checks.get("local-time-monotonic", 0) + 1
        previous = self._local[core_id]
        if local_time < previous:
            self._fail(
                "local-time-monotonic",
                f"core {core_id} local time moved backwards "
                f"{previous} -> {local_time} outside a rollback",
                cores=(core_id,),
                cycle=local_time,
            )
        if local_time > previous and max_local is not None:
            checks["slack-bound"] = checks.get("slack-bound", 0) + 1
            if local_time > max_local and local_time > self._warp[core_id]:
                self._fail(
                    "slack-bound",
                    f"core {core_id} advanced to {local_time}, past its "
                    f"pacing limit max_local={max_local} with no sync-grant "
                    "warp",
                    cores=(core_id,),
                    cycle=local_time,
                )
        self._local[core_id] = local_time
        if self._warp[core_id] <= local_time:
            self._warp[core_id] = 0

    def on_sync_warp(self, core_id: int, grant_ts: int) -> None:
        """A descheduled core is warping forward to a sync grant stamped
        ``grant_ts`` (the one legal way past ``max_local_time``)."""
        if not self.enabled:
            return
        if grant_ts > self._warp[core_id]:
            self._warp[core_id] = grant_ts

    # ------------------------------------------------------------------ #
    # Manager probes (ManagerState)
    # ------------------------------------------------------------------ #

    def on_serve_batch(
        self,
        batch: Sequence[object],
        conservative: bool,
        horizon: Optional[int],
    ) -> None:
        """A service batch is about to be applied (already scheduled).

        Conservative batches must be in nondecreasing timestamp order and
        strictly below the horizon — the discipline that makes
        cycle-by-cycle and quantum runs violation-free.
        """
        if not self.enabled or not conservative:
            return
        self._count("service-order")
        last_ts = -1
        for msg in batch:
            ts = msg.ts  # type: ignore[attr-defined]
            if ts < last_ts:
                self._fail(
                    "service-order",
                    f"conservative batch out of timestamp order: {ts} after "
                    f"{last_ts}",
                    cores=(msg.core_id,),  # type: ignore[attr-defined]
                    cycle=ts,
                )
            last_ts = ts
            if horizon is not None and ts >= horizon:
                self._count("service-horizon")
                self._fail(
                    "service-horizon",
                    f"conservative service scheduled an event stamped {ts} at "
                    f"or beyond the horizon {horizon}",
                    cores=(msg.core_id,),  # type: ignore[attr-defined]
                    cycle=ts,
                )

    @staticmethod
    def _derive_global(cores_view: Sequence[CoreView]) -> Tuple[int, frozenset]:
        """Independent re-derivation of the paper's global time: the
        minimum local time over running (not finished, not sync-blocked)
        cores; the minimum over unfinished cores when every unfinished
        core is frozen; the maximum local time once all have finished.

        Also returns the ids of the cores the value was derived over —
        the *contributing set* the monotonicity check is scoped to.
        """
        # Single pass: track the running-tier and frozen-tier minima (and
        # their member ids) together instead of four comprehensions.
        run_min = frozen_min = None
        run_ids: List[int] = []
        frozen_ids: List[int] = []
        for core_id, local, _, finished, waiting in cores_view:
            if finished:
                continue
            if not waiting:
                if run_min is None or local < run_min:
                    run_min = local
                run_ids.append(core_id)
            else:
                if frozen_min is None or local < frozen_min:
                    frozen_min = local
                frozen_ids.append(core_id)
        if run_min is not None:
            return run_min, frozenset(run_ids)
        if frozen_min is not None:
            # Every unfinished core is frozen, so the unfinished tier is
            # exactly the frozen tier.
            return frozen_min, frozenset(frozen_ids)
        return (
            max(local for (_, local, _, _, _) in cores_view),
            frozenset(core_id for (core_id, _, _, _, _) in cores_view),
        )

    def on_manager_step(
        self, state, outcome, conservative: bool, capped: bool
    ) -> None:
        """One manager service step completed; check the global
        invariants against the post-step state."""
        if not self.enabled:
            return
        # Built from the root's flat clock banks (core_id == bank index by
        # construction) — skips four attribute/property chases per core.
        # State-like doubles without banks fall back to the object API.
        times = getattr(state, "local_times", None)
        if times is not None:
            limits = state.max_local_times
            cores_view: List[CoreView] = [
                (i, times[i], limits[i], model.finished, model.waiting_sync)
                for i, model in enumerate(state._models)
            ]
        else:
            cores_view = [
                (
                    cs.core_id,
                    cs.local_time,
                    cs.max_local_time,
                    cs.model.finished,
                    cs.model.waiting_sync,
                )
                for cs in state.cores
            ]
        global_time = outcome.global_time

        checks = self.checks
        checks["global-time-min"] = checks.get("global-time-min", 0) + 1
        derived, contributors = self._derive_global(cores_view)
        if derived != global_time:
            self._fail(
                "global-time-min",
                f"manager global time {global_time} != min over running "
                f"cores {derived}",
                cores=tuple(view[0] for view in cores_view),
                cycle=global_time,
            )

        # Monotonicity only binds while no *new* core entered the minimum:
        # local clocks are individually monotonic, so a min over a subset
        # of the previous contributors cannot decrease.  A core resuming
        # from a sync wait (or the tier switching when the last running
        # core blocks) adds members whose warped clocks may sit below the
        # old minimum — that regression is legal slack behavior.
        if self._contrib is not None and contributors <= self._contrib:
            checks["global-time-monotonic"] = (
                checks.get("global-time-monotonic", 0) + 1
            )
            if global_time < self._global:
                self._fail(
                    "global-time-monotonic",
                    f"global time moved backwards {self._global} -> "
                    f"{global_time} with no core rejoining the minimum",
                    cycle=global_time,
                )
        self._global = global_time
        self._contrib = contributors

        if conservative and outcome.violations:
            self._count("conservative-violation-free")
            first = outcome.violations[0]
            self._fail(
                "conservative-violation-free",
                f"conservative service recorded {len(outcome.violations)} "
                f"simulation violation(s); first: {first.vtype} from core "
                f"{first.core_id} stamped {first.ts}",
                cores=tuple({v.core_id for v in outcome.violations}),
                cycle=global_time,
            )

        checks["pacing-window"] = checks.get("pacing-window", 0) + 1
        problem = state.scheme.pacing_violation(cores_view, global_time, capped)
        if problem is not None:
            self._fail(
                "pacing-window",
                f"{state.scheme.kind}: {problem}",
                cycle=global_time,
            )

    # ------------------------------------------------------------------ #
    # Checkpoint / rollback probes (CheckpointController)
    # ------------------------------------------------------------------ #

    def on_checkpoint(self, snapshot, state) -> None:
        """A checkpoint was taken; digest it for rollback checks.

        ``state`` is the live root at the checkpoint instant — with
        copy-on-write capture the snapshot holds no materialized state
        object, and the live root *is* the checkpointed content until the
        next write.  A later rollback must re-derive this exact digest
        from the restored root.
        """
        if not self.enabled:
            return
        self._count("rollback-state-digest")
        self._ckpt_digests[snapshot.boundary] = state_digest(state)

    def on_rollback(self, restored_state, snapshot) -> None:
        """A rollback restored ``snapshot``; the restored working state
        must digest identically to the checkpointed one, and the vector
        clocks rewind with it."""
        if not self.enabled:
            return
        expected = self._ckpt_digests.get(snapshot.boundary)
        if expected is not None:
            self._count("rollback-state-digest")
            actual = state_digest(restored_state)
            if actual != expected:
                self._fail(
                    "rollback-state-digest",
                    f"restored state digest {actual[:16]} != checkpointed "
                    f"digest {expected[:16]} at boundary {snapshot.boundary}",
                    cycle=snapshot.boundary,
                )
        for cs in restored_state.cores:
            self._local[cs.core_id] = cs.local_time
            self._warp[cs.core_id] = 0
        self._global = restored_state.manager.global_time
        self._contrib = None  # no reference set until the next manager step

    # ------------------------------------------------------------------ #

    def total_checks(self) -> int:
        return sum(self.checks.values())

    def summary(self) -> str:
        """One-paragraph run summary for the CLI."""
        parts = [
            f"{name}={count}"
            for name, count in sorted(self.checks.items())
        ]
        status = (
            "no invariant violations"
            if not self.violations
            else f"{len(self.violations)} INVARIANT VIOLATION(S)"
        )
        return (
            f"sanitizer: {status} over {self.total_checks()} checks "
            f"({', '.join(parts) if parts else 'no checks ran'})"
        )
