"""The simulation manager thread (paper section 2, Figure 1).

The manager simulates the on-chip lower-level hierarchy — the snooping bus,
the shared L2, and the global cache status map — and orchestrates the
simulation: it consolidates every core thread's OutQ into the global queue
(GQ), serves GQ events, maintains the global time, and sets each core
thread's max local time according to the active slack scheme.

Event service order is the crux of the whole paradigm:

- *slack schemes* serve events in **host arrival order** while computing
  latencies from **target timestamps** — fast, but the order divergence is
  exactly what the violation monitors count (section 3);
- *cycle-by-cycle and quantum* runs serve **conservatively**: only events
  whose timestamp has been passed by the global time, sorted by timestamp
  (core id breaking ties) — provably violation-free, at the cost of
  per-cycle (or per-quantum) barrier synchronization.
"""

from __future__ import annotations

from operator import attrgetter
from typing import List, Optional, Tuple

from repro.config import TargetConfig
from repro.core.events import InMsg, InMsgKind, OutMsg
from repro.core.state import CoreState, SimulationState
from repro.core.violations import _NO_VIOLATIONS, ViolationDetector, ViolationRecord
from repro.cpu.core import RequestKind
from repro.errors import SimulationError
from repro.memory.bus import SnoopBus
from repro.memory.cache_map import CacheStatusMap
from repro.memory.l2 import L2Cache
from repro.memory.mesi import BusOpKind, MesiState, fill_state_for
from repro.sync.primitives import BarrierTable, LockTable, SyncTimingConfig

# C-speed sort keys for the two GQ disciplines (host arrival order for
# consolidation, timestamp order for service batches).
_ARRIVAL_ORDER = attrgetter("host_time", "core_id")
_TIMESTAMP_ORDER = attrgetter("ts", "core_id", "host_time")

#: Telemetry labels per request kind (enum .name lookups are too slow for
#: the per-event probe).
_KIND_NAMES = {kind: kind.name.lower() for kind in RequestKind}


# repro: hot-path
class ServiceOutcome:
    """What one manager service step did (drives host-cost charging)."""

    __slots__ = (
        "events_served",
        "events_merged",
        "adjusted",
        "violations",
        "global_time",
        "idle",
        "maybe_wake",
        "settled",
    )

    def __init__(
        self,
        events_served: int,
        adjusted: bool,
        violations: List[ViolationRecord],
        global_time: int,
        idle: bool,
        events_merged: int = 0,
        maybe_wake: bool = True,
    ) -> None:
        self.events_served = events_served
        self.events_merged = events_merged
        self.adjusted = adjusted
        self.violations = violations
        self.global_time = global_time
        self.idle = idle
        # False only when the step provably changed nothing a parked core
        # thread waits on (no event delivered, pacing limits untouched),
        # letting the scheduler skip its wake scan.
        self.maybe_wake = maybe_wake
        # False only when a conservative batch was requeued behind a
        # sync grant: a repeat of the step could then serve it.  True
        # means a repeat with no thread run in between is idle.
        self.settled = True

    def reset_idle(self) -> None:
        """Describe a repeat of a settled step: nothing served, merged,
        adjusted, observed or woken, at the same global time."""
        self.events_served = 0
        self.events_merged = 0
        self.adjusted = False
        self.violations = _NO_VIOLATIONS
        self.idle = True
        self.maybe_wake = False


class ManagerState:
    """All manager-owned simulation state plus the service logic."""

    #: Optional TelemetrySession (instance attr set by Simulation when a
    #: session is attached; shared across snapshots, never deep-copied).
    telemetry = None
    #: Optional SlackSanitizer (instance attr set by Simulation under
    #: ``--sanitize``); same sharing contract as the telemetry session.
    sanitizer = None

    def __init__(
        self,
        target: TargetConfig,
        detector: ViolationDetector,
        sync_timing: Optional[SyncTimingConfig] = None,
    ) -> None:
        timing = sync_timing or SyncTimingConfig()
        self.bus = SnoopBus(target.bus)
        self.l2 = L2Cache(target.l2)
        self.cache_map = CacheStatusMap()
        self.locks = LockTable(timing)
        self.barriers = BarrierTable(timing)
        self.detector = detector
        self.gq: List[OutMsg] = []
        self.global_time = 0
        self.events_served = 0
        # Conservative-service bookkeeping: the largest timestamp served so
        # far.  Sync grants are floored at this value so a core resuming
        # from a wait can never emit an event older than anything already
        # served — the last piece of the cycle-by-cycle (and quantum)
        # zero-violation guarantee.
        self._grant_floor = -1
        self._serving_conservative = False
        self._batch_grant_min: Optional[int] = None
        # For uniform-window schemes every unfinished core's pacing limit
        # is a pure function of (global time, window, window cap); the
        # bank is rewritten only when that key moves.  None forces the
        # first service step to populate it.
        self._limits_key: Optional[Tuple[int, Optional[int], Optional[int]]] = None
        # Cache-to-cache supply latency (an owner's L1 answers a snoop in
        # about the time an L2 hit takes on this target).
        self.c2c_latency = target.l2.cache.hit_latency
        # Reused outcome record: consumed by the scheduler (and the
        # speculative controller) before the next service step runs, so a
        # single instance avoids an allocation per manager step.
        self._outcome = ServiceOutcome(0, False, [], 0, True)

    # ------------------------------------------------------------------ #
    # One service step
    # ------------------------------------------------------------------ #

    def service(
        self,
        sim: SimulationState,
        conservative: Optional[bool] = None,
        force_window: Optional[int] = None,
        window_cap: Optional[int] = None,
        control_enabled: bool = True,
        drain_cores: Optional[List[int]] = None,
    ) -> ServiceOutcome:
        """Run one manager iteration.

        ``conservative``/``force_window`` override the scheme (used for the
        cycle-by-cycle replay after a speculative rollback); ``window_cap``
        caps every max local time at an absolute target time (used to park
        all cores at a checkpoint boundary).  ``drain_cores`` restricts
        which cores' OutQs this step consolidates (hierarchical manager
        mode: sub-managers forward the others); None drains every core.
        """
        scheme = sim.scheme
        if conservative is None:
            conservative = scheme.conservative_service

        outcome = self._outcome
        outcome.settled = True  # _serve clears it when it requeues a batch
        merged = self._merge_outqs(sim, drain_cores)
        served = self._serve(sim, conservative)

        new_global = sim.global_time()
        advanced = new_global != self.global_time
        self.global_time = new_global
        if scheme.wants_core_clocks:
            # Only schemes that actually track per-core clocks (p2p) pay
            # for building the snapshot; the base hook is a no-op.
            scheme.on_global_advance(
                [
                    (cs.core_id, cs.local_time, not cs.finished and not cs.model.waiting_sync)
                    for cs in sim.cores
                ]
            )

        adjusted = False
        if control_enabled and force_window is None:
            adjusted = scheme.control_tick(
                self.detector, new_global, events_served=self.events_served
            )

        limits_moved = self._update_max_locals(sim, force_window, window_cap)

        outcome.events_served = served
        outcome.events_merged = merged
        outcome.adjusted = adjusted
        outcome.violations = self.detector.drain_pending()
        outcome.global_time = new_global
        outcome.idle = served == 0 and not adjusted and not advanced
        # A parked core waits on an InQ delivery (only ``_serve`` delivers)
        # or on its pacing limit moving (only ``_update_max_locals`` writes
        # the limit bank); when neither happened this step, no wake
        # condition can have newly become true.
        outcome.maybe_wake = served > 0 or limits_moved
        san = self.sanitizer
        if san is not None and san.enabled:
            san.on_manager_step(
                sim,
                outcome,
                conservative,
                force_window is not None or window_cap is not None,
            )
        return outcome

    def _merge_outqs(
        self, sim: SimulationState, core_ids: Optional[List[int]] = None
    ) -> int:
        """Consolidate OutQ entries into the GQ in host arrival order.

        Returns the number of entries merged; ``core_ids`` restricts the
        drain (hierarchical mode).
        """
        fresh: Optional[List[OutMsg]] = None
        cores = sim.cores if core_ids is None else [sim.cores[i] for i in core_ids]
        for cs in cores:
            outq = cs.outq
            if not outq:
                continue
            if fresh is None:
                fresh = []
            append = fresh.append
            while outq:
                append(outq.popleft())
        if fresh is None:
            return 0
        fresh.sort(key=_ARRIVAL_ORDER)
        self.gq.extend(fresh)
        return len(fresh)

    def _serve(self, sim: SimulationState, conservative: bool) -> int:
        if not self.gq:
            return 0
        self._serving_conservative = conservative
        if conservative:
            # Serve only events *strictly* below the horizon, in timestamp
            # order — the violation-free gold-standard discipline.  Strict:
            # a core whose local time equals ``h`` is about to execute
            # cycle ``h`` and may still post events stamped ``h``; serving
            # at ``ts == h`` would split same-timestamp batches by host
            # arrival, making cycle-by-cycle timing host-schedule
            # dependent.  (The horizon accounts for frozen sync-blocked
            # cores; see SimulationState.service_horizon.)
            horizon = sim.service_horizon()
            if horizon is None:
                servable, self.gq = sorted(self.gq, key=_TIMESTAMP_ORDER), []
            else:
                servable = [m for m in self.gq if m.ts < horizon]
                if not servable:
                    return 0
                servable.sort(key=_TIMESTAMP_ORDER)
                self.gq = [m for m in self.gq if m.ts >= horizon]
        else:
            # Optimistic service: drain everything that has arrived, but
            # schedule the drained batch in timestamp order (the GQ exists
            # "to efficiently manage and schedule all the GQ events" —
            # paper section 2).  Nothing is held back, so violations still
            # occur whenever an event arrives *after* a younger-stamped
            # event was already served in an earlier batch — which is
            # precisely what grows with the slack bound.
            horizon = None
            servable, self.gq = self.gq, []
            servable.sort(key=_TIMESTAMP_ORDER)

        san = self.sanitizer
        if san is not None and san.enabled:
            san.on_serve_batch(servable, conservative, horizon)

        served = 0
        self._batch_grant_min: Optional[int] = None
        for index, msg in enumerate(servable):
            if (
                conservative
                and self._batch_grant_min is not None
                and msg.ts >= self._batch_grant_min
            ):
                # A sync grant issued earlier in this batch lowered the
                # horizon: a blocked core will resume below the remaining
                # events' timestamps.  Requeue them — the next service
                # round sees the pending grant through service_horizon().
                self.gq = servable[index:] + self.gq
                self._outcome.settled = False
                break
            self._serve_one(sim, msg)
            served += 1
            if msg.ts > self._grant_floor:
                self._grant_floor = msg.ts
        self.events_served += served
        return served

    # ------------------------------------------------------------------ #
    # Per-event service
    # ------------------------------------------------------------------ #

    def _serve_one(self, sim: SimulationState, msg: OutMsg) -> None:
        kind = msg.request.kind
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.on_gq_event(_KIND_NAMES[kind])
        if kind == RequestKind.BUS:
            self._serve_bus(sim, msg)
        elif kind == RequestKind.IFETCH:
            self._serve_ifetch(sim, msg)
        elif kind == RequestKind.WRITEBACK:
            self._serve_writeback(msg)
        elif kind == RequestKind.LOCK_ACQUIRE:
            grant_ts = self.locks.acquire(msg.request.sync_id, msg.core_id, msg.ts)
            if grant_ts is not None:
                self._push_grant(sim, msg.core_id, grant_ts)
        elif kind == RequestKind.LOCK_RELEASE:
            handoff = self.locks.release(msg.request.sync_id, msg.core_id, msg.ts)
            if handoff is not None:
                next_core, grant_ts = handoff
                self._push_grant(sim, next_core, grant_ts)
        elif kind == RequestKind.BARRIER_ARRIVE:
            releases = self.barriers.arrive(
                msg.request.sync_id, msg.core_id, msg.ts, msg.request.participants
            )
            if releases is not None:
                for core_id, release_ts in releases:
                    self._push_grant(sim, core_id, release_ts)
        else:  # pragma: no cover - guarded by RequestKind
            raise SimulationError(f"unknown request kind {kind}")

    def _serve_bus(self, sim: SimulationState, msg: OutMsg) -> None:
        core_id, ts, line = msg.core_id, msg.ts, msg.request.line_addr
        bus_op = msg.request.bus_op
        self.detector.check_bus(ts, self.global_time, core_id)
        self.detector.check_map(line, ts, self.global_time, core_id)
        grant = self.bus.grant_request(ts)
        snoop_seen = grant + self.bus.config.request_cycles

        if bus_op == BusOpKind.UPGR and not self.cache_map.is_sharer(line, core_id):
            # The upgrader's copy was invalidated while the UPGR was in
            # flight; the transaction degenerates to a full GETX.
            bus_op = BusOpKind.GETX

        if bus_op == BusOpKind.GETS:
            others, downgrade_target = self.cache_map.apply_gets(line, core_id)
            if downgrade_target is not None:
                self._push(sim, downgrade_target, InMsg(InMsgKind.DOWNGRADE, snoop_seen, line))
                # The dirty owner supplies the line; the L2 copy is
                # refreshed as part of the transfer (standard MESI).
                self.l2.writeback(line)
                data_ready = grant + self.c2c_latency
            else:
                data_ready = grant + self.l2.access(line, at=grant)
            _, done = self.bus.schedule_response(data_ready)
            fill = fill_state_for(BusOpKind.GETS, others)
            self._push(sim, core_id, InMsg(InMsgKind.FILL, done, line, fill))
        elif bus_op == BusOpKind.GETX:
            targets, source_owner = self.cache_map.apply_getx(line, core_id)
            for target in targets:
                self._push(sim, target, InMsg(InMsgKind.INVALIDATE, snoop_seen, line))
            if source_owner is not None:
                data_ready = grant + self.c2c_latency
            else:
                data_ready = grant + self.l2.access(line, at=grant)
            _, done = self.bus.schedule_response(data_ready)
            self._push(sim, core_id, InMsg(InMsgKind.FILL, done, line, MesiState.MODIFIED))
        elif bus_op == BusOpKind.UPGR:
            targets = self.cache_map.apply_upgr(line, core_id)
            for target in targets:
                self._push(sim, target, InMsg(InMsgKind.INVALIDATE, snoop_seen, line))
            done = snoop_seen
            self._push(sim, core_id, InMsg(InMsgKind.FILL, snoop_seen, line, MesiState.MODIFIED))
        else:  # pragma: no cover - guarded by BusOpKind
            raise SimulationError(f"unexpected bus op {bus_op}")
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.on_bus_grant(core_id, ts, grant, done, line, bus_op.name)

    def _serve_ifetch(self, sim: SimulationState, msg: OutMsg) -> None:
        """An instruction-line fetch: a read-only GETS over the bus.

        Code lines are never written, so no owner can exist and no
        snoops are generated; the map still records the sharer (which is
        why an I-fetch can raise map violations like any transaction).
        """
        core_id, ts, line = msg.core_id, msg.ts, msg.request.line_addr
        self.detector.check_bus(ts, self.global_time, core_id)
        self.detector.check_map(line, ts, self.global_time, core_id)
        grant = self.bus.grant_request(ts)
        self.cache_map.apply_gets(line, core_id)
        data_ready = grant + self.l2.access(line, at=grant)
        _, done = self.bus.schedule_response(data_ready)
        self._push(sim, core_id, InMsg(InMsgKind.IFILL, done, line))
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.on_bus_grant(core_id, ts, grant, done, line, "IFETCH")

    def _serve_writeback(self, msg: OutMsg) -> None:
        line = msg.request.line_addr
        self.detector.check_bus(msg.ts, self.global_time, msg.core_id)
        self.detector.check_map(line, msg.ts, self.global_time, msg.core_id)
        self.bus.grant_request(msg.ts)
        self.cache_map.apply_writeback(line, msg.core_id)
        self.l2.writeback(line)

    def _push(self, sim: SimulationState, core_id: int, msg: InMsg) -> None:
        sim.cores[core_id].inq.append(msg)

    def _push_grant(self, sim: SimulationState, core_id: int, grant_ts: int) -> None:
        """Deliver a sync grant; floored under conservative service so the
        resuming core cannot travel into the already-served past."""
        if self._serving_conservative and grant_ts < self._grant_floor:
            grant_ts = self._grant_floor
        if self._batch_grant_min is None or grant_ts < self._batch_grant_min:
            self._batch_grant_min = grant_ts
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.on_sync_grant(core_id, grant_ts)
        self._push(sim, core_id, InMsg(InMsgKind.SYNC_GRANT, grant_ts))

    # ------------------------------------------------------------------ #
    # Pacing
    # ------------------------------------------------------------------ #

    def _update_max_locals(
        self,
        sim: SimulationState,
        force_window: Optional[int],
        window_cap: Optional[int],
    ) -> bool:
        """Write every unfinished core's pacing limit; return False when
        the limit bank provably did not move."""
        scheme = sim.scheme
        global_time = self.global_time
        limits = sim.max_local_times
        if scheme.uniform_window:
            # Every core shares one limit (exactly what the default
            # max_local_for derives), a pure function of this key.
            window = scheme.window() if force_window is None else force_window
            key = (global_time, window, window_cap)
            if key == self._limits_key:
                return False
            self._limits_key = key
            limit = None if window is None else global_time + window
            if window_cap is not None:
                limit = window_cap if limit is None else min(limit, window_cap)
            for idx, cs in enumerate(sim.cores):
                if not cs.model.finished:
                    limits[idx] = limit
            return True
        times = sim.local_times
        max_local_for = scheme.max_local_for
        for idx, cs in enumerate(sim.cores):
            if cs.model.finished:
                continue
            if force_window is not None:
                limit = global_time + force_window
            else:
                limit = max_local_for(cs.core_id, times[idx], global_time)
            if window_cap is not None:
                limit = window_cap if limit is None else min(limit, window_cap)
            limits[idx] = limit
        return True

    def quiescent(self, sim: SimulationState) -> bool:
        """True when no requests are in flight toward the manager."""
        return not self.gq and all(not cs.outq for cs in sim.cores)
