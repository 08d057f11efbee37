"""Host-side simulation-thread runners.

A runner is the modeled equivalent of one POSIX thread of SlackSim: it
executes simulation work against the (snapshot-able) simulation state and
reports the modeled host-time cost of each scheduling step.  Runners hold
no simulation state of their own — after a speculative rollback replaces
the state root, the same runners continue against the restored state.
"""

from __future__ import annotations

from typing import Optional

from repro.config import HostConfig, HostCostModel
from repro.core.events import InMsg, InMsgKind, OutMsg
from repro.core.manager import ServiceOutcome
from repro.core.state import CoreState
from repro.cpu.core import _ILP_RATE, CoreRequest, RequestKind
from repro.errors import SimulationError
from repro.isa.operations import OpKind
from repro.memory.l1 import L1Outcome

# Aliases for the inlined pipeline fast path in CoreRunner.step (module
# loads beat enum attribute lookups per issued instruction).
_LOAD = OpKind.LOAD
_STORE = OpKind.STORE
_COMPUTE = OpKind.COMPUTE
_HIT = L1Outcome.HIT
_MISS = L1Outcome.MISS
_MERGED = L1Outcome.MERGED
_BUS = RequestKind.BUS
_LOCK_ACQ = RequestKind.LOCK_ACQUIRE
_BARRIER_ARR = RequestKind.BARRIER_ARRIVE

#: Telemetry labels per request kind (see repro.telemetry).
_KIND_NAMES = {kind: kind.name.lower() for kind in RequestKind}


# repro: hot-path
class StepResult:
    """Outcome of one runner scheduling step."""

    __slots__ = ("cost_ns", "blocked", "done", "outcome")

    def __init__(
        self,
        cost_ns: float,
        blocked: bool = False,
        done: bool = False,
        outcome: Optional[ServiceOutcome] = None,
    ) -> None:
        self.cost_ns = cost_ns
        self.blocked = blocked
        self.done = done
        self.outcome = outcome  # manager steps only


class CoreRunner:
    """Simulates one target core, driving its CoreState/CoreModel.

    Each step simulates up to ``max_batch_cycles`` target cycles (plus
    bulk-skipped stall cycles), delivering due InQ entries before every
    cycle and posting OutQ entries stamped with both target and host time.
    """

    name_prefix = "core"

    def __init__(self, index: int, sim, host: HostConfig) -> None:
        self.index = index
        self.sim = sim  # Simulation facade; state accessed via sim.state
        self.host = host
        self.cost = host.cost
        # Reused result record: one step's result is consumed by the
        # scheduler before the next step runs, so a single instance per
        # runner avoids an allocation per scheduling step.
        self._result = StepResult(0.0)
        # Host cost constants are immutable for the life of the run; the
        # two fused sums fold the per-cycle slack check into the cycle
        # charge (exact: every cost constant is an integer-valued float, so
        # the reassociation cannot round).
        cost = host.cost
        self._cost_binds = (
            cost.per_mem_event_ns,
            cost.per_instruction_ns,
            cost.slack_check_ns,
            cost.core_cycle_ns + cost.slack_check_ns,
            cost.stall_cycle_ns + cost.slack_check_ns,
        )
        self._batch = host.max_batch_cycles
        # Root-stable binds (core state, clock banks, pipeline geometry,
        # program, L1), re-derived only when a rollback installs a fresh
        # root (cs.model is assigned exactly once, in CoreState.__init__,
        # so everything below is fixed for the life of one root).
        self._state_binds: Optional[tuple] = None
        # barrier_sync is fixed when the policy is constructed (and
        # preserved across rollback snapshots), so the per-step barrier
        # check can cache it instead of re-deriving it from the state.
        self._barrier_static = sim.state.scheme.barrier_sync
        # Telemetry (host-side, observation only; None when not attached).
        self._tel = getattr(sim, "telemetry", None)
        # Sanitizer (same seam contract; None in ordinary runs).
        self._san = getattr(sim, "sanitizer", None)
        self._sync_wait_start: Optional[int] = None
        # Window-1 stall replay (DESIGN.md section 5): the last step's
        # stall at its pacing limit, applied again as its known effect
        # while its inputs provably repeat.  An enabled telemetry session
        # or sanitizer keeps the general path so its probes see every
        # cycle.
        self._stall: Optional[tuple] = None
        self._replayable = (self._tel is None or not self._tel.enabled) and (
            self._san is None or not self._san.enabled
        )
        stall_ns = cost.stall_cycle_ns + cost.slack_check_ns
        if stall_ns <= 0.0:
            stall_ns = cost.slack_check_ns  # every step consumes host time
        self._stall_ns = stall_ns
        self._stall_barrier_ns = stall_ns + cost.barrier_ns
        # Host-side path counts (Scheduler.path_counts): InQ deliveries
        # applied and program refills made by this Python step (the
        # icache pipeline's inside CoreModel.cycle too) and its sync drain.
        self.python_deliveries = 0
        self.python_refills = 0

    @property
    def name(self) -> str:
        return f"{self.name_prefix}{self.index}"

    def _core_state(self) -> CoreState:
        return self.sim.state.cores[self.index]

    def step(self, host_now: float) -> StepResult:
        # core/_loop.c holds a C copy of this step and of the helpers it
        # calls for the fast pipeline (the InQ deliveries and the program
        # refill included), which the C loop runs instead: keep the two
        # in lockstep (tests/test_scheduler.py, TestNativeLoop, checks
        # them against each other).
        if self._stall is not None and self._replay_stall():
            return self._result
        # One root-identity check + one tuple unpack replaces the ~10
        # attribute chains the prologue used to pay on every call (with
        # max_batch_cycles=8 this runs roughly once per simulated cycle).
        # Everything in the tuple is fixed for the life of one root:
        # cs.model is assigned exactly once (CoreState.__init__), and the
        # model's outbox/program/L1/pages_touched are object-stable — a
        # rollback installs a fresh SimulationState, caught by the identity
        # check.  The lone exception is ``_pending_loads``, which
        # complete_fill may rebind during an InQ delivery — it is re-read
        # per step and after every delivery point.
        binds = self._state_binds
        state = self.sim.state
        if binds is None or binds[0] is not state:
            cs = state.cores[self.index]
            model = cs.model
            program = model.program
            l1 = model.l1
            binds = (
                state,
                cs,
                model,
                cs.inq,
                cs._times,
                cs._limits,
                cs._idx,
                model.outbox,
                model._icache is None,
                model._issue_width,
                model._window_size,
                program,
                program._buffer,
                l1,
                l1.access_line,
                l1._line_bits,
                model.pages_touched,
                model._page_shift,
            )
            self._state_binds = binds
        (
            _,
            cs,
            model,
            inq,
            times,
            limits,
            cidx,
            outbox,
            fast_pipeline,
            issue_width,
            window_size,
            program,
            op_buffer,
            l1,
            access_line,
            line_bits,
            pages_touched,
            page_shift,
        ) = binds
        (
            per_mem_event_ns,
            per_instruction_ns,
            slack_check_ns,
            cycle_plus_slack_ns,
            stall_plus_slack_ns,
        ) = self._cost_binds
        pending = model._pending_loads
        apply = self._apply
        cost = 0.0
        cycles = 0
        batch = self._batch

        result = self._result
        result.outcome = None
        if model.finished:
            # The workload thread has exited; drain any coherence traffic
            # still addressed to this core so its L1 state stays coherent
            # with the rest of the machine.
            while inq:
                apply(cs, inq.popleft())
                cost += per_mem_event_ns
                self.python_deliveries += 1
            result.cost_ns = max(cost, slack_check_ns)
            result.blocked = False
            result.done = True
            return result

        # The InQ only grows between steps (the manager runs then), so the
        # next due timestamp can be cached across cycles and refreshed only
        # after deliveries.
        next_due = inq[0].ts if inq else None
        while cycles < batch:
            # Deliver every InQ entry whose timestamp has been reached (or
            # passed: the slack time-distortion case).
            local = times[cidx]
            if next_due is not None and next_due <= local:
                while inq and inq[0].ts <= local:
                    apply(cs, inq.popleft())
                    cost += per_mem_event_ns
                    self.python_deliveries += 1
                next_due = inq[0].ts if inq else None
                pending = model._pending_loads  # a FILL may have rebound it
            if model.waiting_sync:
                # A thread blocked on workload synchronization is
                # descheduled (MP_Simplesim executes sync inside the
                # simulator): its clock does not tick.  Drain the InQ —
                # the grant warps the local clock to the grant timestamp.
                cost += self._drain_while_sync_blocked(cs)
                next_due = inq[0].ts if inq else None
                pending = model._pending_loads
                if model.waiting_sync:
                    break  # wait for the manager's grant delivery
                continue
            if model.finished:
                break
            max_local = limits[cidx]
            if max_local is not None and local >= max_local:
                break  # at_limit: the slack window forbids another cycle

            if model._compute_remaining > 1 and not outbox:
                # Inside a compute burst with no due delivery and nothing
                # waiting in the outbox (a FILL delivery can leave a dirty-
                # victim WRITEBACK there, which the next cycle must emit):
                # commit the burst body in bulk (cost accrues per cycle, so
                # modeled host time is bit-for-bit what the per-cycle loop
                # charges).
                m_cap = batch - cycles
                if max_local is not None and max_local - local < m_cap:
                    m_cap = max_local - local
                if next_due is not None:
                    lim = next_due - local
                    if lim < m_cap:
                        m_cap = lim
                if m_cap > 1:
                    m, instrs = model.commit_burst(m_cap)
                    if m:
                        times[cidx] = local + m
                        cycles += m
                        cost += (
                            m * cycle_plus_slack_ns + instrs * per_instruction_ns
                        )
                        tel = self._tel
                        if tel is not None and tel.enabled:
                            tel.on_compute_burst(self.index, local, m, instrs)
                        continue

            if fast_pipeline:
                # CoreModel.cycle inlined for the default (no-icache)
                # configuration: the per-cycle call and its prologue binds
                # are the hottest fixed overhead in the whole run.  Keep in
                # lockstep with CoreModel.cycle — the determinism digest
                # tests pin the equivalence.
                model.cycles += 1
                committed = 0
                slots = issue_width
                issue_seq = model._issue_seq
                while slots > 0:
                    if pending and issue_seq - pending[0][0] >= window_size:
                        break  # reorder window full behind the oldest miss
                    remaining = model._compute_remaining
                    if remaining > 0:
                        take = model._compute_rate
                        if slots < take:
                            take = slots
                        if remaining < take:
                            take = remaining
                        model._compute_remaining = remaining - take
                        issue_seq += take
                        committed += take
                        slots -= take
                        if remaining > take:
                            break
                        continue
                    op = model._current_op
                    if op is None:
                        if op_buffer:
                            op = op_buffer.popleft()
                        else:
                            self.python_refills += 1
                            op = program.next_op()
                        model._current_op = op
                        if op is None:
                            break
                    kind = op.kind
                    if kind is _LOAD or kind is _STORE:
                        addr = op.arg1
                        is_store = kind is _STORE
                        if is_store:
                            pages_touched.add(addr >> page_shift)
                        line_addr = addr >> line_bits
                        outcome = access_line(line_addr, is_store, local)
                        if outcome is _HIT:
                            pass
                        elif outcome is _MISS or outcome is _MERGED:
                            if outcome is _MISS:
                                outbox.append(
                                    CoreRequest(_BUS, line_addr, l1.last_bus_op)
                                )
                            if not is_store:
                                pending.append((issue_seq, line_addr))
                        else:
                            break  # BLOCKED or MSHR_FULL: stall this cycle
                        issue_seq += 1
                        model._current_op = None
                        committed += 1
                        slots -= 1
                        continue
                    if kind is _COMPUTE:
                        model._compute_remaining = op.arg1
                        model._compute_rate = _ILP_RATE[op.arg2]
                        model._current_op = None
                        continue
                    model._issue_op(op)
                    issue_seq += 1
                    committed += 1
                    slots -= 1
                    if model.waiting_sync or model.finished:
                        break
                model._issue_seq = issue_seq
                model.instructions += committed
                model._fetch_seq += committed
                if committed == 0:
                    model.stall_cycles += 1
            else:
                refills = model.refills
                committed = model.cycle(local)
                self.python_refills += model.refills - refills
            emitted = bool(outbox)
            if emitted:
                for request in outbox:
                    cs.outq.append(OutMsg(self.index, local, host_now + cost, request))
                    cost += per_mem_event_ns
                tel = self._tel
                if tel is not None and tel.enabled:
                    for request in outbox:
                        kind = request.kind
                        tel.on_core_request(
                            self.index, local, _KIND_NAMES[kind], request.line_addr
                        )
                        if kind is _LOCK_ACQ or kind is _BARRIER_ARR:
                            self._sync_wait_start = local
                outbox.clear()
            times[cidx] = local + 1
            cycles += 1
            # Fused constants: (cycle + slack check) in one add.  Exact —
            # every term is an integer-valued float, so the reassociation
            # relative to the historic (cycle, then check) order cannot
            # round.
            if committed:
                cost += cycle_plus_slack_ns + committed * per_instruction_ns
            else:
                cost += stall_plus_slack_ns

            if committed == 0 and not emitted and not model.finished:
                # The pipeline can only resume after an InQ delivery.
                if local + 1 != max_local:
                    # Fast-forward stall cycles in bulk (charged per cycle).
                    cost += self._skip_stalls(cs)
                elif fast_pipeline and self._replayable:
                    # Stalled into the pacing limit (no cycles to skip).
                    self._record_stall(
                        binds[0], model, inq, times, limits, cidx,
                        window_size, access_line, line_bits, page_shift,
                    )
                break

        if cost <= 0.0:
            cost = slack_check_ns  # every step consumes host time
        if model.finished:
            result.cost_ns = cost
            result.blocked = False
            result.done = True
            return result
        max_local = limits[cidx]
        at_limit = max_local is not None and times[cidx] >= max_local
        blocked = at_limit or (model.waiting_sync and not inq)
        if blocked and at_limit:
            tel = self._tel
            if tel is not None and tel.enabled:
                tel.on_slack_stall(self.index, times[cidx], max_local)
            # Window edges synchronize with a heavyweight barrier under
            # cycle-by-cycle/quantum schemes and during the forced
            # cycle-by-cycle replay after a speculative rollback.
            if self._barrier_static:
                cost += self.cost.barrier_ns  # futex sleep at the barrier
            else:
                controller = self.sim.controller
                if controller is not None and controller.replaying:
                    cost += self.cost.barrier_ns
        result.cost_ns = cost
        result.blocked = blocked
        result.done = False
        return result

    def _record_stall(
        self, state, model, inq, times, limits, cidx,
        window_size, access_line, line_bits, page_shift,
    ) -> None:
        """Record a stall cycle that ended this step at the pacing limit.

        With nothing committed or emitted, the fast pipeline broke either
        on the reorder-window check (still true now: the pending loads
        and issue sequence are unchanged since) or on an L1 BLOCKED /
        MSHR_FULL for the current load/store.  Either way the model,
        L1 and MSHR state that decided the stall change only through an
        InQ delivery, so the next cycle stalls identically unless one is
        due.
        """
        pending = model._pending_loads
        if pending and model._issue_seq - pending[0][0] >= window_size:
            self._stall = (state, model, inq, times, limits, cidx, None, 0, False, 0)
            return
        op = model._current_op
        if op is None or (op.kind is not _LOAD and op.kind is not _STORE):
            return  # a structural or end-of-program stall: not replayed
        addr = op.arg1
        self._stall = (
            state, model, inq, times, limits, cidx,
            access_line,
            addr >> line_bits,
            op.kind is _STORE,
            addr >> page_shift,  # the page a store re-touches
        )

    def _replay_stall(self) -> bool:
        """Apply the recorded stall cycle again if it provably repeats.

        It does while the root is the same, no InQ entry is due at or
        before the local time and the pacing limit is ``local + 1``: the
        general path would then run exactly one cycle that stalls the
        same way, find no stall cycles to skip and block at the limit.
        The replay keeps every side effect of that cycle — cycle and
        stall counts, the clock, and for an L1 stall the repeated access
        (load/store counts, MSHR-full stalls, LRU clock, dirtied pages).
        Returns False (dropping the record) otherwise.
        """
        (
            state, model, inq, times, limits, cidx,
            access_line, line_addr, is_store, page,
        ) = self._stall
        local = times[cidx]
        if (
            self.sim.state is not state
            or limits[cidx] != local + 1
            or (inq and inq[0].ts <= local)
        ):
            self._stall = None
            return False
        model.cycles += 1
        model.stall_cycles += 1
        if access_line is not None:
            if is_store:
                model.pages_touched.add(page)
            access_line(line_addr, is_store, local)
        times[cidx] = local + 1
        result = self._result
        if self._barrier_static:
            result.cost_ns = self._stall_barrier_ns
        else:
            controller = self.sim.controller
            if controller is not None and controller.replaying:
                result.cost_ns = self._stall_barrier_ns
            else:
                result.cost_ns = self._stall_ns
        result.blocked = True
        result.done = False
        return True

    def _drain_while_sync_blocked(self, cs: CoreState) -> float:
        """Apply all InQ entries while descheduled on a sync wait.

        A SYNC_GRANT warps the local clock forward to the grant timestamp
        (the blocked target core resumes exactly then); the skipped cycles
        are idle-time bookkeeping only — no host cost accrues for them
        because the host thread was asleep, not simulating.
        """
        cost = 0.0
        while cs.inq and cs.model.waiting_sync:
            msg = cs.inq.popleft()
            if msg.kind == InMsgKind.SYNC_GRANT:
                if msg.ts > cs.local_time:
                    san = self._san
                    if san is not None and san.enabled:
                        # The one legal way past max_local_time: record the
                        # warp so the slack-bound check allows it.
                        san.on_sync_warp(cs.core_id, msg.ts)
                    cs.model.skip_stall_cycles(msg.ts - cs.local_time)
                    cs.local_time = msg.ts
                tel = self._tel
                if tel is not None and tel.enabled:
                    start = self._sync_wait_start
                    if start is not None:
                        tel.on_sync_wait(self.index, start, msg.ts)
                        self._sync_wait_start = None
            self._apply(cs, msg)
            cost += self.cost.per_mem_event_ns
            self.python_deliveries += 1
        return cost

    def _skip_stalls(self, cs: CoreState) -> float:
        """Bulk-advance known-stalled cycles; return the host cost."""
        times = cs._times
        cidx = cs._idx
        local = times[cidx]
        target = local + self.host.max_stall_batch
        max_local = cs._limits[cidx]
        if max_local is not None and max_local < target:
            target = max_local
        if cs.inq:
            due = cs.inq[0].ts
            if due < target:
                target = due
        skip = target - local
        if skip <= 0:
            return 0.0
        tel = self._tel
        if tel is not None and tel.enabled:
            tel.on_stall_skip(self.index, local, skip)
        cs.model.skip_stall_cycles(skip)
        times[cidx] = local + skip
        per_cycle = self.cost.stall_cycle_ns + self.cost.slack_check_ns
        return skip * per_cycle

    @staticmethod
    def _apply(cs: CoreState, msg: InMsg) -> None:
        model = cs.model
        if msg.kind == InMsgKind.FILL:
            model.complete_fill(msg.line_addr, msg.state)
        elif msg.kind == InMsgKind.SYNC_GRANT:
            model.complete_sync()
        elif msg.kind == InMsgKind.INVALIDATE:
            model.snoop_invalidate(msg.line_addr)
        elif msg.kind == InMsgKind.DOWNGRADE:
            model.snoop_downgrade(msg.line_addr)
        elif msg.kind == InMsgKind.IFILL:
            model.complete_ifill(msg.line_addr)
        else:  # pragma: no cover - guarded by InMsgKind
            raise SimulationError(f"unknown InQ message kind {msg.kind}")


class ManagerRunner:
    """Drives the simulation manager; never blocks (it polls for work).

    ``direct_cores`` restricts whose OutQs this manager consolidates
    itself; in hierarchical mode (paper section 2's "organized
    hierarchically" remedy for a bottlenecked manager) sub-managers
    forward the rest and absorb the per-event consolidation cost.
    """

    name = "manager"

    def __init__(self, sim, host: HostConfig, direct_cores=None) -> None:
        self.sim = sim
        self.host = host
        self.cost = host.cost
        self.direct_cores = direct_cores  # None = drain every core
        self._result = StepResult(0.0)
        self._tel = getattr(sim, "telemetry", None)

    def step(self, host_now: float) -> StepResult:
        sim = self.sim
        state = sim.state
        manager = state.manager
        controller = sim.controller
        if controller is None:
            outcome = manager.service(state, drain_cores=self.direct_cores)
        else:
            outcome = manager.service(
                state, drain_cores=self.direct_cores, **controller.overrides()
            )

        cost_model = self.cost
        cost = cost_model.manager_cycle_ns
        served = outcome.events_served
        if served:
            cost += served * cost_model.per_gq_event_ns
            if manager.detector.enabled:
                cost += served * cost_model.violation_tracking_ns
        if outcome.events_merged:
            cost += outcome.events_merged * cost_model.per_mem_event_ns
        if outcome.adjusted:
            cost += cost_model.adaptive_adjust_ns
        if outcome.idle:
            cost += self.host.manager_poll_ns
        else:
            tel = self._tel
            if tel is not None and tel.enabled:
                tel.on_manager_service(
                    host_now, cost, served, outcome.events_merged,
                    outcome.global_time,
                )
        result = self._result
        result.cost_ns = cost
        result.blocked = False
        result.done = False
        result.outcome = outcome
        return result


class SubManagerRunner:
    """One node of a hierarchical manager: consolidates a core group's
    OutQs into the top manager's GQ, absorbing the per-event handling
    cost that would otherwise serialize on the top manager."""

    def __init__(self, index: int, sim, host: HostConfig, core_ids) -> None:
        self.index = index
        self.sim = sim
        self.host = host
        self.cost = host.cost
        self.core_ids = list(core_ids)
        self._result = StepResult(0.0)

    @property
    def name(self) -> str:
        return f"submanager{self.index}"

    def step(self, host_now: float) -> StepResult:
        manager = self.sim.state.manager
        forwarded = manager._merge_outqs(self.sim.state, self.core_ids)
        cost = self.cost.manager_cycle_ns + forwarded * self.cost.per_mem_event_ns
        if forwarded == 0:
            cost += self.host.manager_poll_ns
        result = self._result
        result.cost_ns = cost
        result.blocked = False
        result.done = False
        result.outcome = None
        return result
