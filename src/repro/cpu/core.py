"""Out-of-order core timing model.

Models the paper's 4-way-issue, 64-in-flight NetBurst-like core with a
window-occupancy pipeline model:

- each cycle offers ``issue_width`` issue slots;
- compute bursts are throttled by their ILP class (dependence-chained code
  issues ~1/cycle; unrolled numeric code fills the width);
- loads and stores access the lock-up-free L1 in the execution stage (as in
  SlackSim, which executes instructions at the execution units rather than
  at dispatch);
- a load miss does not stop issue: execution proceeds until the reorder
  window fills (``window_size`` instructions issued past the oldest
  outstanding load miss), capturing memory-level parallelism;
- stores retire through a store buffer and never stall the window (only
  MSHR exhaustion stalls them);
- workload synchronization ops (lock/barrier) serialize the pipeline and
  are executed by the manager (MP_Simplesim-style).

The instruction cache is modeled as ideal; the paper's scaled-down 16 KB
L1I sees negligible miss rates on the small SPLASH-2 kernels, and no
coherence traffic flows through it (see DESIGN.md substitutions).
"""

from __future__ import annotations

import copy
from collections import deque
from enum import IntEnum
from typing import Deque, List, Optional, Tuple

from repro.config import CoreConfig, TargetConfig
from repro.errors import SimulationError
from repro.isa.operations import ILP_HIGH, ILP_LOW, ILP_MED, Op, OpKind
from repro.isa.program import ProgramInterpreter
from repro.memory.cache import CacheArray
from repro.memory.l1 import L1Cache, L1Outcome
from repro.memory.mesi import BusOpKind, MesiState


class RequestKind(IntEnum):
    """Kinds of requests a core thread posts to its OutQ."""

    BUS = 0  #: coherence transaction (GETS/GETX/UPGR), carries a line
    WRITEBACK = 1  #: dirty eviction toward the L2
    LOCK_ACQUIRE = 2
    LOCK_RELEASE = 3
    BARRIER_ARRIVE = 4
    IFETCH = 5  #: instruction-line fetch (read-only GETS)


# repro: hot-path
class CoreRequest:
    """One outgoing request produced by the core model."""

    __slots__ = ("kind", "line_addr", "bus_op", "sync_id", "participants")

    def __init__(
        self,
        kind: RequestKind,
        line_addr: int = 0,
        bus_op: Optional[BusOpKind] = None,
        sync_id: int = 0,
        participants: int = 0,
    ) -> None:
        self.kind = kind
        self.line_addr = line_addr
        self.bus_op = bus_op
        self.sync_id = sync_id
        self.participants = participants

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CoreRequest({self.kind.name}, line={self.line_addr}, bus={self.bus_op})"

    def __deepcopy__(self, memo) -> "CoreRequest":
        # Immutable once posted: snapshots share requests instead of
        # copying.
        return self


_ILP_RATE = {ILP_LOW: 1, ILP_MED: 2, ILP_HIGH: 64}

# Hot-loop aliases (module-level loads are cheaper than enum attribute
# lookups inside the per-cycle issue loop).
_LOAD = OpKind.LOAD
_STORE = OpKind.STORE
_COMPUTE = OpKind.COMPUTE
_HIT = L1Outcome.HIT
_MISS = L1Outcome.MISS
_MERGED = L1Outcome.MERGED
_BUS = RequestKind.BUS

#: Base byte address of the shared code region (all threads run one
#: binary, as the SPLASH programs do).
_CODE_BASE = 0x0800_0000


class CoreModel:
    """One target core plus its private L1 (the unit one core thread owns)."""

    #: Optional :class:`~repro.telemetry.TelemetrySession`, attached by the
    #: simulation façade.  The session deep-copies as itself, so checkpoint
    #: snapshots of this model share the live session rather than forking it.
    telemetry = None

    def __init__(
        self,
        core_id: int,
        target: TargetConfig,
        program: ProgramInterpreter,
    ) -> None:
        self.core_id = core_id
        self.config: CoreConfig = target.core
        self.l1 = L1Cache(core_id, target.l1d, target.core)
        self.program = program
        self.outbox: List[CoreRequest] = []  # drained by the core thread
        # Per-cycle hot constants, denormalized off the frozen config.
        self._issue_width = target.core.issue_width
        self._window_size = target.core.window_size

        # Optional instruction-fetch model: the committed stream walks a
        # *shared* wrapping code region (SPLASH threads run one binary);
        # fetch stalls on L1I misses, filled over the bus like any
        # read-shared line.
        self._icache = CacheArray(target.l1i) if target.core.model_icache else None
        self._code_lines = max(
            1, target.core.code_footprint // target.l1i.line_size
        )
        self._code_base_line = _CODE_BASE // target.l1i.line_size
        self._fetch_seq = 0  # instructions fetched (drives the fetch PC)
        self._instrs_per_line = max(
            1, target.l1i.line_size // target.core.instruction_bytes
        )
        self._fetch_line = -1  # line currently feeding the pipeline
        self._ifetch_pending: Optional[int] = None
        self.ifetch_stall_cycles = 0

        self._current_op: Optional[Op] = None
        self._compute_remaining = 0
        self._compute_rate = 1
        self._issue_seq = 0  # total instructions issued
        # Outstanding load misses as (issue_seq at issue, line_addr); the
        # window is full when issue_seq outruns the oldest by window_size.
        self._pending_loads: Deque[Tuple[int, int]] = deque()
        self.waiting_sync = False
        self.finished = False
        # Pages written since the last checkpoint (drives the COW cost of
        # the fork()-style checkpoint model; cleared by the controller).
        self._page_shift = target.memory.page_size.bit_length() - 1
        self.pages_touched: set = set()

        # Program refills made by cycle(): host-side, read by the core
        # runner for Scheduler.path_counts, never part of a report.
        self.refills = 0

        # Statistics
        self.cycles = 0
        self.stall_cycles = 0
        self.sync_stall_cycles = 0
        self.instructions = 0

    def __deepcopy__(self, memo) -> "CoreModel":
        """Checkpoint-residue clone: share immutables, copy live state.

        Starts from a reference-sharing ``__dict__`` copy (correct for
        every scalar and frozen-config attribute, present and future) and
        then replaces the mutable fields explicitly — keep that list in
        lockstep with ``__init__`` when adding mutable state.
        """
        cls = self.__class__
        new = cls.__new__(cls)
        memo[id(self)] = new
        d = new.__dict__
        d.update(self.__dict__)
        d["l1"] = copy.deepcopy(self.l1, memo)
        d["program"] = self.program.__deepcopy__(memo)
        d["outbox"] = copy.deepcopy(self.outbox, memo)
        if self._icache is not None:
            # Through the memo: the snapshot layer maps tracked arrays
            # onto frozen stubs.
            d["_icache"] = copy.deepcopy(self._icache, memo)
        d["_pending_loads"] = deque(self._pending_loads)  # tuples of ints
        d["pages_touched"] = set(self.pages_touched)
        return new

    # ------------------------------------------------------------------ #
    # Pipeline
    # ------------------------------------------------------------------ #

    def cycle(self, now: int) -> int:
        """Simulate one core cycle at core-local time ``now``.

        Returns the number of instructions committed this cycle.  Requests
        generated during the cycle are appended to :attr:`outbox`.
        """
        self.cycles += 1
        if self.finished or self.waiting_sync:
            self.sync_stall_cycles += self.waiting_sync
            self.stall_cycles += 1
            return 0
        if self._icache is not None:
            # Fetch stalls until the code line feeding the pipeline is
            # resident; an L1I miss posts an IFETCH bus request and waits
            # for complete_ifill.
            if self._ifetch_pending is not None:
                self.ifetch_stall_cycles += 1
                self.stall_cycles += 1
                return 0
            line = (
                self._code_base_line
                + (self._fetch_seq // self._instrs_per_line) % self._code_lines
            )
            if line != self._fetch_line:
                if self._icache.find(line) is not None:
                    self._fetch_line = line
                else:
                    self.outbox.append(
                        CoreRequest(RequestKind.IFETCH, line_addr=line)
                    )
                    self._ifetch_pending = line
                    self.ifetch_stall_cycles += 1
                    self.stall_cycles += 1
                    return 0

        committed = 0
        slots = self._issue_width
        window_size = self._window_size
        pending = self._pending_loads
        program = self.program
        l1 = self.l1
        line_bits = l1._line_bits
        outbox = self.outbox
        pages_touched = self.pages_touched
        page_shift = self._page_shift
        issue_seq = self._issue_seq
        while slots > 0:
            if pending and issue_seq - pending[0][0] >= window_size:
                break  # reorder window full behind the oldest load miss
            remaining = self._compute_remaining
            if remaining > 0:
                take = self._compute_rate
                if slots < take:
                    take = slots
                if remaining < take:
                    take = remaining
                self._compute_remaining = remaining - take
                issue_seq += take
                committed += take
                slots -= take
                if remaining > take:
                    # The burst's dependence chain caps this cycle's issue;
                    # later program-order ops cannot bypass it either.
                    break
                continue
            op = self._current_op
            if op is None:
                buffer = program._buffer
                if buffer:
                    op = buffer.popleft()
                else:
                    self.refills += 1
                    op = program.next_op()
                self._current_op = op
                if op is None:
                    break
            kind = op.kind
            if kind is _LOAD or kind is _STORE:
                # Memory ops issue here, never through _issue_op: they are
                # ~half of all issued instructions, and they never finish
                # or block the thread.
                addr = op.arg1
                is_store = kind is _STORE
                if is_store:
                    pages_touched.add(addr >> page_shift)
                line_addr = addr >> line_bits
                outcome = l1.access_line(line_addr, is_store, now)
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
                    # BLOCKED or MSHR_FULL: leave the op in place and
                    # stall this cycle.
                    break
                issue_seq += 1
                self._current_op = None
                committed += 1
                slots -= 1
                continue
            if kind is _COMPUTE:
                # Burst setup: record the burst; its instructions issue via
                # the branch above (no slot is charged for the setup itself).
                self._compute_remaining = op.arg1
                self._compute_rate = _ILP_RATE[op.arg2]
                self._current_op = None
                continue
            self._issue_op(op)
            issue_seq += 1
            committed += 1
            slots -= 1
            if self.waiting_sync or self.finished:
                break

        self._issue_seq = issue_seq
        self.instructions += committed
        self._fetch_seq += committed
        if committed == 0:
            self.stall_cycles += 1
        return committed

    def _issue_op(self, op: Op) -> None:
        """Issue one synchronization or THREAD_END op; the caller counts it.

        Loads, stores and compute bursts issue inline in the pipelines
        (:meth:`cycle` and the fused step in ``repro.core.threads``).
        """
        kind = op.kind
        if kind == OpKind.LOCK:
            self.outbox.append(CoreRequest(RequestKind.LOCK_ACQUIRE, sync_id=op.arg1))
            self.waiting_sync = True
        elif kind == OpKind.UNLOCK:
            self.outbox.append(CoreRequest(RequestKind.LOCK_RELEASE, sync_id=op.arg1))
        elif kind == OpKind.BARRIER:
            self.outbox.append(
                CoreRequest(RequestKind.BARRIER_ARRIVE, sync_id=op.arg1, participants=op.arg2)
            )
            self.waiting_sync = True
        elif kind == OpKind.THREAD_END:
            self.finished = True
        else:
            raise SimulationError(f"core {self.core_id}: unknown op kind {kind}")
        self._current_op = None

    def commit_burst(self, max_cycles: int) -> Tuple[int, int]:
        """Commit up to ``max_cycles`` full-rate compute-burst cycles at once.

        A cycle qualifies when the whole cycle is the compute-burst branch
        of :meth:`cycle` and nothing else: the burst's dependence chain
        caps issue at ``k = min(issue_width, rate)`` instructions, no other
        op issues, no request is emitted, and the burst continues past the
        cycle.  Every counter advances exactly as ``m`` individual
        :meth:`cycle` calls would (bit-for-bit); the final burst cycle is
        always left to :meth:`cycle`, because its leftover slots may issue
        subsequent program ops.

        Returns ``(cycles_committed, instructions_committed)``.
        """
        remaining = self._compute_remaining
        if remaining <= 1 or self.finished or self.waiting_sync:
            return 0, 0
        k = self.config.issue_width
        if self._compute_rate < k:
            k = self._compute_rate
        m = (remaining - 1) // k
        if m > max_cycles:
            m = max_cycles
        if self._pending_loads:
            # Stop one cycle short of filling the reorder window.
            avail = self.config.window_size - (
                self._issue_seq - self._pending_loads[0][0]
            )
            if avail <= 0:
                return 0, 0  # stalled: the normal path accounts for it
            cap = (avail - 1) // k + 1
            if m > cap:
                m = cap
        if self._icache is not None:
            # Fetch must stay inside the currently-resident code line for
            # every bulk cycle; crossing a line boundary goes through
            # cycle() (lookup side effects, possible IFETCH miss).
            if self._ifetch_pending is not None:
                return 0, 0
            ipl = self._instrs_per_line
            line = self._code_base_line + (self._fetch_seq // ipl) % self._code_lines
            if line != self._fetch_line:
                return 0, 0
            cap = (ipl - 1 - self._fetch_seq % ipl) // k + 1
            if m > cap:
                m = cap
        if m <= 0:
            return 0, 0
        instrs = m * k
        self._compute_remaining = remaining - instrs
        self._issue_seq += instrs
        self._fetch_seq += instrs
        self.instructions += instrs
        self.cycles += m
        return m, instrs

    def skip_stall_cycles(self, count: int) -> None:
        """Account for ``count`` cycles in which the pipeline is known to be
        fully stalled (the core thread fast-forwards them in bulk; the host
        cost model still charges per cycle, so host-time behaviour is
        unchanged)."""
        self.cycles += count
        self.stall_cycles += count
        if self.waiting_sync:
            self.sync_stall_cycles += count

    # ------------------------------------------------------------------ #
    # External completions (driven by InQ deliveries)
    # ------------------------------------------------------------------ #

    def complete_fill(self, line_addr: int, state: MesiState) -> None:
        """A bus transaction for ``line_addr`` completed; fill the L1."""
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.on_fill(self.core_id)
        victim_addr, victim_dirty = self.l1.fill(line_addr, state)
        if victim_dirty and victim_addr is not None:
            self.outbox.append(CoreRequest(RequestKind.WRITEBACK, line_addr=victim_addr))
        pending = self._pending_loads
        for entry in pending:
            if entry[1] == line_addr:
                # Rebuild only when the filled line is actually pending.
                self._pending_loads = deque(
                    e for e in pending if e[1] != line_addr
                )
                break

    def complete_sync(self) -> None:
        """A lock grant or barrier release arrived; resume the pipeline."""
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.on_sync_resume(self.core_id)
        self.waiting_sync = False

    def complete_ifill(self, line_addr: int) -> None:
        """An instruction-line fetch completed; resume instruction fetch."""
        if self._icache is None:  # pragma: no cover - defensive
            return
        self._icache.fill(line_addr, MesiState.SHARED)
        if self._ifetch_pending == line_addr:
            self._ifetch_pending = None
            self._fetch_line = line_addr

    def snoop_invalidate(self, line_addr: int) -> None:
        """Apply a remote invalidation to the L1."""
        self.l1.snoop_invalidate(line_addr)

    def snoop_downgrade(self, line_addr: int) -> None:
        """Apply a remote downgrade (M/E -> S) to the L1.

        A Modified copy's dirty data reaches the L2 as part of the
        manager's cache-to-cache transfer, so nothing is written back here.
        """
        self.l1.snoop_downgrade(line_addr)

    # ------------------------------------------------------------------ #

    def cpi(self) -> float:
        """Cycles per committed instruction so far."""
        return self.cycles / self.instructions if self.instructions else 0.0
