"""Core-side private L1 data cache controller (lock-up free).

Each SlackSim core thread simulates its target core *and its L1 caches*
(paper Figure 1).  The L1 resolves hits locally in one cycle; misses
allocate an MSHR and surface a bus-transaction request that the core thread
posts to its OutQ for the manager to service.
"""

from __future__ import annotations

import copy
from enum import IntEnum
from typing import List, Optional, Tuple

from repro.config import CacheConfig, CoreConfig
from repro.memory.cache import PAGE_BITS, CacheArray
from repro.memory.mesi import BusOpKind, MesiState
from repro.memory.mshr import MshrEntry, MshrFile


class L1Outcome(IntEnum):
    """Result category of one L1 access attempt."""

    HIT = 0  #: satisfied locally this cycle
    MISS = 1  #: new miss; a bus transaction must be issued
    MERGED = 2  #: merged into an outstanding MSHR for the same line
    BLOCKED = 3  #: conflicts with an incompatible outstanding miss; retry
    MSHR_FULL = 4  #: structural stall; retry when an MSHR frees up


class L1AccessResult:
    """Outcome of an access, with the bus op to issue for new misses."""

    __slots__ = ("outcome", "line_addr", "bus_op")

    def __init__(
        self,
        outcome: L1Outcome,
        line_addr: int,
        bus_op: Optional[BusOpKind] = None,
    ) -> None:
        self.outcome = outcome
        self.line_addr = line_addr
        self.bus_op = bus_op


# Hot-path aliases (module loads beat enum attribute lookups per access).
_HIT = L1Outcome.HIT
_MISS = L1Outcome.MISS
_MERGED = L1Outcome.MERGED
_BLOCKED = L1Outcome.BLOCKED
_MSHR_FULL = L1Outcome.MSHR_FULL
_GETS = BusOpKind.GETS
_GETX = BusOpKind.GETX
_UPGR = BusOpKind.UPGR
_EXCLUSIVE = MesiState.EXCLUSIVE
_MODIFIED = MesiState.MODIFIED


class L1Cache:
    """Private L1D with MSHRs, driven by one core's memory operations."""

    def __init__(self, core_id: int, config: CacheConfig, core_config: CoreConfig) -> None:
        self.core_id = core_id
        self.array = CacheArray(config)
        self.mshrs = MshrFile(core_config.num_mshrs)
        self.hit_latency = config.hit_latency
        self._line_bits = self.array.mapper.line_bits
        #: Bus op of the most recent :attr:`L1Outcome.MISS` from
        #: :meth:`access_line` (valid only immediately after such a return;
        #: lets the hot path avoid allocating an L1AccessResult per op).
        self.last_bus_op: Optional[BusOpKind] = None
        # Statistics
        self.loads = 0
        self.stores = 0
        self.load_misses = 0
        self.store_misses = 0
        self.upgrades = 0
        self.writebacks = 0
        self.snoop_invalidations = 0
        self.snoop_downgrades = 0

    def __deepcopy__(self, memo) -> "L1Cache":
        """Checkpoint-residue clone: scalars share, array/MSHRs copy.

        The array goes through the memo so the snapshot layer can map it
        onto a frozen stub.
        """
        new = L1Cache.__new__(L1Cache)
        memo[id(self)] = new
        new.__dict__.update(self.__dict__)
        new.array = copy.deepcopy(self.array, memo)
        new.mshrs = self.mshrs.__deepcopy__(memo)
        return new

    # ------------------------------------------------------------------ #
    # Access path (called by the core model)
    # ------------------------------------------------------------------ #

    def access(self, addr: int, is_store: bool, now: int) -> L1AccessResult:
        """Attempt one load/store at core-local time ``now``.

        Returns the outcome; for :attr:`L1Outcome.MISS` the caller must
        allocate the bus transaction (the MSHR has already been charged).
        Thin wrapper over :meth:`access_line` (the engine's entry point);
        both share one implementation.
        """
        line_addr = addr >> self._line_bits
        outcome = self.access_line(line_addr, is_store, now)
        bus_op = self.last_bus_op if outcome is _MISS else None
        return L1AccessResult(outcome, line_addr, bus_op)

    def access_line(self, line_addr: int, is_store: bool, now: int) -> L1Outcome:
        """Allocation-free access fast path; ``line_addr`` is pre-shifted.

        Semantics are bit-for-bit those of :meth:`access`; for
        :attr:`L1Outcome.MISS` the bus op to issue is left in
        :attr:`last_bus_op`.  The tag probe and LRU touch are
        :meth:`CacheArray.find` — the one shared scan implementation.
        """
        array = self.array
        slot = array.find(line_addr)
        if not is_store:
            self.loads += 1
            if slot is not None:
                array.hits += 1
                return _HIT
            kind = _GETS
        else:
            self.stores += 1
            if slot is not None:
                states = array._state
                if states[slot] >= _EXCLUSIVE:  # writable (E or M) -> M
                    # A content write: dirty the slot's page (find() marks
                    # none), so a rollback rewinds an E -> M upgrade.
                    states[slot] = _MODIFIED
                    if array._shadow is not None:
                        array._dirty.add(slot >> PAGE_BITS)
                    array.hits += 1
                    return _HIT
                # Store to a Shared line: needs an upgrade transaction.
                kind = _UPGR
            else:
                kind = _GETX
        mshrs = self.mshrs
        outstanding = mshrs._entries.get(line_addr)
        if outstanding is not None:
            # Loads merge into any outstanding miss; stores only into a
            # transaction that will grant write permission.  (MshrFile.merge
            # inlined: it would re-do the entry lookup we just did.)
            ok = outstanding.kind
            if not is_store or ok is _GETX or ok is _UPGR:
                outstanding.merged_rob_ids.append(0)
                mshrs.merges += 1
                return _MERGED
            return _BLOCKED
        if len(mshrs._entries) >= mshrs.capacity:
            mshrs.full_stalls += 1
            return _MSHR_FULL
        mshrs.allocate(line_addr, kind, now)
        array.misses += 1
        if is_store:
            if kind is _UPGR:
                self.upgrades += 1
            else:
                self.store_misses += 1
        else:
            self.load_misses += 1
        self.last_bus_op = kind
        return _MISS

    # ------------------------------------------------------------------ #
    # Fill path (called when the manager's response arrives)
    # ------------------------------------------------------------------ #

    def fill(self, line_addr: int, state: MesiState) -> Tuple[Optional[int], bool]:
        """Complete an outstanding miss; install the line.

        Returns ``(victim_line_addr, victim_dirty)`` so the core thread can
        post a writeback for a Modified victim.  Upgrade completions mutate
        the resident line in place (no victim).
        """
        entry = self.mshrs.release(line_addr)
        if entry.kind == BusOpKind.UPGR:
            slot = self.array.find(line_addr, touch=False)
            if slot is not None:
                self.array.write_state(slot, state)
                return None, False
            # The line was invalidated by a remote GETX while the upgrade
            # was in flight; fall through and install it fresh.
        victim_addr, victim_state = self.array.fill(line_addr, state)
        victim_dirty = victim_state == MesiState.MODIFIED
        if victim_dirty:
            self.writebacks += 1
        return victim_addr, victim_dirty

    def pending(self, line_addr: int) -> Optional[MshrEntry]:
        """The outstanding MSHR entry for a line, if any."""
        return self.mshrs.get(line_addr)

    # ------------------------------------------------------------------ #
    # Snoop path (coherence events pushed by the manager)
    # ------------------------------------------------------------------ #

    def snoop_invalidate(self, line_addr: int) -> MesiState:
        """Remote GETX/UPGR: drop our copy; return the prior state."""
        prior = self.array.invalidate(line_addr)
        if prior != MesiState.INVALID:
            self.snoop_invalidations += 1
        return prior

    def snoop_downgrade(self, line_addr: int) -> MesiState:
        """Remote GETS: demote M/E to Shared; return the prior state."""
        array = self.array
        slot = array.find(line_addr, touch=False)
        if slot is None:
            return MesiState.INVALID
        prior = MesiState(array._state[slot])
        if prior in (MesiState.MODIFIED, MesiState.EXCLUSIVE):
            array.write_state(slot, MesiState.SHARED)
            self.snoop_downgrades += 1
        return prior

    # ------------------------------------------------------------------ #

    def resident_lines(self):
        """Valid lines and states (used by coherence-invariant tests)."""
        return self.array.resident_lines()

    def miss_rate(self) -> float:
        """Combined load+store miss rate."""
        accesses = self.loads + self.stores
        if accesses == 0:
            return 0.0
        return (self.load_misses + self.store_misses + self.upgrades) / accesses
