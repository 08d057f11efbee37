"""Copy-on-write snapshot layer for :class:`~repro.core.state.SimulationState`.

The historic checkpoint was a full ``copy.deepcopy`` of the state root —
tens of thousands of cache-line objects per snapshot, regardless of how
few of them changed.  This module makes snapshots O(writes):

- **Cache arrays** (the bulk of the state) track writes at page
  granularity themselves (``CacheArray._dirty``; a page is
  ``memory.cache.PAGE_SLOTS`` consecutive slots of the flat SoA banks).
  ``take`` folds only the dirty pages into each array's shadow banks;
  ``restore`` copies those pages back and patches the tag index.
- **The cache status map** keeps a first-touch undo journal
  (``CacheStatusMap._journal``): ``take`` resets it, ``restore`` replays
  it in reverse.
- **Everything else** (queues, interpreters, clock banks, MSHRs, scheme
  dynamics, detector counters — all small and write-heavy) is the
  *residue*: it is still deep-copied, but with the arrays and the map
  pre-seeded into the deepcopy memo as frozen scalar stubs, so the copy
  never descends into the banks.  ``restore`` deep-copies the residue
  back with the stubs mapped onto the live (bank-restored) objects,
  producing a fresh root that shares the rewound arrays.

Snapshots are generation-tagged: each ``take`` advances a serial and
stamps it on every array's shadow.  Only the most recent snapshot of a
state is restorable (taking a new one overwrites the shadows); restoring
a superseded snapshot raises :class:`~repro.errors.CheckpointError`
instead of silently resurrecting torn state.

The protocol only sees writes that go through the tracked APIs: bank
writes must use the ``CacheArray`` mutators (or mark ``_dirty``
themselves), and map writes must go through the ``apply_*``
transactions.  Anything else that hangs off the root is residue and may
be mutated freely between checkpoints.
"""

from __future__ import annotations

import copy
from itertools import count
from typing import List, Optional, Tuple

from repro.core.state import SimulationState
from repro.errors import CheckpointError
from repro.memory.cache import CacheArray
from repro.memory.cache_map import CacheStatusMap

#: Snapshot generation serial (host-side bookkeeping only; never feeds
#: modeled time or the report digest).
_GENERATION = count(1)


class _ArrayStub:
    """Frozen scalars of one CacheArray at snapshot time.

    Doubles as the deepcopy placeholder for the array inside the residue:
    ``take`` seeds ``memo[id(array)] = stub`` so the residue copy holds
    stubs, and ``restore`` seeds ``memo[id(stub)] = array`` so the copied
    residue points back at the live, bank-restored array.
    """

    __slots__ = ("clock", "hits", "misses", "evictions")

    def __init__(self, array: CacheArray) -> None:
        self.clock = array._clock
        self.hits = array.hits
        self.misses = array.misses
        self.evictions = array.evictions

    def apply(self, array: CacheArray) -> None:
        array._clock = self.clock
        array.hits = self.hits
        array.misses = self.misses
        array.evictions = self.evictions


class _MapStub:
    """Frozen statistics of the cache status map (entries go via journal)."""

    __slots__ = ("gets_served", "getx_served", "upgr_served", "writebacks",
                 "cache_to_cache")

    def __init__(self, cmap: CacheStatusMap) -> None:
        self.gets_served = cmap.gets_served
        self.getx_served = cmap.getx_served
        self.upgr_served = cmap.upgr_served
        self.writebacks = cmap.writebacks
        self.cache_to_cache = cmap.cache_to_cache

    def apply(self, cmap: CacheStatusMap) -> None:
        cmap.gets_served = self.gets_served
        cmap.getx_served = self.getx_served
        cmap.upgr_served = self.upgr_served
        cmap.writebacks = self.writebacks
        cmap.cache_to_cache = self.cache_to_cache


class StateSnapshot:
    """One copy-on-write checkpoint of a simulation state root."""

    __slots__ = (
        "generation",
        "residue",
        "_arrays",
        "_cmap",
        "_cmap_stub",
        "host_pages",
    )

    def __init__(
        self,
        generation: int,
        residue: SimulationState,
        arrays: List[Tuple[CacheArray, _ArrayStub]],
        cmap: CacheStatusMap,
        cmap_stub: _MapStub,
        host_pages: int,
    ) -> None:
        self.generation = generation
        self.residue = residue
        self._arrays = arrays
        self._cmap = cmap
        self._cmap_stub = cmap_stub
        #: Pages actually copied into the shadows by this take (host-side
        #: measurement; the modeled cost uses target pages_touched).
        self.host_pages = host_pages


def tracked_arrays(state: SimulationState) -> List[CacheArray]:
    """Every CacheArray hanging off ``state``, in deterministic order."""
    arrays: List[CacheArray] = []
    for cs in state.cores:
        arrays.append(cs.model.l1.array)
        icache = cs.model._icache
        if icache is not None:
            arrays.append(icache)
    arrays.append(state.manager.l2.array)
    return arrays


def take(state: SimulationState) -> StateSnapshot:
    """Capture a copy-on-write snapshot of ``state``.

    Cost is proportional to the pages written since the previous snapshot
    of this state (plus the residue, whose size is independent of the
    cache geometry).
    """
    generation = next(_GENERATION)
    memo: dict = {}
    arrays: List[Tuple[CacheArray, _ArrayStub]] = []
    host_pages = 0
    for array in tracked_arrays(state):
        stub = _ArrayStub(array)
        host_pages += array.snapshot_sync()
        array._snap_epoch = generation
        memo[id(array)] = stub
        arrays.append((array, stub))
    cmap = state.manager.cache_map
    cmap_stub = _MapStub(cmap)
    cmap.journal_reset()
    memo[id(cmap)] = cmap_stub
    residue = copy.deepcopy(state, memo)
    return StateSnapshot(generation, residue, arrays, cmap, cmap_stub, host_pages)


def restore(snapshot: StateSnapshot) -> SimulationState:
    """Rewind to ``snapshot``; return a fresh working state root.

    The snapshot stays pristine: the arrays' shadows and the residue are
    never mutated here, so the same snapshot can be restored repeatedly
    (each restore returns a fresh root sharing the rewound arrays).
    Raises :class:`CheckpointError` if a newer snapshot has been taken
    since (its shadows have overwritten this one's).
    """
    memo: dict = {}
    for array, stub in snapshot._arrays:
        if array._snap_epoch != snapshot.generation:
            raise CheckpointError(
                "snapshot superseded: a newer checkpoint of this state "
                "has overwritten the copy-on-write shadows"
            )
        array.snapshot_restore()
        stub.apply(array)
        memo[id(stub)] = array
    cmap = snapshot._cmap
    cmap.journal_revert()
    snapshot._cmap_stub.apply(cmap)
    memo[id(snapshot._cmap_stub)] = cmap
    return copy.deepcopy(snapshot.residue, memo)
