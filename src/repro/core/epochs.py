"""Canonical encoding of a machine at a cut.

:func:`encode_machine` renders the full machine state of a run suspended
at a cut (``Run.advance(until)``; the cut predicate is re-exported below
under its historical name ``make_stop_predicate``) as **versioned,
pickle-free plain data**, mirroring the ``RunSpec`` codec discipline of
``repro.service.protocol``.  Two runs of one configuration cut at the
same position encode byte-equal (as canonical JSON) whether or not they
were cut before — which is what makes the encoding a state hash a trace
diff can compare, and what the e2e benchmark's layer pass times
(``epochs.encode_ms`` / ``epochs.encoded_kb``).  Nothing in the tree
decodes it.

The :class:`~repro.core.state.SimulationState` object graph is rendered
as tagged plain data against a **class allowlist**, with memo references
preserving aliasing (the flat clock banks shared by root and cores, the
``_models`` view, shared configs), floats via ``float.hex`` (exact to
the last ulp), and dict entries in insertion order (which is semantic:
the manager serves maps and queues in that order).  Program structure —
statement trees whose ``Emit`` / ``If`` / ``Loop`` nodes hold *callables*
that are not data — is never serialized: it is a pure function of the
run configuration, so statements and their body tuples are encoded as
**anchor references** into a deterministic walk of the simulation's
programs.

The encoding deliberately excludes host-side caches that the engine
rebuilds on demand (copy-on-write shadows, the status-map undo journal,
the manager's reused outcome scratch object), keeping it a pure function
of simulation-visible state.

Fields are read off the live instances (``__slots__`` / ``__dict__``),
so there is no second field list to keep in step with the classes: a
class outside the allowlist raises :class:`~repro.errors.EpochError`
naming it, and the tests check that every skipped field is a live
attribute the encoding leaves out.

This module deals only in plain data (the caller chooses the byte form,
normally canonical JSON), keeping ``repro.core`` free of serialization
imports.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import Any, Dict, List, Tuple

from repro.config import (
    AdaptiveConfig,
    AdaptiveQuantumConfig,
    BusConfig,
    CacheConfig,
    CheckpointConfig,
    CoreConfig,
    L2Config,
    MemoryConfig,
    P2PConfig,
    QuantumConfig,
    SlackConfig,
    SpeculativeConfig,
    TargetConfig,
)
from repro.core.events import InMsg, InMsgKind, OutMsg
from repro.core.hostmodel import ThreadState
from repro.core.manager import ManagerState
from repro.core.schemes.adaptive import AdaptiveSlackPolicy
from repro.core.schemes.adaptive_quantum import AdaptiveQuantumPolicy
from repro.core.schemes.fixed import FixedSlackPolicy, QuantumPolicy
from repro.core.schemes.p2p import P2PPolicy
from repro.core.simulation import cut_rule as make_stop_predicate
from repro.core.speculative import IntervalRecord
from repro.core.state import CoreState, SimulationState
from repro.core.violations import (
    MapMonitorTable,
    TimestampMonitor,
    ViolationDetector,
    ViolationRecord,
)
from repro.cpu.core import CoreModel, CoreRequest, RequestKind
from repro.errors import EpochError
from repro.isa.operations import Op, OpKind
from repro.isa.program import If, Loop, ProgramContext, ProgramInterpreter, Stmt, _Frame
from repro.memory.address import AddressMapper
from repro.memory.bus import SnoopBus
from repro.memory.cache import CacheArray
from repro.memory.cache_map import CacheStatusMap
from repro.memory.dram import DramConfig, DramModel
from repro.memory.l1 import L1Cache
from repro.memory.l2 import L2Cache
from repro.memory.mesi import BusOpKind, MesiState
from repro.memory.mshr import MshrEntry, MshrFile
from repro.sync.primitives import (
    BarrierTable,
    LockTable,
    SyncTimingConfig,
    _BarrierState,
    _LockState,
)
from repro.util import SplitMix64, XorShift64

__all__ = [
    "MACHINE_WIRE_VERSION",
    "encode_machine",
    "machine_anchors",
    "make_stop_predicate",
]

#: Bumped whenever the wire layout, the class allowlist, or the skip-field
#: table changes shape; carried as ``"v"`` in every encoding.
MACHINE_WIRE_VERSION = 1

#: Every class the state-graph encoder may render.  Anything
#: outside this allowlist raises a structured error naming the class —
#: new state classes must be added here *deliberately* (and the wire
#: version bumped if their shape matters).
_REGISTRY: Dict[str, type] = {
    cls.__name__: cls
    for cls in (
        SimulationState,
        CoreState,
        ManagerState,
        CoreModel,
        CoreRequest,
        ProgramInterpreter,
        ProgramContext,
        _Frame,
        Op,
        L1Cache,
        MshrFile,
        MshrEntry,
        CacheArray,
        AddressMapper,
        CacheStatusMap,
        SnoopBus,
        L2Cache,
        DramModel,
        LockTable,
        _LockState,
        BarrierTable,
        _BarrierState,
        ViolationDetector,
        TimestampMonitor,
        MapMonitorTable,
        ViolationRecord,
        OutMsg,
        InMsg,
        FixedSlackPolicy,
        QuantumPolicy,
        AdaptiveSlackPolicy,
        AdaptiveQuantumPolicy,
        P2PPolicy,
        SplitMix64,
        XorShift64,
        # Immutable configuration (aliased throughout the graph; encoded
        # by reference via the memo so aliasing survives the round trip).
        TargetConfig,
        CoreConfig,
        CacheConfig,
        BusConfig,
        L2Config,
        MemoryConfig,
        DramConfig,
        SyncTimingConfig,
        SlackConfig,
        QuantumConfig,
        AdaptiveConfig,
        AdaptiveQuantumConfig,
        P2PConfig,
        CheckpointConfig,
        SpeculativeConfig,
    )
}

#: Enum classes the codec may carry (tagged by class name + value).
_ENUMS: Dict[str, type] = {
    cls.__name__: cls
    for cls in (MesiState, BusOpKind, InMsgKind, RequestKind, OpKind, ThreadState)
}

#: Per-class fields excluded from the wire: host-side rebuild-on-demand
#: caches whose content is history-dependent but simulation-invisible,
#: and the core model's refill count (a host-side path count); leaving
#: them out keeps the encoding a pure function of simulation-visible
#: state.
_SKIP_FIELDS: Dict[type, frozenset] = {
    CacheArray: frozenset({"_dirty", "_shadow", "_snap_epoch"}),
    CacheStatusMap: frozenset({"_journal"}),
    ManagerState: frozenset({"_outcome"}),
    CoreModel: frozenset({"refills"}),
}

#: Observation-only session references (telemetry / sanitizer probes) are
#: never serialized regardless of the owning class.
_GLOBAL_SKIP = frozenset({"telemetry", "sanitizer"})


# --------------------------------------------------------------------- #
# Program-structure anchors
# --------------------------------------------------------------------- #


def machine_anchors(state: SimulationState) -> Tuple[Dict[int, int], List[Any]]:
    """Deterministic walk of the state's program structure.

    Returns ``(by_id, objects)``: the id->index map the encoder consults
    and the index->object list behind it.  Simulations built from the
    same configuration enumerate structurally identical objects in
    identical order; sharing (a statement reused across threads, the
    ``()`` empty-body singleton) is first-wins.
    """
    by_id: Dict[int, int] = {}
    objects: List[Any] = []

    def note(obj: Any) -> bool:
        # Walk-local dedup: indices, not ids, reach the wire.
        if id(obj) in by_id:
            return False
        by_id[id(obj)] = len(objects)
        objects.append(obj)
        return True

    def walk(stmts: Tuple[Stmt, ...]) -> None:
        if not note(stmts):
            return
        for stmt in stmts:
            if not note(stmt):
                continue
            if isinstance(stmt, Loop):
                walk(stmt.body)
            elif isinstance(stmt, If):
                walk(stmt.then_body)
                walk(stmt.else_body)

    for cs in state.cores:
        walk(cs.model.program._program)
    return by_id, objects


def _anchor_signature(objects: List[Any]) -> List[str]:
    """Structural shape of the anchor walk, carried in the encoding.

    Two workloads can anchor the *same number* of objects while differing
    in shape (e.g. a scale change that only alters integer loop trip
    counts), so the signature records per-object structure: body lengths and
    literal trip counts (callable trip counts reduce to ``?`` — their
    identity is covered by the surrounding structure and the run
    configuration).
    """
    sig: List[str] = []
    for obj in objects:
        if type(obj) is tuple:
            sig.append(f"t{len(obj)}")
        elif isinstance(obj, Loop):
            count = obj.count
            sig.append(f"L{count}" if isinstance(count, int) else "L?")
        elif isinstance(obj, If):
            sig.append("I")
        else:
            sig.append(type(obj).__name__[:1])
    return sig


# --------------------------------------------------------------------- #
# State-graph codec
# --------------------------------------------------------------------- #


def _object_fields(obj: Any) -> List[Tuple[str, Any]]:
    """Enumerate an instance's live fields in deterministic order.

    ``__slots__`` names in MRO order first (covering slotted classes),
    then ``__dict__`` keys in insertion order (deterministic because the
    construction path is).  Skip-table fields and unset slots are
    omitted.
    """
    cls = type(obj)
    names: List[str] = []
    seen: set = set()
    for klass in cls.__mro__:
        slots = vars(klass).get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        for name in slots:
            if name in ("__dict__", "__weakref__") or name in seen:
                continue
            seen.add(name)
            names.append(name)
    inst = getattr(obj, "__dict__", None)
    if inst is not None:
        for name in inst:
            if name not in seen:
                seen.add(name)
                names.append(name)
    skip = _SKIP_FIELDS.get(cls, frozenset())
    fields: List[Tuple[str, Any]] = []
    for name in names:
        if name in _GLOBAL_SKIP or name in skip:
            continue
        try:
            fields.append((name, getattr(obj, name)))
        except AttributeError:
            continue  # unset slot
    return fields


class _Encoder:
    """Object graph -> tagged plain data (JSON-able)."""

    def __init__(self, anchors: Dict[int, int]) -> None:
        self._anchors = anchors
        self._memo: Dict[int, int] = {}
        self._alive: List[Any] = []  # keep ids stable for the walk
        self._next = 0

    def _assign(self, obj: Any) -> int:
        index = self._next
        self._next = index + 1
        self._memo[id(obj)] = index  # encode-pass memo; only the index is serialized
        self._alive.append(obj)
        return index

    def encode(self, obj: Any) -> Any:
        if obj is None:
            return None
        t = type(obj)
        if t is bool or t is int or t is str:
            return obj
        if t is float:
            return ["f", obj.hex()]
        oid = id(obj)  # memo/anchor key for this pass; never serialized
        anchor = self._anchors.get(oid)
        if anchor is not None:
            return ["a", anchor]
        ref = self._memo.get(oid)
        if ref is not None:
            return ["r", ref]
        if t is tuple:
            return ["t", [self.encode(v) for v in obj]]
        if t is list:
            index = self._assign(obj)
            return ["l", index, [self.encode(v) for v in obj]]
        if t is dict:
            index = self._assign(obj)
            return ["d", index, [[self.encode(k), self.encode(v)] for k, v in obj.items()]]
        if t is set or t is frozenset:
            index = self._assign(obj)
            try:
                items = sorted(obj)
            except TypeError as exc:
                raise EpochError(
                    f"cannot canonicalize unordered {t.__name__} for the wire: {exc}"
                ) from None
            return ["s" if t is set else "fs", index, [self.encode(v) for v in items]]
        if t is deque:
            index = self._assign(obj)
            return ["q", index, [self.encode(v) for v in obj]]
        if isinstance(obj, Enum):
            name = type(obj).__name__
            if name not in _ENUMS:
                raise EpochError(f"enum class {name!r} is not wire-allowlisted")
            return ["e", name, obj.value]
        if isinstance(obj, Stmt):
            raise EpochError(
                f"statement object {t.__name__} reachable from state but not "
                "anchored in any core's program (corrupt interpreter frame?)"
            )
        name = t.__name__
        if name not in _REGISTRY or _REGISTRY[name] is not t:
            raise EpochError(
                f"class {t.__module__}.{name} is not wire-allowlisted; "
                "extend repro.core.epochs._REGISTRY deliberately"
            )
        index = self._assign(obj)
        record = ["o", name, index, [[n, self.encode(v)] for n, v in _object_fields(obj)]]
        return record


# --------------------------------------------------------------------- #
# Host-side record (hand-rolled: small, flat, no object graph)
# --------------------------------------------------------------------- #


def _encode_host(scheduler: Any) -> Dict[str, Any]:
    stats = scheduler.stats
    contexts: List[List[Any]] = []
    for ctx in scheduler.contexts:
        last = ctx.last_thread
        contexts.append([ctx.clock.hex(), None if last is None else last.pos])
    threads: List[List[Any]] = []
    for thread in scheduler.threads:
        threads.append(
            [
                int(thread.state),
                thread.ready_time.hex(),
                thread.steps,
                thread.rng.state,
                thread.context.index,
            ]
        )
    return {
        "contexts": contexts,
        "threads": threads,
        "parked": [thread.pos for thread in scheduler._parked],
        "parked_dirty": scheduler._parked_dirty,
        "stats": {
            "manager_steps": stats.manager_steps,
            "core_steps": stats.core_steps,
            "wakeups": stats.wakeups,
            "context_busy_ns": [v.hex() for v in stats.context_busy_ns],
            "manager_busy_ns": stats.manager_busy_ns.hex(),
            "submanager_busy_ns": stats.submanager_busy_ns.hex(),
            "checkpoints": stats.checkpoints,
            "checkpoint_cost_ns": stats.checkpoint_cost_ns.hex(),
            "rollbacks": stats.rollbacks,
            "rollback_cost_ns": stats.rollback_cost_ns.hex(),
            "wasted_target_cycles": stats.wasted_target_cycles,
            "replay_target_cycles": stats.replay_target_cycles,
            "violations_observed": stats.violations_observed,
        },
    }


# --------------------------------------------------------------------- #
# Controller record
# --------------------------------------------------------------------- #


def _interval_data(record: IntervalRecord) -> List[Any]:
    return [
        record.index,
        record.start,
        record.end,
        record.violations,
        record.first_offset,
        record.rolled_back,
    ]


def _encode_controller(controller: Any) -> Dict[str, Any]:
    if controller.replaying:
        raise EpochError(
            "cannot encode a machine inside a rollback replay window; the "
            "cut rule only fires outside replays"
        )
    snap = controller.snapshot
    if snap is None:
        raise EpochError("controller has no checkpoint yet; cut fired too early")
    return {
        "next_boundary": controller.next_boundary,
        "records": [_interval_data(r) for r in controller.records],
        "current": _interval_data(controller._current),
        "snapshot": [snap.boundary, snap.host_time.hex(), snap.pages],
    }


# --------------------------------------------------------------------- #
# Public entry point
# --------------------------------------------------------------------- #


def encode_machine(sim: Any, scheduler: Any) -> Dict[str, Any]:
    """Capture the full machine (simulation root + host scheduler state +
    controller) as versioned plain data.

    Must be called at a cut (the end of a manager step, outside a
    rollback replay window).
    """
    state = sim.state
    by_id, objects = machine_anchors(state)
    encoder = _Encoder(by_id)
    root = encoder.encode(state)
    controller = sim.controller
    return {
        "v": MACHINE_WIRE_VERSION,
        "anchors": _anchor_signature(objects),
        "root": root,
        "host": _encode_host(scheduler),
        "ctrl": None if controller is None else _encode_controller(controller),
    }
