"""Snapshot-able simulation state.

Everything that defines the *simulation* (target machine state, workload
progress, event queues, clocks, scheme dynamics, violation monitors) hangs
off one :class:`SimulationState` root with no references to host-side
objects (scheduler, contexts, statistics).  Checkpointing (paper section
5.1) captures this root copy-on-write (``repro.core.snapshot``) — the
in-memory analogue of SlackSim's ``fork()`` snapshot — and rollback
replaces the root, leaving host clocks (wasted time included) untouched,
exactly as a real rollback wastes real wall-clock time.

Per-core clocks live in flat banks on the root (``local_times`` /
``max_local_times``, indexed by core), so the manager's window updates and
the global-time/horizon folds sweep two int lists instead of chasing
per-core attributes.  :class:`CoreState` exposes the historic
``local_time``/``max_local_time`` attributes as properties over the banks.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.config import TargetConfig
from repro.core.events import InMsg, InMsgKind, OutMsg
from repro.core.schemes.base import SchemePolicy
from repro.cpu.core import CoreModel
from repro.errors import SimulationError


# repro: hot-path
class CoreState:
    """One core thread's simulation state: model, clocks, queues.

    The clocks are views into the owning :class:`SimulationState`'s flat
    banks; a free-standing CoreState (tests) gets private one-element
    banks until a root adopts it.
    """

    __slots__ = ("core_id", "model", "outq", "inq", "_times", "_limits", "_idx")

    def __init__(self, core_id: int, model: CoreModel) -> None:
        self.core_id = core_id
        self.model = model
        self._times: List[int] = [0]  # completed target cycles
        self._limits: List[Optional[int]] = [1]  # None = unbounded
        self._idx = 0
        self.outq: Deque[OutMsg] = deque()
        self.inq: Deque[InMsg] = deque()

    @property
    def local_time(self) -> int:
        return self._times[self._idx]

    @local_time.setter
    def local_time(self, value: int) -> None:
        self._times[self._idx] = value

    @property
    def max_local_time(self) -> Optional[int]:
        return self._limits[self._idx]

    @max_local_time.setter
    def max_local_time(self, value: Optional[int]) -> None:
        self._limits[self._idx] = value

    @property
    def finished(self) -> bool:
        """True once the workload thread on this core has ended."""
        return self.model.finished

    @property
    def at_limit(self) -> bool:
        """True when the slack window forbids simulating another cycle."""
        limit = self._limits[self._idx]
        return limit is not None and self._times[self._idx] >= limit

    def _adopt(self, times: List[int], limits: List[Optional[int]], idx: int) -> None:
        """Rebind this core's clocks onto the root's shared banks."""
        times[idx] = self._times[self._idx]
        limits[idx] = self._limits[self._idx]
        self._times = times
        self._limits = limits
        self._idx = idx


class SimulationState:
    """Root of the snapshot-able object graph."""

    def __init__(
        self,
        target: TargetConfig,
        cores: List[CoreState],
        manager: "ManagerState",  # noqa: F821 - circular import avoided
        scheme: SchemePolicy,
    ) -> None:
        self.target = target
        self.cores = cores
        self.manager = manager
        self.scheme = scheme
        # Flat per-core clock banks (single source of truth; CoreState
        # properties index into them).
        self.local_times: List[int] = [0] * len(cores)
        self.max_local_times: List[Optional[int]] = [1] * len(cores)
        for idx, cs in enumerate(cores):
            cs._adopt(self.local_times, self.max_local_times, idx)
        # Parallel view of the core models for the per-service folds below
        # (skips two attribute chases per core per fold; deepcopy keeps the
        # aliasing with cores[i].model via the memo).
        self._models = [cs.model for cs in cores]

    @property
    def all_finished(self) -> bool:
        """True when every workload thread has ended."""
        return all(model.finished for model in self._models)

    def global_time(self) -> int:
        """Smallest local time over *running* cores (paper's global time).

        Cores blocked on workload synchronization are descheduled — their
        clocks are frozen and they will warp forward to the grant timestamp
        — so they are excluded from the minimum (otherwise a barrier would
        freeze the global time and deadlock the window).  When every
        unfinished core is sync-blocked, the minimum over those is used;
        when every core has finished, the *largest* local time is returned:
        that is the target execution time of the run.
        """
        if not self.cores:
            raise SimulationError("simulation has no cores")
        times = self.local_times
        running: Optional[int] = None
        fallback: Optional[int] = None
        for model, local in zip(self._models, times):
            if model.finished:
                continue
            if not model.waiting_sync:
                if running is None or local < running:
                    running = local
            elif fallback is None or local < fallback:
                fallback = local
        if running is not None:
            return running
        if fallback is not None:
            return fallback
        return max(times)

    def service_horizon(self) -> Optional[int]:
        """Timestamp horizon for conservative event service.

        A *running* core cannot post an event stamped below its local time,
        so it contributes its local time.  A sync-blocked core is frozen:
        it contributes the timestamp of a grant already delivered to its
        InQ (it will resume exactly there), or nothing at all when no grant
        is pending — its eventual grant is floored at the largest
        already-served timestamp by the manager (see
        ``ManagerState._grant_floor``), so no smaller-stamped event can
        ever emerge from it.  Excluding frozen cores is what lets the
        horizon advance past a barrier wait instead of deadlocking.
        An event still in a core's OutQ (posted, but not yet forwarded
        to the GQ by a hierarchical mode's sub-manager) bounds it too.
        Returns None (unbounded) when no core constrains the horizon.
        """
        times = self.local_times
        horizon: Optional[int] = None
        grant = InMsgKind.SYNC_GRANT
        for idx, cs in enumerate(self.cores):
            if cs.outq:
                for msg in cs.outq:
                    if horizon is None or msg.ts < horizon:
                        horizon = msg.ts
            model = cs.model
            if model.finished:
                continue
            if model.waiting_sync:
                bound = None
                for msg in cs.inq:
                    if msg.kind == grant and (bound is None or msg.ts < bound):
                        bound = msg.ts
                if bound is None:
                    continue
            else:
                bound = times[idx]
            if horizon is None or bound < horizon:
                horizon = bound
        return horizon

    def execution_time(self) -> int:
        """Target execution time: the largest local time reached."""
        return max(self.local_times)

    def total_instructions(self) -> int:
        """Committed instructions across all cores."""
        return sum(cs.model.instructions for cs in self.cores)
