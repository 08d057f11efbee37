"""Modeled host contexts and thread bookkeeping.

The host CMP is modeled as ``HostConfig.num_contexts`` hardware thread
contexts, each with its own modeled clock.  Simulation threads are assigned
to contexts round-robin (the paper runs nine threads on eight Xeon
contexts, so the manager shares a context with core 0); threads sharing a
context serialize and pay a context-switch penalty on interleaving.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Dict, Optional

from repro.util import SplitMix64


class ThreadState(IntEnum):
    """Scheduling state of one simulation thread."""

    READY = 0
    BLOCKED = 1  # waiting for a manager wake (slack limit)
    DONE = 2  # workload thread finished (may revert on rollback)


class HostThread:
    """Host-side wrapper pairing a runner with its scheduling state."""

    __slots__ = (
        "runner",
        "state",
        "ready_time",
        "context",
        "rng",
        "steps",
        "pos",
        "queued",
    )

    def __init__(self, runner, context: "HostContext", rng: SplitMix64) -> None:
        self.runner = runner
        self.state = ThreadState.READY
        self.ready_time = 0.0  # earliest modeled host time it may run
        self.context = context
        self.rng = rng  # deterministic host-noise stream
        self.steps = 0
        # Scheduler bookkeeping: deterministic tie-break rank (position in
        # the scheduler's thread list) and ready-heap membership flag.
        self.pos = 0
        self.queued = False

    @property
    def name(self) -> str:
        return self.runner.name

    def jitter(self, jitter_frac: float) -> float:
        """Multiplicative host-noise factor for one step's cost."""
        if jitter_frac <= 0.0:
            return 1.0
        return 1.0 + jitter_frac * (2.0 * self.rng.next_float() - 1.0)


class ThreadSet:
    """Insertion-ordered set of threads with O(1) append/remove.

    Manager migration moves the manager thread between contexts on every
    scheduling decision; a plain list would pay an O(n) ``remove`` scan
    each time.  Backed by a dict (insertion-ordered, O(1) membership
    update) while keeping the small list-like API the scheduler and tests
    use.
    """

    __slots__ = ("_items",)

    def __init__(self) -> None:
        self._items: Dict[HostThread, None] = {}

    def append(self, thread: "HostThread") -> None:
        self._items[thread] = None

    def remove(self, thread: "HostThread") -> None:
        del self._items[thread]

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    def __contains__(self, thread) -> bool:
        return thread in self._items


class HostContext:
    """One modeled hardware thread context."""

    __slots__ = ("index", "clock", "threads", "last_thread")

    def __init__(self, index: int) -> None:
        self.index = index
        self.clock = 0.0
        self.threads = ThreadSet()
        self.last_thread: Optional[HostThread] = None

    @property
    def shared(self) -> bool:
        """True when more than one simulation thread runs here."""
        return len(self.threads) > 1
