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
        self.rng = rng  # host-noise stream: one draw per step (Scheduler.run)
        self.steps = 0
        # Scheduler bookkeeping: deterministic tie-break rank (position in
        # the scheduler's thread list) and ready-heap membership flag.
        self.pos = 0
        self.queued = False

    @property
    def name(self) -> str:
        return self.runner.name


class HostContext:
    """One modeled hardware thread context."""

    __slots__ = ("index", "clock", "threads", "last_thread")

    def __init__(self, index: int) -> None:
        self.index = index
        self.clock = 0.0
        # Insertion-ordered set of the threads placed here (the manager
        # migrates between contexts on most picks: O(1) membership update).
        self.threads: Dict[HostThread, None] = {}
        self.last_thread: Optional[HostThread] = None

    @property
    def shared(self) -> bool:
        """True when more than one simulation thread runs here."""
        return len(self.threads) > 1
