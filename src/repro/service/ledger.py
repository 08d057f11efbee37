"""The job ledger: lifecycle bookkeeping shared by both backends.

A backend decides *where* a job runs — the local
:class:`~repro.service.dispatch.Dispatcher` on a warm worker slot, the
:class:`~repro.fabric.coordinator.FabricCoordinator` on a fleet member.
What happens to the :class:`JobRecord` around that decision is the same
in both and lives here, once:

- the per-job spec/key map and the done-event waiters, dropped on the
  job's terminal transition so a long-lived daemon retains only the
  store's job records;
- the in-flight table: one :class:`_Execution` per spec key, a leader
  plus the duplicates coalesced onto it, finished or aborted together;
- the RUNNING, DONE, FAILED and CANCELLED transitions, each journaled
  before anyone hears of it — the terminal ones through
  :meth:`JobStore.record_terminal`, the event compaction keeps;
- the queue-depth and in-flight gauges, the outcome counters and the
  latency histogram, named ``<prefix>.*`` (``service`` / ``fabric``);
- the condition every queue loop and drain barrier waits on.

All of it runs on the server's event loop.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.harness.cache import RunSpec
from repro.service import store as jobstate
from repro.service.store import JobRecord, JobStore
from repro.telemetry import Counter, MetricsRegistry

__all__ = ["JobLedger"]

#: Job-latency histogram bucket bounds, in milliseconds (the registry's
#: default power-of-two buckets top out too low for multi-minute runs).
_LATENCY_BUCKETS_MS = tuple(float(10 * 4**i) for i in range(10))


class _Execution:
    """One in-flight key: the leader job plus coalesced followers."""

    __slots__ = ("followers", "leader")

    def __init__(self, leader: JobRecord) -> None:
        self.leader = leader
        self.followers: List[JobRecord] = []


class JobLedger:
    """What a backend knows about its live jobs, and how they end."""

    def __init__(self, store: JobStore, metrics: MetricsRegistry, prefix: str) -> None:
        self.store = store
        self.metrics = metrics
        self.prefix = prefix
        self.queued = 0
        self.inflight: Dict[str, _Execution] = {}
        self.cond = asyncio.Condition()
        self._tracked: Dict[str, Tuple[RunSpec, str]] = {}
        self._events: Dict[str, asyncio.Event] = {}
        # Register the gauges up front so `health` reports zeros rather
        # than omitting them before the first job arrives.
        self.add_queued(0)
        self._publish_inflight()

    def counter(self, name: str) -> Counter:
        return self.metrics.counter(f"{self.prefix}.{name}")

    # ------------------------------------------------------------------ #
    # Per-job bookkeeping
    # ------------------------------------------------------------------ #

    def track(self, record: JobRecord, spec: RunSpec, key: str) -> None:
        """Remember an admitted job's spec and store key until it ends."""
        self._tracked[record.job_id] = (spec, key)

    def spec(self, job_id: str) -> RunSpec:
        return self._tracked[job_id][0]

    def key(self, job_id: str) -> str:
        return self._tracked[job_id][1]

    def done_event(self, job_id: str) -> asyncio.Event:
        """The event set on the job's terminal transition.  A job already
        terminal gets a pre-set event that is not retained."""
        record = self.store.jobs.get(job_id)
        if record is not None and record.terminal:
            event = asyncio.Event()
            event.set()
            return event
        event = self._events.get(job_id)
        if event is None:
            event = self._events[job_id] = asyncio.Event()
        return event

    def add_queued(self, delta: int) -> None:
        self.queued += delta
        self.metrics.gauge(f"{self.prefix}.queue_depth").set(self.queued)

    def _publish_inflight(self) -> None:
        self.metrics.gauge(f"{self.prefix}.inflight").set(len(self.inflight))

    # ------------------------------------------------------------------ #
    # Transitions
    # ------------------------------------------------------------------ #

    def running(self, record: JobRecord, **payload: Any) -> None:
        """Journal ``record`` entering RUNNING (``payload``: what else the
        WAL event carries — worker, attempts, dedup_of)."""
        record.state = jobstate.RUNNING
        record.started_at = time.time()
        self.store.record_state(record, at=record.started_at, **payload)

    def lead(self, key: str, record: JobRecord) -> None:
        """``record`` becomes the one execution of ``key``."""
        self.inflight[key] = _Execution(record)
        self._publish_inflight()

    def follow(self, execution: _Execution, record: JobRecord) -> None:
        """Coalesce a duplicate onto the execution already in flight."""
        self.counter("dedup_hits").inc()
        record.dedup_of = execution.leader.job_id
        self.running(record, dedup_of=record.dedup_of)
        execution.followers.append(record)

    def retire(self, key: str) -> _Execution:
        """Take the execution of ``key`` out of flight."""
        execution = self.inflight.pop(key)
        self._publish_inflight()
        return execution

    def finish(self, key: str, digest: str, wall_s: float, source: str) -> None:
        """Terminal DONE for the leader of ``key`` and every follower."""
        execution = self.retire(key)
        leader = execution.leader
        self.complete(leader, key, digest, wall_s, source)
        for follower in execution.followers:
            self.complete(follower, key, digest, wall_s, "dedup", leader.job_id)

    def abort(self, key: str, error: Dict[str, Any]) -> None:
        """Terminal FAILED for the leader of ``key`` and every follower."""
        execution = self.retire(key)
        self.fail(execution.leader, error)
        for follower in execution.followers:
            self.fail(follower, dict(error), execution.leader.job_id)

    def complete(
        self,
        record: JobRecord,
        key: str,
        digest: str,
        wall_s: float,
        source: str,
        dedup_of: Optional[str] = None,
    ) -> None:
        record.state = jobstate.DONE
        record.digest = digest
        record.cache_key = key
        record.wall_s = wall_s
        record.source = source
        record.dedup_of = dedup_of
        self._settle(record, "completed")

    def fail(
        self, record: JobRecord, error: Dict[str, Any], dedup_of: Optional[str] = None
    ) -> None:
        record.state = jobstate.FAILED
        record.error = error
        record.dedup_of = dedup_of
        self._settle(record, "failed")

    def cancel(self, record: JobRecord) -> None:
        record.state = jobstate.CANCELLED
        self._settle(record, "cancelled")

    def _settle(self, record: JobRecord, outcome: str) -> None:
        """The terminal transition: journal it, count it, drop the job's
        bookkeeping and wake whoever waits on it.  Waiters hold the event
        itself; later ones get a pre-set one."""
        record.finished_at = time.time()
        self.store.record_terminal(record)
        self.counter(outcome).inc()
        if record.state != jobstate.CANCELLED and record.submitted_at > 0:
            latency_ms = max(0.0, (record.finished_at - record.submitted_at) * 1000.0)
            self.metrics.histogram(
                f"{self.prefix}.job_latency_ms", _LATENCY_BUCKETS_MS
            ).observe(latency_ms)
        self._tracked.pop(record.job_id, None)
        event = self._events.pop(record.job_id, None)
        if event is not None:
            event.set()

    # ------------------------------------------------------------------ #
    # Wake-ups
    # ------------------------------------------------------------------ #

    def notify(self) -> None:
        """Wake the queue loops and drain waiters (never blocks: same loop)."""

        async def _poke() -> None:
            async with self.cond:
                self.cond.notify_all()

        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return
        loop.create_task(_poke())
