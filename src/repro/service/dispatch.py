"""Job dispatcher: dedup-batching, cache consult, retries, worker fan-out.

The dispatcher sits between the server's admission-controlled queue and
the execution fleet.  For every job it pops (highest priority first, FIFO
within a priority) it asks, in order:

1. **Is the report already cached?**  The content-addressed
   :class:`~repro.harness.cache.ReportCache` is keyed by the full spec
   fingerprint, so a hit *is* the answer — the job completes immediately
   with ``source="cache"`` and no worker is spent.
2. **Is an identical spec already executing?**  In-flight runs are
   indexed by the same key; a duplicate attaches to the leader as a
   *follower* (``source="dedup"``) and completes, with the leader's
   digest, the moment the leader does.  One execution serves the whole
   batch — the service-side analogue of the pool's "parallel equals
   serial" contract.
3. **Otherwise execute.**  The job takes a worker slot and runs through
   :meth:`ParallelExecutor.run_one` in a warm, crash-isolated worker
   process with a per-job wall-time limit.  The process is spawned by
   the first job that needs it and reused by every later one (at most
   ``jobs`` of them, one per busy slot): on ``benchmarks/e2e``
   ``service.fresh`` a fresh interpreter plus the simulator import cost
   ~230 ms per job against a ~70 ms kernel, which is why it is paid
   once per slot and not once per job.  A crashed worker is replaced
   and the job retried with bounded exponential backoff
   (``retry_backoff_s * 2**attempt``); deterministic simulation errors
   are never retried (they would fail identically); a timeout kills the
   worker, fails the job, and the next job gets a new process.

Duplicates are detected *before* slot acquisition: even with every slot
busy, a job whose key matches an in-flight run (or a cached report) is
coalesced immediately instead of queueing behind unrelated work.

The dispatcher owns the executor and therefore the worker processes:
:meth:`Dispatcher.close` reaps them, and the server calls it at the end
of shutdown.  Per-job bookkeeping (spec, key, cache probe, done event)
is dropped on the job's terminal transition, so a long-lived daemon
retains only the store's job records.

All dispatcher state lives on the server's event loop; the only
cross-thread boundary is the executor call itself (``asyncio.to_thread``).
"""

from __future__ import annotations

import asyncio
import heapq
import time
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.harness.cache import CacheEntry, ReportCache, RunSpec, spec_key
from repro.harness.pool import (
    ExecutionTimeoutError,
    ParallelExecutor,
    PoolResult,
    WorkerCrashError,
    spec_label,
)
from repro.service import store as jobstate
from repro.service.protocol import (
    ERR_INTERNAL,
    ERR_SIMULATION_FAILED,
    ERR_TIMEOUT,
    ERR_WORKER_CRASHED,
)
from repro.service.store import JobRecord, JobStore
from repro.telemetry import MetricsRegistry

__all__ = ["Dispatcher", "RunJob"]

#: The execution seam: an async callable running one spec under a wall-time
#: limit.  The default runs it in a warm crash-isolated pool worker; tests
#: inject in-process fakes to exercise crash/retry/timeout paths
#: deterministically.
RunJob = Callable[[RunSpec, Optional[float]], Awaitable[PoolResult]]

#: Job-latency histogram bucket bounds, in milliseconds (the registry's
#: default power-of-two buckets top out too low for multi-minute runs).
_LATENCY_BUCKETS_MS = tuple(float(10 * 4**i) for i in range(10))


class _Execution:
    """One in-flight run: the leader job plus coalesced followers."""

    __slots__ = ("leader", "followers")

    def __init__(self, leader: JobRecord) -> None:
        self.leader = leader
        self.followers: List[JobRecord] = []


class Dispatcher:
    """Routes queued jobs to cache hits, in-flight leaders, or workers."""

    def __init__(
        self,
        store: JobStore,
        cache: ReportCache,
        metrics: MetricsRegistry,
        jobs: int = 1,
        max_retries: int = 2,
        retry_backoff_s: float = 0.05,
        default_timeout_s: Optional[float] = None,
        consult_cache: bool = True,
        run_job: Optional[RunJob] = None,
    ) -> None:
        self.store = store
        self.cache = cache
        self.metrics = metrics
        self.slots = max(1, jobs)
        self.max_retries = max(0, max_retries)
        self.retry_backoff_s = retry_backoff_s
        self.default_timeout_s = default_timeout_s
        self.consult_cache = consult_cache
        self._executor = ParallelExecutor(jobs=1, max_retries=0)
        self._run_job: RunJob = run_job if run_job is not None else self._pool_run_job
        self._free_slots = self.slots
        self._heap: List[Tuple[int, int, str]] = []
        self._queued = 0
        self._cond = asyncio.Condition()
        self._inflight: Dict[str, _Execution] = {}
        self._specs: Dict[str, RunSpec] = {}
        self._keys: Dict[str, str] = {}
        self._probed: Dict[str, Optional[CacheEntry]] = {}
        self._events: Dict[str, asyncio.Event] = {}
        self._tasks: List[asyncio.Task] = []
        self._stopping = False
        # Register the service gauges up front so `health` reports zeros
        # rather than omitting them before the first job arrives.
        self.metrics.gauge("service.queue_depth").set(0)
        self.metrics.gauge("service.inflight").set(0)
        self._publish_worker_counts()

    # ------------------------------------------------------------------ #
    # Queue interface (called from the server, same event loop)
    # ------------------------------------------------------------------ #

    @property
    def queue_depth(self) -> int:
        return self._queued

    @property
    def inflight_count(self) -> int:
        return len(self._inflight)

    def enqueue(self, record: JobRecord, spec: RunSpec) -> None:
        """Admit one job (admission control already passed at the server)."""
        self._specs[record.job_id] = spec
        self._keys[record.job_id] = spec_key(spec)
        heapq.heappush(self._heap, (-record.priority, record.seq, record.job_id))
        self._queued += 1
        self.metrics.gauge("service.queue_depth").set(self._queued)
        self._notify()

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

    def cancel(self, record: JobRecord) -> bool:
        """Cancel a still-queued job; running/terminal jobs are refused."""
        if record.state != jobstate.QUEUED:
            return False
        record.state = jobstate.CANCELLED
        record.finished_at = time.time()
        self.store.record_state(record, at=record.finished_at)
        self._queued -= 1
        self.metrics.counter("service.cancelled").inc()
        self.metrics.gauge("service.queue_depth").set(self._queued)
        self._forget(record.job_id)
        self._notify()
        return True

    def request_stop(self) -> None:
        self._stopping = True
        self._notify()

    async def wait_idle(self) -> None:
        """Block until no job is queued or in flight (the drain barrier)."""
        async with self._cond:
            while self._queued > 0 or self._inflight:
                await self._cond.wait()

    async def join(self) -> None:
        """Wait for every in-flight execution task to settle (shutdown)."""
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)

    def close(self) -> None:
        """Reap the warm worker processes.  Blocks while they exit: call
        it off the event loop, after :meth:`join`."""
        self._executor.close()

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #

    async def run(self) -> None:
        """Pop-and-route until :meth:`request_stop`; one task per server."""
        while True:
            async with self._cond:
                job_id = self._dispatchable_head()
                while job_id is None and not self._stopping:
                    await self._cond.wait()
                    job_id = self._dispatchable_head()
                if self._stopping:
                    return
                heapq.heappop(self._heap)
                self._queued -= 1
                self.metrics.gauge("service.queue_depth").set(self._queued)
            self._route(job_id)

    def _peek(self) -> Optional[str]:
        """The highest-priority job id still queued (dropping stale heads)."""
        while self._heap:
            job_id = self._heap[0][2]
            record = self.store.jobs.get(job_id)
            if record is None or record.state != jobstate.QUEUED:
                heapq.heappop(self._heap)
                continue
            return job_id
        return None

    def _dispatchable_head(self) -> Optional[str]:
        """The head job, if it can make progress *now*.

        With a free slot anything dispatches.  With all slots busy, only a
        job that will coalesce — onto an in-flight leader or a cached
        report — may jump the wait; everything else stays queued so that
        priority order keeps meaning under load.
        """
        job_id = self._peek()
        if job_id is None:
            return None
        if self._free_slots > 0:
            return job_id
        key = self._keys[job_id]
        if key in self._inflight:
            return job_id
        if self._probe_cache(job_id, key) is not None:
            return job_id
        return None

    def _probe_cache(self, job_id: str, key: str) -> Optional[CacheEntry]:
        """One cache read per job; a miss is memoized (an entry appearing
        later would come from the in-flight leader dedup already covers)."""
        if not self.consult_cache:
            return None
        if job_id not in self._probed:
            self._probed[job_id] = self.cache.get(key)
        return self._probed[job_id]

    def _route(self, job_id: str) -> None:
        record = self.store.jobs[job_id]
        key = self._keys[job_id]
        entry = self._probe_cache(job_id, key)
        if entry is not None:
            self.metrics.counter("service.cache_hits").inc()
            self._complete(
                record, key, entry.digest, entry.wall_s, source="cache"
            )
            self._notify()
            return
        execution = self._inflight.get(key)
        if execution is not None:
            self.metrics.counter("service.dedup_hits").inc()
            record.state = jobstate.RUNNING
            record.started_at = time.time()
            record.dedup_of = execution.leader.job_id
            self.store.record_state(
                record, at=record.started_at, dedup_of=record.dedup_of
            )
            execution.followers.append(record)
            return
        self._free_slots -= 1
        execution = _Execution(record)
        self._inflight[key] = execution
        self.metrics.gauge("service.inflight").set(len(self._inflight))
        task = asyncio.get_running_loop().create_task(self._execute(execution, key))
        self._tasks.append(task)
        task.add_done_callback(self._tasks.remove)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    async def _pool_run_job(
        self, spec: RunSpec, timeout: Optional[float]
    ) -> PoolResult:
        """Default execution seam: a warm crash-isolated pool worker."""
        try:
            return await asyncio.to_thread(self._executor.run_one, spec, timeout)
        finally:
            self._publish_worker_counts()

    def _publish_worker_counts(self) -> None:
        """Mirror the executor's slot counts (kept on its own threads)
        into the registry, on the loop like every other instrument."""
        self.metrics.counter("service.workers_spawned").value = (
            self._executor.workers_spawned
        )
        self.metrics.counter("service.worker_reuses").value = (
            self._executor.worker_reuses
        )

    async def _execute(self, execution: _Execution, key: str) -> None:
        record = execution.leader
        spec = self._specs[record.job_id]
        timeout = (
            record.timeout_s if record.timeout_s is not None else self.default_timeout_s
        )
        record.state = jobstate.RUNNING
        record.started_at = time.time()
        record.attempts = 0
        self.store.record_state(record, at=record.started_at)
        result: Optional[PoolResult] = None
        failure: Optional[Dict[str, Any]] = None
        attempt = 0
        try:
            while True:
                record.attempts += 1
                try:
                    result = await self._run_job(spec, timeout)
                    break
                except ExecutionTimeoutError as exc:
                    failure = {"code": ERR_TIMEOUT, "message": str(exc)}
                    break
                except WorkerCrashError as exc:
                    if attempt >= self.max_retries:
                        failure = {
                            "code": ERR_WORKER_CRASHED,
                            "message": (
                                f"job {record.job_id} ({spec_label(spec)}): "
                                f"worker crashed {attempt + 1} time(s); "
                                f"retries exhausted: {exc}"
                            ),
                        }
                        break
                    record.retries += 1
                    self.metrics.counter("service.retries").inc()
                    await asyncio.sleep(self.retry_backoff_s * (2 ** attempt))
                    attempt += 1
                except ReproError as exc:
                    failure = {"code": ERR_SIMULATION_FAILED, "message": str(exc)}
                    break
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # the job must fail, never the daemon
                    failure = {
                        "code": ERR_INTERNAL,
                        "message": f"{type(exc).__name__}: {exc}",
                    }
                    break
            if result is not None:
                self.cache.put(key, result.report, result.wall_s)
                self._complete(record, key, result.report.digest(), result.wall_s,
                               source="run")
                for follower in execution.followers:
                    self._complete(
                        follower, key, result.report.digest(), result.wall_s,
                        source="dedup", dedup_of=record.job_id,
                    )
            else:
                assert failure is not None
                self._fail(record, failure)
                for follower in execution.followers:
                    self._fail(follower, dict(failure), dedup_of=record.job_id)
        finally:
            del self._inflight[key]
            self._free_slots += 1
            self.metrics.gauge("service.inflight").set(len(self._inflight))
            self._notify()

    # ------------------------------------------------------------------ #
    # Terminal transitions
    # ------------------------------------------------------------------ #

    def _complete(
        self,
        record: JobRecord,
        key: str,
        digest: str,
        wall_s: float,
        source: str,
        dedup_of: Optional[str] = None,
    ) -> None:
        record.state = jobstate.DONE
        record.finished_at = time.time()
        record.digest = digest
        record.cache_key = key
        record.wall_s = wall_s
        record.source = source
        record.dedup_of = dedup_of
        self.store.record_state(
            record,
            at=record.finished_at,
            digest=digest,
            key=key,
            wall_s=wall_s,
            source=source,
            dedup_of=dedup_of,
            retries=record.retries,
        )
        self.metrics.counter("service.completed").inc()
        self._observe_latency(record)
        self._forget(record.job_id)

    def _fail(
        self,
        record: JobRecord,
        error: Dict[str, Any],
        dedup_of: Optional[str] = None,
    ) -> None:
        record.state = jobstate.FAILED
        record.finished_at = time.time()
        record.error = error
        record.dedup_of = dedup_of
        self.store.record_state(
            record,
            at=record.finished_at,
            error=error,
            dedup_of=dedup_of,
            retries=record.retries,
        )
        self.metrics.counter("service.failed").inc()
        self._observe_latency(record)
        self._forget(record.job_id)

    def _forget(self, job_id: str) -> None:
        """Drop a terminal job's bookkeeping and wake whoever waits on it.
        Waiters hold the event itself; later ones get a pre-set one."""
        self._specs.pop(job_id, None)
        self._keys.pop(job_id, None)
        self._probed.pop(job_id, None)
        event = self._events.pop(job_id, None)
        if event is not None:
            event.set()

    def _observe_latency(self, record: JobRecord) -> None:
        if record.finished_at is None or record.submitted_at <= 0:
            return
        latency_ms = max(0.0, (record.finished_at - record.submitted_at) * 1000.0)
        self.metrics.histogram(
            "service.job_latency_ms", _LATENCY_BUCKETS_MS
        ).observe(latency_ms)

    def _notify(self) -> None:
        """Wake the run loop / drain waiters (never blocks: same loop)."""

        async def _poke() -> None:
            async with self._cond:
                self._cond.notify_all()

        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return
        loop.create_task(_poke())
