"""The local backend: dedup-batching, cache consult, retries, warm workers.

One server, two backends: the :class:`~repro.service.core.ProtocolServer`
admits jobs; a backend gets them run.  The :class:`Dispatcher` is the
backend of a single daemon (the fleet's is
:class:`~repro.fabric.coordinator.FabricCoordinator`).  For every job it
pops (highest priority first, FIFO within a priority) it asks, in order:

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

What the dispatcher owns is the queue order, the slots and the executor
— and therefore the worker processes, which :meth:`Dispatcher.close`
reaps at the end of :meth:`Dispatcher.stop_tasks`.  The job lifecycle
itself (leader/follower records, terminal transitions, done events,
counters) is the shared :class:`~repro.service.ledger.JobLedger`'s.

All dispatcher state lives on the server's event loop; the only
cross-thread boundary is the executor call itself (``asyncio.to_thread``).
"""

from __future__ import annotations

import asyncio
import heapq
from typing import TYPE_CHECKING, Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.harness.cache import CacheEntry, ReportCache, RunSpec
from repro.harness.pool import (
    ExecutionTimeoutError,
    ParallelExecutor,
    PoolResult,
    WorkerCrashError,
    spec_label,
)
from repro.service import store as jobstate
from repro.service.ledger import JobLedger
from repro.service.protocol import (
    ERR_INTERNAL,
    ERR_SIMULATION_FAILED,
    ERR_TIMEOUT,
    ERR_WORKER_CRASHED,
)
from repro.service.store import JobRecord, JobStore
from repro.telemetry import MetricsRegistry

if TYPE_CHECKING:
    from repro.service.server import ServiceConfig

__all__ = ["Dispatcher", "RunJob"]

#: The execution seam: an async callable running one spec under a wall-time
#: limit.  The default runs it in a warm crash-isolated pool worker; tests
#: inject in-process fakes to exercise crash/retry/timeout paths
#: deterministically.
RunJob = Callable[[RunSpec, Optional[float]], Awaitable[PoolResult]]


class Dispatcher:
    """Routes queued jobs to cache hits, in-flight leaders, or workers."""

    def __init__(
        self,
        store: JobStore,
        cache: ReportCache,
        metrics: MetricsRegistry,
        config: ServiceConfig,
        run_job: Optional[RunJob] = None,
    ) -> None:
        self.store = store
        self.cache = cache
        self.ledger = JobLedger(store, metrics, "service")
        self.slots = max(1, config.jobs)
        self.max_retries = max(0, config.max_retries)
        self.retry_backoff_s = config.retry_backoff_s
        self.default_timeout_s = config.job_timeout_s
        self.consult_cache = config.consult_cache
        self._executor = ParallelExecutor(jobs=1, max_retries=0)
        self._run_job: RunJob = run_job if run_job is not None else self._pool_run_job
        self._free_slots = self.slots
        self._heap: List[Tuple[int, int, str]] = []
        self._probed: Dict[str, Optional[CacheEntry]] = {}
        self._runner: Optional[asyncio.Task[None]] = None
        self._tasks: List[asyncio.Task[None]] = []
        self._stopping = False
        self._publish_worker_counts()

    # ------------------------------------------------------------------ #
    # The backend interface (called from the server, same event loop)
    # ------------------------------------------------------------------ #

    @property
    def queue_depth(self) -> int:
        return self.ledger.queued

    @property
    def inflight_count(self) -> int:
        return len(self.ledger.inflight)

    def admit(self, record: JobRecord, spec: RunSpec, key: str) -> None:
        """Queue one job (admission control already passed at the server)."""
        self.ledger.track(record, spec, key)
        heapq.heappush(self._heap, (-record.priority, record.seq, record.job_id))
        self.ledger.add_queued(1)
        self.ledger.notify()

    def cancel(self, record: JobRecord) -> bool:
        """Cancel a still-queued job; running/terminal jobs are refused."""
        if record.state != jobstate.QUEUED:
            return False
        self.ledger.cancel(record)
        self.ledger.add_queued(-1)
        self._probed.pop(record.job_id, None)
        self.ledger.notify()
        return True

    def fetch(self, record: JobRecord) -> Optional[CacheEntry]:
        return self.cache.get(record.cache_key) if record.cache_key is not None else None

    def result_fields(self, record: JobRecord) -> Dict[str, Any]:
        return {}

    def health_fields(self) -> Dict[str, Any]:
        return {"slots": self.slots}

    def start_tasks(self) -> None:
        self._runner = asyncio.get_running_loop().create_task(self.run())

    async def stop_tasks(self) -> None:
        """Stop routing, let in-flight executions settle, reap the workers."""
        self._stopping = True
        self.ledger.notify()
        runner, self._runner = self._runner, None
        if runner is not None:
            await runner
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        # Reaping the warm workers waits on process exit: keep it off the
        # loop.  Nothing is in flight any more, so nothing races it.
        await asyncio.to_thread(self.close)

    def close(self) -> None:
        """Reap the warm worker processes.  Blocks while they exit: call
        it off the event loop, once nothing is in flight."""
        self._executor.close()

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #

    async def run(self) -> None:
        """Pop-and-route until :meth:`stop_tasks`; one task per server."""
        while True:
            async with self.ledger.cond:
                job_id = self._dispatchable_head()
                while job_id is None and not self._stopping:
                    await self.ledger.cond.wait()
                    job_id = self._dispatchable_head()
                if self._stopping:
                    return
                heapq.heappop(self._heap)
                self.ledger.add_queued(-1)
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
        key = self.ledger.key(job_id)
        if key in self.ledger.inflight:
            return job_id
        if self._probe_cache(job_id, key) is not None:
            return job_id
        return None

    def _probe_cache(self, job_id: str, key: str) -> Optional[CacheEntry]:
        """One cache read per queued job; a miss is memoized (an entry
        appearing later would come from the in-flight leader dedup already
        covers) until the job is routed or cancelled."""
        if not self.consult_cache:
            return None
        if job_id not in self._probed:
            self._probed[job_id] = self.cache.get(key)
        return self._probed[job_id]

    def _route(self, job_id: str) -> None:
        record = self.store.jobs[job_id]
        key = self.ledger.key(job_id)
        entry = self._probe_cache(job_id, key)
        self._probed.pop(job_id, None)
        if entry is not None:
            self.ledger.counter("cache_hits").inc()
            self.ledger.complete(record, key, entry.digest, entry.wall_s, source="cache")
            self.ledger.notify()
            return
        execution = self.ledger.inflight.get(key)
        if execution is not None:
            self.ledger.follow(execution, record)
            return
        self._free_slots -= 1
        self.ledger.lead(key, record)
        task = asyncio.get_running_loop().create_task(self._execute(record, key))
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
        self.ledger.counter("workers_spawned").value = self._executor.workers_spawned
        self.ledger.counter("worker_reuses").value = self._executor.worker_reuses

    async def _execute(self, record: JobRecord, key: str) -> None:
        """Run the leader of ``key`` to a terminal state, retrying crashes."""
        spec = self.ledger.spec(record.job_id)
        timeout = (
            record.timeout_s if record.timeout_s is not None else self.default_timeout_s
        )
        record.attempts = 0
        self.ledger.running(record)
        failure: Optional[Dict[str, Any]] = None
        attempt = 0
        try:
            while True:
                record.attempts += 1
                try:
                    result = await self._run_job(spec, timeout)
                    self.cache.put(key, result.report, result.wall_s)
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
                    self.ledger.counter("retries").inc()
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
            if failure is None:
                self.ledger.finish(key, result.report.digest(), result.wall_s, "run")
            else:
                self.ledger.abort(key, failure)
        finally:
            self._free_slots += 1
            self.ledger.notify()
