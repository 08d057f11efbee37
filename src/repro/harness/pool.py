"""Parallel execution layer: a process-pool fleet for independent runs.

The paper simulates CMPs *on* CMPs; this module finally lets the harness
do the same.  Every ``(workload, scheme, checkpoint, seed)`` configuration
in an experiment matrix is an independent, bit-for-bit deterministic
simulation, so :class:`ParallelExecutor` fans them out over a
``concurrent.futures.ProcessPoolExecutor`` with:

- **longest-expected-job-first ordering** — recorded per-case wall times
  (from the report cache) seed the submission order so a long job never
  starts last and strands the fleet on one straggler; unrecorded specs
  fall back to a scheme-aware heuristic;
- **bounded retries on worker crash** — a killed worker (OOM, signal)
  breaks the whole pool, so surviving work is resubmitted to a fresh pool
  and each spec is retried at most ``max_retries`` times before
  :class:`WorkerCrashError`; deterministic simulation exceptions are
  *never* retried (they would only fail identically);
- **clean KeyboardInterrupt teardown** — pending futures are cancelled
  and the interrupt re-raised, leaving no orphaned workers behind;
- **deterministic result ordering** — results are returned in submission
  order regardless of completion order, so a parallel experiment is
  indistinguishable from a serial one (asserted by digest in tests/CI);
- **telemetry merge** — with ``collect_metrics=True`` each worker runs
  under a metrics-only :class:`TelemetrySession` and its counters are
  returned for the parent session to absorb (telemetry is observation
  only, so the report digests are unaffected).

The simulation service does not batch: it runs one job at a time per
slot through :meth:`ParallelExecutor.run_one`, which keeps a warm
one-worker process per concurrent caller (lazy spawn, reuse across jobs,
kill-and-replace on timeout or crash, reaped by ``close()``).
"""

from __future__ import annotations

import functools
import multiprocessing
import multiprocessing.connection
import os
import threading
import time
import weakref
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.core.report import SimulationReport
from repro.core.simulation import Simulation
from repro.errors import ReproError
from repro.harness.cache import RunSpec
from repro.workloads import make_workload

__all__ = [
    "ExecutionTimeoutError",
    "ParallelExecutor",
    "PoolResult",
    "WorkerCrashError",
    "build_simulation",
    "execute_spec",
    "expected_cost",
    "new_sanitizer",
    "resolve_jobs",
    "spec_label",
]


class WorkerCrashError(ReproError):
    """A pool worker died repeatedly while running one configuration."""


class ExecutionTimeoutError(ReproError):
    """A run exceeded its wall-time limit and its worker was killed."""


def spec_label(spec: RunSpec) -> str:
    """Human-readable job identity used in structured pool/service errors."""
    return f"{spec.benchmark}/{spec.scheme.kind} (seed {spec.seed})"


class PoolResult(NamedTuple):
    """One completed run: the report, its wall time, and (optionally) the
    worker's metrics document."""

    report: SimulationReport
    wall_s: float
    metrics: Optional[dict]


def resolve_jobs(jobs: Optional[int]) -> int:
    """Map a ``--jobs`` value to a worker count (0/None = all host CPUs)."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


#: Relative cost of one simulated cycle under each scheme family, from the
#: recorded kernel-bench walls (cc ~3x a bounded run, speculative pays
#: checkpoints + replays).  Only the *ordering* matters.
_SCHEME_WEIGHT = {
    "cycle-by-cycle": 3.0,
    "unbounded": 1.0,
    "slack": 1.0,
    "adaptive": 2.0,
    "adaptive-quantum": 2.5,
    "quantum": 2.5,
    "speculative": 3.0,
    "p2p": 1.2,
}


def expected_cost(spec: RunSpec) -> float:
    """Heuristic wall-time estimate for ordering unrecorded specs."""
    kind = spec.scheme.kind
    if kind == "cycle-by-cycle":
        family = "cycle-by-cycle"
    elif kind.startswith("adaptive-quantum"):
        family = "adaptive-quantum"
    elif kind.startswith("adaptive"):
        family = "adaptive"
    elif kind.startswith("speculative"):
        family = "speculative"
    else:
        family = kind.split("-")[0]
    weight = _SCHEME_WEIGHT.get(family, 1.5)
    cost = spec.scale * max(spec.num_threads, 1) * weight
    if spec.checkpoint is not None:
        cost *= 1.5
    return cost


def build_simulation(spec: RunSpec, telemetry=None, sanitizer=None) -> Simulation:
    """The one place a :class:`RunSpec` becomes a machine."""
    workload = make_workload(
        spec.benchmark, num_threads=spec.num_threads, scale=spec.scale
    )
    return Simulation(
        workload,
        scheme=spec.scheme,
        target=spec.target,
        host=spec.host,
        checkpoint=spec.checkpoint,
        detection=spec.detection,
        seed=spec.seed,
        telemetry=telemetry,
        sanitizer=sanitizer,
    )


def new_sanitizer(enabled: bool):
    """A fresh :class:`~repro.analysis.sanitizer.SlackSanitizer` (vector
    clocks are per-run) when ``--sanitize`` asked for one, else None."""
    if not enabled:
        return None
    from repro.analysis.sanitizer import SlackSanitizer

    return SlackSanitizer()


def execute_spec(spec: RunSpec, telemetry=None, sanitizer=None):
    """Run one configuration; return ``(report, wall_s)``.

    The single execution path shared by the serial runner, the bench, the
    CLI and pool workers — so "parallel equals serial" reduces to
    determinism of the simulation itself.  ``sanitizer`` attaches a
    :class:`~repro.analysis.sanitizer.SlackSanitizer` (observation-only,
    like telemetry; raises :class:`SanitizerError` on an invariant breach).
    """
    simulation = build_simulation(spec, telemetry, sanitizer)
    start = time.perf_counter()
    report = simulation.run()
    return report, time.perf_counter() - start


def _pool_worker(
    index: int, spec: RunSpec, collect_metrics: bool, sanitize: bool = False
):
    """Top-level (picklable) worker body: run one spec, return its index,
    report, wall time, and optional metrics snapshot.

    ``sanitize`` builds a fresh in-worker sanitizer (vector clocks are
    per-run); a breach raises out of the worker and propagates through
    the pool as the deterministic failure it is — never retried.
    """
    telemetry = None
    if collect_metrics:
        from repro.telemetry import TelemetrySession

        telemetry = TelemetrySession(trace=False, metrics=True, sample_period=None)
    report, wall_s = execute_spec(
        spec, telemetry=telemetry, sanitizer=new_sanitizer(sanitize)
    )
    metrics = telemetry.metrics.to_dict() if telemetry is not None else None
    return index, report, wall_s, metrics


def _exit_with_parent() -> None:
    """Slot initializer.  A warm worker idles between jobs, so it would
    outlive a daemon that died without ``close()`` (SIGKILL, OOM): watch
    the parent and go with it."""
    parent = multiprocessing.parent_process()
    assert parent is not None  # only ever runs in a pool worker

    def _watch() -> None:
        multiprocessing.connection.wait([parent.sentinel])
        os._exit(1)

    threading.Thread(target=_watch, name="repro-parent-watch", daemon=True).start()


def _reap(pool: ProcessPoolExecutor, kill: bool) -> None:
    """Shut one slot down and wait until its worker is gone.  ``kill``
    first when the worker may still be inside a job (or wedged in one)."""
    if kill:
        for proc in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                proc.kill()
            except (OSError, AttributeError):
                pass
    pool.shutdown(wait=True, cancel_futures=True)


def _reap_idle(idle: Dict[str, List[ProcessPoolExecutor]]) -> None:
    """Shut down every parked slot.  Doubles as the executor's finalizer,
    which is why it takes the idle map rather than the executor."""
    for pools in idle.values():
        while pools:
            _reap(pools.pop(), kill=False)


class ParallelExecutor:
    """Fans independent :class:`RunSpec` configurations over processes.

    :meth:`map` builds a pool per call.  :meth:`run_one` keeps warm
    one-worker slots between calls, so an executor that has served
    ``run_one`` owns processes: use it as a context manager or call
    :meth:`close` (a finalizer reaps them if the executor is dropped).
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        max_retries: int = 2,
        collect_metrics: bool = False,
        worker: Optional[Callable] = None,
        sanitize: bool = False,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.max_retries = max_retries
        self.collect_metrics = collect_metrics
        if worker is None:
            # functools.partial keeps the worker picklable for the pool
            # (a lambda would not be).
            worker = (
                functools.partial(_pool_worker, sanitize=True)
                if sanitize
                else _pool_worker
            )
        self._worker = worker  # injectable for crash-path tests
        # Warm run_one slots, parked by start method.  run_one is called
        # from several threads at once (one per service slot), so the
        # idle map, the counters and the closed flag share one lock.
        self._idle: Dict[str, List[ProcessPoolExecutor]] = {}
        self._slot_lock = threading.Lock()
        self._closed = False
        self.workers_spawned = 0
        self.worker_reuses = 0
        weakref.finalize(self, _reap_idle, self._idle)

    # ------------------------------------------------------------------ #

    def map(
        self,
        specs: Sequence[RunSpec],
        costs: Optional[Sequence[Optional[float]]] = None,
    ) -> List[PoolResult]:
        """Run every spec; return results in submission order.

        ``costs`` are recorded wall-time hints aligned with ``specs``
        (None entries fall back to :func:`expected_cost`).
        """
        n = len(specs)
        if n == 0:
            return []
        if self.jobs <= 1 or n == 1:
            return [self._run_serial(spec) for spec in specs]

        if costs is None:
            costs = [None] * n
        resolved = [
            costs[i] if costs[i] is not None else expected_cost(specs[i])
            for i in range(n)
        ]
        # Longest expected job first; ties keep submission order.
        order = sorted(range(n), key=lambda i: (-resolved[i], i))

        results: List[Optional[PoolResult]] = [None] * n
        attempts = [0] * n
        to_run = order
        while to_run:
            crashed = self._run_round(to_run, specs, results)
            for i in crashed:
                attempts[i] += 1
                if attempts[i] > self.max_retries:
                    raise WorkerCrashError(
                        f"worker crashed {attempts[i]} times running "
                        f"{spec_label(specs[i])}; giving up"
                    )
            crashed_set = set(crashed)
            to_run = [i for i in order if i in crashed_set]
        return results  # type: ignore[return-value]

    def run_one(
        self,
        spec: RunSpec,
        timeout: Optional[float] = None,
        start_method: str = "spawn",
    ) -> PoolResult:
        """Run one spec in a warm, crash-isolated worker process.

        The execution path the simulation service's dispatcher fans jobs
        out through.  Each call checks a *slot* — a one-worker process
        pool — out of this executor's idle list, runs the spec in it, and
        parks the slot again on success, so consecutive jobs are served
        by the same interpreter with the simulator already imported.  A
        slot is created lazily when the idle list is empty, so there are
        at most as many worker processes as concurrent callers; a cold
        start is just the first use of a slot.  Measured on
        ``benchmarks/e2e`` ``service.fresh``, the interpreter start plus
        import a fresh process pays is ~230 ms against a ~70 ms kernel —
        reuse takes it off every job but the first.

        Reuse does not weaken isolation between a job and the daemon:

        - a worker crash surfaces as :class:`WorkerCrashError` naming the
          job (exactly one attempt — the *caller* owns the retry/backoff
          policy, which lets the service apply exponential backoff between
          attempts instead of the pool's immediate resubmission) and the
          slot is discarded;
        - ``timeout`` (wall seconds) kills the worker outright, discards
          the slot and raises :class:`ExecutionTimeoutError`, so a runaway
          configuration cannot wedge a service worker slot forever;
        - any other exception (a deterministic simulation failure)
          propagates, and the slot is discarded too: only a worker that
          finished its last job cleanly is ever reused.

        One worker per slot is deliberate: killing one worker of a shared
        N-worker pool breaks the pool under every sibling job.

        ``start_method`` defaults to ``spawn`` because the service calls
        this from worker threads of a live asyncio process — forking a
        multi-threaded daemon risks inheriting held locks, while a spawned
        child starts clean.  Idle slots are reaped by :meth:`close`.
        """
        pool = self._checkout(start_method)
        reusable = False
        try:
            future = pool.submit(self._worker, 0, spec, self.collect_metrics)
            try:
                _, report, wall_s, metrics = future.result(timeout=timeout)
            except FuturesTimeoutError:
                raise ExecutionTimeoutError(
                    f"{spec_label(spec)} exceeded its {timeout:g}s limit; "
                    "worker killed"
                ) from None
            except BrokenProcessPool:
                raise WorkerCrashError(
                    f"worker crashed running {spec_label(spec)}"
                ) from None
            reusable = True
            return PoolResult(report, wall_s, metrics)
        finally:
            self._checkin(pool, start_method, reusable)

    def close(self) -> None:
        """Reap every idle warm worker; :meth:`run_one` may not be called
        again.  A slot still running a job is reaped when that job ends."""
        with self._slot_lock:
            self._closed = True
        _reap_idle(self._idle)

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _checkout(self, start_method: str) -> ProcessPoolExecutor:
        with self._slot_lock:
            if self._closed:
                raise RuntimeError("run_one called on a closed ParallelExecutor")
            idle = self._idle.get(start_method)
            if idle:
                self.worker_reuses += 1
                return idle.pop()
            self.workers_spawned += 1
        return ProcessPoolExecutor(
            max_workers=1,
            mp_context=multiprocessing.get_context(start_method),
            initializer=_exit_with_parent,
        )

    def _checkin(
        self, pool: ProcessPoolExecutor, start_method: str, reusable: bool
    ) -> None:
        if reusable:
            with self._slot_lock:
                if not self._closed:
                    self._idle.setdefault(start_method, []).append(pool)
                    return
        _reap(pool, kill=not reusable)

    # ------------------------------------------------------------------ #

    def _run_serial(self, spec: RunSpec) -> PoolResult:
        _, report, wall_s, metrics = self._worker(0, spec, self.collect_metrics)
        return PoolResult(report, wall_s, metrics)

    def _run_round(
        self,
        indices: Sequence[int],
        specs: Sequence[RunSpec],
        results: List[Optional[PoolResult]],
    ) -> List[int]:
        """One pool lifetime: submit ``indices``, harvest, return the
        indices whose workers crashed (pool-breaking failures only)."""
        crashed: List[int] = []
        pool = ProcessPoolExecutor(max_workers=min(self.jobs, len(indices)))
        try:
            futures = {
                pool.submit(self._worker, i, specs[i], self.collect_metrics): i
                for i in indices
            }
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                broken = False
                for future in done:
                    i = futures[future]
                    try:
                        index, report, wall_s, metrics = future.result()
                    except BrokenProcessPool:
                        # The pool is gone; several done futures may fail
                        # this way in one batch.  Collect each for retry.
                        crashed.append(i)
                        broken = True
                        continue
                    results[i] = PoolResult(report, wall_s, metrics)
                if broken:
                    # Every still-pending future fails identically.
                    crashed.extend(futures[rest] for rest in pending)
                    return crashed
        except KeyboardInterrupt:
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
        return crashed
