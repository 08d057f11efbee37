"""Cached, optionally parallel experiment runner.

Experiments across tables and figures share many base runs (every table
needs the cycle-by-cycle reference, Table 5 reuses Tables 2-4's runs...),
and every run is bit-for-bit deterministic, so the runner layers two
caches and one execution fleet:

- an in-memory memo (same object back within one process);
- the persistent :class:`~repro.harness.cache.ReportCache` under
  ``~/.cache/repro``, shared across processes and sessions, so re-running
  a table after an unrelated change is a near-instant cache hit;
- a :class:`~repro.harness.pool.ParallelExecutor` fleet (``jobs > 1``)
  that experiments feed via :meth:`prefetch` with their full run set
  declared up front.

Telemetry runs bypass cache *reads* (a memoized report carries no trace;
the caller attached the session precisely to observe a fresh run) but
share cache *writes* — telemetry never changes the report (the
digest-invariance contract), so the fresh run is still a valid entry.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.config import (
    CheckpointConfig,
    HostConfig,
    SchemeConfig,
    TargetConfig,
    paper_host_config,
    paper_target_config,
)
from repro.core.report import SimulationReport
from repro.harness.cache import ReportCache, RunSpec, spec_key
from repro.harness.pool import ParallelExecutor, execute_spec, new_sanitizer


class ExperimentRunner:
    """Builds, runs, memoizes, and (optionally) parallelizes
    paper-configuration simulations."""

    def __init__(
        self,
        target: Optional[TargetConfig] = None,
        host: Optional[HostConfig] = None,
        num_threads: int = 8,
        seed: int = 2010,
        verbose: bool = False,
        jobs: int = 1,
        cache: Optional[ReportCache] = None,
        persistent_cache: bool = True,
        telemetry=None,
        sanitize: bool = False,
    ) -> None:
        self.target = target or paper_target_config()
        self.host = host or paper_host_config()
        self.num_threads = num_threads
        self.seed = seed
        self.verbose = verbose
        self.jobs = jobs
        self.telemetry = telemetry
        # Sanitized mode bypasses cache *reads* (a memoized report was
        # never checked; the point is to observe a fresh run) but shares
        # cache writes — the sanitizer is digest-invariant.
        self.sanitize = sanitize
        self.cache: Optional[ReportCache] = (
            cache if cache is not None else (ReportCache() if persistent_cache else None)
        )
        self._memo: Dict[RunSpec, SimulationReport] = {}

    def on_machine(
        self,
        target: Optional[TargetConfig] = None,
        host: Optional[HostConfig] = None,
        num_threads: Optional[int] = None,
    ) -> "ExperimentRunner":
        """A runner for another target/host that shares this one's seed,
        jobs, sanitizer, verbosity, telemetry, persistent cache (or lack
        of one) and memo.  A :class:`RunSpec` names its machine, so one
        memo serves both, and this runner's :meth:`prefetch` can fill it
        with the other's plans."""
        other = ExperimentRunner(
            target=target or self.target,
            host=host or self.host,
            num_threads=num_threads or self.num_threads,
            seed=self.seed,
            verbose=self.verbose,
            jobs=self.jobs,
            cache=self.cache,
            persistent_cache=False,
            telemetry=self.telemetry,
            sanitize=self.sanitize,
        )
        other._memo = self._memo
        return other

    # ------------------------------------------------------------------ #

    def plan(
        self,
        benchmark: str,
        scheme: SchemeConfig,
        scale: float = 1.0,
        checkpoint: Optional[CheckpointConfig] = None,
        detection: bool = True,
    ) -> RunSpec:
        """The fully-resolved :class:`RunSpec` for one configuration —
        what experiments declare up front so the pool can batch it."""
        return RunSpec(
            benchmark=benchmark,
            scheme=scheme,
            scale=scale,
            checkpoint=checkpoint,
            detection=detection,
            seed=self.seed,
            num_threads=self.num_threads,
            target=self.target,
            host=self.host,
        )

    def prefetch(self, specs: Iterable[RunSpec]) -> None:
        """Ensure every spec's report is memoized, fanning misses out over
        the process pool (``jobs`` workers).

        Experiments call this with their complete run set before their
        row-building loops; the loops then hit the memo in order, so
        parallel and serial executions produce identical tables (the
        simulations themselves are deterministic — asserted by digest in
        tests and CI).
        """
        missing: List[RunSpec] = []
        costs: List[Optional[float]] = []
        seen = set(self._memo)
        for spec in specs:
            if spec in seen:
                continue
            seen.add(spec)
            if self.cache is not None:
                key = spec_key(spec)
                if not self.sanitize:
                    entry = self.cache.get(key)
                    if entry is not None:
                        self._memo[spec] = entry.report
                        continue
                costs.append(self.cache.wall_hint(key))
            else:
                costs.append(None)
            missing.append(spec)
        if not missing:
            return
        executor = ParallelExecutor(
            jobs=self.jobs,
            collect_metrics=self.telemetry is not None,
            sanitize=self.sanitize,
        )
        results = executor.map(missing, costs=costs)
        for spec, result in zip(missing, results):
            self._memo[spec] = result.report
            if self.cache is not None:
                self.cache.put(spec_key(spec), result.report, result.wall_s)
            if self.telemetry is not None:
                self.telemetry.absorb_worker_metrics(result.metrics)
            if self.verbose:
                print(
                    f"  ran {spec.benchmark}/{spec.scheme.kind}: "
                    f"{result.report.sim_time_s:.3f}s modeled "
                    f"({result.wall_s:.2f}s wall)"
                )

    # ------------------------------------------------------------------ #

    def run(
        self,
        benchmark: str,
        scheme: SchemeConfig,
        scale: float = 1.0,
        checkpoint: Optional[CheckpointConfig] = None,
        detection: bool = True,
        telemetry=None,
    ) -> SimulationReport:
        """Run (or fetch from cache) one configuration.

        When a :class:`~repro.telemetry.TelemetrySession` is supplied the
        cache *reads* are bypassed entirely: a memoized report carries no
        trace, and the caller attached the session precisely to observe a
        fresh run.  Telemetry never changes the report (digest-invariance
        contract), so skipping the cache write would only waste the run —
        it is kept.
        """
        if telemetry is None:
            telemetry = self.telemetry
        spec = self.plan(
            benchmark, scheme, scale=scale, checkpoint=checkpoint, detection=detection
        )
        if telemetry is None:
            # In sanitized mode the memo only ever holds reports from
            # sanitizer-checked runs (cache reads below are skipped), so
            # memo hits stay valid; only the persistent cache is bypassed.
            cached = self._memo.get(spec)
            if cached is not None:
                return cached
            if self.cache is not None and not self.sanitize:
                entry = self.cache.get(spec_key(spec))
                if entry is not None:
                    self._memo[spec] = entry.report
                    return entry.report
        # Named only when asked for, so a stand-in for execute_spec need
        # not know the sanitizer exists.
        probes = {"sanitizer": new_sanitizer(True)} if self.sanitize else {}
        report, wall_s = execute_spec(spec, telemetry=telemetry, **probes)
        self._memo[spec] = report
        if self.cache is not None:
            self.cache.put(spec_key(spec), report, wall_s)
        if self.verbose:
            print(f"  ran {benchmark}/{scheme.kind}: {report.sim_time_s:.3f}s modeled")
        return report

    def reference(self, benchmark: str, scale: float = 1.0) -> SimulationReport:
        """The cycle-by-cycle gold-standard run for a benchmark."""
        from repro.config import SlackConfig

        return self.run(benchmark, SlackConfig(bound=0), scale=scale)

    def reference_spec(self, benchmark: str, scale: float = 1.0) -> RunSpec:
        """The plan for :meth:`reference` (for prefetch declarations)."""
        from repro.config import SlackConfig

        return self.plan(benchmark, SlackConfig(bound=0), scale=scale)
