"""Tests for the parallel experiment fleet and persistent report cache.

The load-bearing property is digest equality: a parallel run, a cached
run, and a serial run of the same configuration must be bit-for-bit
indistinguishable.  Everything else (crash retry, corrupt entries,
ordering) protects that property under failure.
"""

from __future__ import annotations

import contextlib
import dataclasses
import errno
import hashlib
import json
import multiprocessing
import os
import pathlib
import re
import shutil
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.config import (
    AdaptiveConfig,
    CheckpointConfig,
    SlackConfig,
    SpeculativeConfig,
    quick_target_config,
)
from repro.harness.cache import (
    CACHE_SCHEMA,
    ReportCache,
    fingerprint,
    package_semantics_tag,
    semantics_tag,
    spec_key,
)
from repro.harness.pool import (
    ExecutionTimeoutError,
    ParallelExecutor,
    WorkerCrashError,
    _pool_worker,
    execute_spec,
    expected_cost,
    resolve_jobs,
)
from repro.harness.runner import ExperimentRunner
from repro.telemetry import TelemetrySession
from repro.telemetry.metrics import MetricsRegistry

SCALE = 0.05


def make_runner(**kwargs):
    kwargs.setdefault("target", quick_target_config())
    kwargs.setdefault("num_threads", 4)
    kwargs.setdefault("seed", 7)
    return ExperimentRunner(**kwargs)


def tiny_specs(runner):
    return [
        runner.plan("fft", SlackConfig(bound=0), scale=SCALE),
        runner.plan("fft", SlackConfig(bound=100), scale=SCALE),
        runner.plan("lu", SlackConfig(bound=100), scale=SCALE),
        runner.plan("fft", AdaptiveConfig(), scale=SCALE),
    ]


# --------------------------------------------------------------------- #
# Cache keys


class TestSpecKey:
    def test_stable(self):
        runner = make_runner()
        a = runner.plan("fft", SlackConfig(bound=100), scale=SCALE)
        b = runner.plan("fft", SlackConfig(bound=100), scale=SCALE)
        assert a == b
        assert spec_key(a) == spec_key(b)

    def test_differentiates_every_field(self):
        runner = make_runner()
        base = runner.plan("fft", SlackConfig(bound=100), scale=SCALE)
        variants = [
            runner.plan("lu", SlackConfig(bound=100), scale=SCALE),
            runner.plan("fft", SlackConfig(bound=200), scale=SCALE),
            runner.plan("fft", AdaptiveConfig(), scale=SCALE),
            runner.plan("fft", SlackConfig(bound=100), scale=SCALE * 2),
            runner.plan("fft", SlackConfig(bound=100), scale=SCALE, detection=False),
            dataclasses.replace(base, seed=99),
            dataclasses.replace(base, num_threads=2),
        ]
        keys = {spec_key(v) for v in variants}
        assert spec_key(base) not in keys
        assert len(keys) == len(variants)

    def test_fingerprint_carries_class_name(self):
        @dataclasses.dataclass(frozen=True)
        class _A:
            x: int = 1

        @dataclasses.dataclass(frozen=True)
        class _B:
            x: int = 1

        assert fingerprint(_A()) != fingerprint(_B())

    def test_fingerprint_floats_exact(self):
        assert fingerprint(0.1) == (0.1).hex()
        assert fingerprint(0.1) != fingerprint(0.1 + 1e-16)

    def test_key_includes_semantics_tag(self, tmp_path, monkeypatch):
        import repro.harness.cache as cache_mod

        runner = make_runner()
        spec = runner.plan("fft", SlackConfig(bound=100), scale=SCALE)
        before = spec_key(spec)
        monkeypatch.setattr(cache_mod, "_semantics_tag_cache", "different-tag")
        assert spec_key(spec) != before

    def test_semantics_tag_hashes_the_kernel_without_a_golden_file(self, tmp_path):
        """A package with no ``benchmarks/golden_kernel.json`` beside it
        (an install) is tagged by its simulation sources, C included, so
        a kernel change still invalidates its cached reports; a checkout
        keeps the golden-file tag."""
        import repro.harness.cache as cache_mod

        package = pathlib.Path(cache_mod.__file__).resolve().parents[1]
        golden = package.parents[1] / "benchmarks" / "golden_kernel.json"
        assert semantics_tag() == hashlib.sha256(golden.read_bytes()).hexdigest()[:16]

        installed = tmp_path / "site-packages" / "repro"
        shutil.copytree(package, installed, ignore=shutil.ignore_patterns("__pycache__"))
        tag = package_semantics_tag(installed)
        assert re.fullmatch(r"src-[0-9a-f]{16}", tag)
        assert package_semantics_tag(installed) == tag
        for kernel_source in ("core/scheduler.py", "core/_loop.c", "sync/primitives.py"):
            path = installed / kernel_source
            original = path.read_bytes()
            path.write_bytes(original + b"\n")
            assert package_semantics_tag(installed) != tag, kernel_source
            path.write_bytes(original)
        (installed / "cli.py").write_bytes(b"# not a simulation source\n")
        assert package_semantics_tag(installed) == tag


# --------------------------------------------------------------------- #
# Persistent cache


class TestReportCache:
    def test_roundtrip_preserves_digest(self):
        runner = make_runner()
        spec = runner.plan("fft", SlackConfig(bound=100), scale=SCALE)
        report, wall_s = execute_spec(spec)
        cache = ReportCache()
        key = spec_key(spec)
        cache.put(key, report, wall_s)
        entry = cache.get(key)
        assert entry is not None
        assert entry.report.digest() == report.digest()
        assert entry.wall_s == wall_s
        assert cache.wall_hint(key) == wall_s

    def test_miss(self):
        assert ReportCache().get("0" * 64) is None
        assert ReportCache().wall_hint("0" * 64) is None

    def test_corrupt_entry_is_dropped(self):
        cache = ReportCache()
        key = "ab" + "0" * 62
        path = cache._entry_path(key)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.get(key) is None
        assert not path.exists()

    def test_digest_mismatch_is_dropped(self):
        runner = make_runner()
        spec = runner.plan("fft", SlackConfig(bound=100), scale=SCALE)
        report, wall_s = execute_spec(spec)
        cache = ReportCache()
        key = spec_key(spec)
        cache.put(key, report, wall_s)
        path = cache._entry_path(key)
        doc = json.loads(path.read_text())
        doc["report"]["sim_time_s"] = doc["report"]["sim_time_s"] + 1.0
        path.write_text(json.dumps(doc))
        assert cache.get(key) is None
        assert not path.exists()

    def test_schema_mismatch_is_dropped(self):
        runner = make_runner()
        spec = runner.plan("fft", SlackConfig(bound=100), scale=SCALE)
        report, wall_s = execute_spec(spec)
        cache = ReportCache()
        key = spec_key(spec)
        cache.put(key, report, wall_s)
        path = cache._entry_path(key)
        doc = json.loads(path.read_text())
        doc["schema"] = CACHE_SCHEMA + 1
        path.write_text(json.dumps(doc))
        assert cache.get(key) is None

    def test_info_and_clear(self):
        runner = make_runner()
        spec = runner.plan("fft", SlackConfig(bound=100), scale=SCALE)
        report, wall_s = execute_spec(spec)
        cache = ReportCache()
        cache.put(spec_key(spec), report, wall_s)
        info = cache.info()
        assert info["entries"] == 1
        assert info["bytes"] > 0
        assert info["schema"] == CACHE_SCHEMA
        assert info["semantics"] == semantics_tag()
        assert cache.clear() == 1
        assert cache.info()["entries"] == 0

    def test_respects_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert ReportCache().root == tmp_path / "elsewhere"

    def test_prune_evicts_lru_until_under_budget(self):
        runner = make_runner()
        cache = ReportCache()
        keys = []
        base = runner.plan("fft", SlackConfig(bound=100), scale=SCALE)
        for i, seed in enumerate((1, 2, 3)):
            spec = dataclasses.replace(base, seed=seed)
            report, _ = execute_spec(spec)
            key = spec_key(spec)
            # Fixed wall_s: the measured wall's float repr length varies
            # run to run, which would make entry sizes (and the //3
            # budget arithmetic below) nondeterministic.
            cache.put(key, report, 0.125)
            # Deterministic mtimes: entry 0 is oldest, entry 2 newest.
            os.utime(cache._entry_path(key), (1000.0 + i, 1000.0 + i))
            keys.append(key)
        total = cache.info()["bytes"]
        per_entry = total // 3
        removed, freed = cache.prune(max_bytes=per_entry * 2)
        assert removed == 1
        assert freed > 0
        assert cache.get(keys[0]) is None  # oldest evicted
        assert cache.get(keys[1]) is not None
        assert cache.get(keys[2]) is not None
        assert cache.info()["bytes"] <= per_entry * 2 + 3  # rounding slack

    def test_prune_noop_when_under_budget(self):
        runner = make_runner()
        spec = runner.plan("fft", SlackConfig(bound=100), scale=SCALE)
        report, wall_s = execute_spec(spec)
        cache = ReportCache()
        cache.put(spec_key(spec), report, wall_s)
        assert cache.prune(max_bytes=10 * 1024 * 1024) == (0, 0)
        assert cache.info()["entries"] == 1

    def test_prune_to_zero_clears_everything(self):
        runner = make_runner()
        spec = runner.plan("fft", SlackConfig(bound=100), scale=SCALE)
        report, wall_s = execute_spec(spec)
        cache = ReportCache()
        cache.put(spec_key(spec), report, wall_s)
        removed, freed = cache.prune(max_bytes=0)
        assert removed == 1
        assert cache.info() == {**cache.info(), "entries": 0, "bytes": 0}


# --------------------------------------------------------------------- #
# Full disk: a failed write leaves nothing behind


class _FullDisk:
    """A file handle whose every write fails with ENOSPC."""

    def __init__(self, handle):
        self._handle = handle

    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()


@pytest.fixture
def full_disk(monkeypatch):
    """A context manager inside which created files cannot be written."""

    @contextlib.contextmanager
    def scope():
        real = os.fdopen
        with monkeypatch.context() as patch:
            patch.setattr(os, "fdopen", lambda *a, **k: _FullDisk(real(*a, **k)))
            yield

    return scope


def _files_under(root):
    return sorted(p.name for p in root.rglob("*") if p.is_file())


class TestFullDisk:
    def test_report_cache_put_leaves_no_temp_file(self, full_disk):
        runner = make_runner()
        spec = runner.plan("fft", SlackConfig(bound=100), scale=SCALE)
        report, wall_s = execute_spec(spec)
        cache = ReportCache()
        key = spec_key(spec)
        with full_disk():
            cache.put(key, report, wall_s)  # best-effort: swallowed
        assert _files_under(cache.root) == []
        assert cache.info()["entries"] == 0 and cache.info()["bytes"] == 0
        assert cache.get(key) is None
        cache.put(key, report, wall_s)  # space came back
        assert cache.get(key).digest == report.digest()
        assert _files_under(cache.root) == [f"{key}.json"]

    def test_clear_removes_an_orphaned_epochs_tree(self):
        """The removed time-parallel layer left megabytes of recorded
        states under ``<root>/epochs`` that ``info`` and ``prune`` never
        counted; nothing reads them now, so ``clear`` takes the tree."""
        runner = make_runner()
        spec = runner.plan("fft", SlackConfig(bound=100), scale=SCALE)
        report, wall_s = execute_spec(spec)
        cache = ReportCache()
        key = spec_key(spec)
        cache.put(key, report, wall_s)
        state = cache.root / "epochs" / key[:2] / key / "b500.wire"
        state.parent.mkdir(parents=True)
        state.write_bytes(b"wire")
        size = cache._entry_path(key).stat().st_size
        assert (cache.info()["entries"], cache.info()["bytes"]) == (1, size)
        assert cache.prune(max_bytes=0, dry_run=True) == (1, size)
        assert cache.clear() == 1
        assert _files_under(cache.root) == []
        assert not (cache.root / "epochs").exists()
        assert cache.clear() == 0  # and a second clear has nothing to do

    def test_atomic_write_removes_its_temp_file_on_any_exception(self, tmp_path):
        from repro.util import atomic_write

        class NotBytes:
            pass

        target = tmp_path / "sub" / "entry.json"
        with pytest.raises(TypeError):
            atomic_write(target, NotBytes())
        assert _files_under(tmp_path) == []
        atomic_write(target, b"old")
        atomic_write(target, b"new")
        assert target.read_bytes() == b"new"
        assert _files_under(tmp_path) == ["entry.json"]

    def test_a_leaked_temp_file_is_not_an_entry(self):
        """A parent-commit writer that died on a full disk left
        ``.tmp-*.json`` files in shared stores; they are not entries."""
        runner = make_runner()
        spec = runner.plan("fft", SlackConfig(bound=100), scale=SCALE)
        report, wall_s = execute_spec(spec)
        cache = ReportCache()
        key = spec_key(spec)
        cache.put(key, report, wall_s)
        leaked = cache._entry_path(key).parent / ".tmp-abc123.json"
        leaked.write_bytes(b"")
        size = cache._entry_path(key).stat().st_size
        assert (cache.info()["entries"], cache.info()["bytes"]) == (1, size)
        assert cache.prune(max_bytes=0) == (1, size)
        assert cache.info()["entries"] == 0
        assert cache.clear() == 0
        assert leaked.exists()


# --------------------------------------------------------------------- #
# Parallel executor


# Module-level (picklable) crash workers for the retry paths.
def _crash_always_worker(index, spec, collect_metrics):
    os._exit(1)


def _crash_once_worker(index, spec, collect_metrics):
    sentinel = os.environ["REPRO_TEST_CRASH_SENTINEL"]
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write("crashed")
        os._exit(1)
    return _pool_worker(index, spec, collect_metrics)


def _sleep_forever_worker(index, spec, collect_metrics):
    time.sleep(120)


#: Seeds that script `_scripted_worker`: hang forever / dawdle, then run.
HANG_SEED = 999
SLOW_SEED = 1000


def _scripted_worker(index, spec, collect_metrics):
    """A real run that reports the serving pid through the metrics slot,
    unless the spec's seed scripts a hang or a slow start."""
    if spec.seed == HANG_SEED:
        time.sleep(120)
    if spec.seed == SLOW_SEED:
        time.sleep(1.0)
    index, report, wall_s, _ = _pool_worker(index, spec, False)
    return index, report, wall_s, {"pid": os.getpid()}


def _new_children(before):
    return [p for p in multiprocessing.active_children() if p not in before]


class TestParallelExecutor:
    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1

    def test_expected_cost_orders_schemes(self):
        runner = make_runner()
        cc = runner.plan("fft", SlackConfig(bound=0), scale=SCALE)
        slack = runner.plan("fft", SlackConfig(bound=100), scale=SCALE)
        assert expected_cost(cc) > expected_cost(slack)

    def test_empty(self):
        assert ParallelExecutor(jobs=2).map([]) == []

    def test_parallel_matches_serial(self):
        runner = make_runner(persistent_cache=False)
        specs = tiny_specs(runner)
        serial = ParallelExecutor(jobs=1).map(specs)
        parallel = ParallelExecutor(jobs=2).map(specs)
        assert [r.report.digest() for r in serial] == [
            r.report.digest() for r in parallel
        ]

    def test_results_in_submission_order(self):
        runner = make_runner(persistent_cache=False)
        specs = tiny_specs(runner)
        # Deliberately inverted cost hints: the executor must still hand
        # results back aligned with the input order.
        costs = [1.0, 100.0, 50.0, 10.0]
        results = ParallelExecutor(jobs=2).map(specs, costs=costs)
        for spec, result in zip(specs, results):
            fresh, _ = execute_spec(spec)
            assert result.report.digest() == fresh.digest()

    def test_collect_metrics(self):
        runner = make_runner(persistent_cache=False)
        specs = tiny_specs(runner)[:2]
        results = ParallelExecutor(jobs=2, collect_metrics=True).map(specs)
        for result in results:
            assert result.metrics is not None
            assert result.metrics["counters"]

    def test_crash_once_is_retried(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "REPRO_TEST_CRASH_SENTINEL", str(tmp_path / "crash-sentinel")
        )
        runner = make_runner(persistent_cache=False)
        specs = tiny_specs(runner)[:2]
        executor = ParallelExecutor(jobs=2, worker=_crash_once_worker)
        results = executor.map(specs)
        for spec, result in zip(specs, results):
            fresh, _ = execute_spec(spec)
            assert result.report.digest() == fresh.digest()

    def test_persistent_crash_gives_up(self):
        runner = make_runner(persistent_cache=False)
        specs = tiny_specs(runner)[:2]
        executor = ParallelExecutor(
            jobs=2, max_retries=1, worker=_crash_always_worker
        )
        with pytest.raises(WorkerCrashError, match="crashed"):
            executor.map(specs)

    def test_simulation_error_not_retried(self):
        calls = []

        def failing_worker(index, spec, collect_metrics):
            calls.append(index)
            raise ValueError("deterministic failure")

        runner = make_runner(persistent_cache=False)
        spec = runner.plan("fft", SlackConfig(bound=100), scale=SCALE)
        executor = ParallelExecutor(jobs=1, worker=failing_worker)
        with pytest.raises(ValueError, match="deterministic failure"):
            executor.map([spec])
        assert len(calls) == 1

    def test_retry_exhaustion_is_structured_and_names_job(self):
        """When BrokenProcessPool retries run out, the caller gets one
        structured error naming the offending configuration — no hang,
        no bare BrokenProcessPool traceback."""
        runner = make_runner(persistent_cache=False)
        specs = tiny_specs(runner)[:2]
        executor = ParallelExecutor(
            jobs=2, max_retries=1, worker=_crash_always_worker
        )
        with pytest.raises(WorkerCrashError) as excinfo:
            executor.map(specs)
        message = str(excinfo.value)
        assert "giving up" in message
        assert "fft/" in message or "lu/" in message  # names the job
        assert f"seed {specs[0].seed}" in message

    def test_run_one_matches_in_process(self):
        """The service execution path (dedicated spawn worker) produces
        the same digest as an in-process run."""
        runner = make_runner(persistent_cache=False)
        spec = runner.plan("fft", SlackConfig(bound=100), scale=SCALE)
        result = ParallelExecutor(jobs=1).run_one(spec)
        fresh, _ = execute_spec(spec)
        assert result.report.digest() == fresh.digest()

    def test_run_one_timeout_kills_worker(self):
        runner = make_runner(persistent_cache=False)
        spec = runner.plan("fft", SlackConfig(bound=100), scale=SCALE)
        executor = ParallelExecutor(jobs=1, worker=_sleep_forever_worker)
        with pytest.raises(ExecutionTimeoutError, match="worker killed"):
            # fork: the injected worker need not be importable in a
            # spawned child, and the test stays fast.
            executor.run_one(spec, timeout=0.2, start_method="fork")

    def test_run_one_crash_is_structured(self):
        runner = make_runner(persistent_cache=False)
        spec = runner.plan("fft", SlackConfig(bound=100), scale=SCALE)
        executor = ParallelExecutor(jobs=1, worker=_crash_always_worker)
        with pytest.raises(WorkerCrashError) as excinfo:
            executor.run_one(spec, start_method="fork")
        assert f"seed {spec.seed}" in str(excinfo.value)


# --------------------------------------------------------------------- #
# Warm run_one slots


def scheme_zoo(runner):
    """cc, slack, adaptive and speculative: every scheme family's state."""
    return [
        runner.plan("fft", SlackConfig(bound=0), scale=SCALE),
        runner.plan("fft", SlackConfig(bound=16), scale=SCALE),
        runner.plan("fft", AdaptiveConfig(target_rate=1e-3), scale=SCALE),
        runner.plan(
            "fft",
            SpeculativeConfig(
                base=AdaptiveConfig(target_rate=1e-3),
                checkpoint=CheckpointConfig(interval=500),
            ),
            scale=SCALE,
        ),
    ]


class TestWarmSlots:
    """run_one keeps its worker between jobs — and nothing else."""

    def test_consecutive_jobs_share_one_worker(self):
        runner = make_runner(persistent_cache=False)
        before = multiprocessing.active_children()
        with ParallelExecutor(jobs=1, worker=_scripted_worker) as executor:
            pids = [
                executor.run_one(spec, start_method="fork").metrics["pid"]
                for spec in tiny_specs(runner)[:3]
            ]
            assert len(set(pids)) == 1 and pids[0] != os.getpid()
            assert [p.pid for p in _new_children(before)] == pids[:1]
            assert (executor.workers_spawned, executor.worker_reuses) == (1, 2)
        assert _new_children(before) == []
        with pytest.raises(RuntimeError, match="closed"):
            executor.run_one(tiny_specs(runner)[0], start_method="fork")

    def test_timeout_kills_worker_and_next_job_gets_a_new_one(self):
        from repro.harness.bench import BenchCase

        repo = pathlib.Path(__file__).resolve().parents[1]
        case = BenchCase("cc", 4, 0.25)
        golden = json.loads((repo / "benchmarks" / "golden_kernel.json").read_text())
        runner = make_runner(persistent_cache=False)
        warmup = runner.plan("fft", SlackConfig(bound=100), scale=SCALE)
        before = multiprocessing.active_children()
        with ParallelExecutor(jobs=1, worker=_scripted_worker) as executor:
            first = executor.run_one(warmup, start_method="fork").metrics["pid"]
            with pytest.raises(ExecutionTimeoutError, match="worker killed"):
                executor.run_one(
                    dataclasses.replace(warmup, seed=HANG_SEED),
                    timeout=0.2,
                    start_method="fork",
                )
            assert _new_children(before) == []  # dead and reaped, not parked
            result = executor.run_one(case.spec(), start_method="fork")
            assert result.metrics["pid"] != first
            assert result.report.digest() == golden[case.case_id]
            assert (executor.workers_spawned, executor.worker_reuses) == (2, 1)

    def test_crash_is_raised_once_and_the_slot_replaced(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_CRASH_SENTINEL", str(tmp_path / "crashed"))
        runner = make_runner(persistent_cache=False)
        spec = runner.plan("fft", SlackConfig(bound=100), scale=SCALE)
        before = multiprocessing.active_children()
        with ParallelExecutor(jobs=1, worker=_crash_once_worker) as executor:
            with pytest.raises(WorkerCrashError, match="crashed"):
                executor.run_one(spec, start_method="fork")
            assert _new_children(before) == []
            result = executor.run_one(spec, start_method="fork")
            fresh, _ = execute_spec(spec)
            assert result.report.digest() == fresh.digest()
            assert (executor.workers_spawned, executor.worker_reuses) == (2, 0)

    def test_failed_job_does_not_park_its_worker(self):
        """Only a worker that finished its last job cleanly is reused."""
        runner = make_runner(persistent_cache=False)
        bad = dataclasses.replace(
            runner.plan("fft", SlackConfig(bound=100), scale=SCALE),
            benchmark="no-such-benchmark",
        )
        before = multiprocessing.active_children()
        with ParallelExecutor(jobs=1) as executor:
            with pytest.raises(Exception, match="no-such-benchmark"):
                executor.run_one(bad, start_method="fork")
            assert _new_children(before) == []

    @pytest.mark.parametrize("reverse", [False, True])
    def test_no_state_leaks_between_jobs(self, reverse):
        """Every scheme family back to back in one spawned worker, in two
        orders: each digest equals a fresh-process run's."""
        specs = scheme_zoo(make_runner(persistent_cache=False))
        fresh = [execute_spec(spec)[0].digest() for spec in specs]
        order = list(reversed(range(len(specs)))) if reverse else list(range(len(specs)))
        with ParallelExecutor(jobs=1) as executor:
            warm = {i: executor.run_one(specs[i]).report.digest() for i in order}
            assert executor.workers_spawned == 1
        assert [warm[i] for i in range(len(specs))] == fresh

    def test_fresh_process_digests_match_in_process(self):
        """The reference above is honest: a cold spawned worker per spec
        reproduces the in-process digests."""
        for spec in scheme_zoo(make_runner(persistent_cache=False)):
            with ParallelExecutor(jobs=1) as executor:
                cold = executor.run_one(spec).report.digest()
            assert cold == execute_spec(spec)[0].digest()

    def test_telemetry_and_sanitizer_are_built_per_job(self):
        """collect_metrics / sanitize build a fresh session per job: the
        same spec run twice in one worker reports the same counters, not
        accumulated ones, and the digests stay put."""
        specs = scheme_zoo(make_runner(persistent_cache=False))
        with ParallelExecutor(jobs=1, collect_metrics=True, sanitize=True) as executor:
            runs = [executor.run_one(spec) for spec in specs + specs]
            assert executor.workers_spawned == 1
        for spec, first, second in zip(specs, runs, runs[len(specs):]):
            assert first.metrics["counters"] == second.metrics["counters"]
            assert first.report.digest() == second.report.digest()
            assert first.report.digest() == execute_spec(spec)[0].digest()

    def test_two_callers_two_workers_and_a_timeout_spares_the_sibling(self):
        # spawn, as the service does: two threads forking at once leak
        # each other's pipe ends into the children.
        runner = make_runner(persistent_cache=False)
        base = runner.plan("fft", SlackConfig(bound=100), scale=SCALE)
        slow = dataclasses.replace(base, seed=SLOW_SEED)
        outcome = {}

        def hang():
            try:
                executor.run_one(dataclasses.replace(base, seed=HANG_SEED), timeout=0.3)
            except ExecutionTimeoutError as exc:
                outcome["hang"] = exc

        before = multiprocessing.active_children()
        with ParallelExecutor(jobs=2, worker=_scripted_worker) as executor:
            thread = threading.Thread(target=hang)
            thread.start()
            # Still running when the other caller's worker is killed.
            sibling = executor.run_one(slow)
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert isinstance(outcome.get("hang"), ExecutionTimeoutError)
            assert sibling.report.digest() == execute_spec(slow)[0].digest()
            assert (executor.workers_spawned, executor.worker_reuses) == (2, 0)
            survivors = [p.pid for p in _new_children(before)]
            assert survivors == [sibling.metrics["pid"]]
        assert _new_children(before) == []

    def test_many_callers_keep_the_slot_accounting_exact(self):
        """More caller threads than cores, a short switch interval: every
        call is either a spawn or a reuse, at most one worker per caller,
        every digest right, nothing left after close()."""
        runner = make_runner(persistent_cache=False)
        spec = runner.plan("fft", SlackConfig(bound=100), scale=SCALE)
        expected = execute_spec(spec)[0].digest()
        callers, calls_each = 6, 3
        digests = []

        def caller():
            for _ in range(calls_each):
                digests.append(executor.run_one(spec).report.digest())

        before = multiprocessing.active_children()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ParallelExecutor(jobs=callers) as executor:
                threads = [threading.Thread(target=caller) for _ in range(callers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                assert digests == [expected] * (callers * calls_each)
                assert executor.workers_spawned + executor.worker_reuses == len(digests)
                assert 1 <= executor.workers_spawned <= callers
                assert len(_new_children(before)) == executor.workers_spawned
        finally:
            sys.setswitchinterval(interval)
        assert _new_children(before) == []

    def test_dropped_executor_reaps_its_workers(self):
        runner = make_runner(persistent_cache=False)
        spec = runner.plan("fft", SlackConfig(bound=100), scale=SCALE)
        before = multiprocessing.active_children()
        executor = ParallelExecutor(jobs=1)
        executor.run_one(spec, start_method="fork")
        assert len(_new_children(before)) == 1
        del executor
        assert _new_children(before) == []

    def test_worker_does_not_outlive_a_killed_parent(self, tmp_path):
        """No close(), no finalizer, no atexit: SIGKILL the owner and the
        idle warm worker still goes."""
        script = tmp_path / "owner.py"
        script.write_text(
            "import multiprocessing, os, signal\n"
            "from repro.config import SlackConfig, quick_target_config\n"
            "from repro.harness.pool import ParallelExecutor\n"
            "from repro.harness.runner import ExperimentRunner\n"
            "if __name__ == '__main__':\n"
            "    runner = ExperimentRunner(target=quick_target_config(),\n"
            "                              num_threads=4, seed=7,\n"
            "                              persistent_cache=False)\n"
            "    executor = ParallelExecutor(jobs=1)\n"
            f"    executor.run_one(runner.plan('fft', SlackConfig(bound=100), scale={SCALE}))\n"
            "    print(multiprocessing.active_children()[0].pid, flush=True)\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        owner = subprocess.run(
            [sys.executable, str(script)],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert owner.returncode == -signal.SIGKILL, owner.stderr
        worker = int(owner.stdout.split()[-1])
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.kill(worker, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)
        os.kill(worker, signal.SIGKILL)
        pytest.fail(f"warm worker {worker} outlived its killed parent")


# --------------------------------------------------------------------- #
# Metrics merge


class TestMetricsMerge:
    def test_counters_add_gauges_overwrite(self):
        parent = MetricsRegistry()
        parent.counter("runs").inc(3)
        parent.gauge("depth").set(1.0)
        child = MetricsRegistry()
        child.counter("runs").inc(4)
        child.counter("new").inc(1)
        child.gauge("depth").set(9.0)
        parent.merge(child.to_dict())
        assert parent.counter("runs").value == 7
        assert parent.counter("new").value == 1
        assert parent.gauge("depth").value == 9.0

    def test_histograms_combine(self):
        parent = MetricsRegistry()
        parent.histogram("lat", buckets=(1, 2, 4)).observe(1)
        child = MetricsRegistry()
        child.histogram("lat", buckets=(1, 2, 4)).observe(3)
        child.histogram("lat").observe(100)
        parent.merge(child.to_dict())
        hist = parent.histogram("lat")
        assert hist.count == 3
        assert hist.total == 104.0

    def test_mismatched_buckets_skipped(self):
        parent = MetricsRegistry()
        parent.histogram("lat", buckets=(1, 2)).observe(1)
        child = MetricsRegistry()
        child.histogram("lat", buckets=(10, 20)).observe(15)
        parent.merge(child.to_dict())
        assert parent.histogram("lat").count == 1

    def test_session_absorbs_worker_metrics(self):
        session = TelemetrySession(trace=False, metrics=True, sample_period=None)
        worker = MetricsRegistry()
        worker.counter("events").inc(5)
        session.absorb_worker_metrics(worker.to_dict())
        assert session.metrics.counter("events").value == 5
        session.absorb_worker_metrics(None)  # no-op
        assert session.metrics.counter("events").value == 5


# --------------------------------------------------------------------- #
# Runner integration


class TestRunnerIntegration:
    def test_prefetch_parallel_equals_serial(self):
        serial = make_runner(jobs=1, persistent_cache=False)
        parallel = make_runner(jobs=2, persistent_cache=False)
        specs = tiny_specs(parallel)
        parallel.prefetch(specs)
        for spec in specs:
            a = serial.run(
                spec.benchmark,
                spec.scheme,
                scale=spec.scale,
                checkpoint=spec.checkpoint,
                detection=spec.detection,
            )
            b = parallel.run(
                spec.benchmark,
                spec.scheme,
                scale=spec.scale,
                checkpoint=spec.checkpoint,
                detection=spec.detection,
            )
            assert a.digest() == b.digest()

    def test_persistent_cache_spans_runners(self, monkeypatch):
        first = make_runner()
        report = first.run("fft", SlackConfig(bound=100), scale=SCALE)

        # A second runner (fresh memo, same on-disk cache) must not
        # execute anything.
        import repro.harness.runner as runner_mod

        def boom(*args, **kwargs):
            raise AssertionError("expected a cache hit, got a fresh run")

        monkeypatch.setattr(runner_mod, "execute_spec", boom)
        second = make_runner()
        cached = second.run("fft", SlackConfig(bound=100), scale=SCALE)
        assert cached.digest() == report.digest()

    def test_prefetch_uses_persistent_cache(self, monkeypatch):
        first = make_runner()
        specs = tiny_specs(first)
        first.prefetch(specs)

        import repro.harness.runner as runner_mod

        class BoomExecutor:
            def __init__(self, *args, **kwargs):
                pass

            def map(self, specs, costs=None):
                raise AssertionError("expected cache hits, pool was invoked")

        monkeypatch.setattr(runner_mod, "ParallelExecutor", BoomExecutor)
        second = make_runner(jobs=2)
        second.prefetch(specs)
        assert len(second._memo) == len(set(specs))

    def test_no_persistent_cache_opt_out(self, monkeypatch):
        first = make_runner(persistent_cache=False)
        first.run("fft", SlackConfig(bound=100), scale=SCALE)
        assert first.cache is None
        assert ReportCache().info()["entries"] == 0

    def test_telemetry_bypasses_reads_shares_writes(self):
        runner = make_runner()
        baseline = runner.run("fft", SlackConfig(bound=100), scale=SCALE)

        calls = []
        import repro.harness.runner as runner_mod

        real = runner_mod.execute_spec

        def counting(spec, telemetry=None):
            calls.append(spec)
            return real(spec, telemetry=telemetry)

        runner_mod.execute_spec = counting
        try:
            session = TelemetrySession(
                trace=False, metrics=True, sample_period=None
            )
            fresh_runner = make_runner()
            observed = fresh_runner.run(
                "fft", SlackConfig(bound=100), scale=SCALE, telemetry=session
            )
        finally:
            runner_mod.execute_spec = real
        # The cached entry was ignored: the run truly executed...
        assert len(calls) == 1
        # ...under telemetry without perturbing the result...
        assert observed.digest() == baseline.digest()
        assert session.metrics.to_dict()["counters"]
        # ...and its (identical) report refreshed the shared cache entry.
        spec = runner.plan("fft", SlackConfig(bound=100), scale=SCALE)
        entry = ReportCache().get(spec_key(spec))
        assert entry is not None and entry.digest == baseline.digest()
