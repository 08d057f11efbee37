"""A duplicate request does no work twice — and no wrong work once.

The protocol server remembers every spec it has decoded (keyed on the
submitted JSON text) and each :class:`ReportCache` remembers the entries
it has loaded (validated by one ``os.stat``).  These tests pin both, on
both backends (:mod:`tests.engines`): the exact work a duplicate still
does, the bound on each memo, and that nothing stale, aliased or invalid
is ever served from one.
"""

import dataclasses
import errno
import json
import os
import pathlib

import pytest

import repro.harness.cache as cache_module
import repro.service.core as core_module
from repro.core.report import SimulationReport
from repro.harness.cache import ENTRY_MEMO_SIZE, ReportCache, spec_key
from repro.harness.pool import PoolResult, execute_spec
from repro.service.client import ServiceClient
from repro.service.core import SPEC_MEMO_SIZE
from repro.service.protocol import ERR_BAD_REQUEST, ServiceError, spec_to_wire
from repro.service.server import ServiceConfig, ServiceDaemon
from repro.service.store import JobStore
from repro.telemetry import MetricsRegistry
from tests.engines import KINDS, Engine, tiny_spec


@pytest.fixture(params=KINDS)
def engine(request, tmp_path):
    engine = Engine(request.param, tmp_path)
    yield engine
    engine.stop()


def run_to_result(client, spec):
    """Submit ``spec`` and wait: ``(job_id, result doc)``."""
    job_id = client.submit(spec)["job_id"]
    return job_id, client.result(job_id, wait=True, timeout_s=60)


def store_of(server):
    """The server's own :class:`ReportCache` instance (the memo is per instance)."""
    return server.cache if hasattr(server, "cache") else server.shared.cache


def memo_counters(client):
    counters = client.health()["metrics"]["counters"]
    return counters["service.spec_memo_hits"], counters["store.entry_memo_hits"]


# --------------------------------------------------------------------- #
# Exact counts: what a duplicate still does
# --------------------------------------------------------------------- #


def install_spies(monkeypatch, store_dir):
    """Count the work a duplicate must not repeat; returns the call log."""
    calls = []

    def spy(owner, name, store_only=False, wrap=lambda function: function):
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            # store_only: the WAL and the sockets are stat'ed and read too.
            if not store_only or str(args[0]).startswith(str(store_dir)):
                calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrap(counting))

    spy(core_module, "spec_from_wire")
    spy(cache_module, "fingerprint")
    spy(ReportCache, "get")
    spy(SimulationReport, "to_dict")
    spy(SimulationReport, "from_dict", wrap=staticmethod)  # original is bound
    spy(pathlib.Path, "read_text", store_only=True)
    spy(os, "stat", store_only=True)
    return calls


class TestExactCounts:
    def test_a_duplicate_repeats_no_decode_no_fingerprint_no_load(
        self, engine, monkeypatch
    ):
        spec = tiny_spec(seed=21)
        duplicates = 5
        with engine.client() as client:
            _, first = run_to_result(client, spec)
            # The first request's own result read loaded and memoized the
            # entry; from here on the spec and the entry are both known.
            with monkeypatch.context() as patch:
                calls = install_spies(patch, engine.root / "store")
                for _ in range(duplicates):
                    _, doc = run_to_result(client, spec)
                    assert doc["source"] == "cache"
                    assert doc["digest"] == first["digest"]
                    assert doc["report"] == first["report"]
            spec_hits, entry_hits = memo_counters(client)
        for name in ("spec_from_wire", "fingerprint", "read_text", "from_dict", "to_dict"):
            assert calls.count(name) == 0, name
        # Admission and the result read each consult the store: one stat
        # per get, nothing else.
        assert calls.count("get") == 2 * duplicates
        assert calls.count("stat") == calls.count("get")
        assert spec_hits == duplicates
        assert entry_hits >= 2 * duplicates

    def test_memos_stay_bounded(self, engine):
        server = engine.server
        cache = store_of(server)
        report, wall_s = execute_spec(tiny_spec(seed=22))
        base = spec_to_wire(tiny_spec(seed=0))
        for n in range(1000):
            assert server.admitted_spec(dict(base, seed=n)).spec.seed == n
            key = f"{n:064x}"
            cache.put(key, report, wall_s)
            assert cache.get(key) is not None
        assert len(server._spec_memo) == SPEC_MEMO_SIZE
        assert len(cache._memo) == ENTRY_MEMO_SIZE
        # Least recently used went first: the newest are still memoized.
        hits = server.metrics.counter("store.entry_memo_hits")
        before = hits.value
        assert cache.get(f"{999:064x}") is not None
        assert hits.value == before + 1
        assert cache.get(f"{0:064x}") is not None  # reloaded from disk
        assert hits.value == before + 1


# --------------------------------------------------------------------- #
# Aliasing: equal under ==, distinct on the wire
# --------------------------------------------------------------------- #


def with_core_cycle_ns(spec, value):
    cost = dataclasses.replace(spec.host.cost, core_cycle_ns=value)
    return dataclasses.replace(spec, host=dataclasses.replace(spec.host, cost=cost))


class TestWireAliasing:
    def test_int_and_float_specs_stay_distinct(self, engine):
        as_int = with_core_cycle_ns(tiny_spec(seed=23), 6000)
        as_float = with_core_cycle_ns(tiny_spec(seed=23), 6000.0)
        assert as_int == as_float and hash(as_int) == hash(as_float)
        assert spec_key(as_int) != spec_key(as_float)
        with engine.client() as client:
            int_id, int_doc = run_to_result(client, as_int)
            float_id, float_doc = run_to_result(client, as_float)
            # Neither was answered from the other's memo, run or entry.
            assert (int_doc["source"], float_doc["source"]) == ("run", "run")
            _, again = run_to_result(client, as_int)
            assert again["source"] == "cache"
        jobs = engine.server.store.jobs
        assert jobs[int_id].cache_key == spec_key(as_int)
        assert jobs[float_id].cache_key == spec_key(as_float)
        submits = [
            line
            for line in engine.wal_path.read_text().splitlines()
            if json.loads(line)["type"] == "submit"
        ]
        assert '"core_cycle_ns":6000,' in submits[0]
        assert '"core_cycle_ns":6000.0,' in submits[1]
        assert '"core_cycle_ns":6000,' in submits[2]

    def test_an_invalid_spec_is_never_memoized(self, engine):
        bad = dict(spec_to_wire(tiny_spec()), scheme={"__type__": "NoSuchScheme"})
        with engine.client() as client:
            for _ in range(2):
                with pytest.raises(ServiceError) as excinfo:
                    client.request("submit", spec=bad)
                assert excinfo.value.code == ERR_BAD_REQUEST
            assert memo_counters(client)[0] == 0
        assert len(engine.server._spec_memo) == 0

    def test_duplicates_share_one_spec_wire(self, engine):
        with engine.client() as client:
            ids = [run_to_result(client, tiny_spec(seed=24))[0] for _ in range(3)]
        wires = [engine.server.store.jobs[job_id].spec_wire for job_id in ids]
        assert wires[0] is wires[1] is wires[2]
        assert wires[0] == spec_to_wire(tiny_spec(seed=24))


# --------------------------------------------------------------------- #
# Invalidation: the store changes between two duplicates
# --------------------------------------------------------------------- #


def entry_path(engine, spec):
    return ReportCache(engine.root / "store")._entry_path(spec_key(spec))


def truncate(engine, spec):
    path = entry_path(engine, spec)
    path.write_text(path.read_text()[:200])


def garbage(engine, spec):
    entry_path(engine, spec).write_text("[]")  # valid JSON, not an entry


def prune(engine, spec):
    assert ReportCache(engine.root / "store").prune(max_bytes=0)[0] == 1


def clear(engine, spec):
    assert ReportCache(engine.root / "store").clear() == 1


class TestStoreInvalidation:
    @pytest.mark.parametrize("damage", [truncate, garbage, prune, clear])
    def test_a_lost_entry_is_evicted_then_recomputed(self, engine, damage):
        spec = tiny_spec(seed=25)
        with engine.client() as client:
            _, first = run_to_result(client, spec)
            old_id, cached = run_to_result(client, spec)
            assert cached["source"] == "cache"
            damage(engine, spec)
            with pytest.raises(ServiceError) as excinfo:
                client.result(old_id)
            assert excinfo.value.code == "RESULT_EVICTED"
            assert not entry_path(engine, spec).exists()
            _, rerun = run_to_result(client, spec)
            assert rerun["source"] == "run"
            assert rerun["digest"] == first["digest"]
            assert rerun["report"] == first["report"]
            assert client.result(old_id)["digest"] == first["digest"]  # back again

    def test_a_rewritten_entry_is_the_one_served(self, engine):
        spec, other = tiny_spec(seed=26), tiny_spec(seed=27)
        other_report, other_wall = execute_spec(other)
        with engine.client() as client:
            run_to_result(client, spec)
            _, cached = run_to_result(client, spec)
            assert cached["source"] == "cache"
            ReportCache(engine.root / "store").put(spec_key(spec), other_report, other_wall)
            _, doc = run_to_result(client, spec)
        assert doc["source"] == "cache"
        assert doc["digest"] == other_report.digest()
        assert doc["report"] == json.loads(json.dumps(other_report.to_dict()))

    def test_a_mutated_memoized_report_is_reloaded_not_served(self, engine):
        spec = tiny_spec(seed=28)
        with engine.client() as client:
            job_id, first = run_to_result(client, spec)
            cache = store_of(engine.server)
            memoized = cache.get(spec_key(spec))
            assert cache.get(spec_key(spec)) is memoized
            memoized.report.target_cycles += 1  # a digest field
            doc = client.result(job_id)
            assert doc["digest"] == first["digest"]
            assert doc["report"] == first["report"]
            assert SimulationReport.from_dict(doc["report"]).digest() == doc["digest"]
        assert cache.get(spec_key(spec)) is not memoized
        assert entry_path(engine, spec).exists()


class TestReportCacheIo:
    def _stored(self):
        report, wall_s = execute_spec(tiny_spec(seed=29))
        self.counters = MetricsRegistry()
        cache = ReportCache(metrics=self.counters)
        key = spec_key(tiny_spec(seed=29))
        cache.put(key, report, wall_s)
        return cache, key, report

    def _count(self, name):
        return self.counters.counter(f"store.{name}").value

    @pytest.mark.parametrize("memoized", [False, True])
    def test_an_io_error_is_a_miss_that_keeps_the_file(self, monkeypatch, memoized):
        cache, key, report = self._stored()
        path = cache._entry_path(key)
        if memoized:
            assert cache.get(key) is not None
            os.utime(path, ns=(1, 1))  # new signature: the next get must read

        def starved(self, *args, **kwargs):
            raise OSError(errno.EMFILE, "Too many open files", str(self))

        with monkeypatch.context() as patch:
            patch.setattr(pathlib.Path, "read_text", starved)
            assert cache.get(key) is None
        assert self._count("io_errors") == 1
        assert path.exists()
        # The node recovers; the fleet's report was never at risk.
        assert ReportCache().get(key).digest == report.digest()
        assert cache.get(key).digest == report.digest()

    def test_a_stat_error_is_a_miss_that_keeps_the_file(self, monkeypatch):
        cache, key, report = self._stored()
        real_stat = os.stat

        def denied(path, *args, **kwargs):
            if str(path).endswith(f"{key}.json"):
                raise OSError(errno.EACCES, "Permission denied", str(path))
            return real_stat(path, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(os, "stat", denied)
            assert cache.get(key) is None
        assert self._count("io_errors") == 1
        assert cache.get(key).digest == report.digest()

    def test_a_non_object_document_is_dropped(self):
        cache, key, _ = self._stored()
        cache._entry_path(key).write_text("[]")
        assert cache.get(key) is None
        assert not cache._entry_path(key).exists()

    def test_undecodable_bytes_are_dropped(self):
        cache, key, _ = self._stored()
        cache._entry_path(key).write_bytes(b"\xff\xfe\x00garbage")
        assert cache.get(key) is None
        assert not cache._entry_path(key).exists()

    def test_repeat_reads_share_the_entry_and_its_payload(self):
        cache, key, report = self._stored()
        first, second = cache.get(key), cache.get(key)
        assert second is first and self._count("entry_memo_hits") == 1
        assert first.payload == report.to_dict()
        assert json.dumps(first.payload) == json.dumps(report.to_dict())


# --------------------------------------------------------------------- #
# Recovery goes through the same memo
# --------------------------------------------------------------------- #


def test_wal_replay_decodes_each_distinct_spec_once(tmp_path):
    config = ServiceConfig(
        socket_path=tmp_path / "s.sock",
        cache_dir=tmp_path / "store",
        wal_path=tmp_path / "jobs.wal",
        fsync=False,
    )
    store = JobStore(config.wal_path, fsync=False)
    store.open()
    for seed in (31, 31, 32, 31):
        store.new_job(spec_to_wire(tiny_spec(seed)), 0, None, 1.0)
    store.close()

    async def run_job(spec, timeout):
        report, wall_s = execute_spec(spec)
        return PoolResult(report, wall_s, None)

    daemon = ServiceDaemon(config, run_job=run_job).start()
    try:
        with ServiceClient(daemon.address, timeout=30.0) as client:
            health = client.health()
            assert health["recovered"] == 4
            assert health["metrics"]["counters"]["service.spec_memo_hits"] == 2
            digests = [
                client.result(f"j-{n}", wait=True, timeout_s=60)["digest"]
                for n in (1, 2, 3, 4)
            ]
    finally:
        daemon.stop()
    assert digests[0] == digests[1] == digests[3] == execute_spec(tiny_spec(31))[0].digest()
    assert digests[2] == execute_spec(tiny_spec(32))[0].digest()
