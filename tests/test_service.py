"""Tests for repro.service: protocol codec, WAL store, dispatcher, daemon.

The load-bearing property is the digest contract: a report fetched
through the service is byte-for-byte (same sha256) identical to a local
run of the same spec — asserted end-to-end over a real unix socket for
three scheme kinds.  Everything else (backpressure, dedup, retries,
crash recovery) protects the service's availability around that
contract.

Most daemon tests inject an inline ``run_job`` (the dispatcher's
execution seam) so they run the simulation in-process instead of paying
for a spawned worker; the real path — a warm worker reused across jobs —
is covered by ``TestWarmWorkers`` here, ``TestWarmSlots`` in
test_pool_cache.py and the CI smoke job.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import multiprocessing
import pathlib
import threading
import time

import pytest

from repro.config import (
    AdaptiveConfig,
    AdaptiveQuantumConfig,
    CheckpointConfig,
    P2PConfig,
    QuantumConfig,
    SlackConfig,
    SpeculativeConfig,
    paper_host_config,
    quick_target_config,
)
from repro.fabric.membership import EVICTED
from repro.harness.cache import ReportCache, RunSpec, field_names, spec_key
from repro.harness.pool import (
    ExecutionTimeoutError,
    ParallelExecutor,
    PoolResult,
    WorkerCrashError,
    execute_spec,
)
from repro.service import (
    PROTOCOL_VERSION,
    ServiceClient,
    ServiceConfig,
    ServiceDaemon,
    ServiceError,
    spec_from_wire,
    spec_to_wire,
)
from repro.memory.dram import DramConfig
from repro.service.protocol import (
    _SPEC_FIELDS,
    CONFIG_CLASSES,
    ERR_BAD_REQUEST,
    ERR_CANCELLED,
    ERR_NOT_CANCELLABLE,
    ERR_NOT_READY,
    ERR_QUEUE_FULL,
    ERR_TIMEOUT,
    ERR_UNSUPPORTED,
    ERR_WORKER_CRASHED,
    _decode_value,
    _encode_value,
    decode_line,
    encode_line,
)
from repro.service.store import DONE, QUEUED, RUNNING, JobStore

from tests.engines import KINDS, Engine, lifecycle_session
from tests.test_pool_cache import _crash_once_worker, _new_children

SCALE = 0.05


def tiny_spec(seed=7, scheme=None, benchmark="fft"):
    return RunSpec(
        benchmark=benchmark,
        scheme=scheme if scheme is not None else SlackConfig(bound=8),
        scale=SCALE,
        checkpoint=None,
        detection=True,
        seed=seed,
        num_threads=4,
        target=quick_target_config(num_cores=4),
        host=paper_host_config(),
    )


async def inline_run_job(spec, timeout):
    """Execution seam that runs the simulation on the daemon's loop —
    fast and deterministic, no worker process."""
    report, wall_s = execute_spec(spec)
    return PoolResult(report, wall_s, None)


def make_config(tmp_path, **overrides):
    overrides.setdefault("socket_path", tmp_path / "repro.sock")
    overrides.setdefault("cache_dir", tmp_path / "cache")
    overrides.setdefault("wal_path", tmp_path / "jobs.wal")
    overrides.setdefault("retry_backoff_s", 0.01)
    return ServiceConfig(**overrides)


@pytest.fixture
def daemon(tmp_path):
    d = ServiceDaemon(make_config(tmp_path), run_job=inline_run_job).start()
    yield d
    d.stop()


@pytest.fixture
def client(daemon):
    with ServiceClient(daemon.address, timeout=30.0) as c:
        yield c


# --------------------------------------------------------------------- #
# Protocol codec
# --------------------------------------------------------------------- #


#: Every scheme kind, plus plain slack under periodic checkpointing.
ROUNDTRIPS = [
    (SlackConfig(bound=0), None),
    (SlackConfig(bound=None), None),
    (AdaptiveConfig(target_rate=1e-3), None),
    (
        SpeculativeConfig(
            base=AdaptiveConfig(), checkpoint=CheckpointConfig(interval=500)
        ),
        CheckpointConfig(interval=500),
    ),
    (SlackConfig(bound=16), None),
    (QuantumConfig(quantum=10), None),
    (P2PConfig(period=50, max_lead=80), None),
    (AdaptiveQuantumConfig(initial_quantum=16), None),
    (SlackConfig(bound=16), CheckpointConfig(interval=2000)),
]


def roundtrip_specs(scheme, checkpoint):
    """The spec on the flat-latency L2 and on the open-row DRAM L2."""
    flat = quick_target_config(num_cores=4)
    dram = dataclasses.replace(flat, l2=dataclasses.replace(flat.l2, dram=DramConfig()))
    return [
        RunSpec(
            benchmark="fft",
            scheme=scheme,
            scale=0.25,
            checkpoint=checkpoint,
            detection=True,
            seed=99,
            num_threads=4,
            target=target,
            host=paper_host_config(),
        )
        for target in (flat, dram)
    ]


def wire_tags(doc):
    """Every ``__type__`` tag in a wire document."""
    if isinstance(doc, dict):
        return {doc.get("__type__")} | {t for v in doc.values() for t in wire_tags(v)}
    if isinstance(doc, list):
        return {t for v in doc for t in wire_tags(v)}
    return set()


class TestWireCodec:
    @pytest.mark.parametrize("scheme,checkpoint", ROUNDTRIPS)
    def test_roundtrip_exact(self, scheme, checkpoint):
        for spec in roundtrip_specs(scheme, checkpoint):
            wire = json.loads(json.dumps(spec_to_wire(spec)))
            rebuilt = spec_from_wire(wire)
            assert rebuilt == spec
            assert spec_key(rebuilt) == spec_key(spec)

    def test_the_round_trips_reach_every_config_class(self):
        """An unregistered class would fail to encode above; this pins
        that the cases cover the whole decode allowlist."""
        seen = set()
        for scheme, checkpoint in ROUNDTRIPS:
            for spec in roundtrip_specs(scheme, checkpoint):
                seen |= wire_tags(spec_to_wire(spec))
        assert seen - {None} == set(CONFIG_CLASSES)

    @pytest.mark.parametrize("name", sorted(CONFIG_CLASSES))
    def test_every_config_class_roundtrips_from_its_defaults(self, name):
        value = CONFIG_CLASSES[name]()
        wire = json.loads(json.dumps(_encode_value(value)))
        assert list(wire) == ["__type__", *field_names(type(value))]
        assert _decode_value(wire) == value

    def test_spec_fields_are_runspec_fields_in_order(self):
        assert [n for n, _, _ in _SPEC_FIELDS] == list(field_names(RunSpec))

    @pytest.mark.parametrize(
        "edit, named",
        [
            pytest.param(
                lambda wire: wire["scheme"].update(boundd=16),
                ("SlackConfig", "'boundd'"),
                id="misspelled-scheme-field",
            ),
            pytest.param(
                lambda wire: wire["host"]["cost"].update(
                    core_cycle_nss=wire["host"]["cost"].pop("core_cycle_ns")
                ),
                ("HostCostModel", "'core_cycle_nss'"),
                id="misspelled-nested-field",
            ),
            pytest.param(
                lambda wire: wire["scheme"].pop("bound"),
                ("SlackConfig", "'bound'"),
                id="missing-bound",
            ),
            pytest.param(
                lambda wire: wire.update(seeed=7), ("spec", "'seeed'"), id="extra-spec-key"
            ),
            pytest.param(
                lambda wire: wire["scheme"].update(bound=-3),
                ("SlackConfig", "-3"),
                id="negative-bound",
            ),
            pytest.param(lambda wire: wire.update(num_threads=0), ("num_threads",), id="threads-0"),
            pytest.param(lambda wire: wire.update(num_threads=-2), ("num_threads",), id="threads--2"),
            pytest.param(lambda wire: wire.update(scale=float("nan")), ("scale",), id="scale-nan"),
            pytest.param(lambda wire: wire.update(scale=float("inf")), ("scale",), id="scale-inf"),
            pytest.param(lambda wire: wire.update(scale=0.0), ("scale",), id="scale-0"),
            pytest.param(lambda wire: wire.update(scale=-1.0), ("scale",), id="scale--1"),
            pytest.param(lambda wire: wire.update(scale=10**400), ("spec",), id="scale-overflow"),
        ],
    )
    def test_a_spec_that_is_not_exactly_a_runspec_is_rejected(self, edit, named):
        """Each of these used to be admitted — a misspelled key dropped, a
        missing one defaulted (no ``bound`` is CC), NaN journaled to fail
        only when run — or to escape as a bare ConfigError the daemon
        answered INTERNAL.  Now each is BAD_REQUEST naming what is wrong."""
        wire = spec_to_wire(tiny_spec())
        edit(wire)
        with pytest.raises(ServiceError) as excinfo:
            spec_from_wire(json.loads(json.dumps(wire)))
        assert excinfo.value.code == ERR_BAD_REQUEST
        assert all(name in excinfo.value.message for name in named), excinfo.value

    def test_missing_field_rejected(self):
        wire = spec_to_wire(tiny_spec())
        del wire["seed"]
        with pytest.raises(ServiceError) as excinfo:
            spec_from_wire(wire)
        assert excinfo.value.code == ERR_BAD_REQUEST

    def test_wrong_type_rejected(self):
        wire = spec_to_wire(tiny_spec())
        wire["seed"] = "not-a-seed"
        with pytest.raises(ServiceError) as excinfo:
            spec_from_wire(wire)
        assert excinfo.value.code == ERR_BAD_REQUEST

    def test_unknown_config_tag_rejected(self):
        wire = spec_to_wire(tiny_spec())
        wire["scheme"] = {"__type__": "EvilConfig", "bound": 1}
        with pytest.raises(ServiceError) as excinfo:
            spec_from_wire(wire)
        assert excinfo.value.code == ERR_BAD_REQUEST

    def test_line_framing(self):
        doc = {"v": PROTOCOL_VERSION, "op": "health"}
        line = encode_line(doc)
        assert line.endswith(b"\n")
        assert b"\n" not in line[:-1]
        assert decode_line(line) == doc

    def test_garbage_line_rejected(self):
        with pytest.raises(ServiceError) as excinfo:
            decode_line(b"{nope\n")
        assert excinfo.value.code == ERR_BAD_REQUEST


# --------------------------------------------------------------------- #
# Job store (WAL)
# --------------------------------------------------------------------- #


class TestJobStore:
    def make_store(self, tmp_path):
        store = JobStore(tmp_path / "jobs.wal")
        store.open()
        return store

    def test_replay_reproduces_records(self, tmp_path):
        store = self.make_store(tmp_path)
        wire = spec_to_wire(tiny_spec())
        a = store.new_job(wire, priority=1, timeout_s=None, submitted_at=10.0)
        b = store.new_job(wire, priority=0, timeout_s=2.5, submitted_at=11.0)
        a.state = DONE
        a.digest = "d" * 64
        a.cache_key = "k" * 64
        store.record_state(a, at=12.0, digest=a.digest, key=a.cache_key)
        store.close()

        fresh = JobStore(store.path)
        fresh.replay()
        assert set(fresh.jobs) == {"j-1", "j-2"}
        assert fresh.jobs["j-1"].state == DONE
        assert fresh.jobs["j-1"].digest == "d" * 64
        assert fresh.jobs["j-2"].state == QUEUED
        assert fresh.jobs["j-2"].timeout_s == 2.5
        assert fresh.jobs["j-2"].priority == b.priority

    def test_running_jobs_requeued(self, tmp_path):
        store = self.make_store(tmp_path)
        record = store.new_job(
            spec_to_wire(tiny_spec()), priority=0, timeout_s=None, submitted_at=1.0
        )
        record.state = RUNNING
        store.record_state(record, at=2.0)
        store.close()

        fresh = JobStore(store.path)
        fresh.replay()
        assert fresh.jobs["j-1"].state == QUEUED
        assert fresh.jobs["j-1"].started_at is None
        assert [r.job_id for r in fresh.pending()] == ["j-1"]

    def test_torn_final_line_tolerated(self, tmp_path):
        store = self.make_store(tmp_path)
        store.new_job(
            spec_to_wire(tiny_spec()), priority=0, timeout_s=None, submitted_at=1.0
        )
        store.close()
        with open(store.path, "a", encoding="utf-8") as fh:
            fh.write('{"v":1,"type":"sub')  # crash mid-append

        fresh = JobStore(store.path)
        fresh.replay()
        assert set(fresh.jobs) == {"j-1"}
        assert fresh.skipped_lines == 0  # torn tail is expected, not counted

    def test_garbage_middle_line_counted(self, tmp_path):
        store = self.make_store(tmp_path)
        store.new_job(
            spec_to_wire(tiny_spec()), priority=0, timeout_s=None, submitted_at=1.0
        )
        store.close()
        lines = store.path.read_text().splitlines()
        lines.insert(0, "not json at all")
        store.path.write_text("\n".join(lines) + "\n")

        fresh = JobStore(store.path)
        fresh.replay()
        assert set(fresh.jobs) == {"j-1"}
        assert fresh.skipped_lines == 1

    def test_ids_continue_after_replay(self, tmp_path):
        store = self.make_store(tmp_path)
        store.new_job(
            spec_to_wire(tiny_spec()), priority=0, timeout_s=None, submitted_at=1.0
        )
        store.close()
        fresh = JobStore(store.path)
        fresh.open()
        record = fresh.new_job(
            spec_to_wire(tiny_spec()), priority=0, timeout_s=None, submitted_at=2.0
        )
        assert record.job_id == "j-2"
        assert record.seq == 2
        fresh.close()

    def test_compact_bounds_log_length(self, tmp_path):
        store = self.make_store(tmp_path)
        record = store.new_job(
            spec_to_wire(tiny_spec()), priority=0, timeout_s=None, submitted_at=1.0
        )
        for _ in range(5):  # many transitions: running <-> queued churn
            record.state = RUNNING
            store.record_state(record, at=2.0)
        record.state = DONE
        record.digest = "d" * 64
        store.record_state(record, at=3.0, digest=record.digest)
        store.close()
        raw_before = len(store.path.read_text().splitlines())

        fresh = JobStore(store.path)
        fresh.open()  # replay + compact
        fresh.close()
        raw_after = len(store.path.read_text().splitlines())
        assert raw_after == 2  # one submit + one terminal state
        assert raw_after < raw_before
        again = JobStore(store.path)
        again.replay()
        assert again.jobs["j-1"].state == DONE
        assert again.jobs["j-1"].digest == "d" * 64

    def test_pending_orders_by_priority_then_seq(self, tmp_path):
        store = self.make_store(tmp_path)
        wire = spec_to_wire(tiny_spec())
        store.new_job(wire, priority=0, timeout_s=None, submitted_at=1.0)
        store.new_job(wire, priority=5, timeout_s=None, submitted_at=2.0)
        store.new_job(wire, priority=5, timeout_s=None, submitted_at=3.0)
        assert [r.job_id for r in store.pending()] == ["j-2", "j-3", "j-1"]
        store.close()


# --------------------------------------------------------------------- #
# Daemon end-to-end (unix socket, inline execution)
# --------------------------------------------------------------------- #


class TestServiceEndToEnd:
    def test_digest_identical_to_local_run_three_schemes(self, client):
        """The non-negotiable invariant, for three scheme kinds."""
        specs = [
            tiny_spec(scheme=SlackConfig(bound=0)),  # cycle-by-cycle
            tiny_spec(scheme=SlackConfig(bound=100)),  # bounded slack
            tiny_spec(scheme=AdaptiveConfig()),  # adaptive
        ]
        job_ids = [client.submit(spec)["job_id"] for spec in specs]
        for spec, job_id in zip(specs, job_ids):
            served = client.fetch_report(job_id, wait=True, timeout_s=60)
            local, _ = execute_spec(spec)
            assert served.digest() == local.digest()

    def test_result_doc_fields(self, client):
        job_id = client.submit(tiny_spec())["job_id"]
        doc = client.result(job_id, wait=True, timeout_s=60)
        assert doc["ok"] and doc["op"] == "result"
        assert doc["source"] == "run"
        assert len(doc["digest"]) == 64
        assert doc["report"]["benchmark"] == "fft"

    def test_second_submit_hits_cache(self, client):
        spec = tiny_spec(seed=21)
        first = client.submit(spec)["job_id"]
        client.result(first, wait=True, timeout_s=60)
        second = client.submit(spec)["job_id"]
        doc = client.result(second, wait=True, timeout_s=60)
        assert doc["source"] == "cache"
        assert doc["digest"] == client.result(first)["digest"]
        health = client.health()
        assert health["metrics"]["counters"]["service.cache_hits"] == 1

    def test_status_and_jobs(self, client):
        job_id = client.submit(tiny_spec(seed=31))["job_id"]
        client.result(job_id, wait=True, timeout_s=60)
        status = client.status(job_id)
        assert status["state"] == "done"
        assert status["benchmark"] == "fft"
        listed = client.jobs()
        assert [j["job_id"] for j in listed] == [job_id]
        assert client.jobs(state="failed") == []

    def test_result_before_done_is_structured(self, tmp_path):
        gate = threading.Event()

        async def gated(spec, timeout):
            await asyncio.to_thread(gate.wait)
            return await inline_run_job(spec, timeout)

        d = ServiceDaemon(make_config(tmp_path), run_job=gated).start()
        try:
            with ServiceClient(d.address, timeout=30.0) as c:
                job_id = c.submit(tiny_spec())["job_id"]
                with pytest.raises(ServiceError) as excinfo:
                    c.result(job_id)
                assert excinfo.value.code == ERR_NOT_READY
                with pytest.raises(ServiceError) as excinfo:
                    c.result(job_id, wait=True, timeout_s=0.05)
                assert excinfo.value.code == ERR_TIMEOUT
                gate.set()
                assert c.result(job_id, wait=True, timeout_s=60)["ok"]
        finally:
            gate.set()
            d.stop()

    def test_unknown_job_and_bad_requests(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.status("j-999")
        assert excinfo.value.code == "UNKNOWN_JOB"
        assert excinfo.value.details["job_id"] == "j-999"
        # Raw protocol-level failures: wrong version, unknown op.
        assert client._roundtrip({"v": 99, "op": "health"})["error"]["code"] == (
            ERR_UNSUPPORTED
        )
        assert client._roundtrip({"v": 1, "op": "frobnicate"})["error"]["code"] == (
            ERR_BAD_REQUEST
        )
        assert client._roundtrip({"v": 1, "op": "submit", "spec": {"benchmark": 3}})[
            "error"
        ]["code"] == ERR_BAD_REQUEST

    def test_out_of_range_submit_is_bad_request_and_never_journaled(self, client):
        for edit in (
            lambda wire: wire.update(num_threads=0),
            lambda wire: wire.update(scale=float("nan")),
            lambda wire: wire["scheme"].update(bound=-3),
        ):
            wire = spec_to_wire(tiny_spec())
            edit(wire)
            response = client._roundtrip(
                {"v": PROTOCOL_VERSION, "op": "submit", "spec": wire}
            )
            assert response["error"]["code"] == ERR_BAD_REQUEST, response
        assert client.jobs() == []

    def test_health_document(self, client):
        health = client.health()
        assert health["protocol"] == PROTOCOL_VERSION
        assert health["queue_depth"] == 0
        assert health["inflight"] == 0
        assert health["slots"] == 1
        assert not health["draining"]
        assert "service.queue_depth" in health["metrics"]["gauges"]
        counters = health["metrics"]["counters"]
        assert counters["service.workers_spawned"] == 0
        assert counters["service.worker_reuses"] == 0
        assert counters["service.spec_memo_hits"] == 0
        assert counters["store.entry_memo_hits"] == 0
        assert counters["store.io_errors"] == 0
        assert pathlib.Path(health["wal"]["path"]).name == "jobs.wal"


class TestBackpressureDedupCancel:
    def test_queue_full_is_structured(self, tmp_path):
        gate = threading.Event()

        async def gated(spec, timeout):
            await asyncio.to_thread(gate.wait)
            return await inline_run_job(spec, timeout)

        config = make_config(tmp_path, queue_limit=2)
        d = ServiceDaemon(config, run_job=gated).start()
        try:
            with ServiceClient(d.address, timeout=30.0) as c:
                # Distinct seeds: no dedup, no cache. One runs, two queue.
                c.submit(tiny_spec(seed=1))
                deadline = time.time() + 5
                while c.health()["inflight"] == 0 and time.time() < deadline:
                    time.sleep(0.01)
                c.submit(tiny_spec(seed=2))
                c.submit(tiny_spec(seed=3))
                with pytest.raises(ServiceError) as excinfo:
                    c.submit(tiny_spec(seed=4))
                assert excinfo.value.code == ERR_QUEUE_FULL
                assert excinfo.value.details["queue_limit"] == 2
                assert excinfo.value.details["queue_depth"] == 2
                assert c.health()["metrics"]["counters"]["service.rejected"] == 1
                gate.set()
                c.drain(wait=True)
        finally:
            gate.set()
            d.stop()

    def test_identical_inflight_specs_coalesce(self, tmp_path):
        gate = threading.Event()
        runs = []

        async def gated(spec, timeout):
            runs.append(spec.seed)
            await asyncio.to_thread(gate.wait)
            return await inline_run_job(spec, timeout)

        d = ServiceDaemon(make_config(tmp_path), run_job=gated).start()
        try:
            with ServiceClient(d.address, timeout=30.0) as c:
                spec = tiny_spec(seed=77)
                leader = c.submit(spec)["job_id"]
                deadline = time.time() + 5
                while c.health()["inflight"] == 0 and time.time() < deadline:
                    time.sleep(0.01)
                follower = c.submit(spec)["job_id"]
                gate.set()
                lead_doc = c.result(leader, wait=True, timeout_s=60)
                follow_doc = c.result(follower, wait=True, timeout_s=60)
                assert lead_doc["source"] == "run"
                assert follow_doc["source"] == "dedup"
                assert follow_doc["dedup_of"] == leader
                assert follow_doc["digest"] == lead_doc["digest"]
                health = c.health()
                assert health["metrics"]["counters"]["service.dedup_hits"] == 1
                assert runs == [77]  # one execution served both jobs
        finally:
            gate.set()
            d.stop()

    def test_cancel_queued_only(self, tmp_path):
        gate = threading.Event()

        async def gated(spec, timeout):
            await asyncio.to_thread(gate.wait)
            return await inline_run_job(spec, timeout)

        d = ServiceDaemon(make_config(tmp_path), run_job=gated).start()
        try:
            with ServiceClient(d.address, timeout=30.0) as c:
                running = c.submit(tiny_spec(seed=1))["job_id"]
                deadline = time.time() + 5
                while c.health()["inflight"] == 0 and time.time() < deadline:
                    time.sleep(0.01)
                queued = c.submit(tiny_spec(seed=2))["job_id"]
                assert c.cancel(queued)["state"] == "cancelled"
                with pytest.raises(ServiceError) as excinfo:
                    c.result(queued)
                assert excinfo.value.code == ERR_CANCELLED
                with pytest.raises(ServiceError) as excinfo:
                    c.cancel(running)
                assert excinfo.value.code == ERR_NOT_CANCELLABLE
                gate.set()
                c.result(running, wait=True, timeout_s=60)
        finally:
            gate.set()
            d.stop()


    def test_terminal_jobs_leave_no_bookkeeping(self, tmp_path):
        """Completed, deduplicated, cancelled, failed and re-dispatched
        jobs all drop their per-job entries — in the dispatcher and in
        the fabric coordinator alike — and a waiter that arrives
        afterwards is still answered at once."""
        for kind in KINDS:
            engine = Engine(kind, tmp_path / kind, gated=True)
            try:
                with engine.client() as c:
                    jobs = lifecycle_session(engine, c)
                    backend = engine.server.backend
                    ledger = backend.ledger
                    retained = [ledger._tracked, ledger._events, ledger.inflight]
                    if kind == "service":
                        retained.append(backend._probed)
                    else:
                        assert backend.membership.workers["w-1"].state == EVICTED
                        retained += [backend._assignment, *backend._forwarded.values()]
                    assert [len(kept) for kept in retained] == [0] * len(retained), kind
                    for job_id in jobs["done"]:
                        late = c.result(job_id, wait=True, timeout_s=5)
                        assert late["digest"] == c.status(job_id)["digest"]
                    for fate, code in (("failed", "INTERNAL"), ("cancelled", ERR_CANCELLED)):
                        with pytest.raises(ServiceError) as excinfo:
                            c.result(jobs[fate][0], wait=True, timeout_s=5)
                        assert excinfo.value.code == code
                    assert ledger._events == {}
            finally:
                engine.stop()


class TestRetriesAndTimeouts:
    def test_worker_crash_retried_then_succeeds(self, tmp_path):
        attempts = []

        async def crashy(spec, timeout):
            attempts.append(spec.seed)
            if len(attempts) < 3:
                raise WorkerCrashError("worker crashed running test job")
            return await inline_run_job(spec, timeout)

        config = make_config(tmp_path, max_retries=2)
        d = ServiceDaemon(config, run_job=crashy).start()
        try:
            with ServiceClient(d.address, timeout=30.0) as c:
                job_id = c.submit(tiny_spec())["job_id"]
                doc = c.result(job_id, wait=True, timeout_s=60)
                assert doc["source"] == "run"
                assert len(attempts) == 3
                status = c.status(job_id)
                assert status["retries"] == 2
                assert status["attempts"] == 3
                assert c.health()["metrics"]["counters"]["service.retries"] == 2
        finally:
            d.stop()

    def test_retry_exhaustion_names_job(self, tmp_path):
        async def always_crash(spec, timeout):
            raise WorkerCrashError("worker crashed running test job")

        config = make_config(tmp_path, max_retries=1)
        d = ServiceDaemon(config, run_job=always_crash).start()
        try:
            with ServiceClient(d.address, timeout=30.0) as c:
                job_id = c.submit(tiny_spec())["job_id"]
                with pytest.raises(ServiceError) as excinfo:
                    c.result(job_id, wait=True, timeout_s=60)
                assert excinfo.value.code == ERR_WORKER_CRASHED
                assert job_id in excinfo.value.message
                assert "fft" in excinfo.value.message
                assert c.status(job_id)["state"] == "failed"
                assert c.health()["metrics"]["counters"]["service.failed"] == 1
        finally:
            d.stop()

    def test_timeout_fails_without_retry(self, tmp_path):
        attempts = []

        async def too_slow(spec, timeout):
            attempts.append(timeout)
            raise ExecutionTimeoutError(f"exceeded its {timeout:g}s limit")

        d = ServiceDaemon(make_config(tmp_path), run_job=too_slow).start()
        try:
            with ServiceClient(d.address, timeout=30.0) as c:
                job_id = c.submit(tiny_spec(), timeout_s=0.5)["job_id"]
                with pytest.raises(ServiceError) as excinfo:
                    c.result(job_id, wait=True, timeout_s=60)
                assert excinfo.value.code == ERR_TIMEOUT
                assert attempts == [0.5]  # per-job timeout forwarded, no retry
        finally:
            d.stop()

    def test_simulation_error_not_retried(self, tmp_path):
        attempts = []

        async def deterministic_failure(spec, timeout):
            attempts.append(1)
            raise ValueError("spec is cursed")

        d = ServiceDaemon(make_config(tmp_path), run_job=deterministic_failure).start()
        try:
            with ServiceClient(d.address, timeout=30.0) as c:
                job_id = c.submit(tiny_spec())["job_id"]
                with pytest.raises(ServiceError) as excinfo:
                    c.result(job_id, wait=True, timeout_s=60)
                assert excinfo.value.code == "INTERNAL"
                assert len(attempts) == 1
        finally:
            d.stop()


class TestWarmWorkers:
    """The default execution seam: real spawned workers, kept warm."""

    def test_three_jobs_one_process_reaped_on_stop(self, tmp_path):
        before = multiprocessing.active_children()
        d = ServiceDaemon(make_config(tmp_path)).start()
        try:
            with ServiceClient(d.address, timeout=60.0) as c:
                for seed in (1, 2, 3):
                    spec = tiny_spec(seed=seed)
                    job_id = c.submit(spec)["job_id"]
                    doc = c.result(job_id, wait=True, timeout_s=60)
                    assert doc["source"] == "run"
                    assert doc["digest"] == execute_spec(spec)[0].digest()
                counters = c.health()["metrics"]["counters"]
                assert counters["service.workers_spawned"] == 1
                assert counters["service.worker_reuses"] == 2
                assert len(_new_children(before)) == 1
        finally:
            d.stop()
        assert _new_children(before) == []

    def test_kill_reaps_workers(self, tmp_path):
        before = multiprocessing.active_children()
        d = ServiceDaemon(make_config(tmp_path)).start()
        try:
            with ServiceClient(d.address, timeout=60.0) as c:
                job_id = c.submit(tiny_spec(seed=4))["job_id"]
                c.result(job_id, wait=True, timeout_s=60)
                assert len(_new_children(before)) == 1
        finally:
            d.kill()
        assert _new_children(before) == []

    def test_real_crash_keeps_retry_accounting(self, tmp_path, monkeypatch):
        """A worker that really dies costs one WorkerCrashError and one
        slot; retries and backoff stay the dispatcher's, counted as ever."""
        monkeypatch.setenv("REPRO_TEST_CRASH_SENTINEL", str(tmp_path / "crashed"))
        executor = ParallelExecutor(jobs=1, max_retries=0, worker=_crash_once_worker)

        async def run_job(spec, timeout):
            return await asyncio.to_thread(executor.run_one, spec, timeout)

        d = ServiceDaemon(make_config(tmp_path, max_retries=2), run_job=run_job).start()
        try:
            with ServiceClient(d.address, timeout=60.0) as c:
                spec = tiny_spec(seed=5)
                job_id = c.submit(spec)["job_id"]
                doc = c.result(job_id, wait=True, timeout_s=60)
                assert doc["digest"] == execute_spec(spec)[0].digest()
                status = c.status(job_id)
                assert (status["retries"], status["attempts"]) == (1, 2)
                assert c.health()["metrics"]["counters"]["service.retries"] == 1
                assert (executor.workers_spawned, executor.worker_reuses) == (2, 0)
        finally:
            d.stop()
            executor.close()


class TestCrashRecovery:
    def test_killed_daemon_resumes_from_wal(self, tmp_path):
        """Kill mid-queue; restart against the same WAL; all jobs finish
        with digests identical to local runs."""
        gate = threading.Event()

        async def gated(spec, timeout):
            await asyncio.to_thread(gate.wait)
            return await inline_run_job(spec, timeout)

        config = make_config(tmp_path)
        specs = [tiny_spec(seed=s) for s in (101, 102, 103)]
        first = ServiceDaemon(config, run_job=gated).start()
        try:
            with ServiceClient(first.address, timeout=30.0) as c:
                job_ids = [c.submit(spec)["job_id"] for spec in specs]
                assert job_ids == ["j-1", "j-2", "j-3"]
        finally:
            first.kill()  # crash: no drain, no store close
            gate.set()  # release the stranded worker thread

        second = ServiceDaemon(config, run_job=inline_run_job).start()
        try:
            with ServiceClient(second.address, timeout=30.0) as c:
                assert c.health()["recovered"] == 3
                for spec, job_id in zip(specs, job_ids):
                    served = c.fetch_report(job_id, wait=True, timeout_s=60)
                    local, _ = execute_spec(spec)
                    assert served.digest() == local.digest()
        finally:
            second.stop()

    def test_restart_does_not_rerun_done_jobs(self, tmp_path):
        config = make_config(tmp_path)
        spec = tiny_spec(seed=55)
        first = ServiceDaemon(config, run_job=inline_run_job).start()
        try:
            with ServiceClient(first.address, timeout=30.0) as c:
                job_id = c.submit(spec)["job_id"]
                digest = c.result(job_id, wait=True, timeout_s=60)["digest"]
        finally:
            first.stop()

        second = ServiceDaemon(config, run_job=inline_run_job).start()
        try:
            with ServiceClient(second.address, timeout=30.0) as c:
                assert c.health()["recovered"] == 0
                doc = c.result(job_id)  # still terminal, still fetchable
                assert doc["digest"] == digest
        finally:
            second.stop()

    def test_evicted_result_is_structured(self, tmp_path):
        config = make_config(tmp_path)
        d = ServiceDaemon(config, run_job=inline_run_job).start()
        try:
            with ServiceClient(d.address, timeout=30.0) as c:
                job_id = c.submit(tiny_spec(seed=66))["job_id"]
                c.result(job_id, wait=True, timeout_s=60)
                ReportCache(config.resolved_cache_dir()).clear()
                with pytest.raises(ServiceError) as excinfo:
                    c.result(job_id)
                assert excinfo.value.code == "RESULT_EVICTED"
        finally:
            d.stop()


class TestDrain:
    def test_drain_refuses_new_submits(self, daemon):
        with ServiceClient(daemon.address, timeout=30.0) as c:
            job_id = c.submit(tiny_spec(seed=5))["job_id"]
            doc = c.drain(wait=True)
            assert doc["queue_depth"] == 0 and doc["inflight"] == 0
            assert c.status(job_id)["state"] == "done"
            with pytest.raises(ServiceError) as excinfo:
                c.submit(tiny_spec(seed=6))
            assert excinfo.value.code == "DRAINING"

    def test_drain_stop_shuts_daemon_down(self, tmp_path):
        d = ServiceDaemon(make_config(tmp_path), run_job=inline_run_job).start()
        with ServiceClient(d.address, timeout=30.0) as c:
            doc = c.drain(wait=True, stop=True)
            assert doc["stopped"]
        assert d._thread is not None
        d._thread.join(timeout=10)
        assert not d._thread.is_alive()
        d.stop()


class TestTcpTransport:
    def test_tcp_round_trip(self, tmp_path):
        config = make_config(tmp_path, tcp_host="127.0.0.1", tcp_port=0)
        d = ServiceDaemon(config, run_job=inline_run_job).start()
        try:
            host, port = d.address
            with ServiceClient((host, port), timeout=30.0) as c:
                spec = tiny_spec(seed=88)
                job_id = c.submit(spec)["job_id"]
                served = c.fetch_report(job_id, wait=True, timeout_s=60)
                local, _ = execute_spec(spec)
                assert served.digest() == local.digest()
        finally:
            d.stop()
