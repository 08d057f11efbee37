"""Tests for the distributed simulation fabric (repro.fabric).

Three layers, cheapest first:

- pure units: the hash ring, the membership lifecycle (driven by a fake
  clock), the worker address codec, the shared store's verification, the
  coordinator-WAL torn-tail fuzz;
- coordinator logic with an injectable forward seam and fake clock — no
  sockets, no simulations: sharding, dedup, steal, heartbeat-timeout
  eviction, re-dispatch accounting, re-dispatch budget exhaustion;
- end-to-end fleets (coordinator daemon + two in-process workers over
  real sockets): the digest contract for cc/slack/adaptive schemes, and
  the kill-a-worker-mid-job → re-dispatch → same digest chaos test.
"""

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.config import AdaptiveConfig, SlackConfig
from repro.config.presets import paper_host_config, quick_target_config
from repro.fabric.coordinator import (
    CoordinatorConfig,
    CoordinatorDaemon,
    FabricCoordinator,
    ForwardOutcome,
)
from repro.fabric.loadtest import (
    LoadtestConfig,
    SpawnedFabric,
    build_spec_pool,
    generate_stream,
    run_loadtest,
)
from repro.fabric.membership import (
    ALIVE,
    EVICTED,
    LEAVING,
    HashRing,
    Membership,
    WorkerAddress,
)
from repro.fabric.shared_store import SharedReportStore
from repro.fabric.worker import FabricWorker, WorkerConfig
from repro.harness.cache import ReportCache, RunSpec, spec_key
from repro.harness.pool import PoolResult, execute_spec
from repro.service import store as jobstate
from repro.service.client import ServiceClient
from repro.service.protocol import (
    ERR_UNAVAILABLE,
    ERR_UNKNOWN_WORKER,
    ERR_UNSUPPORTED,
    ERR_WORKER_CRASHED,
    ServiceError,
    decode_line,
    encode_line,
    spec_to_wire,
)
from repro.service.server import ServiceConfig, ServiceDaemon
from repro.service.store import JobStore

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
    report, wall_s = execute_spec(spec)
    return PoolResult(report, wall_s, None)


# --------------------------------------------------------------------- #
# Hash ring
# --------------------------------------------------------------------- #


class TestHashRing:
    def test_owner_is_stable_and_total(self):
        ring = HashRing(replicas=32)
        for worker in ("w-1", "w-2", "w-3"):
            ring.add(worker)
        keys = [f"key-{i}" for i in range(200)]
        owners = {key: ring.owner(key) for key in keys}
        assert all(owner in ("w-1", "w-2", "w-3") for owner in owners.values())
        # Deterministic: same ring, same answers.
        assert owners == {key: ring.owner(key) for key in keys}

    def test_every_worker_owns_something(self):
        ring = HashRing(replicas=64)
        for worker in ("w-1", "w-2", "w-3", "w-4"):
            ring.add(worker)
        owned = {ring.owner(f"key-{i}") for i in range(500)}
        assert owned == {"w-1", "w-2", "w-3", "w-4"}

    def test_removal_only_moves_the_removed_workers_keys(self):
        ring = HashRing(replicas=64)
        for worker in ("w-1", "w-2", "w-3"):
            ring.add(worker)
        keys = [f"key-{i}" for i in range(300)]
        before = {key: ring.owner(key) for key in keys}
        ring.remove("w-2")
        for key in keys:
            after = ring.owner(key)
            if before[key] != "w-2":
                assert after == before[key]  # consistent-hashing property
            else:
                assert after in ("w-1", "w-3")

    def test_empty_ring_owns_nothing(self):
        assert HashRing().owner("anything") is None

    def test_add_is_idempotent(self):
        ring = HashRing(replicas=16)
        ring.add("w-1")
        points = list(ring._points)
        ring.add("w-1")
        assert ring._points == points


# --------------------------------------------------------------------- #
# Membership (fake clock)
# --------------------------------------------------------------------- #


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestMembership:
    def test_join_assigns_ids_and_ring_slots(self):
        clock = FakeClock()
        membership = Membership(timeout_s=5.0, clock=clock)
        a = membership.join(WorkerAddress.unix("/tmp/a.sock"), slots=2)
        b = membership.join(WorkerAddress.unix("/tmp/b.sock"))
        assert (a.worker_id, b.worker_id) == ("w-1", "w-2")
        assert a.slots == 2 and b.slots == 1
        assert membership.owner("some-key").worker_id in ("w-1", "w-2")

    def test_heartbeat_unknown_or_evicted_returns_none(self):
        membership = Membership(clock=FakeClock())
        assert membership.heartbeat("w-9") is None
        info = membership.join(WorkerAddress.unix("/tmp/a.sock"))
        membership.evict(info.worker_id)
        assert membership.heartbeat(info.worker_id) is None

    def test_expiry_honors_the_deadline(self):
        clock = FakeClock()
        membership = Membership(timeout_s=5.0, clock=clock)
        a = membership.join(WorkerAddress.unix("/tmp/a.sock"))
        b = membership.join(WorkerAddress.unix("/tmp/b.sock"))
        clock.advance(4.0)
        membership.heartbeat(b.worker_id, stats={"queue_depth": 0})
        assert membership.expired() == []
        clock.advance(1.5)  # a is now 5.5s stale, b only 1.5s
        assert [w.worker_id for w in membership.expired()] == [a.worker_id]
        assert b.stats == {"queue_depth": 0}

    def test_leave_and_evict_come_off_the_ring(self):
        membership = Membership(clock=FakeClock())
        a = membership.join(WorkerAddress.unix("/tmp/a.sock"))
        b = membership.join(WorkerAddress.unix("/tmp/b.sock"))
        membership.leave(a.worker_id)
        assert a.state == LEAVING
        assert membership.ring.members() == [b.worker_id]
        membership.evict(b.worker_id)
        assert b.state == EVICTED
        assert membership.owner("key") is None
        assert membership.alive_workers() == []

    def test_rejoin_after_eviction_bumps_generation(self):
        membership = Membership(clock=FakeClock())
        info = membership.join(WorkerAddress.unix("/tmp/a.sock"))
        membership.evict(info.worker_id)
        reborn = membership.join(
            WorkerAddress.unix("/tmp/a2.sock"), worker_id=info.worker_id
        )
        assert reborn is info
        assert reborn.state == ALIVE
        assert reborn.generation == 2
        assert reborn.address.path == "/tmp/a2.sock"

    def test_chosen_ids_do_not_collide_with_generated(self):
        membership = Membership(clock=FakeClock())
        membership.join(WorkerAddress.unix("/tmp/a.sock"), worker_id="w-7")
        fresh = membership.join(WorkerAddress.unix("/tmp/b.sock"))
        assert fresh.worker_id == "w-8"


class TestWorkerAddress:
    def test_wire_round_trip(self):
        for address in (
            WorkerAddress.unix("/tmp/w.sock"),
            WorkerAddress.tcp("127.0.0.1", 4242),
        ):
            assert WorkerAddress.from_wire(address.to_wire()) == address

    def test_bad_docs_are_rejected(self):
        for doc in ({}, {"kind": "carrier-pigeon"}, {"kind": "unix"},
                    {"kind": "tcp", "host": "x"}):
            with pytest.raises(ServiceError):
                WorkerAddress.from_wire(doc)

    def test_connect_target_matches_client_address_shape(self):
        assert WorkerAddress.unix("/tmp/w.sock").connect_target() == "/tmp/w.sock"
        assert WorkerAddress.tcp("h", 1).connect_target() == ("h", 1)


# --------------------------------------------------------------------- #
# Shared store
# --------------------------------------------------------------------- #


class TestSharedStore:
    def _publish_one(self, tmp_path, spec):
        report, wall_s = execute_spec(spec)
        store = SharedReportStore(tmp_path / "store")
        store.cache.put(spec_key(spec), report, wall_s)
        return store, report

    def test_fetch_verified_round_trip(self, tmp_path):
        spec = tiny_spec()
        store, report = self._publish_one(tmp_path, spec)
        entry = store.fetch_verified(spec_key(spec), report.digest())
        assert entry.report.digest() == report.digest()

    def test_fetch_verified_rejects_wrong_digest(self, tmp_path):
        spec = tiny_spec()
        store, _ = self._publish_one(tmp_path, spec)
        with pytest.raises(ServiceError):
            store.fetch_verified(spec_key(spec), "0" * 64)

    def test_fetch_verified_rejects_missing_entry(self, tmp_path):
        store = SharedReportStore(tmp_path / "store")
        with pytest.raises(ServiceError):
            store.fetch_verified("f" * 64, "0" * 64)


# --------------------------------------------------------------------- #
# Coordinator WAL: torn-tail fuzz
# --------------------------------------------------------------------- #


class TestCoordinatorWalTornTail:
    def _build_wal(self, path):
        """A coordinator-shaped WAL: dispatch, requeue (worker lost),
        re-dispatch, completion — plus a second job still queued."""
        store = JobStore(path, fsync=False)
        store.open()
        first = store.new_job(
            spec_to_wire(tiny_spec(seed=1)), priority=0, timeout_s=None,
            submitted_at=100.0,
        )
        first.state = jobstate.RUNNING
        store.record_state(first, at=101.0, worker="w-1", attempts=1)
        first.state = jobstate.QUEUED
        first.redispatches = 1
        store.record_state(first, redispatches=1)
        first.state = jobstate.RUNNING
        store.record_state(first, at=103.0, worker="w-2", attempts=2)
        first.state = jobstate.DONE
        first.finished_at = 104.0
        store.record_state(
            first, at=104.0, digest="d" * 64, key="k" * 64, wall_s=1.0,
            source="run", worker="w-2", redispatches=1,
        )
        store.new_job(
            spec_to_wire(tiny_spec(seed=2)), priority=0, timeout_s=None,
            submitted_at=105.0,
        )
        store.close()
        return path.read_bytes()

    def test_truncation_at_every_byte_of_the_last_record(self, tmp_path):
        wal = tmp_path / "coordinator.wal"
        blob = self._build_wal(wal)
        body = blob[:-1] if blob.endswith(b"\n") else blob
        last_start = body.rfind(b"\n") + 1
        assert last_start > 0
        for cut in range(last_start, len(blob)):
            wal.write_bytes(blob[:cut])
            store = JobStore(wal, fsync=False)
            store.replay()  # must never raise
            # The torn tail is dropped silently — it is not "corruption".
            assert store.skipped_lines == 0
            first = store.jobs["j-1"]
            assert first.state == jobstate.DONE
            assert first.worker == "w-2"
            assert first.redispatches == 1
            if cut == last_start:
                assert "j-2" not in store.jobs
        # The intact file replays both jobs.
        wal.write_bytes(blob)
        store = JobStore(wal, fsync=False)
        store.replay()
        assert store.jobs["j-2"].state == jobstate.QUEUED

    def test_requeue_event_survives_replay(self, tmp_path):
        """A job whose last event is the fabric requeue comes back QUEUED
        with its re-dispatch count, not started and not worker-bound."""
        wal = tmp_path / "coordinator.wal"
        store = JobStore(wal, fsync=False)
        store.open()
        job = store.new_job(
            spec_to_wire(tiny_spec()), priority=0, timeout_s=None,
            submitted_at=100.0,
        )
        job.state = jobstate.RUNNING
        store.record_state(job, at=101.0, worker="w-1", attempts=1)
        job.state = jobstate.QUEUED
        store.record_state(job, redispatches=2)
        store.close()
        replayed = JobStore(wal, fsync=False)
        replayed.replay()
        record = replayed.jobs[job.job_id]
        assert record.state == jobstate.QUEUED
        assert record.worker is None
        assert record.started_at is None
        assert record.redispatches == 2


# --------------------------------------------------------------------- #
# Coordinator logic with an injectable seam and fake clock (no sockets)
# --------------------------------------------------------------------- #


class SeamFleet:
    """A forward seam that completes jobs with deterministic fake digests
    — unless the owning worker is in ``blocked``, in which case the
    forward hangs until cancelled (the stuck-worker simulation)."""

    def __init__(self):
        self.calls = []
        self.blocked = set()

    async def __call__(self, info, record, spec):
        self.calls.append((info.worker_id, record.job_id))
        if info.worker_id in self.blocked:
            await asyncio.Event().wait()  # parked until eviction cancels us
        return ForwardOutcome(
            "done", digest=spec_key(spec)[:16], wall_s=0.01, source="run"
        )


def coordinator_config(tmp_path, **overrides):
    overrides.setdefault("socket_path", tmp_path / "coordinator.sock")
    overrides.setdefault("store_dir", tmp_path / "store")
    overrides.setdefault("wal_path", tmp_path / "coordinator.wal")
    overrides.setdefault("heartbeat_timeout_s", 5.0)
    overrides.setdefault("fsync", False)
    return CoordinatorConfig(**overrides)


def register(coordinator, n):
    """Register n fake workers; returns their ids."""
    ids = []
    for i in range(n):
        response = coordinator._op_register(
            {"worker": {"address": {"kind": "unix", "path": f"/tmp/fake-{i}.sock"},
                        "slots": 1}}
        )
        assert response["ok"], response
        ids.append(response["worker_id"])
    return ids


async def wait_done(coordinator, job_id, timeout=10.0):
    await asyncio.wait_for(coordinator.done_event(job_id).wait(), timeout)
    return coordinator.store.jobs[job_id]


class TestCoordinatorLogic:
    def test_heartbeat_timeout_evicts_and_redispatches(self, tmp_path):
        """The satellite-3 scenario: the owning worker goes silent while a
        job is in flight; the sweep evicts it at the fake-clock deadline
        and the job is re-dispatched to the survivor."""
        clock = FakeClock()
        seam = SeamFleet()

        async def scenario():
            coordinator = FabricCoordinator(
                coordinator_config(tmp_path), forward_job=seam, clock=clock
            )
            coordinator.store.open()
            workers = register(coordinator, 2)
            spec = tiny_spec(seed=3)
            victim = coordinator.membership.owner(spec_key(spec)).worker_id
            survivor = next(w for w in workers if w != victim)
            seam.blocked.add(victim)
            accepted = coordinator._op_submit(
                {"spec": spec_to_wire(spec), "priority": 0}
            )
            job_id = accepted["job_id"]
            await asyncio.sleep(0)  # let the pump forward to the victim
            while not seam.calls:
                await asyncio.sleep(0.01)
            assert seam.calls[0][0] == victim
            # Survivor keeps heartbeating; victim goes silent.
            clock.advance(4.0)
            coordinator._op_heartbeat({"worker_id": survivor, "stats": {}})
            assert coordinator.sweep_once() == []
            clock.advance(2.0)  # victim is now 6s stale (timeout 5s)
            assert coordinator.sweep_once() == [victim]
            record = await wait_done(coordinator, job_id)
            assert record.state == jobstate.DONE
            assert record.redispatches == 1
            assert record.worker == survivor
            assert [call[0] for call in seam.calls] == [victim, survivor]
            assert coordinator.membership.workers[victim].state == EVICTED
            counters = coordinator.metrics.to_dict()["counters"]
            assert counters["fabric.evictions"] == 1
            assert counters["fabric.redispatched"] == 1
            # The WAL carries the whole story across a coordinator restart.
            await coordinator.shutdown()
            replayed = JobStore(tmp_path / "coordinator.wal", fsync=False)
            replayed.replay()
            survivor_record = replayed.jobs[job_id]
            assert survivor_record.state == jobstate.DONE
            assert survivor_record.redispatches == 1
            assert survivor_record.worker == survivor

        asyncio.run(scenario())

    def test_redispatch_budget_exhausts_to_worker_crashed(self, tmp_path):
        clock = FakeClock()
        seam = SeamFleet()

        async def scenario():
            coordinator = FabricCoordinator(
                coordinator_config(tmp_path, max_redispatch=1),
                forward_job=seam,
                clock=clock,
            )
            coordinator.store.open()
            spec = tiny_spec(seed=4)
            accepted = coordinator._op_submit(
                {"spec": spec_to_wire(spec), "priority": 0}
            )
            job_id = accepted["job_id"]
            for _ in range(2):  # lose the worker twice; budget is 1
                (worker,) = register(coordinator, 1)
                seam.blocked.add(worker)
                while not any(c[0] == worker for c in seam.calls):
                    await asyncio.sleep(0.01)
                clock.advance(6.0)
                assert coordinator.sweep_once() == [worker]
            record = await wait_done(coordinator, job_id)
            assert record.state == jobstate.FAILED
            assert record.error["code"] == ERR_WORKER_CRASHED
            await coordinator.shutdown()

        asyncio.run(scenario())

    def test_dedup_and_store_hits_at_the_coordinator(self, tmp_path):
        seam = SeamFleet()

        async def scenario():
            coordinator = FabricCoordinator(
                coordinator_config(tmp_path), forward_job=seam
            )
            coordinator.store.open()
            register(coordinator, 2)
            spec = tiny_spec(seed=5)
            first = coordinator._op_submit({"spec": spec_to_wire(spec)})
            second = coordinator._op_submit({"spec": spec_to_wire(spec)})
            a = await wait_done(coordinator, first["job_id"])
            b = await wait_done(coordinator, second["job_id"])
            assert a.digest == b.digest
            assert b.source == "dedup" and b.dedup_of == a.job_id
            assert len(seam.calls) == 1  # one forward served both
            # A third submission after completion hits the shared store.
            report, wall_s = execute_spec(spec)
            coordinator.shared.cache.put(spec_key(spec), report, wall_s)
            third = coordinator._op_submit({"spec": spec_to_wire(spec)})
            c = await wait_done(coordinator, third["job_id"])
            assert c.source == "cache"
            assert len(seam.calls) == 1
            await coordinator.shutdown()

        asyncio.run(scenario())

    def test_steal_moves_backlog_to_the_idle_worker(self, tmp_path):
        seam = SeamFleet()

        async def scenario():
            coordinator = FabricCoordinator(
                coordinator_config(tmp_path, outstanding_per_slot=1),
                forward_job=seam,
            )
            coordinator.store.open()
            (busy,) = register(coordinator, 1)
            seam.blocked.add(busy)
            jobs = [
                coordinator._op_submit(
                    {"spec": spec_to_wire(tiny_spec(seed=10 + i))}
                )["job_id"]
                for i in range(4)
            ]
            while not seam.calls:
                await asyncio.sleep(0.01)
            assert len(coordinator._live_backlog(busy)) == 3  # window of 1
            (thief,) = register(coordinator, 1)
            # Rebalance on join may already have moved some keys; steal
            # explicitly pulls whatever still queues behind the stuck one.
            response = coordinator._op_steal({"worker_id": thief, "max": 2})
            assert response["ok"]
            moved = response["stolen"]
            assert moved <= 2
            done = [
                job_id
                for job_id in jobs
                if coordinator._assignment.get(job_id) == thief
                or coordinator.store.jobs[job_id].terminal
            ]
            for job_id in done:
                await wait_done(coordinator, job_id)
            await coordinator.shutdown()

        asyncio.run(scenario())

    def test_unknown_worker_heartbeat_asks_for_reregistration(self, tmp_path):
        async def scenario():
            coordinator = FabricCoordinator(
                coordinator_config(tmp_path), forward_job=SeamFleet()
            )
            coordinator.store.open()
            response = coordinator._op_heartbeat({"worker_id": "w-99"})
            assert not response["ok"]
            assert response["error"]["code"] == ERR_UNKNOWN_WORKER
            await coordinator.shutdown()

        asyncio.run(scenario())

    def test_jobs_queue_unassigned_until_a_worker_joins(self, tmp_path):
        seam = SeamFleet()

        async def scenario():
            coordinator = FabricCoordinator(
                coordinator_config(tmp_path), forward_job=seam
            )
            coordinator.store.open()
            accepted = coordinator._op_submit(
                {"spec": spec_to_wire(tiny_spec(seed=6))}
            )
            assert accepted["state"] == jobstate.QUEUED
            assert len(coordinator._unassigned) == 1
            register(coordinator, 1)
            record = await wait_done(coordinator, accepted["job_id"])
            assert record.state == jobstate.DONE
            await coordinator.shutdown()

        asyncio.run(scenario())


# --------------------------------------------------------------------- #
# End-to-end fleets over real sockets
# --------------------------------------------------------------------- #


@pytest.fixture
def fleet(tmp_path):
    spawned = SpawnedFabric(tmp_path, workers=2).start()
    yield spawned
    spawned.stop()


class TestFabricEndToEnd:
    def test_digest_identical_to_local_run_across_schemes(self, fleet):
        """The acceptance gate: cc, bounded-slack, and adaptive reports
        fetched through the fabric are byte-identical to local runs."""
        schemes = {
            "cc": SlackConfig(bound=0),
            "slack": SlackConfig(bound=8),
            "adaptive": AdaptiveConfig(target_rate=1e-3, adjust_period=250),
        }
        with ServiceClient(fleet.address, timeout=120.0) as client:
            accepted = {
                name: client.submit(tiny_spec(seed=21, scheme=scheme))["job_id"]
                for name, scheme in schemes.items()
            }
            for name, scheme in schemes.items():
                report = client.fetch_report(accepted[name], timeout_s=120.0)
                local, _ = execute_spec(tiny_spec(seed=21, scheme=scheme))
                assert report.digest() == local.digest(), name

    def test_duplicates_across_clients_coalesce(self, fleet):
        spec = tiny_spec(seed=22)
        with ServiceClient(fleet.address, timeout=120.0) as client:
            first = client.submit(spec)["job_id"]
            second = client.submit(spec)["job_id"]
            a = client.result(first, wait=True, timeout_s=120.0)
            b = client.result(second, wait=True, timeout_s=120.0)
        assert a["digest"] == b["digest"]
        assert {a["source"], b["source"]} == {"run", "dedup"}

    def test_fabric_status_document(self, fleet):
        with ServiceClient(fleet.address, timeout=30.0) as client:
            doc = client.request("fabric")
            health = client.health()
        assert len(doc["workers"]) == 2
        assert all(w["state"] == ALIVE for w in doc["workers"])
        assert set(doc["ring"]["members"]) == {
            w["worker_id"] for w in doc["workers"]
        }
        assert health["role"] == "coordinator"
        assert health["workers_alive"] == 2

    def test_worker_killed_mid_job_redispatches_same_digest(self, tmp_path):
        """Chaos: kill the worker that owns a running job; the coordinator
        evicts it on the dead connection and the re-dispatched run's
        digest still matches a local run bit for bit."""
        store = tmp_path / "store"

        async def slow_run(spec, timeout):
            await asyncio.sleep(0.7)  # wide window to land the kill in
            return await asyncio.to_thread(
                lambda: PoolResult(*execute_spec(spec), None)
            )

        coordinator = CoordinatorDaemon(
            CoordinatorConfig(
                socket_path=tmp_path / "c.sock",
                store_dir=store,
                wal_path=tmp_path / "c.wal",
                heartbeat_timeout_s=2.0,
                sweep_period_s=0.2,
                fsync=False,
            )
        ).start()
        workers = [
            FabricWorker(
                WorkerConfig(
                    coordinator=tmp_path / "c.sock",
                    socket_path=tmp_path / f"w{i}.sock",
                    cache_dir=store,
                    wal_path=tmp_path / f"w{i}.wal",
                    fsync=False,
                ),
                run_job=slow_run,
            ).start()
            for i in range(2)
        ]
        victim_id = None
        try:
            spec = tiny_spec(seed=23)
            with ServiceClient(tmp_path / "c.sock", timeout=120.0) as client:
                job_id = client.submit(spec)["job_id"]
                deadline = time.time() + 10.0
                while time.time() < deadline:
                    status = client.status(job_id)
                    if status["state"] == "running" and status["worker"]:
                        break
                    time.sleep(0.05)
                victim_id = status["worker"]
                assert victim_id, f"job never started: {status}"
                next(w for w in workers if w.worker_id == victim_id).kill()
                report = client.fetch_report(job_id, timeout_s=120.0)
                status = client.status(job_id)
            local, _ = execute_spec(spec)
            assert report.digest() == local.digest()
            assert status["redispatches"] >= 1
            assert status["worker"] != victim_id
        finally:
            for worker in workers:
                if worker.worker_id != victim_id:
                    worker.stop()
            coordinator.stop()

    def test_graceful_worker_leave_reshards(self, fleet):
        leaver = fleet.workers[0]
        with ServiceClient(fleet.address, timeout=120.0) as client:
            leaver.stop()
            doc = client.request("fabric")
            states = {w["worker_id"]: w["state"] for w in doc["workers"]}
            assert states[leaver.worker_id] == LEAVING
            # The fleet still answers with one worker.
            job_id = client.submit(tiny_spec(seed=24))["job_id"]
            result = client.result(job_id, wait=True, timeout_s=120.0)
            assert result["digest"]
        fleet.workers.remove(leaver)  # fixture teardown: already stopped


# --------------------------------------------------------------------- #
# Protocol v2 and client startup retries
# --------------------------------------------------------------------- #


def raw_request(address, doc):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(10.0)
    try:
        sock.connect(str(address))
        sock.sendall(encode_line(doc))
        return decode_line(sock.makefile("rb").readline())
    finally:
        sock.close()


class TestProtocolV2:
    def test_v1_requests_still_answered(self, tmp_path):
        daemon = ServiceDaemon(
            ServiceConfig(
                socket_path=tmp_path / "s.sock", cache_dir=tmp_path / "cache",
                wal_path=tmp_path / "s.wal", fsync=False,
            ),
            run_job=inline_run_job,
        ).start()
        try:
            response = raw_request(daemon.address, {"v": 1, "op": "health"})
            assert response["ok"]
            rejected = raw_request(daemon.address, {"v": 3, "op": "health"})
            assert not rejected["ok"]
            assert rejected["error"]["code"] == ERR_UNSUPPORTED
            assert rejected["error"]["details"]["supported"] == [2, 1]
            # A plain worker rejects coordinator-only ops like unknown ops.
            fabric_op = raw_request(daemon.address, {"v": 2, "op": "fabric"})
            assert not fabric_op["ok"]
        finally:
            daemon.stop()


class TestClientStartupRetries:
    def test_connect_retries_cover_a_slow_daemon(self, tmp_path):
        config = ServiceConfig(
            socket_path=tmp_path / "late.sock", cache_dir=tmp_path / "cache",
            wal_path=tmp_path / "late.wal", fsync=False,
        )
        daemon = ServiceDaemon(config, run_job=inline_run_job)
        starter = threading.Timer(0.3, daemon.start)
        starter.start()
        try:
            with ServiceClient(
                tmp_path / "late.sock",
                timeout=10.0,
                connect_retries=10,
                connect_backoff_s=0.05,
            ) as client:
                assert client.health()["ok"] is not False
        finally:
            starter.join()
            daemon.stop()

    def test_exhausted_retries_raise_unavailable_with_attempts(self, tmp_path):
        client = ServiceClient(
            tmp_path / "nobody-home.sock",
            connect_retries=2,
            connect_backoff_s=0.01,
        )
        with pytest.raises(ServiceError) as excinfo:
            client.connect()
        assert excinfo.value.code == ERR_UNAVAILABLE
        assert excinfo.value.details["attempts"] == 3


# --------------------------------------------------------------------- #
# Cache prune dry-run
# --------------------------------------------------------------------- #


class TestPruneDryRun:
    def test_dry_run_reports_without_deleting(self, tmp_path):
        cache = ReportCache(tmp_path / "cache")
        for seed in (31, 32):
            spec = tiny_spec(seed=seed)
            report, wall_s = execute_spec(spec)
            cache.put(spec_key(spec), report, wall_s)
        before = cache.info()
        assert before["entries"] == 2
        removed, freed = cache.prune(0, dry_run=True)
        assert removed == 2 and freed == before["bytes"]
        assert cache.info() == before  # nothing actually deleted
        # The real prune then evicts exactly what the dry run promised.
        really_removed, really_freed = cache.prune(0)
        assert (really_removed, really_freed) == (removed, freed)
        assert cache.info()["entries"] == 0


# --------------------------------------------------------------------- #
# Loadtest plumbing (unit-level; the full bench runs in CI)
# --------------------------------------------------------------------- #


class TestLoadtest:
    def test_stream_is_deterministic_and_duplicate_bearing(self):
        config = LoadtestConfig(requests=100, duplicate_ratio=0.5, seed=9)
        stream = generate_stream(config)
        assert stream == generate_stream(config)
        assert len(stream) == 100
        assert len(set(stream)) < len(stream)  # duplicates present
        assert all(0 <= i < config.distinct_specs for i in stream)

    def test_spec_pool_distinct_only_in_seed(self):
        pool = build_spec_pool(LoadtestConfig(distinct_specs=4))
        assert len({spec_key(spec) for spec in pool}) == 4
        assert len({spec.seed for spec in pool}) == 4
        assert len({spec.benchmark for spec in pool}) == 1

    def test_loadtest_against_spawned_fleet_is_digest_gated(self, tmp_path):
        fleet = SpawnedFabric(tmp_path / "fleet", workers=2).start()
        try:
            doc = run_loadtest(
                fleet.address,
                LoadtestConfig(
                    requests=8, concurrency=4, distinct_specs=2,
                    duplicate_ratio=0.5,
                ),
            )
        finally:
            fleet.stop()
        assert doc["passed"], json.dumps(doc["digest_gate"], indent=2)
        results = doc["results"]
        assert results["completed"] == 8
        assert results["transport_errors"] == 0
        assert sum(results["sources"].values()) == 8

    def test_saturation_yields_structured_rejections(self, tmp_path):
        """Queue limit 1 and a blocked pump: extra submissions must be
        QUEUE_FULL responses, never dropped connections."""
        seam = SeamFleet()

        async def scenario():
            coordinator = FabricCoordinator(
                coordinator_config(tmp_path, queue_limit=1,
                                   outstanding_per_slot=1),
                forward_job=seam,
            )
            coordinator.store.open()
            (worker,) = register(coordinator, 1)
            seam.blocked.add(worker)
            responses = [
                coordinator._op_submit(
                    {"spec": spec_to_wire(tiny_spec(seed=40 + i))}
                )
                for i in range(4)
            ]
            rejected = [r for r in responses if not r.get("ok")]
            assert rejected, "saturation never produced a rejection"
            assert all(
                r["error"]["code"] == "QUEUE_FULL" for r in rejected
            )
            assert all(
                "queue_limit" in r["error"]["details"] for r in rejected
            )
            await coordinator.shutdown()

        asyncio.run(scenario())
