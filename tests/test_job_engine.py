"""Contract tests that pin "one protocol server, two backends".

Everything here runs against *both* a ``SimulationService`` and a
``FabricCoordinator`` (see :mod:`tests.engines`) and asserts they answer
alike: the front-door validation that lives once in the shared core, a
scripted client session compared response by response, and the WAL each
writes — replayed next to a WAL the parent commit wrote for the same
session (``tests/data/wal/``, see ``tests/data/make_wal_fixtures.py``).
"""

import dataclasses
import json
import pathlib
import shutil
import socket

import pytest

from repro.service.protocol import (
    ERR_BAD_REQUEST,
    ERR_UNSUPPORTED,
    FABRIC_OPS,
    PROTOCOL_VERSION,
    decode_line,
    encode_line,
    spec_to_wire,
)
from repro.service.store import JobStore
from tests.engines import KINDS, Engine, lifecycle_session, tiny_spec

WAL_FIXTURES = pathlib.Path(__file__).parent / "data" / "wal"


@pytest.fixture(params=KINDS)
def gated_engine(request, tmp_path):
    """Either server, holding every job until ``release()``."""
    engine = Engine(request.param, tmp_path, gated=True)
    yield engine
    engine.stop()


def raw_exchange(address, lines):
    """Send raw protocol lines on one connection; return one decoded
    response per line, or ``None`` from where the server hung up."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(30.0)
    try:
        sock.connect(str(address))
        reader = sock.makefile("rb")
        responses = []
        for line in lines:
            try:
                sock.sendall(line)
                answer = reader.readline()
            except OSError:
                answer = b""
            responses.append(decode_line(answer) if answer else None)
        return responses
    finally:
        sock.close()


def request_line(op, **fields):
    return encode_line({"v": PROTOCOL_VERSION, "op": op, **fields})


# --------------------------------------------------------------------- #
# Front-door validation: fixed once, in the shared core
# --------------------------------------------------------------------- #

BAD_TIMEOUTS = (True, -1, -0.5, float("nan"), float("inf"), "5")


class TestFrontDoorValidation:
    @pytest.mark.parametrize("version", [True, 1.0, 2.0, "2", None])
    def test_version_must_be_a_supported_int(self, gated_engine, version):
        (response,) = raw_exchange(
            gated_engine.daemon.address, [encode_line({"v": version, "op": "health"})]
        )
        assert not response["ok"]
        assert response["error"]["code"] == ERR_UNSUPPORTED
        assert response["error"]["details"] == {"supported": [2, 1]}

    def test_submit_timeout_must_be_finite_and_non_negative(self, gated_engine):
        wire = spec_to_wire(tiny_spec())
        responses = raw_exchange(
            gated_engine.daemon.address,
            [request_line("submit", spec=wire, timeout_s=bad) for bad in BAD_TIMEOUTS],
        )
        assert [r["error"]["code"] for r in responses] == [ERR_BAD_REQUEST] * len(
            BAD_TIMEOUTS
        )
        # Nothing was admitted, so nothing reached the WAL.
        with gated_engine.client() as client:
            assert client.jobs() == []
            accepted = client.submit(tiny_spec(), timeout_s=0)  # zero is a number
            assert client.status(accepted["job_id"])["state"] in ("queued", "running")

    def test_result_wait_timeout_is_validated_the_same_way(self, gated_engine):
        with gated_engine.client() as client:
            job_id = client.submit(tiny_spec())["job_id"]
            responses = raw_exchange(
                gated_engine.daemon.address,
                [
                    request_line("result", job_id=job_id, wait=True, timeout_s=bad)
                    for bad in BAD_TIMEOUTS
                ],
            )
            assert [r["error"]["code"] for r in responses] == [ERR_BAD_REQUEST] * len(
                BAD_TIMEOUTS
            )
            gated_engine.release()
            assert client.result(job_id, wait=True, timeout_s=30)["ok"]


# --------------------------------------------------------------------- #
# One scripted session, two servers, the same answers
# --------------------------------------------------------------------- #

#: Response fields only one backend adds (documented in DESIGN.md).
SERVICE_ONLY = {"health": {"slots"}}
COORDINATOR_ONLY = {"health": {"role", "workers_alive", "store"}, "result": {"worker"}}


def scripted_session(engine):
    """Malformed traffic first, then one job's whole life.  Returns
    ``(step, response)`` pairs; ``None`` marks a dropped connection."""
    address = engine.daemon.address
    wire = spec_to_wire(tiny_spec(seed=3))
    script = [
        ("bad-json", b"{nope\n"),
        ("not-an-object", b"[1,2]\n"),
        ("unknown-op", request_line("frobnicate")),
        ("unsupported-v", encode_line({"v": 99, "op": "health"})),
        ("bad-job-id", request_line("status", job_id=7)),
        ("unknown-job", request_line("status", job_id="j-404")),
        ("bad-spec", request_line("submit", spec={"benchmark": 3})),
        ("bad-priority", request_line("submit", spec=wire, priority="high")),
        ("submit", request_line("submit", spec=wire)),
        ("result", request_line("result", job_id="j-1", wait=True, timeout_s=30)),
        ("status", request_line("status", job_id="j-1")),
        ("result-summary", request_line("result", job_id="j-1", report=False)),
        ("cancel-terminal", request_line("cancel", job_id="j-1")),
        ("jobs", request_line("jobs")),
        ("jobs-filtered", request_line("jobs", state="failed")),
        ("health", request_line("health")),
        ("drain", request_line("drain")),
        ("submit-draining", request_line("submit", spec=wire)),
    ]
    responses = raw_exchange(address, [line for _, line in script])
    # An oversize line is not answered: the server drops the connection.
    (oversize,) = raw_exchange(address, [b"x" * ((1 << 20) + 2) + b"\n"])
    steps = [step for step, _ in script] + ["oversize-line"]
    return list(zip(steps, [*responses, oversize]))


class TestOneServerContract:
    def test_both_servers_answer_the_same_session_alike(self, tmp_path):
        sessions = {}
        for kind in KINDS:
            engine = Engine(kind, tmp_path / kind)
            try:
                sessions[kind] = scripted_session(engine)
            finally:
                engine.stop()
        for (step, service), (_, fleet) in zip(*sessions.values()):
            if service is None or fleet is None:
                assert service is None and fleet is None, step
                assert step == "oversize-line"
                continue
            assert service["ok"] == fleet["ok"], step
            op = service["op"]
            assert set(fleet) - COORDINATOR_ONLY.get(op, set()) == set(
                service
            ) - SERVICE_ONLY.get(op, set()), step
            if service["ok"]:
                continue
            assert fleet["error"]["code"] == service["error"]["code"], step
            expected = dict(service["error"].get("details", {}))
            if step == "unknown-op":  # the coordinator's table is a superset
                expected["ops"] = expected["ops"] + list(FABRIC_OPS)
            assert fleet["error"].get("details", {}) == expected, step
        outcome = {step: r and r["ok"] for step, r in sessions["service"]}
        assert [step for step, ok in outcome.items() if ok] == [
            "submit", "result", "status", "result-summary", "jobs",
            "jobs-filtered", "health", "drain",
        ]


# --------------------------------------------------------------------- #
# WAL compatibility with the parent commit
# --------------------------------------------------------------------- #

#: Wall-clock fields: compared for presence, not value.
CLOCK_FIELDS = ("submitted_at", "started_at", "finished_at", "wall_s")


def replayed(path):
    """The job table a WAL replays to, clock readings reduced to whether
    they were recorded."""
    store = JobStore(path, fsync=False)
    store.replay()
    assert store.skipped_lines == 0
    table = {}
    for job_id, record in store.jobs.items():
        fields = dataclasses.asdict(record)
        for name in CLOCK_FIELDS:
            fields[name] = fields[name] is not None
        table[job_id] = fields
    return table


@pytest.mark.parametrize("kind", KINDS)
class TestWalCompatibility:
    def test_new_wal_replays_to_the_parents_job_records(self, kind, tmp_path):
        engine = Engine(kind, tmp_path, gated=True)
        try:
            with engine.client() as client:
                lifecycle_session(engine, client)
        finally:
            engine.stop()
        ours, parents = replayed(engine.wal_path), replayed(WAL_FIXTURES / f"{kind}.wal")
        assert ours == parents
        assert {job["state"] for job in ours.values()} == {
            "done", "failed", "cancelled",
        }
        # Every terminal event is the one compact() keeps: same fields,
        # same order, whichever transition wrote it.
        events = [json.loads(line) for line in engine.wal_path.read_text().splitlines()]
        terminal = [e for e in events if e.get("state") in ("done", "failed", "cancelled")]
        assert len(terminal) == len(ours)
        assert len({tuple(event) for event in terminal}) == 1

    def test_parent_wal_compacts_to_the_same_bytes(self, kind, tmp_path):
        wal = tmp_path / "jobs.wal"
        shutil.copy(WAL_FIXTURES / f"{kind}.wal", wal)
        expected = (WAL_FIXTURES / f"{kind}.compacted.wal").read_bytes()
        for _ in range(2):  # compaction is a fixed point
            store = JobStore(wal, fsync=False)
            store.open()
            store.close()
            assert wal.read_bytes() == expected
