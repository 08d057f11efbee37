#!/usr/bin/env python
"""End-to-end smoke test for the simulation service, used by CI.

Boots a real ``repro serve`` daemon as a subprocess on a unix socket,
submits the golden reference case twice back to back (the second submit
must coalesce onto the first — same fingerprint, still in flight), then
one distinct case, and checks the full service contract:

* every result carries the digest recorded in ``benchmarks/golden_kernel.json``
  for its case — a report fetched over the wire is byte-identical to a
  local run;
* the daemon's ``health`` document reports exactly one dedup hit, and one
  spawned worker process reused for the second execution;
* ``drain`` completes cleanly, ``stop`` exits the daemon with code 0, and
  no process of the daemon's group is left alive.

Exit code 0 on success; any assertion or timeout fails the CI job.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

REPO = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.harness.bench import BenchCase  # noqa: E402
from repro.service import ServiceClient, ServiceError  # noqa: E402

CASE = BenchCase("cc", 4, 0.25)
#: Runs second, in the worker CASE warmed: another scheme family's state.
DISTINCT_CASE = BenchCase("speculative", 4, 0.25)
BOOT_DEADLINE_S = 30.0
RESULT_DEADLINE_S = 600.0
REAP_DEADLINE_S = 10.0


def group_survivors(pgid: int) -> list:
    """Pids of live (non-zombie) processes in process group ``pgid``."""
    survivors = []
    for stat in pathlib.Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:
            continue  # exited while we were looking
        state, _ppid, pgrp = text.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            survivors.append(int(stat.parent.name))
    return survivors


def wait_for_daemon(socket_path: pathlib.Path, deadline_s: float) -> None:
    """Poll until the daemon answers ``health`` (or give up loudly)."""
    deadline = time.monotonic() + deadline_s
    last_error = "socket never appeared"
    while time.monotonic() < deadline:
        if socket_path.exists():
            try:
                with ServiceClient(socket_path, timeout=5.0) as client:
                    client.health()
                return
            except ServiceError as exc:
                last_error = str(exc)
        time.sleep(0.1)
    raise SystemExit(f"daemon did not come up within {deadline_s:g}s: {last_error}")


def main() -> int:
    golden = json.loads((REPO / "benchmarks" / "golden_kernel.json").read_text())
    expected = golden[CASE.case_id]
    expected_distinct = golden[DISTINCT_CASE.case_id]

    with tempfile.TemporaryDirectory(prefix="repro-service-smoke-") as td:
        tmp = pathlib.Path(td)
        socket_path = tmp / "repro.sock"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        # A fresh cache: the first submit must actually run (not hit a
        # warm cache), so the duplicate has an in-flight leader to join.
        env["REPRO_CACHE_DIR"] = str(tmp / "cache")

        daemon = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--socket", str(socket_path),
                "--wal", str(tmp / "jobs.wal"),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            # Its own process group, so its workers can be told from ours.
            start_new_session=True,
        )
        try:
            wait_for_daemon(socket_path, BOOT_DEADLINE_S)

            with ServiceClient(socket_path, timeout=RESULT_DEADLINE_S) as client:
                first = client.submit(CASE.spec())
                duplicate = client.submit(CASE.spec())
                print(f"submitted {first['job_id']} and {duplicate['job_id']} "
                      f"({CASE.case_id})")

                results = {
                    job["job_id"]: client.result(
                        job["job_id"], wait=True, timeout_s=RESULT_DEADLINE_S
                    )
                    for job in (first, duplicate)
                }
                for job_id, doc in results.items():
                    print(f"{job_id}: source={doc['source']} digest={doc['digest']}")
                    assert doc["digest"] == expected, (
                        f"{job_id} digest {doc['digest']} != golden {expected} "
                        f"for {CASE.case_id}"
                    )

                sources = sorted(doc["source"] for doc in results.values())
                assert sources == ["dedup", "run"], (
                    f"expected one executed job and one coalesced duplicate, "
                    f"got sources {sources}"
                )

                third = client.submit(DISTINCT_CASE.spec())
                doc = client.result(
                    third["job_id"], wait=True, timeout_s=RESULT_DEADLINE_S
                )
                print(f"{third['job_id']}: source={doc['source']} "
                      f"digest={doc['digest']} ({DISTINCT_CASE.case_id})")
                assert doc["source"] == "run", doc["source"]
                assert doc["digest"] == expected_distinct, (
                    f"{third['job_id']} digest {doc['digest']} != golden "
                    f"{expected_distinct} for {DISTINCT_CASE.case_id}"
                )

                health = client.health()
                counters = health["metrics"]["counters"]
                dedup_hits = counters["service.dedup_hits"]
                assert dedup_hits == 1, f"expected 1 dedup hit, got {dedup_hits}"
                assert health["jobs"].get("done") == 3, health["jobs"]
                spawned = counters["service.workers_spawned"]
                reuses = counters["service.worker_reuses"]
                assert spawned == 1, f"expected 1 worker process, got {spawned}"
                assert reuses >= 1, f"expected the worker to be reused, got {reuses}"

                drained = client.drain(wait=True, stop=True)
                assert drained["queue_depth"] == 0 and drained["inflight"] == 0

            code = daemon.wait(timeout=30)
            assert code == 0, f"daemon exited with {code}"
            # The daemon is its group's leader; whatever else is in the
            # group it started.  (Its multiprocessing resource tracker
            # exits a moment after it, hence the deadline.)
            deadline = time.monotonic() + REAP_DEADLINE_S
            survivors = group_survivors(daemon.pid)
            while survivors and time.monotonic() < deadline:
                time.sleep(0.1)
                survivors = group_survivors(daemon.pid)
            assert not survivors, f"daemon left processes behind: {survivors}"
        finally:
            if daemon.poll() is None:
                daemon.kill()
            for pid in group_survivors(daemon.pid):
                os.kill(pid, signal.SIGKILL)
            output = daemon.stdout.read() if daemon.stdout else ""
            if output:
                print("--- daemon output ---")
                print(output, end="")

    print(f"service smoke OK: golden digests matched ({CASE.case_id} twice, "
          f"{DISTINCT_CASE.case_id}), dedup_hits=1, 1 worker process reused, "
          f"none left behind")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
