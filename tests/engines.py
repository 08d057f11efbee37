"""Either job server behind one test handle.

``Engine("service", root)`` is a :class:`ServiceDaemon` whose execution
seam runs simulations inline; ``Engine("coordinator", root)`` is a
:class:`CoordinatorDaemon` whose forward seam *is* one inline worker:
it runs the job and publishes the report to the shared store.  Tests
that pin "one server, two backends" take the kind as a parameter and
drive both over their sockets with the same script.

A ``gated`` engine accepts jobs but holds every execution until
:meth:`Engine.release`: the service blocks its run seam on an event, the
coordinator simply has no worker registered yet.  Two specs misbehave,
identically on both: seed 13 raises (a deterministic ``INTERNAL``
failure) and seed 15 is *lost* once on the coordinator — its worker is
evicted and the job re-dispatched to the one
:meth:`Engine.replace_lost_worker` registers.
"""

import asyncio
import threading
import time

from repro.config import SlackConfig
from repro.config.presets import paper_host_config, quick_target_config
from repro.fabric.coordinator import (
    CoordinatorConfig,
    CoordinatorDaemon,
    ForwardOutcome,
)
from repro.harness.cache import ReportCache, RunSpec, spec_key
from repro.harness.pool import PoolResult, execute_spec
from repro.service.client import ServiceClient
from repro.service.server import ServiceConfig, ServiceDaemon

KINDS = ("service", "coordinator")
CURSED_SEED = 13
LOST_ONCE_SEED = 15


def tiny_spec(seed=7):
    return RunSpec(
        benchmark="fft",
        scheme=SlackConfig(bound=8),
        scale=0.05,
        checkpoint=None,
        detection=True,
        seed=seed,
        num_threads=4,
        target=quick_target_config(num_cores=4),
        host=paper_host_config(),
    )


class Engine:
    def __init__(self, kind, root, gated=False):
        self.kind = kind
        self.root = root
        self.wal_path = root / "jobs.wal"
        self._gate = threading.Event()
        self._lost = set()
        self._workers = 0
        if kind == "service":
            config = ServiceConfig(
                socket_path=root / "engine.sock",
                cache_dir=root / "store",
                wal_path=self.wal_path,
                retry_backoff_s=0.01,
                fsync=False,
            )
            self.daemon = ServiceDaemon(config, run_job=self._run_job).start()
        else:
            config = CoordinatorConfig(
                socket_path=root / "engine.sock",
                store_dir=root / "store",
                wal_path=self.wal_path,
                fsync=False,
            )
            self.daemon = CoordinatorDaemon(config, forward_job=self._forward).start()
        if not gated:
            self.release()

    # -- the seams ------------------------------------------------------ #

    def _execute(self, spec):
        if spec.seed == CURSED_SEED:
            raise ValueError("spec is cursed")
        return execute_spec(spec)

    async def _run_job(self, spec, timeout):
        await asyncio.to_thread(self._gate.wait)
        report, wall_s = self._execute(spec)
        return PoolResult(report, wall_s, None)

    async def _forward(self, info, record, spec):
        if spec.seed == LOST_ONCE_SEED and record.job_id not in self._lost:
            self._lost.add(record.job_id)
            return ForwardOutcome("lost")
        report, wall_s = self._execute(spec)
        ReportCache(self.root / "store").put(spec_key(spec), report, wall_s)
        return ForwardOutcome(
            "done", digest=report.digest(), wall_s=wall_s, source="run"
        )

    # -- driving it ----------------------------------------------------- #

    @property
    def server(self):
        return self.daemon.server

    def client(self, timeout=30.0):
        return ServiceClient(self.daemon.address, timeout=timeout)

    def _register_worker(self):
        self._workers += 1
        with self.client() as client:
            client.request(
                "register",
                worker={
                    "address": {
                        "kind": "unix",
                        "path": str(self.root / f"inline-{self._workers}.sock"),
                    },
                    "slots": 1,
                },
            )

    def release(self):
        """Let held jobs run."""
        if self.kind == "service":
            self._gate.set()
        else:
            self._register_worker()

    def replace_lost_worker(self, timeout=10.0):
        """Coordinator: once the lost job's worker has been evicted,
        register its successor.  The service's pool replaces a lost
        worker process by itself."""
        if self.kind == "service":
            return
        deadline = time.monotonic() + timeout
        with self.client() as client:
            while client.health()["workers_alive"]:
                assert time.monotonic() < deadline, "worker was never evicted"
                time.sleep(0.01)
        self._register_worker()

    def stop(self):
        self._gate.set()
        self.daemon.stop()


def lifecycle_session(engine, client):
    """One job of every fate: three runs, a duplicate of the first, a
    failure, a cancellation and — on the coordinator — a re-dispatch
    after an eviction.  Returns the job ids by fate, drained."""
    done = [client.submit(tiny_spec(seed))["job_id"] for seed in (1, 2, 3)]
    done.append(client.submit(tiny_spec(1))["job_id"])
    failed = client.submit(tiny_spec(CURSED_SEED))["job_id"]
    cancelled = client.submit(tiny_spec(14))["job_id"]
    assert client.cancel(cancelled)["state"] == "cancelled"
    done.append(client.submit(tiny_spec(LOST_ONCE_SEED))["job_id"])
    engine.release()
    engine.replace_lost_worker()
    client.drain(wait=True)
    return {"done": done, "failed": [failed], "cancelled": [cancelled]}
