"""The two request-stream workloads: ``service.fresh`` and ``fabric.dup``.

Both are closed loops of one client — submit, wait for the result, submit
the next — because on the 2-core host two clients with ``jobs=2`` made
``service.fresh`` wander 3.90–4.75 s run to run where one client with
``jobs=1`` stayed within 3.09–3.31 s.

All paths are relative: the child's cwd is its own fresh temp dir, which
keeps the socket path under the 108-byte AF_UNIX limit wherever the
checkout lives.
"""

from __future__ import annotations

import pathlib
import time
from typing import Any, List, Optional

from repro.core.report import SimulationReport
from repro.fabric.loadtest import SpawnedFabric
from repro.service.client import ServiceClient
from repro.service.protocol import ServiceError
from repro.service.server import ServiceConfig, ServiceDaemon

from suite import NULL_TRACER, Op, workload_specs


class _StreamRep:
    """Submit every spec of the stream in order, one at a time."""

    def __init__(
        self,
        name: str,
        seed: int,
        quick: bool,
        tracer: Any = NULL_TRACER,
        root: pathlib.Path = pathlib.Path("."),
    ) -> None:
        self.specs, self.stream = workload_specs(name, seed, quick)
        self.tracer = tracer
        self.root = root
        root.mkdir(parents=True, exist_ok=True)
        self.client: Optional[ServiceClient] = None

    def run(self) -> List[Op]:
        client = self.client
        assert client is not None
        return [self._one(client, n, index) for n, index in enumerate(self.stream)]

    def _one(self, client: ServiceClient, n: int, index: int) -> Op:
        op = Op(index)
        trace_id = f"req-{n}"
        try:
            t0 = time.perf_counter()
            with self.tracer.span("client.submit", trace_id=trace_id):
                accepted = client.submit(self.specs[index])
            t1 = time.perf_counter()
            op.job_id = str(accepted["job_id"])
            with self.tracer.span("client.result", trace_id=trace_id):
                doc = client.result(op.job_id, wait=True, report=True)
            t2 = time.perf_counter()
        except ServiceError as exc:  # a structured error or refusal: a failed op
            op.error = exc.code
            return op
        op.submit_ms = (t1 - t0) * 1e3
        op.result_ms = (t2 - t1) * 1e3
        op.digest = str(doc["digest"])
        op.source = doc.get("source")
        op.report = SimulationReport.from_dict(doc["report"])
        return op


class ServiceRep(_StreamRep):
    """``service.fresh``: one daemon with its defaults (unix socket,
    ``fsync=True``, ``jobs=1``), so every job pays a spawned worker."""

    daemon: Optional[ServiceDaemon] = None

    def setup(self) -> None:
        config = ServiceConfig(
            socket_path=self.root / "service.sock",
            wal_path=self.root / "jobs.wal",
            cache_dir=self.root / "cache",
        )
        with self.tracer.span("daemon.start"):
            self.daemon = ServiceDaemon(config).start()
        with self.tracer.span("client.connect"):
            self.client = ServiceClient(self.daemon.address).connect()
        with self.tracer.span("client.health"):
            self.client.health()

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.daemon is not None:
            self.daemon.stop()


class FabricRep(_StreamRep):
    """``fabric.dup``: a coordinator plus two inline workers, as
    ``repro loadtest --spawn`` builds them."""

    WORKERS = 2
    fabric: Optional[SpawnedFabric] = None

    def setup(self) -> None:
        with self.tracer.span("fabric.start"):
            self.fabric = SpawnedFabric(self.root, workers=self.WORKERS).start()
        with self.tracer.span("client.connect"):
            self.client = ServiceClient(self.fabric.address).connect()
        with self.tracer.span("client.health"):
            # Workers register asynchronously; the fleet is up when the
            # coordinator counts all of them.
            deadline = time.monotonic() + 10.0
            while self.client.health()["workers_alive"] < self.WORKERS:
                if time.monotonic() > deadline:
                    raise RuntimeError("fabric workers did not register in 10 s")
                time.sleep(0.002)

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.fabric is not None:
            self.fabric.stop()
