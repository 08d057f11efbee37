"""A fabric worker: a plain service daemon plus a membership agent.

A worker is deliberately *not* a new kind of server.  It runs the exact
:class:`~repro.service.server.ServiceDaemon` a standalone ``repro serve``
runs — same WAL, same dispatcher, same dedup, same admission control —
listening on its own socket, with its report cache pointed at the
fabric's shared store.  What makes it a fleet member is a small agent
thread that:

- **registers** with the coordinator (retrying with backoff while the
  coordinator is still coming up) and learns its worker id and the
  heartbeat cadence;
- **heartbeats** on that cadence, carrying a stats snapshot (queue
  depth, inflight, service counters) the coordinator folds into the
  fleet view — and re-registers when the coordinator answers
  ``UNKNOWN_WORKER`` (the worker was evicted while partitioned, or the
  coordinator restarted and lost soft state);
- **deregisters** on graceful :meth:`FabricWorker.stop`, then drains the
  local daemon so accepted jobs still finish.

:meth:`FabricWorker.kill` skips all of that — no deregister, no drain —
which is the crash the coordinator's eviction + re-dispatch path exists
to survive, and what the chaos tests call.
"""

from __future__ import annotations

import dataclasses
import pathlib
import threading
from typing import Any, Dict, Optional, Tuple, Union

from repro.fabric.membership import WorkerAddress
from repro.service.client import Address, ServiceClient
from repro.service.protocol import ERR_UNKNOWN_WORKER, ServiceError
from repro.service.server import RunJob, ServiceConfig, ServiceDaemon

__all__ = ["FabricWorker", "WorkerConfig"]


@dataclasses.dataclass
class WorkerConfig:
    """Everything one fleet member needs to come up.

    ``cache_dir`` must point at the fabric's shared store (the
    coordinator's ``store_dir``): a worker publishing reports anywhere
    else still works — the coordinator falls back to pulling reports
    over the wire — but loses the cheap shared-store path.
    """

    coordinator: Address
    socket_path: Optional[pathlib.Path] = None
    tcp_host: Optional[str] = None
    tcp_port: int = 0
    jobs: int = ServiceConfig.jobs
    queue_limit: int = ServiceConfig.queue_limit
    cache_dir: Optional[pathlib.Path] = None
    wal_path: Optional[pathlib.Path] = None
    worker_id: Optional[str] = None
    heartbeat_period_s: Optional[float] = None  # None: use coordinator hint
    connect_retries: int = 20
    connect_backoff_s: float = 0.05
    fsync: bool = True

    def service_config(self) -> ServiceConfig:
        return ServiceConfig(
            socket_path=self.socket_path,
            tcp_host=self.tcp_host,
            tcp_port=self.tcp_port,
            jobs=self.jobs,
            queue_limit=self.queue_limit,
            cache_dir=self.cache_dir,
            wal_path=self.wal_path,
            fsync=self.fsync,
        )


class FabricWorker:
    """One fleet member: an embedded service daemon plus its agent."""

    def __init__(self, config: WorkerConfig, run_job: Optional[RunJob] = None) -> None:
        self.config = config
        self.daemon = ServiceDaemon(config.service_config(), run_job=run_job)
        self.worker_id: Optional[str] = None
        self.generation: int = 0
        self.heartbeat_period_s: float = config.heartbeat_period_s or 1.0
        self._agent: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._registered = threading.Event()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def address(self) -> Union[str, Tuple[str, int], None]:
        return self.daemon.address

    def start(self, timeout: float = 10.0) -> "FabricWorker":
        """Start the local daemon, then register with the coordinator."""
        self._stop.clear()
        self._registered.clear()
        self.daemon.start(timeout=timeout)
        self._register()
        self._agent = threading.Thread(
            target=self._agent_main, name=f"repro-worker-agent-{self.worker_id}",
            daemon=True,
        )
        self._agent.start()
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful exit: deregister first, then drain the local daemon."""
        self._stop.set()
        if self._agent is not None:
            self._agent.join(timeout=timeout)
            self._agent = None
        if self.worker_id is not None:
            try:
                with self._client() as client:
                    client.request("deregister", worker_id=self.worker_id)
            except ServiceError:
                pass  # coordinator already gone: nothing left to tell it
        self.daemon.stop(timeout=timeout)

    def kill(self, timeout: float = 10.0) -> None:
        """Crash: no deregister, no drain.  The coordinator finds out via
        the dead connection or the missed heartbeat deadline."""
        self._stop.set()
        self.daemon.kill(timeout=timeout)
        if self._agent is not None:
            self._agent.join(timeout=timeout)
            self._agent = None

    # ------------------------------------------------------------------ #
    # Registration and heartbeats
    # ------------------------------------------------------------------ #

    def _client(self) -> ServiceClient:
        return ServiceClient(
            self.config.coordinator,
            timeout=10.0,
            connect_retries=self.config.connect_retries,
            connect_backoff_s=self.config.connect_backoff_s,
        )

    def _listen_address(self) -> WorkerAddress:
        address = self.daemon.address
        if address is None:
            raise RuntimeError("worker daemon is not listening yet")
        return WorkerAddress.of(address)

    def _register(self) -> None:
        with self._client() as client:
            response = client.request(
                "register",
                worker={
                    "id": self.config.worker_id or self.worker_id,
                    "address": self._listen_address().to_wire(),
                    "slots": self.config.jobs,
                },
            )
        self.worker_id = str(response["worker_id"])
        self.generation = int(response.get("generation", 1))
        if self.config.heartbeat_period_s is None:
            hint = response.get("heartbeat_period_s")
            if isinstance(hint, (int, float)) and hint > 0:
                self.heartbeat_period_s = float(hint)
        self._registered.set()

    def _stats(self) -> Dict[str, Any]:
        service = self.daemon.service
        if service is None:
            return {}
        metrics = service.metrics.to_dict()
        return {
            "queue_depth": service.dispatcher.queue_depth,
            "inflight": service.dispatcher.inflight_count,
            "slots": service.dispatcher.slots,
            "counters": metrics.get("counters", {}),
        }

    def _agent_main(self) -> None:
        """Heartbeat until stopped; re-register when forgotten."""
        while not self._stop.wait(self.heartbeat_period_s):
            try:
                with self._client() as client:
                    client.request(
                        "heartbeat",
                        worker_id=self.worker_id,
                        stats=self._stats(),
                    )
            except ServiceError as exc:
                if exc.code == ERR_UNKNOWN_WORKER and not self._stop.is_set():
                    try:
                        self._register()
                    except ServiceError:
                        pass  # coordinator flapping: try again next beat
                # UNAVAILABLE etc.: keep beating; the coordinator decides
                # liveness, a worker never exits because of a bad beat.
