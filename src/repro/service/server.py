"""The single-node simulation service: the protocol server over a local
dispatcher.

One server, two backends: :class:`~repro.service.core.ProtocolServer`
owns the sockets, the protocol, admission control, the WAL-backed job
lifecycle and shutdown; this module only says what a *single daemon*
adds to it — :class:`ServiceConfig` (where it listens, how many slots,
how it retries), and :class:`SimulationService`, which wires the local
:class:`~repro.service.dispatch.Dispatcher` (cache consult → dedup →
warm worker slot) in as the backend.  The fleet front door,
:class:`~repro.fabric.coordinator.FabricCoordinator`, is the other
backend of the same server.

:class:`ServiceDaemon` runs the service on a background thread:
:meth:`~repro.service.core.ServerDaemon.stop` is the programmatic
graceful stop, :meth:`ServiceDaemon.kill` the simulated crash for
WAL-recovery tests.  Both, like ``drain stop:true``, leave no warm
worker process behind.
"""

from __future__ import annotations

import dataclasses
import pathlib
from typing import Optional

from repro.harness.cache import ReportCache
from repro.service.core import ProtocolServer, ServerConfig, ServerDaemon, report_dir
from repro.service.dispatch import Dispatcher, RunJob

__all__ = ["ServiceConfig", "ServiceDaemon", "SimulationService"]


@dataclasses.dataclass
class ServiceConfig(ServerConfig):
    """Everything a daemon needs to come up; socket and WAL default to
    ``<cache_dir>/service/``."""

    jobs: int = 1
    max_retries: int = 2
    retry_backoff_s: float = 0.5
    job_timeout_s: Optional[float] = None
    cache_dir: Optional[pathlib.Path] = None
    consult_cache: bool = True

    default_names = ("service", "repro.sock", "jobs.wal")

    def resolved_cache_dir(self) -> pathlib.Path:
        return report_dir(self.cache_dir)

    state_dir = resolved_cache_dir


class SimulationService(ProtocolServer):
    """The daemon: protocol front end over a :class:`Dispatcher`."""

    config: ServiceConfig

    def __init__(
        self, config: ServiceConfig, run_job: Optional[RunJob] = None
    ) -> None:
        super().__init__(config)
        self.cache = ReportCache(config.resolved_cache_dir(), self.metrics)
        self.dispatcher = Dispatcher(
            self.store, self.cache, self.metrics, config, run_job=run_job
        )
        self.backend = self.dispatcher


class ServiceDaemon(ServerDaemon[SimulationService]):
    """Runs a :class:`SimulationService` on a background thread."""

    def __init__(
        self, config: ServiceConfig, run_job: Optional[RunJob] = None
    ) -> None:
        super().__init__(lambda: SimulationService(config, run_job), "service")
        self.config = config

    @property
    def service(self) -> Optional[SimulationService]:
        return self.server

    def kill(self, timeout: float = 10.0) -> None:
        """Simulate a crash — except for the worker processes.  Those exit
        on their own when a daemon really dies; this stand-in lives on, so
        it reaps them."""
        super().kill(timeout)
        if self.server is not None:
            self.server.dispatcher.close()
