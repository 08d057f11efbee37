"""repro.service — a long-lived simulation job service.

The layer that turns the simulator into a *simulation service*: a
single-process asyncio daemon that accepts jobs over a newline-delimited
JSON protocol (unix socket by default, TCP opt-in), applies admission
control with structured backpressure, coalesces duplicate in-flight
specs, consults the content-addressed report cache before spending a
worker, retries crashed workers with bounded exponential backoff, and
journals every job transition to a write-ahead log so a crashed daemon
resumes exactly where it stopped.

The non-negotiable invariant, inherited from the engine's bit-for-bit
determinism: a report fetched through the service is byte-identical —
same sha256 digest — to ``repro run`` of the same spec.

Modules:

- :mod:`~repro.service.protocol` — versioned wire schema + RunSpec codec
- :mod:`~repro.service.store` — crash-tolerant JSONL write-ahead job store
- :mod:`~repro.service.core` — the protocol server (sockets, op table,
  admission, WAL recovery, shutdown) and its thread-hosted daemon
  harness: one front end, serving whichever backend runs the jobs
- :mod:`~repro.service.ledger` — the job lifecycle both backends share
- :mod:`~repro.service.dispatch` — the local backend: cache consult,
  dedup-batching, retries, warm workers
- :mod:`~repro.service.server` — the single daemon: the server wired to
  the local backend (the fleet backend is :mod:`repro.fabric.coordinator`)
- :mod:`~repro.service.client` — blocking client used by the CLI and tests
"""

from repro.service.client import ServiceClient
from repro.service.dispatch import Dispatcher
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ServiceError,
    spec_from_wire,
    spec_to_wire,
)
from repro.service.server import ServiceConfig, ServiceDaemon, SimulationService
from repro.service.store import JobRecord, JobStore

__all__ = [
    "PROTOCOL_VERSION",
    "Dispatcher",
    "JobRecord",
    "JobStore",
    "ServiceClient",
    "ServiceConfig",
    "ServiceDaemon",
    "ServiceError",
    "SimulationService",
    "spec_from_wire",
    "spec_to_wire",
]
