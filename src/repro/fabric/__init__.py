"""``repro.fabric`` — a distributed simulation fabric of service daemons.

PR 6's ``repro.service`` made one machine a simulation server; this
package makes a *fleet* of them one logical service, which is the paper's
"CMPs on CMPs" premise taken one level up: many deterministic slack
simulations, scheduled across many hosts, with exactly one answer per
configuration no matter which host computes it.

- :mod:`repro.fabric.membership` — worker registry, heartbeat liveness,
  and the consistent-hash ring that shards job keys onto workers (so
  duplicate submissions keep meeting the same shard's dedup);
- :mod:`repro.fabric.coordinator` — the fleet backend of the one
  protocol server in :mod:`repro.service.core`: fleet-wide dedup,
  sharding, forwarding, re-dispatch when a worker dies mid-run, and the
  v2 control plane ops;
- :mod:`repro.fabric.worker` — a plain service daemon joined to the
  fleet by a registration/heartbeat agent;
- :mod:`repro.fabric.shared_store` — the content-addressed report store
  every node shares, with digest re-verification on cross-node reads;
- :mod:`repro.fabric.loadtest` — the in-process fleet fixture
  (``SpawnedFabric``) and the digest-gated pass/fail smoke behind
  ``repro loadtest``.

The invariant the whole package inherits rather than invents: a report
fetched through the fabric is byte-identical to a local ``repro run`` of
the same spec — even when the worker that started the job was killed and
the job was re-dispatched to another.
"""

from repro.fabric.coordinator import (
    CoordinatorConfig,
    CoordinatorDaemon,
    FabricCoordinator,
    ForwardJob,
    ForwardOutcome,
)
from repro.fabric.membership import (
    ALIVE,
    EVICTED,
    LEAVING,
    HashRing,
    Membership,
    WorkerAddress,
    WorkerInfo,
)
from repro.fabric.shared_store import SharedReportStore
from repro.fabric.worker import FabricWorker, WorkerConfig

__all__ = [
    "ALIVE",
    "EVICTED",
    "LEAVING",
    "CoordinatorConfig",
    "CoordinatorDaemon",
    "FabricCoordinator",
    "FabricWorker",
    "ForwardJob",
    "ForwardOutcome",
    "HashRing",
    "Membership",
    "SharedReportStore",
    "WorkerAddress",
    "WorkerConfig",
    "WorkerInfo",
]
