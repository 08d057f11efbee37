"""The fleet backend: shards admitted jobs across a worker fleet.

One server, two backends: :class:`FabricCoordinator` is a
:class:`~repro.service.core.ProtocolServer` — the same front door, the
same seven client ops, the same WAL-backed admission, recovery and
shutdown as a single daemon, so clients cannot tell the two apart — that
is its own backend.  Where the single daemon's
:class:`~repro.service.dispatch.Dispatcher` runs a job on a local worker
slot, this backend owns a fleet, and registers the v2 control plane
(``register``/``heartbeat``/``deregister``/``steal``/``fabric``) into
the server's op table.  What it does with an admitted job:

1. **Dedup** — a key already completed in the shared store finishes
   instantly (``source="cache"``); a key already in flight anywhere in
   the fabric coalesces onto that leader (``source="dedup"``).  Because
   the ring hashes the same fingerprint the per-worker dispatcher dedups
   on, duplicates that slip past the coordinator still meet on one shard.
2. **Shard** — consistent hashing of :func:`~repro.harness.cache.spec_key`
   onto the ring picks the owning worker; the job waits in that worker's
   backlog until the worker's outstanding window (``slots ×
   outstanding_per_slot``) has room, so a slow worker backs *its* shard
   up instead of stalling the fleet.  Idle workers steal from the
   longest backlog (the ``steal`` op; also triggered by heartbeats).
3. **Forward** — the job is submitted to the worker daemon over its own
   socket and awaited (``result wait`` without the report body); the
   report itself travels through the shared content-addressed store,
   which the coordinator re-verifies before serving.
4. **Survive** — every transition is in the coordinator WAL.  A worker
   that dies mid-run (connection lost, or heartbeat deadline missed) is
   evicted and its jobs are re-dispatched from the WAL state to the new
   ring topology — determinism makes re-running always safe, and the
   digest the client finally sees is byte-identical either way.

The job lifecycle around those decisions (leader/follower records,
terminal transitions, done events, ``fabric.*`` counters) is the shared
:class:`~repro.service.ledger.JobLedger`'s.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import heapq
import pathlib
from typing import (
    Any,
    Awaitable,
    Callable,
    Deque,
    Dict,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.core.report import SimulationReport
from repro.fabric.membership import Membership, WorkerAddress, WorkerInfo
from repro.fabric.shared_store import SharedReportStore
from repro.harness.cache import CacheEntry, RunSpec
from repro.service import store as jobstate
from repro.service.core import (
    LINE_LIMIT,
    ProtocolServer,
    Response,
    ServerConfig,
    ServerDaemon,
    report_dir,
)
from repro.service.ledger import JobLedger
from repro.service.protocol import (
    ERR_BAD_REQUEST,
    ERR_DRAINING,
    ERR_INTERNAL,
    ERR_QUEUE_FULL,
    ERR_UNKNOWN_WORKER,
    ERR_WORKER_CRASHED,
    FABRIC_OPS,
    PROTOCOL_VERSION,
    ServiceError,
    decode_line,
    encode_line,
    error_response,
    ok_response,
    spec_to_wire,
)
from repro.service.store import JobRecord
from repro.telemetry import sum_counter_docs

__all__ = [
    "CoordinatorConfig",
    "CoordinatorDaemon",
    "FabricCoordinator",
    "ForwardJob",
    "ForwardOutcome",
]


class ForwardOutcome(NamedTuple):
    """What forwarding one job to one worker produced.

    ``status``:

    - ``"done"`` — the worker finished it; ``digest``/``wall_s``/
      ``source`` describe the run, the report is in the shared store;
    - ``"failed"`` — a *deterministic* failure (simulation error, worker
      retries exhausted, per-job timeout): re-dispatching would only fail
      identically, so the job fails with ``error``;
    - ``"requeue"`` — the worker turned the job away (its own admission
      control or draining): put it back in line without blaming the
      worker;
    - ``"lost"`` — the worker's connection died: presume the worker dead,
      evict it, and re-dispatch its jobs.
    """

    status: str
    digest: Optional[str] = None
    wall_s: Optional[float] = None
    source: Optional[str] = None
    error: Optional[Dict[str, Any]] = None


#: The forwarding seam: ship one job to one worker and await its fate.
#: The default implementation speaks the wire protocol; tests inject
#: in-process fakes to exercise eviction/re-dispatch deterministically.
ForwardJob = Callable[
    [WorkerInfo, JobRecord, RunSpec], Awaitable[ForwardOutcome]
]


@dataclasses.dataclass
class CoordinatorConfig(ServerConfig):
    """Everything a coordinator needs to come up.

    ``store_dir`` is the *shared* report store every worker must also
    mount (for a local fleet: the same directory; for multiple hosts: a
    network mount).  WAL and socket default to ``<store_dir>/fabric/`` so
    a restarted coordinator finds its own state without flags.
    """

    queue_limit: int = 256
    heartbeat_timeout_s: float = 5.0
    sweep_period_s: float = 0.5
    max_redispatch: int = 3
    outstanding_per_slot: int = 2
    ring_replicas: int = 64
    store_dir: Optional[pathlib.Path] = None

    default_names = ("fabric", "coordinator.sock", "coordinator.wal")

    def resolved_store_dir(self) -> pathlib.Path:
        return report_dir(self.store_dir)

    state_dir = resolved_store_dir


async def _open_stream(
    address: WorkerAddress,
) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    if address.kind == "unix":
        assert address.path is not None
        return await asyncio.open_unix_connection(address.path, limit=LINE_LIMIT)
    assert address.host is not None and address.port is not None
    return await asyncio.open_connection(
        address.host, address.port, limit=LINE_LIMIT
    )


async def _call(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    doc: Dict[str, Any],
) -> Dict[str, Any]:
    writer.write(encode_line(doc))
    await writer.drain()
    line = await reader.readline()
    if not line:
        raise ConnectionResetError("worker closed the connection")
    return decode_line(line)


class FabricCoordinator(ProtocolServer):
    """The coordinator daemon: membership, sharding, re-dispatch."""

    config: CoordinatorConfig

    def __init__(
        self,
        config: CoordinatorConfig,
        forward_job: Optional[ForwardJob] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        super().__init__(config)
        self.backend = self
        self.ledger = JobLedger(self.store, self.metrics, "fabric")
        self.ops.update({op: getattr(self, f"_op_{op}") for op in FABRIC_OPS})
        self.shared = SharedReportStore(
            config.resolved_store_dir(), metrics=self.metrics
        )
        self.membership = Membership(
            timeout_s=config.heartbeat_timeout_s,
            replicas=config.ring_replicas,
            clock=clock,
        )
        self._forward_job: ForwardJob = (
            forward_job if forward_job is not None else self._wire_forward
        )
        self._sweeper: Optional[asyncio.Task[None]] = None
        self._assignment: Dict[str, str] = {}  # backlogged job_id -> worker_id
        self._backlog: Dict[str, List[Tuple[int, int, str]]] = {}  # heaps
        self._forwarded: Dict[str, Set[str]] = {}
        self._forward_tasks: Dict[str, asyncio.Task[None]] = {}
        self._pumps: Dict[str, asyncio.Task[None]] = {}
        self._unassigned: Deque[str] = collections.deque()
        self._publish_alive()

    # ------------------------------------------------------------------ #
    # The backend interface (what the protocol server calls)
    # ------------------------------------------------------------------ #

    @property
    def inflight_count(self) -> int:
        return len(self._forward_tasks)

    def admit(self, record: JobRecord, spec: RunSpec, key: str) -> None:
        """Route an admitted job: store hit, coalesce, or shard."""
        self.ledger.track(record, spec, key)
        entry = self.shared.get(key)
        if entry is not None:
            self.ledger.complete(record, key, entry.digest, entry.wall_s, source="cache")
            return
        execution = self.ledger.inflight.get(key)
        if execution is not None:
            self.ledger.follow(execution, record)
            return
        self.ledger.lead(key, record)
        self._enqueue(record.job_id)

    def cancel(self, record: JobRecord) -> bool:
        if record.state != jobstate.QUEUED:
            return False
        key = self.ledger.key(record.job_id)
        self.ledger.cancel(record)
        self.ledger.add_queued(-1)
        self._assignment.pop(record.job_id, None)
        execution = self.ledger.inflight.get(key)
        if execution is not None and execution.leader is record:
            if execution.followers:
                # Cancelling a leader orphans its followers: promote the
                # first follower to leader and put it back in line.
                leader = execution.leader = execution.followers.pop(0)
                leader.state = jobstate.QUEUED
                leader.dedup_of = None
                self.store.record_state(leader, redispatches=leader.redispatches)
                self._enqueue(leader.job_id)
            else:
                self.ledger.retire(key)
        self.ledger.notify()
        return True

    def fetch(self, record: JobRecord) -> Optional[CacheEntry]:
        if record.cache_key is None or record.digest is None:
            return None
        try:
            return self.shared.fetch_verified(record.cache_key, record.digest)
        except ServiceError:
            return None

    def result_fields(self, record: JobRecord) -> Dict[str, Any]:
        return {"worker": record.worker}

    def health_fields(self) -> Dict[str, Any]:
        return {
            "role": "coordinator",
            "workers_alive": len(self.membership.alive_workers()),
            "store": self.shared.info(),
        }

    def start_tasks(self) -> None:
        self._sweeper = asyncio.get_running_loop().create_task(self._sweep_loop())

    async def stop_tasks(self) -> None:
        doomed = [*self._pumps.values(), *self._forward_tasks.values()]
        if self._sweeper is not None:
            doomed.append(self._sweeper)
            self._sweeper = None
        self._pumps.clear()
        self._forward_tasks.clear()
        for task in doomed:
            task.cancel()
        if doomed:
            await asyncio.gather(*doomed, return_exceptions=True)

    # ------------------------------------------------------------------ #
    # Fabric control plane
    # ------------------------------------------------------------------ #

    def _publish_alive(self) -> int:
        alive = len(self.membership.alive_workers())
        self.metrics.gauge("fabric.workers_alive").set(alive)
        return alive

    @staticmethod
    def _worker_id(request: Dict[str, Any], op: str) -> str:
        worker_id = request.get("worker_id")
        if not isinstance(worker_id, str):
            raise ServiceError(ERR_BAD_REQUEST, f"{op} needs a worker_id")
        return worker_id

    @staticmethod
    def _unknown_worker(op: str, worker_id: str, hint: str = "") -> Response:
        return error_response(
            op,
            ERR_UNKNOWN_WORKER,
            f"worker {worker_id!r} is not registered{hint}",
            details={"worker_id": worker_id},
        )

    def _op_register(self, request: Dict[str, Any]) -> Response:
        doc = request.get("worker")
        if not isinstance(doc, dict):
            raise ServiceError(ERR_BAD_REQUEST, "register needs a worker object")
        address = WorkerAddress.from_wire(doc.get("address") or {})
        slots = doc.get("slots", 1)
        if not isinstance(slots, int) or isinstance(slots, bool) or slots < 1:
            raise ServiceError(ERR_BAD_REQUEST, "worker slots must be a positive int")
        worker_id = doc.get("id")
        if worker_id is not None and not isinstance(worker_id, str):
            raise ServiceError(ERR_BAD_REQUEST, "worker id must be a string")
        info = self.membership.join(address, slots=slots, worker_id=worker_id)
        self.ledger.counter("worker_joins").inc()
        alive = self._publish_alive()
        self._backlog.setdefault(info.worker_id, [])
        self._forwarded.setdefault(info.worker_id, set())
        self._start_pump(info.worker_id)
        self._rebalance()
        return ok_response(
            "register",
            worker_id=info.worker_id,
            generation=info.generation,
            heartbeat_timeout_s=self.config.heartbeat_timeout_s,
            heartbeat_period_s=self.config.heartbeat_timeout_s / 3.0,
            workers_alive=alive,
        )

    def _op_heartbeat(self, request: Dict[str, Any]) -> Response:
        worker_id = self._worker_id(request, "heartbeat")
        stats = request.get("stats")
        info = self.membership.heartbeat(
            worker_id, stats if isinstance(stats, dict) else None
        )
        if info is None:
            return self._unknown_worker(
                "heartbeat", worker_id, " (evicted or never joined); re-register"
            )
        if isinstance(stats, dict):
            for gauge_name in ("queue_depth", "inflight"):
                value = stats.get(gauge_name)
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    self.metrics.gauge(
                        f"fabric.worker.{worker_id}.{gauge_name}"
                    ).set(float(value))
        # An idle worker with an empty backlog steals from the longest one
        # — push-based rebalancing driven by the liveness signal itself.
        stolen = 0
        if self._worker_is_idle(info):
            stolen = self._steal_for(worker_id, max_jobs=info.slots)
        return ok_response(
            "heartbeat", worker_id=worker_id, known=True, stolen=stolen
        )

    def _worker_is_idle(self, info: WorkerInfo) -> bool:
        if self._live_backlog(info.worker_id):
            return False
        depth = (info.stats or {}).get("queue_depth", 0)
        return not self._forwarded.get(info.worker_id) and not depth

    def _op_deregister(self, request: Dict[str, Any]) -> Response:
        worker_id = self._worker_id(request, "deregister")
        info = self.membership.leave(worker_id)
        if info is None:
            return self._unknown_worker("deregister", worker_id)
        self.ledger.counter("worker_leaves").inc()
        self._publish_alive()
        self._stop_pump(worker_id)
        self._rebalance()  # its backlog re-shards; forwarded jobs finish
        return ok_response(
            "deregister",
            worker_id=worker_id,
            state=info.state,
            inflight=len(self._forwarded.get(worker_id, ())),
        )

    def _op_steal(self, request: Dict[str, Any]) -> Response:
        worker_id = self._worker_id(request, "steal")
        info = self.membership.workers.get(worker_id)
        if info is None or not info.alive:
            return self._unknown_worker("steal", worker_id)
        max_jobs = request.get("max", info.slots)
        if not isinstance(max_jobs, int) or isinstance(max_jobs, bool):
            raise ServiceError(ERR_BAD_REQUEST, "max must be an integer")
        stolen = self._steal_for(worker_id, max_jobs=max_jobs)
        return ok_response("steal", worker_id=worker_id, stolen=stolen)

    def _op_fabric(self, request: Dict[str, Any]) -> Response:
        workers = self.membership.summary()
        fleet = sum_counter_docs(
            w["stats"].get("counters", {})
            for w in workers
            if isinstance(w["stats"].get("counters"), dict)
        )
        backlogs = {
            worker_id: len(self._live_backlog(worker_id))
            for worker_id in self._backlog
        }
        return ok_response(
            "fabric",
            workers=workers,
            ring={
                "replicas": self.membership.ring.replicas,
                "members": self.membership.ring.members(),
            },
            jobs=self._state_counts(),
            queue_depth=self.ledger.queued,
            unassigned=len(self._unassigned),
            backlogs=backlogs,
            inflight=len(self._forward_tasks),
            fleet_counters=fleet,
            metrics=self.metrics.to_dict(),
        )

    # ------------------------------------------------------------------ #
    # Sharding, stealing, rebalance
    # ------------------------------------------------------------------ #

    def _enqueue(self, job_id: str) -> None:
        """Put a QUEUED leader in line: shard it, or park it unassigned."""
        self.ledger.add_queued(1)
        self._shard(job_id)
        self.ledger.notify()

    def _shard(self, job_id: str, worker_id: Optional[str] = None) -> None:
        """Backlog a queued job on ``worker_id`` — by default the ring
        owner of its key — or park it until a worker joins."""
        if worker_id is None:
            owner = self.membership.owner(self.ledger.key(job_id))
            if owner is None:
                self._unassigned.append(job_id)
                return
            worker_id = owner.worker_id
        record = self.store.jobs[job_id]
        self._assignment[job_id] = worker_id
        heapq.heappush(
            self._backlog.setdefault(worker_id, []),
            (-record.priority, record.seq, job_id),
        )

    def _is_live(self, job_id: str, worker_id: str) -> bool:
        """Whether a backlog heap entry still stands (cancels, steals and
        rebalances leave stale ones behind)."""
        record = self.store.jobs.get(job_id)
        return (
            record is not None
            and record.state == jobstate.QUEUED
            and self._assignment.get(job_id) == worker_id
        )

    def _live_backlog(self, worker_id: str) -> List[str]:
        """Backlogged job ids still queued for ``worker_id``."""
        return [
            job_id
            for _, _, job_id in self._backlog.get(worker_id, [])
            if self._is_live(job_id, worker_id)
        ]

    def _steal_for(self, thief_id: str, max_jobs: int) -> int:
        """Move up to ``max_jobs`` queued jobs from the longest backlogs
        onto ``thief_id``.  Coordinator-level dedup already coalesced
        duplicates, so moving a leader cannot split a dedup batch."""
        moved = 0
        while moved < max_jobs:
            victim_jobs: List[str] = []
            for worker_id in self._backlog:
                if worker_id == thief_id:
                    continue
                info = self.membership.workers.get(worker_id)
                if info is None or not info.alive:
                    continue
                jobs = self._live_backlog(worker_id)
                if len(jobs) > len(victim_jobs):
                    victim_jobs = jobs
            if not victim_jobs:
                break
            self._shard(victim_jobs[-1], thief_id)  # the tail: coldest work
            moved += 1
            self.ledger.counter("steals").inc()
        if moved:
            self.ledger.notify()
        return moved

    def _rebalance(self) -> None:
        """Re-shard every still-queued, not-yet-forwarded job after a
        topology change (join/leave/evict).  Consistent hashing keeps the
        moved set small; forwarded jobs stay where they run."""
        waiting = [
            job_id
            for job_id in self._unassigned
            if self.store.jobs[job_id].state == jobstate.QUEUED  # not cancelled
        ]
        self._unassigned.clear()
        for worker_id in list(self._backlog):
            waiting.extend(self._live_backlog(worker_id))
            self._backlog[worker_id] = []
        for job_id in dict.fromkeys(waiting):
            self._assignment.pop(job_id, None)
            self._shard(job_id)
        self.ledger.notify()

    # ------------------------------------------------------------------ #
    # Pumps and forwarding
    # ------------------------------------------------------------------ #

    def _window(self, worker_id: str) -> int:
        info = self.membership.workers.get(worker_id)
        slots = info.slots if info is not None else 1
        return max(1, slots * self.config.outstanding_per_slot)

    def _start_pump(self, worker_id: str) -> None:
        existing = self._pumps.get(worker_id)
        if existing is not None and not existing.done():
            return
        self._pumps[worker_id] = asyncio.get_running_loop().create_task(
            self._pump(worker_id)
        )

    def _stop_pump(self, worker_id: str) -> None:
        task = self._pumps.pop(worker_id, None)
        if task is not None:
            task.cancel()

    def _next_for(self, worker_id: str) -> Optional[str]:
        """Pop the highest-priority live backlog entry, if the worker's
        outstanding window has room."""
        if len(self._forwarded.get(worker_id, ())) >= self._window(worker_id):
            return None
        heap = self._backlog.get(worker_id)
        while heap:
            job_id = heapq.heappop(heap)[2]
            if self._is_live(job_id, worker_id):
                del self._assignment[job_id]  # it leaves the backlog for good
                return job_id
        return None

    async def _pump(self, worker_id: str) -> None:
        """One per alive worker: feed its backlog through its window."""
        while True:
            async with self.ledger.cond:
                job_id = self._next_for(worker_id)
                while job_id is None:
                    await self.ledger.cond.wait()
                    info = self.membership.workers.get(worker_id)
                    if info is None or not info.alive:
                        return
                    job_id = self._next_for(worker_id)
                self.ledger.add_queued(-1)
                self._forwarded.setdefault(worker_id, set()).add(job_id)
            task = asyncio.get_running_loop().create_task(
                self._forward_and_settle(worker_id, job_id)
            )
            self._forward_tasks[job_id] = task

    async def _forward_and_settle(self, worker_id: str, job_id: str) -> None:
        record = self.store.jobs[job_id]
        spec = self.ledger.spec(job_id)
        key = self.ledger.key(job_id)
        info = self.membership.workers.get(worker_id)
        record.attempts += 1
        record.worker = worker_id
        self.ledger.running(record, worker=worker_id, attempts=record.attempts)
        self.ledger.counter("forwarded").inc()
        try:
            if info is None or not info.alive:
                outcome = ForwardOutcome("lost")
            else:
                outcome = await self._forward_job(info, record, spec)
        except asyncio.CancelledError:
            raise  # eviction path requeues; do not settle here
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            outcome = ForwardOutcome("lost")
        except ServiceError as exc:
            outcome = ForwardOutcome(
                "failed", error={"code": exc.code, "message": exc.message}
            )
        except Exception as exc:
            outcome = ForwardOutcome(
                "failed",
                error={
                    "code": ERR_INTERNAL,
                    "message": f"{type(exc).__name__}: {exc}",
                },
            )
        self._forward_tasks.pop(job_id, None)
        self._forwarded.get(worker_id, set()).discard(job_id)
        if outcome.status == "done":
            assert outcome.digest is not None
            self.ledger.finish(
                key, outcome.digest, outcome.wall_s or 0.0, outcome.source or "run"
            )
        elif outcome.status == "failed":
            self.ledger.abort(
                key, outcome.error or {"code": ERR_INTERNAL, "message": "job failed"}
            )
        elif outcome.status == "requeue":
            self._requeue(job_id, reason="worker turned the job away")
        else:  # lost
            self._requeue(job_id, reason="worker connection lost")
            self._worker_lost(worker_id)
        self.ledger.notify()

    # ------------------------------------------------------------------ #
    # Failure handling: requeue, eviction, sweep
    # ------------------------------------------------------------------ #

    def _requeue(self, job_id: str, reason: str) -> None:
        """Put a dispatched job back in line (its worker is gone or
        turned it away), or fail it once re-dispatch is exhausted."""
        record = self.store.jobs.get(job_id)
        if record is None or record.terminal or record.state == jobstate.QUEUED:
            return
        record.redispatches += 1
        if record.redispatches > self.config.max_redispatch:
            self.ledger.abort(
                self.ledger.key(job_id),
                {
                    "code": ERR_WORKER_CRASHED,
                    "message": (
                        f"job {job_id} lost its worker "
                        f"{record.redispatches} time(s) ({reason}); "
                        "re-dispatch budget exhausted"
                    ),
                },
            )
            return
        record.state = jobstate.QUEUED
        record.started_at = None
        record.worker = None
        self.store.record_state(record, redispatches=record.redispatches)
        self.ledger.counter("redispatched").inc()
        self._enqueue(job_id)

    def _worker_lost(self, worker_id: str) -> None:
        """Failure-driven eviction: a dead connection is faster evidence
        than a missed heartbeat deadline.  Requeues everything the worker
        held and re-shards its backlog onto the survivors."""
        info = self.membership.workers.get(worker_id)
        if info is None or not info.alive:
            return
        self.membership.evict(worker_id)
        self.ledger.counter("evictions").inc()
        self._publish_alive()
        self._stop_pump(worker_id)
        for job_id in sorted(self._forwarded.get(worker_id, set())):
            task = self._forward_tasks.pop(job_id, None)
            if task is not None:
                task.cancel()
            self._requeue(job_id, reason=f"worker {worker_id} evicted")
        self._forwarded[worker_id] = set()
        self._rebalance()

    def sweep_once(self, now: Optional[float] = None) -> List[str]:
        """Evict every worker past its heartbeat deadline; returns their
        ids.  Called periodically by the daemon and directly by tests."""
        evicted = [info.worker_id for info in self.membership.expired(now)]
        for worker_id in evicted:
            self._worker_lost(worker_id)
        return evicted

    async def _sweep_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.sweep_period_s)
            self.sweep_once()

    # ------------------------------------------------------------------ #
    # The wire forwarding seam (default ForwardJob)
    # ------------------------------------------------------------------ #

    async def _wire_forward(
        self, info: WorkerInfo, record: JobRecord, spec: RunSpec
    ) -> ForwardOutcome:
        """Ship one job to a worker daemon over its socket and await it.

        The report body stays out of the reply (``report: false``): the
        worker publishes it to the shared store, which the coordinator
        verifies — and, if the worker's store turns out not to be shared
        (misconfiguration), falls back to pulling the full report over
        the wire and publishing it itself.
        """
        reader, writer = await _open_stream(info.address)
        try:
            accepted = await _call(
                reader,
                writer,
                {
                    "v": PROTOCOL_VERSION,
                    "op": "submit",
                    "spec": spec_to_wire(spec),
                    "priority": record.priority,
                    "timeout_s": record.timeout_s,
                },
            )
            if not accepted.get("ok"):
                error = accepted.get("error") or {}
                code = str(error.get("code", ERR_INTERNAL))
                if code in (ERR_QUEUE_FULL, ERR_DRAINING):
                    return ForwardOutcome("requeue", error=dict(error))
                return ForwardOutcome("failed", error=dict(error))
            remote_id = accepted["job_id"]
            result = await _call(
                reader,
                writer,
                {
                    "v": PROTOCOL_VERSION,
                    "op": "result",
                    "job_id": remote_id,
                    "wait": True,
                    "report": False,
                },
            )
            if not result.get("ok"):
                error = dict(result.get("error") or {})
                return ForwardOutcome("failed", error=error)
            digest = str(result["digest"])
            wall_s = float(result.get("wall_s") or 0.0)
            source = str(result.get("source") or "run")
            key = self.ledger.key(record.job_id)
            entry = self.shared.cache.get(key)
            if entry is None or entry.digest != digest:
                outcome = await self._pull_and_publish(
                    reader, writer, remote_id, key, digest
                )
                if outcome is not None:
                    return outcome
            return ForwardOutcome("done", digest=digest, wall_s=wall_s, source=source)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, RuntimeError, ConnectionResetError):
                pass

    async def _pull_and_publish(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        remote_id: str,
        key: str,
        digest: str,
    ) -> Optional[ForwardOutcome]:
        """The worker's report never landed in the shared store: pull it
        over the wire, re-verify, and publish it ourselves.  Returns a
        failure outcome, or ``None`` when the store is healthy again."""
        result = await _call(
            reader,
            writer,
            {"v": PROTOCOL_VERSION, "op": "result", "job_id": remote_id, "wait": True},
        )
        if not result.get("ok"):
            return ForwardOutcome("failed", error=dict(result.get("error") or {}))
        report = SimulationReport.from_dict(result["report"])
        if report.digest() != digest:
            return ForwardOutcome(
                "failed",
                error={
                    "code": ERR_INTERNAL,
                    "message": "worker report does not reproduce its own digest",
                },
            )
        self.shared.cache.put(key, report, float(result.get("wall_s") or 0.0))
        return None


class CoordinatorDaemon(ServerDaemon[FabricCoordinator]):
    """Runs a :class:`FabricCoordinator` on a background thread."""

    def __init__(
        self,
        config: CoordinatorConfig,
        forward_job: Optional[ForwardJob] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        super().__init__(
            lambda: FabricCoordinator(config, forward_job=forward_job, clock=clock),
            "coordinator",
        )
        self.config = config

    @property
    def coordinator(self) -> Optional[FabricCoordinator]:
        return self.server
