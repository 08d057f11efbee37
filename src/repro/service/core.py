"""The protocol server: one front end, whichever backend runs the jobs.

:class:`ProtocolServer` is everything a job daemon does that does not
depend on where jobs execute.  It listens on a unix socket (TCP is opt-in
via ``tcp_host``), speaks the newline-delimited-JSON protocol of
:mod:`repro.service.protocol`, and answers the seven client ops from one
op table:

- **Front door.**  Every request line is checked once — JSON object,
  integer ``v`` in ``SUPPORTED_VERSIONS``, known op — and every failure
  is a structured error response, never a dropped connection or a dead
  daemon.
- **Admission.**  A ``submit`` past ``queue_limit`` queued jobs gets
  ``QUEUE_FULL`` (carrying depth and limit); a draining server answers
  ``DRAINING``.  An accepted submission is appended (flushed, fsynced)
  to the :class:`~repro.service.store.JobStore` WAL *before* the client
  sees the acknowledgment, then handed to the backend.  A spec the
  server has decoded before is not decoded, re-encoded or fingerprinted
  again (:meth:`ProtocolServer.admitted_spec`).
- **Recovery.**  :meth:`ProtocolServer.start` replays the WAL and
  re-admits every job that was queued or running when the last daemon
  died — determinism makes re-running always safe.
- **Shutdown.**  ``drain`` stops admissions and waits for the backend to
  go idle, ``stop: true`` shuts the daemon down after the response is
  written; :meth:`ProtocolServer.shutdown` closes the listener, the
  connections, the backend and the store, and unlinks the socket.

What differs between a single daemon and a fleet front door is the
:class:`Backend`: the object that takes an admitted job and gets it run.
:class:`~repro.service.server.SimulationService` wires in the local
:class:`~repro.service.dispatch.Dispatcher`;
:class:`~repro.fabric.coordinator.FabricCoordinator` is its own backend
and adds the fabric control-plane ops to the same table.

:class:`ServerDaemon` hosts either on a background thread.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math
import os
import pathlib
import threading
import time
from typing import (
    Any,
    Awaitable,
    Callable,
    ClassVar,
    Dict,
    Generic,
    Mapping,
    NamedTuple,
    Optional,
    Protocol,
    Set,
    Tuple,
    TypeVar,
    Union,
)

from repro.harness.cache import CacheEntry, RunSpec, default_cache_dir, spec_key
from repro.service.ledger import JobLedger
from repro.service.protocol import (
    ERR_BAD_REQUEST,
    ERR_CANCELLED,
    ERR_DRAINING,
    ERR_INTERNAL,
    ERR_NOT_CANCELLABLE,
    ERR_NOT_READY,
    ERR_QUEUE_FULL,
    ERR_RESULT_EVICTED,
    ERR_TIMEOUT,
    ERR_UNKNOWN_JOB,
    ERR_UNSUPPORTED,
    OPS,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    ServiceError,
    decode_line,
    encode_line,
    error_response,
    ok_response,
    spec_from_wire,
    spec_to_wire,
)
from repro.service.store import CANCELLED, FAILED, JobRecord, JobStore
from repro.telemetry import MetricsRegistry
from repro.util import LruMemo

__all__ = ["AdmittedSpec", "Backend", "ProtocolServer", "ServerConfig", "ServerDaemon"]

#: Maximum accepted protocol line length (a wire-encoded spec is ~2 KB).
LINE_LIMIT = 1 << 20

#: Distinct submitted specs a server keeps decoded.
SPEC_MEMO_SIZE = 256

Response = Dict[str, Any]
Handler = Callable[[Dict[str, Any]], Union[Response, Awaitable[Response]]]


@dataclasses.dataclass
class ServerConfig:
    """Where a daemon listens and journals, and how much it queues.

    ``socket_path``/``wal_path`` default to a subdirectory of
    :meth:`state_dir` so a restarted daemon finds its own WAL without any
    flags.  Setting ``tcp_host`` switches the listener from the unix
    socket to TCP (``tcp_port=0`` lets the OS pick; the bound port is
    reported by :attr:`ProtocolServer.address`).
    """

    socket_path: Optional[pathlib.Path] = None
    tcp_host: Optional[str] = None
    tcp_port: int = 0
    queue_limit: int = 64
    wal_path: Optional[pathlib.Path] = None
    fsync: bool = True

    #: Subdirectory, socket name and WAL name under :meth:`state_dir`.
    default_names: ClassVar[Tuple[str, str, str]]

    def state_dir(self) -> pathlib.Path:
        """The directory the defaults live under (the report store)."""
        raise NotImplementedError

    def _state_path(self, given: Optional[pathlib.Path], name: str) -> pathlib.Path:
        if given is not None:
            return pathlib.Path(given)
        return self.state_dir() / self.default_names[0] / name

    def resolved_socket_path(self) -> pathlib.Path:
        return self._state_path(self.socket_path, self.default_names[1])

    def resolved_wal_path(self) -> pathlib.Path:
        return self._state_path(self.wal_path, self.default_names[2])


def report_dir(given: Optional[pathlib.Path]) -> pathlib.Path:
    """A configured report-store directory, or the user's default cache."""
    return pathlib.Path(given) if given is not None else default_cache_dir()


class Backend(Protocol):
    """What a :class:`ProtocolServer` needs from whatever runs its jobs.

    Every method is called on the server's event loop.  A backend moves
    its jobs through :attr:`ledger`; the server reads queue depth, waits
    on job completion and counts admissions through the same object.
    """

    ledger: JobLedger

    @property
    def inflight_count(self) -> int:
        """Jobs handed to an executor and not yet settled."""

    def admit(self, record: JobRecord, spec: RunSpec, key: str) -> None:
        """Take over a journaled QUEUED job (new, or replayed from the WAL);
        ``key`` is the spec's :func:`~repro.harness.cache.spec_key`."""

    def cancel(self, record: JobRecord) -> bool:
        """Cancel ``record`` if it has not started; False when it has."""

    def fetch(self, record: JobRecord) -> Optional[CacheEntry]:
        """The stored report of a DONE job, or None once it is gone."""

    def result_fields(self, record: JobRecord) -> Dict[str, Any]:
        """Backend-specific fields of an ``ok`` ``result`` response."""

    def health_fields(self) -> Dict[str, Any]:
        """Backend-specific fields of the ``health`` response."""

    def start_tasks(self) -> None:
        """Start the backend's loops (called once, before listening)."""

    async def stop_tasks(self) -> None:
        """Stop the loops and release everything the backend owns."""


def _timeout_s(request: Dict[str, Any]) -> Optional[float]:
    """The request's optional ``timeout_s``: a finite, non-negative number."""
    value = request.get("timeout_s")
    if value is None:
        return None
    if (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and 0 <= value < math.inf  # NaN fails both comparisons
    ):
        return float(value)
    raise ServiceError(
        ERR_BAD_REQUEST, "timeout_s must be a finite, non-negative number"
    )


class AdmittedSpec(NamedTuple):
    """One submitted spec, decoded once: the :class:`RunSpec`, its
    canonical wire form (shared, read-only, by every
    :class:`JobRecord` of the spec) and its store key."""

    spec: RunSpec
    wire: Dict[str, Any]
    key: str


class ProtocolServer:
    """The daemon front end.  Subclasses construct and set :attr:`backend`."""

    backend: Backend

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self.metrics = MetricsRegistry()
        self.store = JobStore(config.resolved_wal_path(), fsync=config.fsync)
        self.ops: Dict[str, Handler] = {op: getattr(self, f"_op_{op}") for op in OPS}
        self.started_at: Optional[float] = None
        self.address: Union[str, Tuple[str, int], None] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.Task[None]] = set()
        self._stop_event = asyncio.Event()
        self._draining = False
        self._recovered = 0
        self._spec_memo: LruMemo[str, AdmittedSpec] = LruMemo(SPEC_MEMO_SIZE)
        self._spec_memo_hits = self.metrics.counter("service.spec_memo_hits")

    def admitted_spec(self, doc: Mapping[str, Any]) -> AdmittedSpec:
        """Decode a wire spec, or recall it: a repeat costs one
        ``json.dumps``.

        The memo is keyed on the compact, key-sorted JSON text of ``doc``,
        never on :class:`RunSpec` equality: ``1``, ``1.0`` and ``true``
        compare and hash equal in Python but fingerprint — and so key the
        report store — differently.  A spec that fails to decode raises
        before anything is remembered.
        """
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        admitted = self._spec_memo.get(text)
        if admitted is None:
            spec = spec_from_wire(doc)
            admitted = AdmittedSpec(spec, spec_to_wire(spec), spec_key(spec))
            self._spec_memo.put(text, admitted)
        else:
            self._spec_memo_hits.inc()
        return admitted

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Replay the WAL, re-admit survivors, and start listening."""
        self.store.open()
        self._recovered = 0
        for record in self.store.pending():
            try:
                admitted = self.admitted_spec(record.spec_wire)
            except ServiceError as exc:
                self.backend.ledger.fail(
                    record, {"code": exc.code, "message": exc.message}
                )
                continue
            self.backend.admit(record, admitted.spec, admitted.key)
            self._recovered += 1
        self.backend.start_tasks()
        if self.config.tcp_host is not None:
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=self.config.tcp_host,
                port=self.config.tcp_port,
                limit=LINE_LIMIT,
            )
            bound = self._server.sockets[0].getsockname()
            self.address = (bound[0], bound[1])
        else:
            socket_path = self.config.resolved_socket_path()
            socket_path.parent.mkdir(parents=True, exist_ok=True)
            try:
                socket_path.unlink()  # stale socket from a dead daemon
            except OSError:
                pass
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=str(socket_path), limit=LINE_LIMIT
            )
            self.address = str(socket_path)
        self.started_at = time.time()

    def request_stop(self) -> None:
        """Ask the daemon to shut down (graceful; in-flight jobs finish)."""
        self._stop_event.set()

    async def run(self, on_listening: Optional[Callable[[], None]] = None) -> None:
        """Start, call ``on_listening``, serve until :meth:`request_stop`
        (or ``drain stop:true``), then shut down."""
        await self.start()
        if on_listening is not None:
            on_listening()
        try:
            await self._stop_event.wait()
        except asyncio.CancelledError:  # Ctrl-C under asyncio.run
            await self.shutdown()
            raise
        # Not a `finally`: a killed daemon's loop never resumes this
        # coroutine, and the GeneratorExit it gets at collection must not
        # meet an await.
        await self.shutdown()

    async def shutdown(self) -> None:
        """Stop listening, stop the backend, close the store."""
        # Swap-then-use: claim the reference before the first suspension
        # point so a concurrent shutdown() sees None and becomes a no-op
        # instead of double-closing.
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        for task in list(self._connections):
            # Handlers parked in readline() would otherwise outlive the
            # loop and raise at garbage collection.
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        await self.backend.stop_tasks()
        self.store.close()
        if self.config.tcp_host is None and isinstance(self.address, str):
            try:
                os.unlink(self.address)
            except OSError:
                pass

    # ------------------------------------------------------------------ #
    # Connections
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionResetError):
                    break  # oversized line or peer went away
                if not line:
                    break
                response = await self._handle_line(line)
                writer.write(encode_line(response))
                await writer.drain()
                if response.get("stopped"):  # only `drain stop:true` says so
                    self.request_stop()
                    break
        except asyncio.CancelledError:
            # Shutdown cancels parked handlers; ending the task cleanly
            # here keeps the streams machinery from re-raising the
            # cancellation into the loop's exception handler.
            pass
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, RuntimeError, ConnectionResetError):
                pass

    async def _handle_line(self, line: bytes) -> Response:
        """Decode, validate, and route one request; never raises."""
        op = "?"
        try:
            request = decode_line(line)
            raw_op = request.get("op")
            if isinstance(raw_op, str):
                op = raw_op
            version = request.get("v")
            if type(version) is not int or version not in SUPPORTED_VERSIONS:
                return error_response(
                    op,
                    ERR_UNSUPPORTED,
                    f"protocol version {version!r} not supported",
                    details={"supported": list(SUPPORTED_VERSIONS)},
                )
            handler = self.ops.get(op)
            if handler is None:
                return error_response(
                    op,
                    ERR_BAD_REQUEST,
                    f"unknown op {raw_op!r}",
                    details={"ops": list(self.ops)},
                )
            response = handler(request)
            return response if isinstance(response, dict) else await response
        except ServiceError as exc:
            return error_response(op, exc.code, exc.message, exc.details)
        except Exception as exc:  # a bad request must not kill the daemon
            return error_response(op, ERR_INTERNAL, f"{type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #

    def _op_submit(self, request: Dict[str, Any]) -> Response:
        if self._draining or self._stop_event.is_set():
            return error_response(
                "submit", ERR_DRAINING, "server is draining; not accepting jobs"
            )
        priority = request.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise ServiceError(ERR_BAD_REQUEST, "priority must be an integer")
        timeout_s = _timeout_s(request)
        admitted = self.admitted_spec(request.get("spec", {}))
        ledger = self.backend.ledger
        depth, limit = ledger.queued, self.config.queue_limit
        if depth >= limit:
            ledger.counter("rejected").inc()
            return error_response(
                "submit",
                ERR_QUEUE_FULL,
                f"queue is at its high-water mark ({depth}/{limit})",
                details={"queue_depth": depth, "queue_limit": limit},
            )
        record = self.store.new_job(
            admitted.wire,
            priority=priority,
            timeout_s=timeout_s,
            submitted_at=time.time(),
        )
        self.backend.admit(record, admitted.spec, admitted.key)
        ledger.counter("submitted").inc()
        return ok_response(
            "submit",
            job_id=record.job_id,
            state=record.state,
            queue_depth=ledger.queued,
        )

    def done_event(self, job_id: str) -> asyncio.Event:
        """The event set when ``job_id`` reaches a terminal state."""
        return self.backend.ledger.done_event(job_id)

    def _lookup(self, request: Dict[str, Any]) -> JobRecord:
        job_id = request.get("job_id")
        if not isinstance(job_id, str):
            raise ServiceError(ERR_BAD_REQUEST, "job_id must be a string")
        record = self.store.jobs.get(job_id)
        if record is None:
            raise ServiceError(
                ERR_UNKNOWN_JOB, f"no job {job_id!r}", details={"job_id": job_id}
            )
        return record

    def _op_status(self, request: Dict[str, Any]) -> Response:
        return ok_response("status", job=self._lookup(request).summary())

    async def _op_result(self, request: Dict[str, Any]) -> Response:
        record = self._lookup(request)
        job_id = record.job_id
        if not record.terminal and request.get("wait"):
            wait_timeout = _timeout_s(request)
            try:
                await asyncio.wait_for(self.done_event(job_id).wait(), wait_timeout)
            except asyncio.TimeoutError:
                return error_response(
                    "result",
                    ERR_TIMEOUT,
                    f"job {job_id} still {record.state} after {wait_timeout:g}s",
                    details={"job_id": job_id, "state": record.state},
                )
        if not record.terminal:
            return error_response(
                "result",
                ERR_NOT_READY,
                f"job {job_id} is {record.state}",
                details={"job_id": job_id, "state": record.state},
            )
        if record.state == CANCELLED:
            return error_response(
                "result",
                ERR_CANCELLED,
                f"job {job_id} was cancelled",
                details={"job_id": job_id},
            )
        if record.state == FAILED:
            error = record.error or {"code": ERR_INTERNAL, "message": "job failed"}
            return error_response(
                "result",
                str(error.get("code", ERR_INTERNAL)),
                str(error.get("message", "job failed")),
                details={"job_id": job_id},
            )
        entry = self.backend.fetch(record)
        if entry is None:
            return error_response(
                "result",
                ERR_RESULT_EVICTED,
                f"report for job {job_id} is no longer in the report store "
                "(pruned, cleared or corrupted); resubmit the spec to recompute it",
                details={"job_id": job_id, "digest": record.digest},
            )
        doc = ok_response(
            "result",
            job_id=job_id,
            digest=entry.digest,
            wall_s=record.wall_s,
            source=record.source,
            dedup_of=record.dedup_of,
            **self.backend.result_fields(record),
        )
        if request.get("report", True):
            # v2: the fabric coordinator asks for the summary only — the
            # report itself travels through the shared store.
            doc["report"] = entry.payload
        return doc

    def _op_cancel(self, request: Dict[str, Any]) -> Response:
        record = self._lookup(request)
        if self.backend.cancel(record):
            return ok_response("cancel", job_id=record.job_id, state=record.state)
        return error_response(
            "cancel",
            ERR_NOT_CANCELLABLE,
            f"job {record.job_id} is {record.state}; only queued jobs cancel",
            details={"job_id": record.job_id, "state": record.state},
        )

    def _op_jobs(self, request: Dict[str, Any]) -> Response:
        state = request.get("state")
        records = sorted(self.store.jobs.values(), key=lambda r: r.seq)
        if state is not None:
            records = [r for r in records if r.state == state]
        return ok_response("jobs", jobs=[r.summary() for r in records])

    async def _op_drain(self, request: Dict[str, Any]) -> Response:
        self._draining = True
        backend = self.backend
        if request.get("wait", True):
            async with backend.ledger.cond:
                await backend.ledger.cond.wait_for(
                    lambda: backend.ledger.queued <= 0 and not backend.inflight_count
                )
        return ok_response(
            "drain",
            draining=True,
            stopped=bool(request.get("stop", False)),
            queue_depth=backend.ledger.queued,
            inflight=backend.inflight_count,
        )

    def _state_counts(self) -> Dict[str, int]:
        states: Dict[str, int] = {}
        for record in self.store.jobs.values():
            states[record.state] = states.get(record.state, 0) + 1
        return states

    def _op_health(self, request: Dict[str, Any]) -> Response:
        return ok_response(
            "health",
            protocol=PROTOCOL_VERSION,
            pid=os.getpid(),
            uptime_s=time.time() - self.started_at if self.started_at else 0.0,
            draining=self._draining,
            queue_depth=self.backend.ledger.queued,
            queue_limit=self.config.queue_limit,
            inflight=self.backend.inflight_count,
            jobs=self._state_counts(),
            recovered=self._recovered,
            wal={
                "path": str(self.store.path),
                "jobs": len(self.store.jobs),
                "skipped_lines": self.store.skipped_lines,
            },
            metrics=self.metrics.to_dict(),
            **self.backend.health_fields(),
        )


ServerT = TypeVar("ServerT", bound=ProtocolServer)
DaemonT = TypeVar("DaemonT", bound="ServerDaemon[Any]")


class ServerDaemon(Generic[ServerT]):
    """Runs a :class:`ProtocolServer` on a background thread.

    The embedding used by tests and by anything that wants a daemon
    in-process.  :meth:`stop` is the graceful path; :meth:`kill` stops
    the event loop dead — no drain, no store close — which is exactly the
    crash the WAL exists to survive.
    """

    def __init__(self, factory: Callable[[], ServerT], name: str) -> None:
        self.server: Optional[ServerT] = None
        self._factory = factory
        self._name = name
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._boot_error: Optional[BaseException] = None
        self._killed = False

    @property
    def address(self) -> Union[str, Tuple[str, int], None]:
        return self.server.address if self.server is not None else None

    def start(self: DaemonT, timeout: float = 10.0) -> DaemonT:
        self._ready.clear()
        self._boot_error = None
        self._killed = False
        self._thread = threading.Thread(
            target=self._thread_main, name=f"repro-{self._name}", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError(f"{self._name} daemon did not come up in time")
        if self._boot_error is not None:
            self._thread.join(timeout=timeout)
            raise RuntimeError(
                f"{self._name} daemon failed to start: {self._boot_error}"
            )
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: finish in-flight work, close the store."""
        if self._thread is None or self._loop is None:
            return
        if self.server is not None:
            try:
                self._loop.call_soon_threadsafe(self.server.request_stop)
            except RuntimeError:
                pass  # loop already finished (e.g. drain --stop beat us)
        self._thread.join(timeout=timeout)
        self._thread = None

    def kill(self, timeout: float = 10.0) -> None:
        """Simulate a crash: stop the loop abruptly, skip all cleanup."""
        if self._thread is None or self._loop is None:
            return
        self._killed = True
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)
        self._thread = None

    # ------------------------------------------------------------------ #

    def _thread_main(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        self.server = self._factory()
        try:
            loop.run_until_complete(self._amain(self.server))
        except RuntimeError:
            if not self._killed:
                raise
        finally:
            if not self._killed:
                try:
                    loop.close()
                except RuntimeError:
                    pass
            asyncio.set_event_loop(None)
            if not self._ready.is_set():
                self._ready.set()

    async def _amain(self, server: ServerT) -> None:
        try:
            await server.run(on_listening=self._ready.set)
        except BaseException as exc:
            if self._ready.is_set():
                raise
            self._boot_error = exc  # start() failed: report it from start()
            self._ready.set()
