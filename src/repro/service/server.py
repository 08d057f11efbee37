"""The simulation service daemon: sockets, admission control, lifecycle.

:class:`SimulationService` is a single-event-loop asyncio daemon.  It
listens on a unix socket by default (TCP is opt-in via
``ServiceConfig.tcp_host``), speaks the newline-delimited-JSON protocol
of :mod:`repro.service.protocol`, and routes every accepted job through
the :class:`~repro.service.dispatch.Dispatcher`.

Admission control happens here, at the front door: a ``submit`` that
would push the queue past ``queue_limit`` is rejected with a structured
``QUEUE_FULL`` error (carrying the current depth and the limit) instead
of hanging the client or silently dropping the job.  Backpressure is
therefore explicit and machine-readable.

Durability contract: the submission is appended (flushed, fsynced) to
the :class:`~repro.service.store.JobStore` WAL *before* the client sees
the ``submit`` acknowledgment, so any job a client has an id for will
survive a daemon crash and be re-run on restart — the server re-enqueues
:meth:`JobStore.pending` during :meth:`SimulationService.start`.

Shutdown semantics:

- ``drain`` (protocol op) stops admissions, waits for the queue and all
  in-flight runs to finish, and — with ``stop: true`` — shuts the daemon
  down after the response is written;
- :meth:`ServiceDaemon.stop` is the programmatic graceful stop;
- :meth:`ServiceDaemon.kill` stops the event loop abruptly *without* any
  cleanup, simulating a crash for WAL-recovery tests.

Every one of these reaps the dispatcher's warm worker processes
(:meth:`Dispatcher.close`) as its last step.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import pathlib
import threading
import time
from typing import Any, Dict, Optional, Tuple, Union

from repro.harness.cache import ReportCache, default_cache_dir
from repro.service.dispatch import Dispatcher, RunJob
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
from repro.service.store import (
    CANCELLED,
    FAILED,
    QUEUED,
    RUNNING,
    JobRecord,
    JobStore,
)
from repro.telemetry import MetricsRegistry

__all__ = ["ServiceConfig", "ServiceDaemon", "SimulationService"]

#: Maximum accepted protocol line length (a wire-encoded spec is ~2 KB).
_LINE_LIMIT = 1 << 20


@dataclasses.dataclass
class ServiceConfig:
    """Everything a daemon needs to come up.

    ``socket_path``/``wal_path`` default to ``<cache_dir>/service/`` so a
    restarted daemon finds its own WAL without any flags.  Setting
    ``tcp_host`` switches the listener from the unix socket to TCP
    (``tcp_port=0`` lets the OS pick; the bound port is reported by
    :attr:`SimulationService.address`).
    """

    socket_path: Optional[pathlib.Path] = None
    tcp_host: Optional[str] = None
    tcp_port: int = 0
    jobs: int = 1
    queue_limit: int = 64
    max_retries: int = 2
    retry_backoff_s: float = 0.05
    job_timeout_s: Optional[float] = None
    cache_dir: Optional[pathlib.Path] = None
    wal_path: Optional[pathlib.Path] = None
    consult_cache: bool = True
    fsync: bool = True

    def resolved_cache_dir(self) -> pathlib.Path:
        return (
            pathlib.Path(self.cache_dir)
            if self.cache_dir is not None
            else default_cache_dir()
        )

    def resolved_socket_path(self) -> pathlib.Path:
        if self.socket_path is not None:
            return pathlib.Path(self.socket_path)
        return self.resolved_cache_dir() / "service" / "repro.sock"

    def resolved_wal_path(self) -> pathlib.Path:
        if self.wal_path is not None:
            return pathlib.Path(self.wal_path)
        return self.resolved_cache_dir() / "service" / "jobs.wal"


class SimulationService:
    """The daemon: protocol front end over a :class:`Dispatcher`."""

    def __init__(
        self, config: ServiceConfig, run_job: Optional[RunJob] = None
    ) -> None:
        self.config = config
        self.metrics = MetricsRegistry()
        self.store = JobStore(config.resolved_wal_path(), fsync=config.fsync)
        self.cache = ReportCache(config.resolved_cache_dir())
        self.dispatcher = Dispatcher(
            self.store,
            self.cache,
            self.metrics,
            jobs=config.jobs,
            max_retries=config.max_retries,
            retry_backoff_s=config.retry_backoff_s,
            default_timeout_s=config.job_timeout_s,
            consult_cache=config.consult_cache,
            run_job=run_job,
        )
        self.started_at: Optional[float] = None
        self.address: Union[str, Tuple[str, int], None] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._runner: Optional[asyncio.Task] = None
        self._connections: "set[asyncio.Task]" = set()
        self._stop_event = asyncio.Event()
        self._draining = False
        self._recovered = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Replay the WAL, re-enqueue survivors, and start listening."""
        self.store.open()
        self._recovered = 0
        for record in self.store.pending():
            try:
                spec = spec_from_wire(record.spec_wire)
            except ServiceError as exc:
                record.state = FAILED
                record.finished_at = time.time()
                record.error = {"code": exc.code, "message": exc.message}
                self.store.record_state(
                    record, at=record.finished_at, error=record.error
                )
                continue
            self.dispatcher.enqueue(record, spec)
            self._recovered += 1
        self._runner = asyncio.get_running_loop().create_task(self.dispatcher.run())
        if self.config.tcp_host is not None:
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=self.config.tcp_host,
                port=self.config.tcp_port,
                limit=_LINE_LIMIT,
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
                self._handle_connection, path=str(socket_path), limit=_LINE_LIMIT
            )
            self.address = str(socket_path)
        self.started_at = time.time()

    def request_stop(self) -> None:
        """Ask the daemon to shut down (graceful; in-flight jobs finish)."""
        self._stop_event.set()

    async def wait_stopped(self) -> None:
        """Block until someone requests a stop (``drain stop:true`` or
        :meth:`request_stop`)."""
        await self._stop_event.wait()

    async def run(self) -> None:
        """Start, serve until :meth:`request_stop`, then shut down."""
        await self.start()
        try:
            await self._stop_event.wait()
        finally:
            await self.shutdown()

    async def shutdown(self) -> None:
        """Stop listening, let in-flight work settle, reap the worker
        processes, close the store."""
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
        self.dispatcher.request_stop()
        runner, self._runner = self._runner, None
        if runner is not None:
            await runner
        await self.dispatcher.join()
        # Reaping the warm workers waits on process exit: keep it off the
        # loop.  Nothing is in flight any more, so nothing races it.
        await asyncio.to_thread(self.dispatcher.close)
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
                response, stop_after = await self._handle_line(line)
                writer.write(encode_line(response))
                await writer.drain()
                if stop_after:
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

    async def _handle_line(self, line: bytes) -> Tuple[Dict[str, Any], bool]:
        """Decode, validate, and route one request; never raises."""
        op = "?"
        try:
            request = decode_line(line)
            raw_op = request.get("op")
            if isinstance(raw_op, str):
                op = raw_op
            if request.get("v") not in SUPPORTED_VERSIONS:
                return (
                    error_response(
                        op,
                        ERR_UNSUPPORTED,
                        f"protocol version {request.get('v')!r} not supported",
                        details={"supported": list(SUPPORTED_VERSIONS)},
                    ),
                    False,
                )
            if op not in OPS:
                return (
                    error_response(
                        op,
                        ERR_BAD_REQUEST,
                        f"unknown op {raw_op!r}",
                        details={"ops": list(OPS)},
                    ),
                    False,
                )
            return await self._dispatch_op(op, request)
        except ServiceError as exc:
            return error_response(op, exc.code, exc.message, exc.details), False
        except Exception as exc:  # a bad request must not kill the daemon
            return (
                error_response(op, ERR_INTERNAL, f"{type(exc).__name__}: {exc}"),
                False,
            )

    async def _dispatch_op(
        self, op: str, request: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], bool]:
        if op == "submit":
            return self._op_submit(request), False
        if op == "status":
            return self._op_status(request), False
        if op == "result":
            return await self._op_result(request), False
        if op == "cancel":
            return self._op_cancel(request), False
        if op == "jobs":
            return self._op_jobs(request), False
        if op == "health":
            return self._op_health(), False
        return await self._op_drain(request)

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #

    def _op_submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if self._draining or self._stop_event.is_set():
            return error_response(
                "submit", ERR_DRAINING, "server is draining; not accepting jobs"
            )
        priority = request.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise ServiceError(ERR_BAD_REQUEST, "priority must be an integer")
        timeout_s = request.get("timeout_s")
        if timeout_s is not None and not isinstance(timeout_s, (int, float)):
            raise ServiceError(ERR_BAD_REQUEST, "timeout_s must be a number")
        spec = spec_from_wire(request.get("spec", {}))
        depth = self.dispatcher.queue_depth
        if depth >= self.config.queue_limit:
            self.metrics.counter("service.rejected").inc()
            return error_response(
                "submit",
                ERR_QUEUE_FULL,
                f"queue is at its high-water mark ({depth}/{self.config.queue_limit})",
                details={
                    "queue_depth": depth,
                    "queue_limit": self.config.queue_limit,
                },
            )
        record = self.store.new_job(
            spec_to_wire(spec),
            priority=priority,
            timeout_s=float(timeout_s) if timeout_s is not None else None,
            submitted_at=time.time(),
        )
        self.dispatcher.enqueue(record, spec)
        self.metrics.counter("service.submitted").inc()
        return ok_response(
            "submit",
            job_id=record.job_id,
            state=record.state,
            queue_depth=self.dispatcher.queue_depth,
        )

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

    def _op_status(self, request: Dict[str, Any]) -> Dict[str, Any]:
        record = self._lookup(request)
        return ok_response("status", job=record.summary())

    async def _op_result(self, request: Dict[str, Any]) -> Dict[str, Any]:
        record = self._lookup(request)
        if not record.terminal and request.get("wait"):
            wait_timeout = request.get("timeout_s")
            if wait_timeout is not None and not isinstance(wait_timeout, (int, float)):
                raise ServiceError(ERR_BAD_REQUEST, "timeout_s must be a number")
            event = self.dispatcher.done_event(record.job_id)
            try:
                await asyncio.wait_for(event.wait(), timeout=wait_timeout)
            except asyncio.TimeoutError:
                return error_response(
                    "result",
                    ERR_TIMEOUT,
                    f"job {record.job_id} still {record.state} after "
                    f"{wait_timeout:g}s",
                    details={"job_id": record.job_id, "state": record.state},
                )
        if record.state in (QUEUED, RUNNING):
            return error_response(
                "result",
                ERR_NOT_READY,
                f"job {record.job_id} is {record.state}",
                details={"job_id": record.job_id, "state": record.state},
            )
        if record.state == CANCELLED:
            return error_response(
                "result",
                ERR_CANCELLED,
                f"job {record.job_id} was cancelled",
                details={"job_id": record.job_id},
            )
        if record.state == FAILED:
            error = record.error or {"code": ERR_INTERNAL, "message": "job failed"}
            return error_response(
                "result",
                str(error.get("code", ERR_INTERNAL)),
                str(error.get("message", "job failed")),
                details={"job_id": record.job_id},
            )
        entry = (
            self.cache.get(record.cache_key) if record.cache_key is not None else None
        )
        if entry is None:
            return error_response(
                "result",
                ERR_RESULT_EVICTED,
                f"report for job {record.job_id} is no longer in the cache "
                "(pruned or cleared); resubmit the spec to recompute it",
                details={"job_id": record.job_id, "digest": record.digest},
            )
        doc = ok_response(
            "result",
            job_id=record.job_id,
            digest=entry.digest,
            wall_s=record.wall_s,
            source=record.source,
            dedup_of=record.dedup_of,
        )
        if request.get("report", True):
            # v2: the fabric coordinator asks for the summary only — the
            # report itself travels through the shared store.
            doc["report"] = entry.report.to_dict()
        return doc

    def _op_cancel(self, request: Dict[str, Any]) -> Dict[str, Any]:
        record = self._lookup(request)
        if self.dispatcher.cancel(record):
            return ok_response("cancel", job_id=record.job_id, state=record.state)
        return error_response(
            "cancel",
            ERR_NOT_CANCELLABLE,
            f"job {record.job_id} is {record.state}; only queued jobs cancel",
            details={"job_id": record.job_id, "state": record.state},
        )

    def _op_jobs(self, request: Dict[str, Any]) -> Dict[str, Any]:
        state = request.get("state")
        records = sorted(self.store.jobs.values(), key=lambda r: r.seq)
        if state is not None:
            records = [r for r in records if r.state == state]
        return ok_response("jobs", jobs=[r.summary() for r in records])

    async def _op_drain(
        self, request: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], bool]:
        self._draining = True
        if request.get("wait", True):
            await self.dispatcher.wait_idle()
        stop = bool(request.get("stop", False))
        return (
            ok_response(
                "drain",
                draining=True,
                stopped=stop,
                queue_depth=self.dispatcher.queue_depth,
                inflight=self.dispatcher.inflight_count,
            ),
            stop,
        )

    def _op_health(self) -> Dict[str, Any]:
        states: Dict[str, int] = {}
        for record in self.store.jobs.values():
            states[record.state] = states.get(record.state, 0) + 1
        uptime = time.time() - self.started_at if self.started_at else 0.0
        return ok_response(
            "health",
            protocol=PROTOCOL_VERSION,
            pid=os.getpid(),
            uptime_s=uptime,
            draining=self._draining,
            queue_depth=self.dispatcher.queue_depth,
            queue_limit=self.config.queue_limit,
            inflight=self.dispatcher.inflight_count,
            slots=self.dispatcher.slots,
            jobs=states,
            recovered=self._recovered,
            wal={
                "path": str(self.store.path),
                "jobs": len(self.store.jobs),
                "skipped_lines": self.store.skipped_lines,
            },
            metrics=self.metrics.to_dict(),
        )


class ServiceDaemon:
    """Runs a :class:`SimulationService` on a background thread.

    The embedding used by tests and by anything that wants a service
    in-process.  :meth:`stop` is the graceful path; :meth:`kill` stops
    the event loop dead — no drain, no store close — which is exactly the
    crash the WAL exists to survive.
    """

    def __init__(
        self, config: ServiceConfig, run_job: Optional[RunJob] = None
    ) -> None:
        self.config = config
        self.service: Optional[SimulationService] = None
        self._run_job = run_job
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._boot_error: Optional[BaseException] = None
        self._killed = False

    @property
    def address(self) -> Union[str, Tuple[str, int], None]:
        return self.service.address if self.service is not None else None

    def start(self, timeout: float = 10.0) -> "ServiceDaemon":
        self._ready.clear()
        self._boot_error = None
        self._killed = False
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("service daemon did not come up in time")
        if self._boot_error is not None:
            self._thread.join(timeout=timeout)
            raise RuntimeError(f"service daemon failed to start: {self._boot_error}")
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: finish in-flight work, close the store."""
        if self._thread is None or self._loop is None:
            return
        service = self.service
        if service is not None:
            try:
                self._loop.call_soon_threadsafe(service.request_stop)
            except RuntimeError:
                pass  # loop already finished (e.g. drain --stop beat us)
        self._thread.join(timeout=timeout)
        self._thread = None

    def kill(self, timeout: float = 10.0) -> None:
        """Simulate a crash: stop the loop abruptly, skip all cleanup —
        except the worker processes.  Those exit on their own when a
        daemon really dies; this stand-in lives on, so it reaps them."""
        if self._thread is None or self._loop is None:
            return
        self._killed = True
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)
        self._thread = None
        if self.service is not None:
            self.service.dispatcher.close()

    # ------------------------------------------------------------------ #

    def _thread_main(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        self.service = SimulationService(self.config, run_job=self._run_job)
        try:
            loop.run_until_complete(self._amain())
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

    async def _amain(self) -> None:
        assert self.service is not None
        try:
            await self.service.start()
        except BaseException as exc:
            self._boot_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self.service.wait_stopped()
        await self.service.shutdown()
