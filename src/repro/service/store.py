"""Crash-tolerant job store: an append-only JSONL write-ahead log.

The daemon never holds job state only in memory.  Every submission and
every state transition is appended (and flushed, optionally fsynced) to a
WAL before the client hears about it, so a crashed or killed daemon can
be restarted against the same file and resume exactly where it stopped:

- ``submit`` events carry the full wire-encoded spec, priority, and
  submission sequence number;
- ``state`` events carry the transition plus its terminal payload (the
  report digest and cache key for ``done``, the structured error for
  ``failed``).

:meth:`JobStore.replay` folds the log back into :class:`JobRecord`
objects.  Jobs that were ``queued`` or ``running`` at crash time come
back as ``queued`` (a running job's worker died with the daemon; the
simulation is deterministic, so re-running it is always safe), and the
server re-enqueues them in original priority/sequence order.  Reports
themselves are *not* in the WAL — they live in the content-addressed
:class:`~repro.harness.cache.ReportCache`, which the ``done`` event
points into via the spec key.

A torn final line (the classic crash-mid-write artifact) is tolerated and
dropped; any other undecodable line is counted and skipped rather than
poisoning the whole store.  :meth:`JobStore.compact` rewrites the log as
one ``submit`` plus at most one terminal ``state`` event per job, which
the server runs at startup so the WAL stays proportional to the job
count, not the transition count.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
from typing import IO, Any, Dict, List, Mapping, Optional

#: WAL record schema version (independent of the wire protocol version).
WAL_SCHEMA = 1

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job can never leave.
TERMINAL_STATES = (DONE, FAILED, CANCELLED)

__all__ = [
    "CANCELLED",
    "DONE",
    "FAILED",
    "JobRecord",
    "JobStore",
    "QUEUED",
    "RUNNING",
    "TERMINAL_STATES",
    "WAL_SCHEMA",
]


@dataclasses.dataclass
class JobRecord:
    """One job's full lifecycle, as reconstructed from (or written to) the WAL."""

    job_id: str
    seq: int
    spec_wire: Dict[str, Any]
    priority: int = 0
    timeout_s: Optional[float] = None
    state: str = QUEUED
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    attempts: int = 0
    retries: int = 0
    worker: Optional[str] = None  # fabric: the worker the job was dispatched to
    redispatches: int = 0  # fabric: times re-dispatched after a worker was lost
    digest: Optional[str] = None
    cache_key: Optional[str] = None
    wall_s: Optional[float] = None
    source: Optional[str] = None  # "run" | "cache" | "dedup"
    dedup_of: Optional[str] = None
    error: Optional[Dict[str, Any]] = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def summary(self) -> Dict[str, Any]:
        """The compact view returned by the ``status`` and ``jobs`` verbs."""
        benchmark = self.spec_wire.get("benchmark")
        scheme = self.spec_wire.get("scheme")
        scheme_tag = scheme.get("__type__") if isinstance(scheme, dict) else None
        return {
            "job_id": self.job_id,
            "state": self.state,
            "benchmark": benchmark,
            "scheme": scheme_tag,
            "seed": self.spec_wire.get("seed"),
            "priority": self.priority,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "retries": self.retries,
            "worker": self.worker,
            "redispatches": self.redispatches,
            "digest": self.digest,
            "wall_s": self.wall_s,
            "source": self.source,
            "dedup_of": self.dedup_of,
            "error": self.error,
        }


class JobStore:
    """Append-only JSONL WAL plus the in-memory job table it materializes."""

    def __init__(self, path: pathlib.Path, fsync: bool = True) -> None:
        self.path = pathlib.Path(path)
        self.fsync = fsync
        self.jobs: Dict[str, JobRecord] = {}
        self.skipped_lines = 0
        self._fh: Optional[IO[str]] = None
        self._next_seq = 1
        self._next_job_number = 1

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def open(self) -> None:
        """Replay the existing WAL (if any), compact it, and open for append."""
        self.replay()
        self.compact()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            finally:
                self._fh = None

    # ------------------------------------------------------------------ #
    # Replay
    # ------------------------------------------------------------------ #

    def replay(self) -> Dict[str, JobRecord]:
        """Fold the WAL into the in-memory job table.

        Interrupted jobs (``queued``/``running`` at crash time) come back
        ``queued``; the caller re-enqueues them via :meth:`pending`.
        """
        self.jobs = {}
        self.skipped_lines = 0
        try:
            raw_lines = self.path.read_text(encoding="utf-8").splitlines()
        except OSError:
            raw_lines = []
        for index, line in enumerate(raw_lines):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
                if not isinstance(event, dict):
                    raise ValueError("WAL event must be an object")
                self._apply(event)
            except (ValueError, KeyError, TypeError):
                if index == len(raw_lines) - 1:
                    # Torn trailing write from a crash: expected, drop it.
                    continue
                self.skipped_lines += 1
        for record in self.jobs.values():
            if record.state == RUNNING:
                # The worker died with the daemon; the run is deterministic,
                # so simply queue it again.
                record.state = QUEUED
                record.started_at = None
                record.worker = None
        if self.jobs:
            self._next_seq = max(r.seq for r in self.jobs.values()) + 1
            self._next_job_number = (
                max(_job_number(r.job_id) for r in self.jobs.values()) + 1
            )
        return self.jobs

    def _apply(self, event: Mapping[str, Any]) -> None:
        kind = event["type"]
        if kind == "submit":
            spec_wire = event["spec"]
            if not isinstance(spec_wire, dict):
                raise ValueError("submit event carries no spec object")
            record = JobRecord(
                job_id=str(event["id"]),
                seq=int(event["seq"]),
                spec_wire=spec_wire,
                priority=int(event.get("priority", 0)),
                timeout_s=event.get("timeout_s"),
                submitted_at=float(event.get("at", 0.0)),
            )
            self.jobs[record.job_id] = record
        elif kind == "state":
            record = self.jobs[str(event["id"])]
            record.state = str(event["state"])
            at = event.get("at")
            if record.state == RUNNING:
                record.started_at = at
                record.attempts = int(event.get("attempts", record.attempts))
                record.worker = event.get("worker", record.worker)
            elif record.state == QUEUED:
                # Fabric requeue: the worker the job was dispatched to died
                # and the coordinator put the job back in line.
                record.started_at = None
                record.worker = None
                record.redispatches = int(
                    event.get("redispatches", record.redispatches)
                )
            elif record.state in TERMINAL_STATES:
                record.finished_at = at
                record.digest = event.get("digest", record.digest)
                record.cache_key = event.get("key", record.cache_key)
                record.wall_s = event.get("wall_s", record.wall_s)
                record.source = event.get("source", record.source)
                record.dedup_of = event.get("dedup_of", record.dedup_of)
                record.error = event.get("error", record.error)
                record.retries = int(event.get("retries", record.retries))
                record.worker = event.get("worker", record.worker)
                record.redispatches = int(
                    event.get("redispatches", record.redispatches)
                )
        else:
            raise ValueError(f"unknown WAL event type {kind!r}")

    def pending(self) -> List[JobRecord]:
        """Replayed jobs awaiting execution, in priority-then-seq order."""
        waiting = [r for r in self.jobs.values() if r.state == QUEUED]
        return sorted(waiting, key=lambda r: (-r.priority, r.seq))

    # ------------------------------------------------------------------ #
    # Append
    # ------------------------------------------------------------------ #

    def new_job(
        self,
        spec_wire: Dict[str, Any],
        priority: int,
        timeout_s: Optional[float],
        submitted_at: float,
    ) -> JobRecord:
        """Allocate ids, record the submission in the WAL, and return the job."""
        record = JobRecord(
            job_id=f"j-{self._next_job_number}",
            seq=self._next_seq,
            spec_wire=spec_wire,
            priority=priority,
            timeout_s=timeout_s,
            submitted_at=submitted_at,
        )
        self._next_job_number += 1
        self._next_seq += 1
        self.jobs[record.job_id] = record
        self._append(_submit_event(record))
        return record

    def record_state(self, record: JobRecord, **payload: Any) -> None:
        """Append one state-transition event for ``record`` (already mutated)."""
        event: Dict[str, Any] = {
            "v": WAL_SCHEMA,
            "type": "state",
            "id": record.job_id,
            "state": record.state,
        }
        event.update(payload)
        self._append(event)

    def record_terminal(self, record: JobRecord) -> None:
        """Append the terminal event of ``record`` (already mutated) — the
        same event :meth:`compact` keeps for it."""
        self._append(_terminal_event(record))

    def _append(self, event: Mapping[str, Any]) -> None:
        if self._fh is None:
            return
        self._fh.write(json.dumps(event, separators=(",", ":")) + "\n")
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    # ------------------------------------------------------------------ #
    # Compaction
    # ------------------------------------------------------------------ #

    def compact(self) -> None:
        """Rewrite the WAL as submit + (terminal state) per job.

        Called at startup, after :meth:`replay` and before :meth:`open`'s
        append handle exists, so the log length tracks the number of jobs
        ever submitted rather than every transition.  The rewrite goes
        through a temp file + rename, so a crash mid-compaction leaves
        either the old or the new WAL, never a truncated hybrid.
        """
        if not self.jobs and self.skipped_lines == 0:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".wal.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            for record in sorted(self.jobs.values(), key=lambda r: r.seq):
                fh.write(json.dumps(_submit_event(record), separators=(",", ":")) + "\n")
                if record.terminal:
                    fh.write(json.dumps(_terminal_event(record), separators=(",", ":")) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)


def _submit_event(record: JobRecord) -> Dict[str, Any]:
    return {
        "v": WAL_SCHEMA,
        "type": "submit",
        "id": record.job_id,
        "seq": record.seq,
        "priority": record.priority,
        "timeout_s": record.timeout_s,
        "at": record.submitted_at,
        "spec": record.spec_wire,
    }


def _terminal_event(record: JobRecord) -> Dict[str, Any]:
    return {
        "v": WAL_SCHEMA,
        "type": "state",
        "id": record.job_id,
        "state": record.state,
        "at": record.finished_at,
        "digest": record.digest,
        "key": record.cache_key,
        "wall_s": record.wall_s,
        "source": record.source,
        "dedup_of": record.dedup_of,
        "error": record.error,
        "retries": record.retries,
        "worker": record.worker,
        "redispatches": record.redispatches,
    }


def _job_number(job_id: str) -> int:
    try:
        return int(job_id.rsplit("-", 1)[-1])
    except ValueError:
        return 0
