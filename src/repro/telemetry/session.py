"""TelemetrySession: the bundle the engine's probe hooks talk to.

One session owns a :class:`~repro.telemetry.metrics.MetricsRegistry`, an
optional :class:`~repro.telemetry.tracer.Tracer`, and an optional
:class:`~repro.telemetry.sampler.Sampler`, and exposes the ``on_*`` probe
methods that the manager, scheduler, runners, schemes, and speculative
controller call.

The contract with the engine (see DESIGN.md "Telemetry probes"):

- **Observation only.**  Probe methods read scalars and append to
  host-side buffers; they never mutate simulation state, draw from any
  RNG, or contribute to modeled host cost — so report digests are
  bit-for-bit identical with telemetry on, off, or disabled.
- **Near-zero disabled cost.**  Every probe site guards on
  ``session is not None and session.enabled`` before calling anything
  here; a disabled session (``TelemetrySession.disabled()``) exercises
  only that check, whose exact bytecode and call cost per modeled step
  ``tests/test_scheduler.py::TestReplayedWork`` holds to a budget.
- **Checkpoint-transparent.**  The session is reachable from deep-copied
  simulation state (manager, scheme policies, core models hold a
  reference), so ``__deepcopy__`` returns ``self``: snapshots share the
  live session, and recording continues across rollbacks — wasted
  (rolled-back) work stays visible in the trace, exactly like host time.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.telemetry.metrics import NULL_REGISTRY, MetricsRegistry
from repro.telemetry.sampler import Sampler
from repro.telemetry.tracer import (
    PID_HOST,
    PID_TARGET,
    TID_CONTROLLER,
    TID_MANAGER,
    Tracer,
)

__all__ = ["TelemetrySession"]

#: Schema tag written into exported metrics documents.
METRICS_SCHEMA = "repro.telemetry.metrics/v1"


class TelemetrySession:
    """Aggregates tracing, metrics, and sampling for one simulation run."""

    def __init__(
        self,
        trace: bool = True,
        metrics: bool = True,
        sample_period: Optional[int] = 1000,
        max_trace_events: int = 2_000_000,
        enabled: bool = True,
    ) -> None:
        self.enabled = enabled
        self.metrics: MetricsRegistry = (
            MetricsRegistry() if (enabled and metrics) else NULL_REGISTRY
        )
        self.tracer: Optional[Tracer] = (
            Tracer(max_events=max_trace_events) if (enabled and trace) else None
        )
        self.sampler: Optional[Sampler] = (
            Sampler(sample_period) if (enabled and sample_period) else None
        )
        self._last_global_time = -1
        self._replay_start_host: Optional[float] = None
        self._replay_boundary = 0

    @classmethod
    def disabled(cls) -> "TelemetrySession":
        """A null-sink session: hooks run their guard check and nothing
        else (used to measure the disabled-telemetry fast path)."""
        return cls(enabled=False)

    def __deepcopy__(self, memo) -> "TelemetrySession":
        # Shared across snapshots: telemetry is host-side accounting and is
        # never rolled back (see module docstring).
        return self

    def absorb_worker_metrics(self, doc: Optional[dict]) -> None:
        """Merge a pool worker's metrics document into this session.

        Parallel experiment runs execute in subprocesses; each worker
        records into its own metrics-only session and ships the plain-data
        snapshot back, which the parent folds in here.  Traces and samples
        are per-run artifacts and are not merged.
        """
        if doc and self.enabled:
            self.metrics.merge(doc)

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #

    def attach(self, num_cores: int) -> None:
        """Name the trace tracks for a ``num_cores``-core simulation."""
        tracer = self.tracer
        if tracer is None:
            return
        for core_id in range(num_cores):
            tracer.set_thread_name(PID_TARGET, core_id, f"core {core_id}")
        tracer.set_thread_name(PID_TARGET, TID_MANAGER, "manager")
        tracer.set_thread_name(PID_HOST, TID_MANAGER, "manager")
        tracer.set_thread_name(PID_HOST, TID_CONTROLLER, "controller")

    # ------------------------------------------------------------------ #
    # Core-thread probes (CoreRunner / CoreModel)
    # ------------------------------------------------------------------ #

    def on_core_request(self, core_id: int, local_time: int, kind_name: str,
                        line_addr: int) -> None:
        """An OutQ request left a core (BUS = an L1 miss)."""
        self.metrics.counter(f"core.requests.{kind_name}").inc()
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                PID_TARGET, core_id, kind_name, local_time, {"line": line_addr}
            )

    def on_compute_burst(
        self, core_id: int, start: int, cycles: int, instructions: int
    ) -> None:
        """A bulk-committed compute burst covering target cycles
        ``[start, start+cycles)``."""
        self.metrics.counter("core.compute_burst_cycles").inc(cycles)
        self.metrics.histogram("core.compute_burst_len").observe(cycles)
        tracer = self.tracer
        if tracer is not None:
            tracer.complete(
                PID_TARGET, core_id, "compute_burst", start, cycles,
                {"instructions": instructions},
            )

    def on_stall_skip(self, core_id: int, start: int, cycles: int) -> None:
        """A bulk-skipped fully-stalled stretch (waiting on a fill)."""
        self.metrics.counter("core.stall_skip_cycles").inc(cycles)
        tracer = self.tracer
        if tracer is not None:
            tracer.complete(PID_TARGET, core_id, "stall", start, cycles)

    def on_slack_stall(self, core_id: int, local_time: int,
                       max_local: Optional[int]) -> None:
        """A core blocked at its slack-window edge (``max_local_time``)."""
        self.metrics.counter("core.slack_stalls").inc()
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                PID_TARGET, core_id, "slack_stall", local_time,
                {"max_local": max_local},
            )

    def on_sync_wait(self, core_id: int, start: int, grant_ts: int) -> None:
        """A descheduled sync wait resolved by a grant stamped
        ``grant_ts`` (span on the waiting core's target track)."""
        dur = grant_ts - start
        if dur < 0:
            dur = 0
        self.metrics.counter("core.sync_waits").inc()
        self.metrics.histogram("core.sync_wait_cycles").observe(dur)
        tracer = self.tracer
        if tracer is not None:
            tracer.complete(PID_TARGET, core_id, "sync_wait", start, dur)

    def on_fill(self, core_id: int) -> None:
        """A bus transaction completed into a core's L1."""
        self.metrics.counter("core.fills").inc()

    def on_sync_resume(self, core_id: int) -> None:
        """A lock grant / barrier release resumed a core's pipeline."""
        self.metrics.counter("core.sync_resumes").inc()

    # ------------------------------------------------------------------ #
    # Manager probes (ManagerState / ManagerRunner / Scheduler)
    # ------------------------------------------------------------------ #

    def on_gq_event(self, kind_name: str) -> None:
        """One GQ event served (mix of traffic by request kind)."""
        self.metrics.counter(f"manager.served.{kind_name}").inc()

    def on_bus_grant(
        self, core_id: int, ts: int, grant: int, done: int, line_addr: int,
        op_name: str,
    ) -> None:
        """The snooping bus granted a request stamped ``ts`` at ``grant``;
        data is ready at ``done``."""
        self.metrics.counter("manager.bus_grants").inc()
        self.metrics.histogram("bus.grant_delay_cycles").observe(grant - ts)
        self.metrics.histogram("bus.service_latency_cycles").observe(done - grant)
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                PID_TARGET, TID_MANAGER, "bus_grant", grant,
                {"core": core_id, "line": line_addr, "op": op_name, "ready": done},
            )

    def on_sync_grant(self, core_id: int, grant_ts: int) -> None:
        """The manager delivered a lock grant / barrier release."""
        self.metrics.counter("manager.sync_grants").inc()
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                PID_TARGET, TID_MANAGER, "sync_grant", grant_ts, {"core": core_id}
            )

    def on_violation(self, record) -> None:
        """One detected simulation violation (bus or map)."""
        self.metrics.counter(f"violations.{record.vtype}").inc()
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                PID_TARGET, TID_MANAGER, "violation", record.global_time,
                {"type": record.vtype, "core": record.core_id, "ts": record.ts},
            )

    def on_manager_service(
        self, host_start: float, cost_ns: float, served: int, merged: int,
        global_time: int,
    ) -> None:
        """One non-idle manager service step (span on the host timeline)."""
        self.metrics.counter("manager.service_steps").inc()
        self.metrics.counter("manager.events_served").inc(served)
        self.metrics.histogram("manager.batch_size").observe(served)
        tracer = self.tracer
        if tracer is None:
            return
        tracer.complete(
            PID_HOST, TID_MANAGER, "service", host_start / 1000.0,
            cost_ns / 1000.0, {"served": served, "merged": merged},
        )
        if global_time != self._last_global_time:
            self._last_global_time = global_time
            tracer.counter(
                PID_TARGET, TID_MANAGER, "global_time", global_time,
                {"cycles": global_time},
            )

    # ------------------------------------------------------------------ #
    # Scheme probes (adaptive slack / adaptive quantum)
    # ------------------------------------------------------------------ #

    def on_window_adjust(self, kind: str, global_time: int, window: int) -> None:
        """A feedback controller changed its window (slack bound or
        quantum) — the trajectory the paper's section 4 is about."""
        self.metrics.counter("scheme.adjustments").inc()
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                PID_TARGET, TID_MANAGER, "window_adjust", global_time,
                {"kind": kind, "window": window},
            )
            tracer.counter(
                PID_TARGET, TID_MANAGER, "slack_window", global_time,
                {"window": window},
            )

    # ------------------------------------------------------------------ #
    # Speculation probes (CheckpointController)
    # ------------------------------------------------------------------ #

    def on_checkpoint(
        self,
        host_start: float,
        cost_ns: float,
        boundary: int,
        pages: int,
        host_pages: int = 0,
    ) -> None:
        """A global checkpoint was established at ``boundary``.

        ``pages`` is the modeled (target) touched-page count that priced
        the checkpoint; ``host_pages`` is the number of dirty SoA pages
        the copy-on-write capture actually copied into its shadows.
        """
        self.metrics.counter("controller.checkpoints").inc()
        self.metrics.histogram("controller.checkpoint_pages").observe(pages)
        self.metrics.histogram("controller.checkpoint_host_pages").observe(host_pages)
        tracer = self.tracer
        if tracer is not None:
            tracer.complete(
                PID_HOST, TID_CONTROLLER, "checkpoint", host_start / 1000.0,
                cost_ns / 1000.0,
                {"boundary": boundary, "pages": pages, "host_pages": host_pages},
            )

    def on_rollback(
        self, host_start: float, cost_ns: float, global_time: int, wasted: int
    ) -> None:
        """A tracked violation triggered a rollback; the cycle-by-cycle
        replay window opens when the rollback cost has been paid."""
        self.metrics.counter("controller.rollbacks").inc()
        self.metrics.counter("controller.wasted_target_cycles").inc(wasted)
        tracer = self.tracer
        if tracer is not None:
            tracer.complete(
                PID_HOST, TID_CONTROLLER, "rollback", host_start / 1000.0,
                cost_ns / 1000.0, {"at_global_time": global_time, "wasted": wasted},
            )
        self._replay_start_host = host_start + cost_ns
        self._replay_boundary = global_time

    def on_replay_end(self, host_end: float) -> None:
        """The forced cycle-by-cycle replay reached the next boundary."""
        start = self._replay_start_host
        self._replay_start_host = None
        self.metrics.counter("controller.replays").inc()
        tracer = self.tracer
        if tracer is not None and start is not None:
            tracer.complete(
                PID_HOST, TID_CONTROLLER, "replay", start / 1000.0,
                max(0.0, host_end - start) / 1000.0,
                {"from_global_time": self._replay_boundary},
            )

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #

    def to_metrics_doc(self, meta: Optional[dict] = None) -> dict:
        """The metrics + samples document (JSON-serializable)."""
        doc = {"schema": METRICS_SCHEMA, "meta": meta or {}}
        doc.update(self.metrics.to_dict())
        doc["samples"] = self.sampler.to_dict() if self.sampler is not None else None
        if self.tracer is not None:
            doc["trace"] = {
                "recorded_events": len(self.tracer),
                "dropped_events": self.tracer.dropped,
            }
        return doc

    def write_metrics(self, path, meta: Optional[dict] = None) -> None:
        """Write the metrics document to ``path`` as pretty JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_metrics_doc(meta), fh, indent=2)
            fh.write("\n")
