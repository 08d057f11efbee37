"""``repro.telemetry`` — tracing, metrics, and profiling for slack runs.

The simulator's terminal :class:`~repro.core.report.SimulationReport`
summarizes a run; this package makes the run's *dynamics* observable
while it executes:

- :class:`MetricsRegistry` — counters / gauges / histograms with a
  null-sink fast path, so disabled telemetry costs near zero in the
  optimized hot loop;
- :class:`Tracer` — per-core-thread spans and instants (compute bursts,
  L1 misses, bus grants, slack stalls, sync waits, checkpoints,
  rollbacks, replay windows, violations) exported as Chrome-trace /
  Perfetto JSON or a compact JSONL stream;
- :class:`Sampler` — periodic time series of violation rate, adaptive
  slack-bound trajectory, global-time progress, and queue depths;
- :class:`TelemetrySession` — the bundle a
  :class:`~repro.core.simulation.Simulation` accepts via its
  ``telemetry=`` argument and the engine's probe hooks call.

The hard contract: telemetry (on, off, or disabled) never changes a
report digest — probes observe, they never perturb.
"""

from typing import Any

from repro.telemetry.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    sum_counter_docs,
)

__all__ = [
    "TelemetrySession",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "sum_counter_docs",
    "Tracer",
    "Sampler",
    "SAMPLE_COLUMNS",
    "METRICS_SCHEMA",
    "TRACE_SCHEMA",
    "PID_TARGET",
    "PID_HOST",
    "TID_MANAGER",
    "TID_CONTROLLER",
    "load_trace",
    "validate_chrome_trace",
    "summarize_trace",
]


def __getattr__(name: str) -> Any:
    """Load the sampler, session and tracer on first use (PEP 562).

    The metrics names above are eager: the cache, the service and the
    fabric use them at start.  Everything else is needed only by a run
    that records, so a kernel process that never attaches a session never
    imports them.
    """
    if name in ("Sampler", "SAMPLE_COLUMNS"):
        from repro.telemetry import sampler as module
    elif name in ("TelemetrySession", "METRICS_SCHEMA"):
        from repro.telemetry import session as module
    elif name in (
        "Tracer",
        "TRACE_SCHEMA",
        "PID_TARGET",
        "PID_HOST",
        "TID_MANAGER",
        "TID_CONTROLLER",
        "load_trace",
        "validate_chrome_trace",
        "summarize_trace",
    ):
        from repro.telemetry import tracer as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)
