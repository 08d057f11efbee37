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

from repro.telemetry.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    sum_counter_docs,
)
from repro.telemetry.sampler import SAMPLE_COLUMNS, Sampler
from repro.telemetry.session import METRICS_SCHEMA, TelemetrySession
from repro.telemetry.tracer import (
    PID_HOST,
    PID_TARGET,
    TID_CONTROLLER,
    TID_MANAGER,
    TRACE_SCHEMA,
    Tracer,
    load_trace,
    summarize_trace,
    validate_chrome_trace,
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
