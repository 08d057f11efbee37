#!/usr/bin/env python3
"""Trace capture/replay and experiment export.

1. Records the Barnes kernel's architectural trace to a file, replays it
   as a trace-driven workload, and shows the runs are identical.
2. Runs a small Figure-3-style sweep and exports it as CSV, JSON, and an
   ASCII scatter plot.
3. Re-runs Barnes with a telemetry session attached: writes a
   Perfetto-loadable Chrome trace plus a metrics/time-series document,
   and shows the report digest is identical to the untraced run.

Usage::

    python examples/trace_and_export.py [output-dir]
"""

import pathlib
import sys

from repro import Simulation, SlackConfig
from repro.harness.experiments import figure3
from repro.harness.export import ascii_scatter, figure_series, to_csv, to_json
from repro.harness.runner import ExperimentRunner
from repro.isa.trace import record_workload, trace_workload
from repro.telemetry import TelemetrySession, summarize_trace
from repro.util import SplitMix64
from repro.workloads import make_workload


def trace_demo(out_dir: pathlib.Path) -> None:
    workload = make_workload("barnes", num_threads=8, scale=0.5)
    seed = 12345

    # A Simulation derives the workload seed from its own: reproduce that
    # derivation so the captured trace matches the execution-driven run.
    seeds = SplitMix64(seed)
    seeds.next_u64()  # the scheme-policy seed is drawn first
    trace_text = record_workload(workload, seed=seeds.next_u64())
    trace_path = out_dir / "barnes.trace"
    trace_path.write_text(trace_text)
    print(f"recorded {len(trace_text.splitlines())} trace records -> {trace_path}")

    direct = Simulation(workload, scheme=SlackConfig(bound=4), seed=seed).run()
    replayed = Simulation(
        trace_workload(trace_text), scheme=SlackConfig(bound=4), seed=seed
    ).run()
    print(f"execution-driven: {direct.target_cycles} cycles")
    print(f"trace-driven    : {replayed.target_cycles} cycles "
          f"(identical: {direct.target_cycles == replayed.target_cycles})\n")


def export_demo(out_dir: pathlib.Path) -> None:
    runner = ExperimentRunner()
    result = figure3(
        runner, bounds=(1, 4, 16, 60, 250), benchmarks=("barnes",), scale=0.5
    )
    (out_dir / "figure3.csv").write_text(to_csv(result))
    (out_dir / "figure3.json").write_text(to_json(result))
    print(f"wrote {out_dir / 'figure3.csv'} and .json\n")
    print(
        ascii_scatter(
            figure_series(result, "barnes/bus", "barnes/map"),
            x_label="slack bound",
            y_label="violations/cycle",
            log_x=True,
            title="Figure 3 (barnes, scaled): violation rates vs slack bound",
        )
    )


def telemetry_demo(out_dir: pathlib.Path) -> None:
    workload = make_workload("barnes", num_threads=8, scale=0.5)
    baseline = Simulation(workload, scheme=SlackConfig(bound=4), seed=12345).run()

    session = TelemetrySession(sample_period=1000)
    traced = Simulation(
        workload, scheme=SlackConfig(bound=4), seed=12345, telemetry=session
    ).run()

    trace_path = out_dir / "barnes_telemetry.json"
    metrics_path = out_dir / "barnes_metrics.json"
    session.tracer.write_chrome(trace_path)
    session.write_metrics(
        metrics_path, meta={"benchmark": "barnes", "digest": traced.digest()}
    )
    print(f"\nwrote {trace_path} (open in Perfetto / chrome://tracing) "
          f"and {metrics_path}")
    print("telemetry is observation-only: digest identical to untraced run:",
          traced.digest() == baseline.digest())
    print("\n" + summarize_trace(session.tracer.chrome_doc()))


def main() -> None:
    out_dir = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_demo(out_dir)
    export_demo(out_dir)
    telemetry_demo(out_dir)


if __name__ == "__main__":
    main()
