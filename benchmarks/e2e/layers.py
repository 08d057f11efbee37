"""The traced rep: spans around each public call, plus per-layer numbers.

A traced child makes two passes over its workload in one process — a plain
pass, then an instrumented one (``cProfile`` for the kernel workloads, span
recording for the request streams) — so ``trace.overhead_x`` is their
ratio, and then times direct calls into single layers.  Nothing measured
here is an end-to-end number: those come from untraced reps only, and a
traced run is compared across commits for shares and exact counts, never
for time.

Spans are recorded here, in the benchmark's own files, around the calls
into each layer; spans inside the program are a later change.
"""

from __future__ import annotations

import cProfile
import gc
import json
import pathlib
import pstats
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional

import suite

#: Host self-time is summed into these, by path under ``src/repro/``.
_LAYER_OF_PATH = (
    ("cpu/", "cpu"),
    ("memory/", "memory"),
    ("core/scheduler.py", "scheduler"),
    ("core/manager.py", "manager"),
    ("core/schemes/", "schemes"),
    ("core/threads.py", "threads"),
    ("core/snapshot.py", "snapshot"),
    ("core/checkpoint.py", "snapshot"),
    ("core/speculative.py", "snapshot"),
    ("core/violations.py", "violations"),
    ("isa/", "isa"),
    ("sync/", "sync"),
    ("telemetry/", "telemetry"),
)
SELF_TIME_LAYERS = sorted({layer for _, layer in _LAYER_OF_PATH}) + ["other"]


class Tracer:
    """Spans kept in memory; the parent writes them out when it ends."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []

    def span(self, name: str, trace_id: str = "") -> "_Span":
        """A span caused by the innermost open one, sharing its trace id
        unless given its own."""
        parent = self._open[-1] if self._open else None
        if not trace_id and parent is not None:
            trace_id = self.spans[parent]["trace_id"]
        return _Span(self, name, parent, trace_id)

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]


class _Span:
    def __init__(self, tracer: Tracer, name: str, parent: Optional[int], trace_id: str) -> None:
        self.tracer = tracer
        self.record = {"name": name, "start": 0.0, "end": 0.0, "parent": parent, "trace_id": trace_id}

    def __enter__(self) -> int:
        spans = self.tracer.spans
        self.record["id"] = len(spans)
        spans.append(self.record)
        self.tracer._open.append(self.record["id"])
        self.record["start"] = time.monotonic()
        return self.record["id"]

    def __exit__(self, *exc_info: Any) -> None:
        self.record["end"] = time.monotonic()
        self.tracer._open.pop()


def _median_us(call: Callable[[], Any], iterations: int) -> float:
    samples = []
    for _ in range(iterations):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e6


def _percentile(values: List[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))] if ordered else 0.0


# --------------------------------------------------------------------- #
# Kernel layers
# --------------------------------------------------------------------- #


def self_time_by_layer(profile: cProfile.Profile) -> Dict[str, float]:
    """``tottime`` summed by ``repro.<module>``.  A builtin's time is
    charged to the modules that called it (``cProfile`` keeps it per
    caller), so ``other`` is not a dump for every ``len`` and ``heappush``."""
    totals = dict.fromkeys(SELF_TIME_LAYERS, 0.0)
    for (filename, _, _), (_, _, tottime, _, callers) in pstats.Stats(profile).stats.items():
        if filename == "~" and callers:
            for (caller_file, _, _), (_, _, caller_tottime, _) in callers.items():
                totals[_layer_of(caller_file)] += caller_tottime
        else:
            totals[_layer_of(filename)] += tottime
    return totals


def _layer_of(filename: str) -> str:
    if filename.endswith("/copy.py"):
        return "snapshot"  # stdlib deepcopy: in a kernel run only snapshots call it
    _, found, rest = filename.replace("\\", "/").rpartition("/repro/")
    if found:
        for prefix, layer in _LAYER_OF_PATH:
            if rest.startswith(prefix):
                return layer
    return "other"


def cut_machine_calls(spec: Any, target_cycles: int) -> Dict[str, float]:
    """Direct snapshot and codec calls on a machine cut half-way through
    its run.  The machine is encoded at the cut, then run 500 more cycles
    so the snapshot has dirty pages to copy, as a mid-interval one does."""
    from repro.core.checkpoint import restore_snapshot, take_snapshot
    from repro.core.epochs import encode_machine, make_stop_predicate
    from repro.core.scheduler import Scheduler
    from repro.core.simulation import DEFAULT_MAX_TARGET_CYCLES

    simulation = suite.build_simulation(spec)
    scheduler = Scheduler(simulation, simulation.host)
    if simulation.controller is not None:
        simulation.controller.on_run_start(scheduler)
    reached = [0]

    def note_time(outcome: Any) -> bool:
        reached[0] = outcome.global_time
        return at_cut(outcome)

    at_cut = make_stop_predicate(simulation, target_cycles // 2)
    gc.disable()
    try:
        scheduler.run(DEFAULT_MAX_TARGET_CYCLES, note_time)
        start = time.perf_counter()
        payload = encode_machine(simulation, scheduler)
        encode_s = time.perf_counter() - start
        resume_to = reached[0] + 500
        scheduler.run(DEFAULT_MAX_TARGET_CYCLES, lambda outcome: outcome.global_time >= resume_to)
        start = time.perf_counter()
        snapshot = take_snapshot(simulation.state, resume_to, 0.0)
        take_s = time.perf_counter() - start
        start = time.perf_counter()
        restore_snapshot(snapshot)
        restore_s = time.perf_counter() - start
    finally:
        gc.enable()
    return {
        "snapshot.take_ms": take_s * 1e3,
        "snapshot.restore_ms": restore_s * 1e3,
        "epochs.encode_ms": encode_s * 1e3,
        "epochs.encoded_kb": len(json.dumps(payload)) / 1024.0,
    }


def _traced_kernel(name: str, seed: int, quick: bool, tracer: Tracer) -> Dict[str, Any]:
    rep = suite.make_rep(name, seed, quick, tracer)
    with tracer.span("setup"):
        rep.setup()
    ready_t = time.monotonic()
    ops = rep.run()
    plain_s = tracer.durations("simulation.run")[0]
    report = ops[0].report
    with tracer.span("report.digest"):
        report.digest()
    with tracer.span("report.to_dict"):
        report.to_dict()

    profiled = suite.make_rep(name, seed, quick)
    profiled.setup()
    profile = cProfile.Profile()
    start = time.perf_counter()
    profile.enable()
    ops += profiled.run()
    profile.disable()
    profiled_s = time.perf_counter() - start

    layers = {
        "workloads.build_ms": tracer.durations("workloads.build")[0] * 1e3,
        "simulation.init_ms": tracer.durations("simulation.init")[0] * 1e3,
        "simulation.run_s": plain_s,
        "report.digest_us": tracer.durations("report.digest")[0] * 1e6,
        "report.to_dict_us": tracer.durations("report.to_dict")[0] * 1e6,
        "core.ns_per_step": plain_s * 1e9 / (report.core_steps + report.manager_steps),
        "trace.overhead_x": profiled_s / plain_s,
    }
    for layer, seconds in self_time_by_layer(profile).items():
        layers[f"{layer}.self_s"] = seconds
    layers.update(cut_machine_calls(rep.specs[0], report.target_cycles))
    return {"ready_t": ready_t, "wall_s": plain_s, "ops": ops, "layers": layers}


# --------------------------------------------------------------------- #
# Request-stream layers
# --------------------------------------------------------------------- #


def _traced_stream(name: str, seed: int, quick: bool, tracer: Tracer) -> Dict[str, Any]:
    plain = suite.make_rep(name, seed, quick, root="plain")
    try:
        plain.setup()
        start = time.perf_counter()
        ops = plain.run()
        plain_s = time.perf_counter() - start
    finally:
        plain.teardown()

    rep = suite.make_rep(name, seed, quick, tracer, root="traced")
    try:
        with tracer.span("setup"):
            rep.setup()
        ready_t = time.monotonic()
        start = time.perf_counter()
        with tracer.span("stream"):
            traced_ops = rep.run()
        traced_s = time.perf_counter() - start
        layers = _stream_layers(rep, traced_ops)
    finally:
        rep.teardown()
    layers["trace.overhead_x"] = traced_s / plain_s
    wal = list(pathlib.Path("traced").glob("*.wal"))
    layers["store.wal_records"] = sum(len(p.read_bytes().splitlines()) for p in wal)
    layers["store.wal_bytes"] = sum(p.stat().st_size for p in wal)
    return {"ready_t": ready_t, "wall_s": plain_s, "ops": ops + traced_ops, "layers": layers}


def _stream_layers(rep: Any, ops: List[suite.Op]) -> Dict[str, float]:
    """Client-side latencies, then what the daemon itself recorded."""
    client = rep.client
    done = [op for op in ops if op.error is None]
    jobs_ms = [op.submit_ms + op.result_ms for op in done]
    layers = {
        "client.submit_ms_p50": _percentile([op.submit_ms for op in done], 0.5),
        "client.result_ms_p50": _percentile([op.result_ms for op in done], 0.5),
        "client.job_ms_p50": _percentile(jobs_ms, 0.5),
        # A p99 needs ten samples beyond it: only the long stream has them.
        "client.job_ms_p99": _percentile(jobs_ms, 0.99) if len(jobs_ms) >= 1000 else 0.0,
    }
    queue_wait, run_span, kernel, workers = [], [], [], {}
    for op in done:
        if op.source != "run":
            continue
        job = client.status(op.job_id)
        queue_wait.append((job["started_at"] - job["submitted_at"]) * 1e3)
        run_span.append((job["finished_at"] - job["started_at"]) * 1e3)
        kernel.append(job["wall_s"] * 1e3)
        workers[job["worker"]] = workers.get(job["worker"], 0) + 1
    layers["dispatch.queue_wait_ms_p50"] = _percentile(queue_wait, 0.5)
    layers["dispatch.run_span_ms_p50"] = _percentile(run_span, 0.5)
    layers["pool.kernel_ms_p50"] = _percentile(kernel, 0.5)
    layers["pool.spawn_overhead_ms_p50"] = _percentile(
        [span - wall for span, wall in zip(run_span, kernel)], 0.5
    )
    for source in ("run", "cache", "dedup"):
        layers[f"service.source_{source}"] = sum(1 for op in done if op.source == source)
    health = client.health()
    counters = health["metrics"]["counters"]
    prefix = "fabric" if health.get("role") == "coordinator" else "service"
    layers["service.retries"] = counters.get("service.retries", 0)
    layers["service.rejected"] = counters.get(f"{prefix}.rejected", 0)
    layers["fabric.redispatches"] = counters.get("fabric.redispatched", 0)
    layers["fabric.evictions"] = counters.get("fabric.evictions", 0)
    # Share of the run jobs the less loaded worker took: 0.5 is even.
    fleet = [count for worker, count in workers.items() if worker is not None]
    layers["fabric.worker_balance"] = min(fleet) / sum(fleet) if len(fleet) > 1 else 0.0
    return layers


# --------------------------------------------------------------------- #
# Direct calls into the service layers
# --------------------------------------------------------------------- #


def direct_calls(spec: Any, report: Any, iterations: int) -> Dict[str, float]:
    """One layer per call, on the workload's own spec and report."""
    from repro.fabric.membership import Membership, WorkerAddress
    from repro.fabric.shared_store import SharedReportStore
    from repro.harness.cache import ReportCache, spec_key
    from repro.core.report import SimulationReport
    from repro.service.protocol import (
        PROTOCOL_VERSION,
        decode_line,
        encode_line,
        spec_from_wire,
        spec_to_wire,
    )
    from repro.service.server import ServiceConfig, ServiceDaemon
    from repro.service.store import JobStore

    root = pathlib.Path("direct")
    root.mkdir()
    line = encode_line({"v": PROTOCOL_VERSION, "op": "submit", "spec": spec_to_wire(spec)})
    key = spec_key(spec)
    digest = report.digest()
    plain = report.to_dict()
    cache = ReportCache(root / "cache")
    shared = SharedReportStore(root / "cache")
    store = JobStore(root / "direct.wal", fsync=True)
    store.open()
    wire = spec_to_wire(spec)
    membership = Membership()
    for n in range(2):
        membership.join(WorkerAddress.unix(root / f"worker-{n}.sock"))

    layers = {
        "protocol.encode_us": _median_us(
            lambda: encode_line({"v": PROTOCOL_VERSION, "op": "submit", "spec": spec_to_wire(spec)}), iterations
        ),
        "protocol.decode_us": _median_us(lambda: spec_from_wire(decode_line(line)["spec"]), iterations),
        "cache.spec_key_us": _median_us(lambda: spec_key(spec), iterations),
        "cache.put_us": _median_us(lambda: cache.put(key, report, 0.1), iterations),
        "cache.get_us": _median_us(lambda: cache.get(key), iterations),
        "store.append_us": _median_us(lambda: store.new_job(wire, 0, None, 0.0), iterations),
        "report.from_dict_us": _median_us(lambda: SimulationReport.from_dict(plain), iterations),
        "shared_store.fetch_us": _median_us(lambda: shared.fetch_verified(key, digest), iterations),
        "membership.lookup_us": _median_us(lambda: membership.owner(key), iterations),
    }
    store.close()

    starts, stops = [], []
    for n in range(5):
        config = ServiceConfig(
            socket_path=root / "daemon.sock", wal_path=root / f"daemon-{n}.wal", cache_dir=root / "cache"
        )
        start = time.perf_counter()
        daemon = ServiceDaemon(config).start()
        starts.append(time.perf_counter() - start)
        start = time.perf_counter()
        daemon.stop()
        stops.append(time.perf_counter() - start)
    layers["daemon.start_ms"] = statistics.median(starts) * 1e3
    layers["daemon.stop_ms"] = statistics.median(stops) * 1e3

    def interpreter_ms(code: str) -> float:
        samples = []
        for _ in range(5):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True)
            samples.append(time.perf_counter() - start)
        return statistics.median(samples) * 1e3

    layers["python.spawn_ms"] = interpreter_ms("pass")
    # What a spawned job process imports before it can run a spec.
    layers["python.import_ms"] = interpreter_ms("import repro.harness.pool") - layers["python.spawn_ms"]
    return layers


def traced_rep(name: str, seed: int, quick: bool) -> Dict[str, Any]:
    """The whole traced child: both passes, the direct calls, the spans."""
    tracer = Tracer()
    with tracer.span("rep", trace_id=name):
        if name in ("service.fresh", "fabric.dup"):
            result = _traced_stream(name, seed, quick, tracer)
            # The service layers, called on a spec and report of this stream.
            first = next(op for op in result["ops"] if op.report is not None)
            spec = suite.workload_specs(name, seed, quick)[0][first.spec_index]
            with tracer.span("direct_calls"):
                result["layers"].update(direct_calls(spec, first.report, 100 if quick else 1000))
        else:
            result = _traced_kernel(name, seed, quick, tracer)
    result.update(suite.summarize_ops(result.pop("ops")))
    result["spans"] = tracer.spans
    return result
