"""Time-parallel execution of one long run: speculative epoch pipelining.

PR-3 parallelized *across* runs and the fabric across *hosts*; this module
parallelizes across **time** within a single run — the last serial
bottleneck in the stack.  The idea is the paper's own speculation loop
(checkpoint, detect divergence, roll back and replay) applied to the time
axis, the way parti-gem5 partitions a gem5 run:

1. **Plan** — split the run into N epochs at cut positions recorded by a
   previous pass over the same configuration (the *epoch-state cache*).
2. **Predict** — each epoch's start state is predicted to be the cached
   machine state at its cut (for epoch 0 the constructed initial state,
   which is always exact).
3. **Speculate** — all N epochs execute concurrently in worker processes
   via the existing :class:`~repro.harness.pool.ParallelExecutor` seam,
   each from its predicted start, each stopping at the next cut.
4. **Stitch** — epoch ``i``'s *actual* end state (as canonical wire
   bytes, SHA-256-compared) is checked against epoch ``i+1``'s predicted
   start; a mismatch marks epoch ``i+1`` diverged and it is re-executed
   from the actual state.  Epoch 0 is correct by construction, so
   induction makes the committed chain exact: the final report is
   **bit-identical** to the serial run's for every scheme kind.

The first run of a configuration has no recorded states; it executes the
*cold* path — one in-process chained pass over the same
:class:`~repro.core.simulation.Run` handle (advance to a cut, capture,
advance again), which costs only the capture overhead, primes the cache,
and still produces the exact report.

Machine states cross process boundaries as the versioned, pickle-free
wire of :mod:`repro.core.epochs` rendered to canonical JSON bytes here
(same codec discipline as ``service/protocol.py``: schema-versioned
plain data, floats via ``float.hex``, structured errors on skew).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.epochs import MACHINE_WIRE_VERSION, encode_machine, install_machine
from repro.core.report import SimulationReport
from repro.core.simulation import Run
from repro.errors import EpochError
from repro.harness.cache import RunSpec, default_cache_dir, spec_key
from repro.harness.pool import ParallelExecutor, build_simulation
from repro.telemetry import TelemetrySession
from repro.util import atomic_write

__all__ = [
    "EpochJob",
    "EpochStateCache",
    "TimeParallelResult",
    "TimeParallelStats",
    "machine_wire",
    "run_time_parallel",
    "wire_digest",
]

#: Cut stride (target cycles) for a cold pass when the run's total length
#: is unknown; matches the bench matrix's checkpoint interval so cuts on
#: speculative runs land on natural checkpoint boundaries.
DEFAULT_COLD_STRIDE = 5000

#: Runaway guard for the cold chained pass (cuts, not cycles).
_MAX_COLD_CUTS = 10_000


def machine_wire(payload: Dict[str, Any]) -> bytes:
    """Render a machine payload as canonical wire bytes (sorted keys,
    minimal separators — byte-stable across processes and sessions)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def wire_digest(wire: bytes) -> str:
    """Content digest used for predicted-vs-actual state comparison."""
    return hashlib.sha256(wire).hexdigest()


@dataclasses.dataclass(frozen=True)
class EpochJob:
    """One epoch's work order (crosses the process boundary).

    ``start_wire`` is the predicted start state (None = the constructed
    initial state, exact by definition); ``stop_boundary`` is the cut
    position ending the epoch (None = run to completion).
    """

    index: int
    spec: RunSpec
    start_wire: Optional[bytes]
    stop_boundary: Optional[int]


# --------------------------------------------------------------------- #
# Epoch execution (runs inside pool workers and in-process)
# --------------------------------------------------------------------- #


def _capture(run: Run) -> bytes:
    """The machine at the run's current cut, as canonical wire bytes."""
    return machine_wire(encode_machine(run.sim, run.scheduler))


def _run_epoch(job: EpochJob) -> Dict[str, Any]:
    """Execute one epoch; return a plain-data outcome.

    ``{"status": "finished", "report": ..., "digest": ...}`` when the
    workload completed inside the epoch, else ``{"status": "cut",
    "wire": ..., "digest": ..., "position": ...}`` with the machine state
    at the cut.
    """
    sim = build_simulation(job.spec)
    run = sim.start(at_time_zero=job.start_wire is None)
    if job.start_wire is not None:
        install_machine(sim, run.scheduler, json.loads(job.start_wire.decode("utf-8")))
    if run.advance(job.stop_boundary):
        report = run.report()
        return {
            "status": "finished",
            "report": report.to_dict(),
            "digest": report.digest(),
        }
    wire = _capture(run)
    return {
        "status": "cut",
        "wire": wire,
        "digest": wire_digest(wire),
        "position": run.position,
    }


def _epoch_worker(index: int, job: EpochJob, collect_metrics: bool):
    """Top-level (picklable) pool-worker body for one epoch."""
    start = time.perf_counter()  # repro: noqa[RPR001] epoch-wall telemetry; never feeds the digest
    payload = _run_epoch(job)
    return index, payload, time.perf_counter() - start, None  # repro: noqa[RPR001] epoch-wall telemetry; never feeds the digest


# --------------------------------------------------------------------- #
# Epoch-state cache
# --------------------------------------------------------------------- #


class EpochStateCache:
    """On-disk machine states from a prior pass, keyed by cut position.

    Layout (under ``<cache root>/epochs``)::

        <key[:2]>/<key>/meta.json     {"schema", "total", "boundaries"}
        <key[:2]>/<key>/b<pos>.wire   canonical machine wire bytes

    ``key`` is :func:`~repro.harness.cache.spec_key` — the same
    schema+semantics-versioned configuration hash as the report cache, so
    a semantics change invalidates recorded states automatically.  Writes
    are atomic (tmp + rename) and unreadable entries are misses; a stale
    or corrupt state can only cost a divergence + re-execution, never
    correctness.
    """

    def __init__(self, spec: RunSpec, root: Optional[pathlib.Path] = None) -> None:
        base = pathlib.Path(root) if root is not None else default_cache_dir()
        key = spec_key(spec)
        self.dir = base / "epochs" / key[:2] / key

    def _state_path(self, position: int) -> pathlib.Path:
        return self.dir / f"b{position}.wire"

    def load_meta(self) -> Optional[Dict[str, Any]]:
        try:
            meta = json.loads((self.dir / "meta.json").read_text())
        except (OSError, ValueError):
            return None
        if meta.get("schema") != MACHINE_WIRE_VERSION:
            return None
        if not isinstance(meta.get("total"), int) or not isinstance(
            meta.get("boundaries"), list
        ):
            return None
        return meta

    def store_meta(self, total: int, boundaries: List[int]) -> None:
        self._write(
            self.dir / "meta.json",
            json.dumps(
                {
                    "schema": MACHINE_WIRE_VERSION,
                    "total": total,
                    "boundaries": sorted(boundaries),
                }
            ).encode("utf-8"),
        )

    def load_state(self, position: int) -> Optional[bytes]:
        try:
            return self._state_path(position).read_bytes()
        except OSError:
            return None

    def store_state(self, position: int, wire: bytes) -> None:
        self._write(self._state_path(position), wire)

    def _write(self, path: pathlib.Path, blob: bytes) -> None:
        """Atomic best-effort write (the cache is an accelerator, not a
        correctness dependency)."""
        try:
            atomic_write(path, blob)
        except OSError:
            pass


# --------------------------------------------------------------------- #
# Orchestration
# --------------------------------------------------------------------- #


@dataclasses.dataclass
class TimeParallelStats:
    """Telemetry for one time-parallel run."""

    mode: str  # "serial" | "cold" | "warm"
    epochs: int
    boundaries: List[int]
    launched: int = 0
    predicted: int = 0
    hits: int = 0
    diverged: int = 0
    reexecuted: int = 0
    wasted: int = 0  # speculative epochs discarded after an early finish
    epoch_walls: List[float] = dataclasses.field(default_factory=list)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.predicted if self.predicted else 1.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "epochs": self.epochs,
            "boundaries": list(self.boundaries),
            "launched": self.launched,
            "predicted": self.predicted,
            "hits": self.hits,
            "hit_rate": self.hit_rate,
            "diverged": self.diverged,
            "reexecuted": self.reexecuted,
            "wasted": self.wasted,
            "epoch_walls_s": list(self.epoch_walls),
        }


@dataclasses.dataclass
class TimeParallelResult:
    """The stitched run: the exact report plus the epoch telemetry."""

    report: SimulationReport
    digest: str
    stats: TimeParallelStats


def _report_from(payload: Dict[str, Any]) -> Tuple[SimulationReport, str]:
    report = SimulationReport.from_dict(payload["report"])
    digest = report.digest()
    if digest != payload["digest"]:
        raise EpochError(
            "epoch worker's report digest does not reproduce after the "
            "wire round trip (report schema drift between processes?)"
        )
    return report, digest


def _run_cold(
    spec: RunSpec, epochs: int, cache: EpochStateCache
) -> TimeParallelResult:
    """Chained pass: advance to a cut, capture, advance again on one
    :class:`Run` — costs only the capture overhead, records every cut
    state, and produces the exact report (a cut leaves the run
    bit-for-bit resumable)."""
    run = build_simulation(spec).start()
    stride = DEFAULT_COLD_STRIDE
    if spec.checkpoint is not None:
        stride = max(stride, spec.checkpoint.interval)
    kind = getattr(spec.scheme, "checkpoint", None)
    if kind is not None:  # SpeculativeConfig carries its own interval
        stride = max(stride, kind.interval)

    boundaries: List[int] = []
    target = stride
    while not run.advance(target):
        if len(boundaries) >= _MAX_COLD_CUTS:
            raise EpochError(
                f"cold pass exceeded {_MAX_COLD_CUTS} cuts without finishing "
                "(runaway simulation or zero-width cut stride)"
            )
        position = run.position
        cache.store_state(position, _capture(run))
        boundaries.append(position)
        target = position + stride
    report = run.report()
    cache.store_meta(report.target_cycles, boundaries)
    run_stats = TimeParallelStats(
        mode="cold", epochs=epochs, boundaries=boundaries, launched=len(boundaries) + 1
    )
    return TimeParallelResult(report, report.digest(), run_stats)


def _plan_boundaries(meta: Dict[str, Any], epochs: int) -> List[int]:
    """Choose ``epochs - 1`` recorded cut positions nearest the ideal
    equal-width grid (recorded positions are the only places a prediction
    exists, so planning off-grid would guarantee cold re-execution)."""
    total = meta["total"]
    recorded = sorted(p for p in meta["boundaries"] if 0 < p < total)
    chosen: List[int] = []
    for i in range(1, epochs):
        ideal = (i * total) // epochs
        if not recorded:
            break
        best = min(recorded, key=lambda p: (abs(p - ideal), p))
        if best not in chosen:
            chosen.append(best)
    return sorted(chosen)


def run_time_parallel(
    spec: RunSpec,
    epochs: int,
    jobs: Optional[int] = None,
    cache_root: Optional[pathlib.Path] = None,
    telemetry: Optional[TelemetrySession] = None,
) -> TimeParallelResult:
    """Run one configuration split into ``epochs`` speculative epochs.

    Returns the stitched result, whose report is bit-identical to the
    serial run's.  The first pass over a configuration (or after a cache
    clear) runs the cold chained path and records cut states; subsequent
    passes speculate in parallel worker processes (``jobs`` defaults to
    the host CPU count via the pool's resolver) and re-execute only
    diverged epochs.
    """
    if epochs < 1:
        raise EpochError(f"epochs must be >= 1, got {epochs}")
    cache = EpochStateCache(spec, root=cache_root)
    if epochs == 1:
        payload = _run_epoch(EpochJob(0, spec, None, None))
        report, digest = _report_from(payload)
        stats = TimeParallelStats(mode="serial", epochs=1, boundaries=[], launched=1)
        result = TimeParallelResult(report, digest, stats)
        _emit_telemetry(telemetry, stats)
        return result

    meta = cache.load_meta()
    boundaries = _plan_boundaries(meta, epochs) if meta is not None else []
    starts = (
        [None] + [cache.load_state(b) for b in boundaries] if boundaries else [None]
    )
    if not boundaries or any(w is None for w in starts[1:]):
        result = _run_cold(spec, epochs, cache)
        _emit_telemetry(telemetry, result.stats)
        return result

    n = len(boundaries) + 1
    job_list = [
        EpochJob(
            index=i,
            spec=spec,
            start_wire=starts[i],
            stop_boundary=boundaries[i] if i < len(boundaries) else None,
        )
        for i in range(n)
    ]
    stats = TimeParallelStats(
        mode="warm", epochs=epochs, boundaries=boundaries, launched=n, predicted=n - 1
    )
    executor = ParallelExecutor(jobs=jobs, worker=_epoch_worker)
    # Explicit flat costs: EpochJob is not a RunSpec, so the pool's
    # scheme-aware cost heuristic does not apply; epochs are roughly
    # equal-width by construction.
    pooled = executor.map(job_list, costs=[1.0] * n)
    payloads: List[Dict[str, Any]] = []
    for result_item in pooled:
        # The injected worker returns the epoch payload in the report
        # slot of the pool's (index, payload, wall, metrics) contract.
        payloads.append(result_item.report)
        stats.epoch_walls.append(result_item.wall_s)

    # Stitch: epoch 0 is correct by construction; each later epoch is
    # committed only if its predicted start matches its predecessor's
    # actual end, else it re-executes from the actual state.
    current = payloads[0]
    actual_states: Dict[int, bytes] = {}
    for i in range(1, n):
        if current["status"] == "finished":
            stats.wasted += n - i
            break
        boundary = boundaries[i - 1]
        actual_states[boundary] = current["wire"]
        predicted = job_list[i].start_wire
        if predicted is not None and wire_digest(predicted) == current["digest"]:
            stats.hits += 1
            current = payloads[i]
            continue
        stats.diverged += 1
        stats.reexecuted += 1
        current = _run_epoch(
            EpochJob(i, spec, current["wire"], job_list[i].stop_boundary)
        )
    if current["status"] != "finished":
        raise EpochError(
            "epoch chain did not finish: the final epoch returned a cut "
            "(its stop boundary should have been open-ended)"
        )
    report, digest = _report_from(current)
    # Self-heal the cache with validated actual states so the next warm
    # pass predicts from the corrected chain.
    for boundary, wire in actual_states.items():
        if wire != starts[boundaries.index(boundary) + 1]:
            cache.store_state(boundary, wire)
    _emit_telemetry(telemetry, stats)
    return TimeParallelResult(report, digest, stats)


def _emit_telemetry(
    telemetry: Optional[TelemetrySession], stats: TimeParallelStats
) -> None:
    if telemetry is None or not telemetry.enabled:
        return
    metrics = telemetry.metrics
    metrics.counter("timepar.epochs_launched").inc(stats.launched)
    metrics.counter("timepar.epochs_diverged").inc(stats.diverged)
    metrics.counter("timepar.epochs_reexecuted").inc(stats.reexecuted)
    metrics.gauge("timepar.prediction_hit_rate").set(stats.hit_rate)
