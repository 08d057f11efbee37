"""The sampled-execution engine: interval cuts, fast-forward, warmup.

One simulation is driven through the same resumable handle the
time-parallel harness uses (:class:`~repro.core.simulation.Run`), one
*interval* at a time.  At each interval entry the phase detector
predicts whether the upcoming interval repeats a well-sampled phase:

- **measure** — run the interval under the configured scheme, diff the
  engine counters (:class:`~repro.telemetry.features.CounterSnapshot`),
  and feed the full feature vector to the detector;
- **fast-forward** — take a copy-on-write snapshot, swap the scheme for
  unbounded slack (``FixedSlackPolicy(SlackConfig(bound=None))`` — no
  windows, no barriers, maximum host-side concurrency), traverse the
  interval cheaply, swap back, and classify the traversal's *partial*
  feature vector (violation dimension masked — it is scheme-sensitive).
  If the traversal matches a well-sampled phase the skip **commits**; if
  it looks new or under-sampled the engine **restores** the entry
  snapshot — the standard rollback mechanics of
  ``repro.core.speculative`` — and measures the interval in detail
  instead.  No phase is ever extrapolated from zero measurements.

A detailed interval that follows a committed fast-forward starts from a
trajectory the fast traversal distorted (the interleaving under
unbounded slack is not the scheme's), so its first ``warmup`` cycles are
run in detail but excluded from the measurement window — the functional-
warmup discipline of SMARTS-style samplers, applied to slack distortion
rather than cache cold-start.

Cost honesty: snapshots and restores are charged to the modeled host
clock by the same :func:`~repro.core.checkpoint.charged_checkpoint` /
:func:`~repro.core.checkpoint.charged_rollback` helpers as the paper's
speculation controller, and they count into the report's
``checkpoints``/``rollbacks`` fields.  The sampled report's
``sim_time_s`` therefore includes every overhead the sampling scheme
introduces.

Determinism: the trajectory is a pure function of the run spec and the
sample seed (the detector's RNG drives the only stochastic choice), so
the same ``(spec, seed)`` reproduces a byte-identical report and
estimate.  At rate 1.0 ``should_measure`` short-circuits before drawing,
no snapshot is ever taken and no scheme is ever swapped — the engine
degenerates to a pure cut loop and the report digest is byte-identical
to the unsampled run's for every scheme kind.
"""

from __future__ import annotations

import dataclasses
import time
from typing import List, Optional, Tuple

from repro.config import SlackConfig, SpeculativeConfig
from repro.core.analytical import SpeculativeModelInputs, speculative_time
from repro.core.checkpoint import charged_checkpoint, charged_rollback
from repro.core.report import SimulationReport
from repro.core.schemes.fixed import FixedSlackPolicy
from repro.core.simulation import Run
from repro.errors import ConfigError, SimulationError
from repro.harness.cache import RunSpec
from repro.harness.pool import build_simulation
from repro.sampling.estimator import IntervalSample, SampledEstimate, estimate
from repro.sampling.phases import (
    DEFAULT_DISTANCE_THRESHOLD,
    DEFAULT_SMOOTHING,
    PhaseDetector,
)
from repro.telemetry import TelemetrySession
from repro.telemetry.features import CounterSnapshot, IntervalFeatures
from repro.util.rng import SplitMix64

__all__ = ["SampledRunResult", "SamplingConfig", "SamplingStats", "run_sampled"]

#: Runaway guard (intervals, not cycles) — the cut loop must terminate
#: even if a workload change makes intervals degenerate.
_MAX_INTERVALS = 100_000


@dataclasses.dataclass(frozen=True)
class SamplingConfig:
    """Parameters of one sampled run.

    ``rate`` is the per-interval probability that a well-sampled phase is
    measured anyway (1.0 = measure everything, the degenerate mode whose
    digest must match the unsampled run).  ``interval`` is the cut stride
    in target cycles; ``warmup`` detailed cycles at the head of a
    measured interval that follows a fast-forward are excluded from the
    measurement window.
    """

    rate: float = 0.25
    interval: int = 1000
    warmup: int = 100
    seed: int = 12345
    min_phase_samples: int = 2
    confidence: float = 0.95
    distance_threshold: float = DEFAULT_DISTANCE_THRESHOLD
    smoothing: float = DEFAULT_SMOOTHING

    def __post_init__(self) -> None:
        if not 0.0 < self.rate <= 1.0:
            raise ConfigError(f"sampling rate must be in (0, 1], got {self.rate}")
        if self.interval < 2:
            raise ConfigError(f"sampling interval must be >= 2, got {self.interval}")
        if not 0 <= self.warmup < self.interval:
            raise ConfigError(
                f"warmup must be in [0, interval), got {self.warmup} "
                f"against interval {self.interval}"
            )
        if not 0.0 < self.confidence < 1.0:
            raise ConfigError(f"confidence must be in (0, 1), got {self.confidence}")
        if self.min_phase_samples < 1:
            raise ConfigError(
                f"min_phase_samples must be >= 1, got {self.min_phase_samples}"
            )


@dataclasses.dataclass
class SamplingStats:
    """Bookkeeping of one sampled run (counts + modeled/wall times)."""

    intervals: int = 0
    measured_intervals: int = 0
    fast_intervals: int = 0  # committed skips
    restored_intervals: int = 0  # fast traversals rolled back and measured
    warmup_windows: int = 0
    snapshots: int = 0
    phases: int = 0
    #: Modeled host-ns of first attempts only (the no-restore plan) —
    #: ``T_cpt`` in the section-5.2 analytical model's sampling reading.
    planned_host_ns: float = 0.0
    actual_host_ns: float = 0.0
    estimated_detailed_host_ns: float = 0.0
    #: Section-5.2 model evaluated with F = restored fraction.
    predicted_host_ns: float = 0.0
    predicted_speedup: float = 0.0
    #: Extrapolated detailed time over actual sampled time.
    estimated_speedup: float = 0.0
    wall_s: float = 0.0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class SampledRunResult:
    """Everything one sampled run produces."""

    report: SimulationReport
    digest: str
    estimate: SampledEstimate
    stats: SamplingStats
    samples: Tuple[IntervalSample, ...]

    def to_dict(self) -> dict:
        return {
            "report": self.report.to_dict(),
            "digest": self.digest,
            "estimate": self.estimate.to_dict(),
            "stats": self.stats.to_dict(),
            "samples": [s.to_dict() for s in self.samples],
        }


# --------------------------------------------------------------------- #


def run_sampled(
    spec: RunSpec,
    config: SamplingConfig,
    telemetry: Optional[TelemetrySession] = None,
) -> SampledRunResult:
    """Execute ``spec`` under live statistical sampling.

    Sampling below rate 1.0 owns the snapshot/rollback machinery, so it
    refuses specs that carry their own (speculative schemes, periodic
    checkpointing) — at rate 1.0 those run unmodified through the pure
    cut loop.
    """
    if config.rate < 1.0:
        if isinstance(spec.scheme, SpeculativeConfig):
            raise ConfigError(
                "sampled execution below rate 1.0 owns rollback; speculative "
                "schemes carry their own — run them at --sample-rate 1.0 or "
                "unsampled"
            )
        if spec.checkpoint is not None:
            raise ConfigError(
                "sampled execution below rate 1.0 owns snapshots; drop the "
                "checkpoint config or use --sample-rate 1.0"
            )

    wall_start = time.perf_counter()  # repro: noqa[RPR001] sampling-wall telemetry; never feeds the digest
    sim = build_simulation(spec, telemetry)
    run = sim.start()
    scheduler = run.scheduler
    detector = PhaseDetector(
        rng=SplitMix64(config.seed),
        distance_threshold=config.distance_threshold,
        smoothing=config.smoothing,
        min_samples=config.min_phase_samples,
    )
    stats = SamplingStats()
    samples: List[IntervalSample] = []
    cost_model = sim.host.cost
    fast_policy = FixedSlackPolicy(SlackConfig(bound=None))
    last_phase = -1  # "no phase yet": forces the first interval detailed
    needs_warmup = False

    while not run.completed:
        if stats.intervals >= _MAX_INTERVALS:
            raise SimulationError(
                f"sampling runaway: {_MAX_INTERVALS} intervals without "
                f"completion (interval={config.interval})"
            )
        index = stats.intervals
        stats.intervals += 1
        start_cycle = sim.state.global_time()
        boundary = start_cycle + config.interval

        restored = False
        if not detector.should_measure(last_phase, config.rate):
            # ---- fast-forward attempt -------------------------------- #
            entry_ns = scheduler.simulation_time_ns()
            snap, _ = charged_checkpoint(scheduler, sim.state, start_cycle, cost_model)
            stats.snapshots += 1

            state = sim.state
            saved_policy = state.scheme
            state.scheme = fast_policy
            state.manager._limits_stale = True  # repopulate the limit bank
            entry = _counters(run)
            run.advance(boundary)
            feats = _counters(run).delta(entry)
            state.scheme = saved_policy
            state.manager._limits_stale = True
            # Fast-mode violations are not the scheme's; keep them out of
            # the adaptive controller's next control window.
            state.manager.detector.reset_window()

            stats.planned_host_ns += scheduler.simulation_time_ns() - entry_ns
            phase, is_new = detector.classify(feats.vector(), partial=True)
            if not is_new and not detector.needs_samples(phase):
                # Commit the skip: the interval stays fast-forwarded.
                stats.fast_intervals += 1
                samples.append(_sample(index, phase, feats, measured=False))
                last_phase = phase
                needs_warmup = True
                continue

            # Unknown or under-sampled: roll back and measure in detail.
            charged_rollback(
                scheduler, sim, snap, cost_model, sim.state.global_time() - start_cycle
            )
            stats.restored_intervals += 1
            restored = True

        last_phase = _measure_interval(
            run, detector, config, samples, stats, index, boundary,
            needs_warmup, restored,
        )
        needs_warmup = False

    report = run.report()
    est = estimate(samples, confidence=config.confidence)
    stats.phases = detector.num_phases
    stats.actual_host_ns = scheduler.simulation_time_ns()
    stats.estimated_detailed_host_ns = est.estimated_detailed_host_ns
    if stats.actual_host_ns > 0.0:
        stats.estimated_speedup = est.estimated_detailed_host_ns / stats.actual_host_ns
    if stats.planned_host_ns > 0.0 and est.num_intervals > 0:
        # Section-5.2 model, sampling reading: a restored interval is a
        # "violating" one — its fast traversal is wasted (D_r = I) and it
        # re-executes at detailed cost (the F * T_cc replay term).
        inputs = SpeculativeModelInputs(
            t_cc=est.estimated_detailed_host_ns,
            t_cpt=stats.planned_host_ns,
            fraction_violating=stats.restored_intervals / est.num_intervals,
            rollback_distance=float(config.interval),
            interval=float(config.interval),
        )
        stats.predicted_host_ns = speculative_time(inputs)
        if stats.predicted_host_ns > 0.0:
            stats.predicted_speedup = (
                est.estimated_detailed_host_ns / stats.predicted_host_ns
            )
    stats.wall_s = time.perf_counter() - wall_start  # repro: noqa[RPR001] sampling-wall telemetry; never feeds the digest
    return SampledRunResult(
        report=report,
        digest=report.digest(),
        estimate=est,
        stats=stats,
        samples=tuple(samples),
    )


def _counters(run: Run) -> CounterSnapshot:
    return CounterSnapshot.capture(run.sim.state, run.scheduler.simulation_time_ns())


def _sample(
    index: int, phase: int, feats: IntervalFeatures, measured: bool, restored: bool = False
) -> IntervalSample:
    return IntervalSample(
        index=index,
        phase=phase,
        measured=measured,
        restored=restored,
        cycles=feats.cycles,
        core_cycles=feats.core_cycles,
        instructions=feats.instructions,
        violations=feats.violations,
        host_ns=feats.host_ns,
    )


def _measure_interval(
    run: Run,
    detector: PhaseDetector,
    config: SamplingConfig,
    samples: List[IntervalSample],
    stats: SamplingStats,
    index: int,
    boundary: int,
    needs_warmup: bool,
    restored: bool,
) -> int:
    """Run one interval in detail; record its sample; return its phase."""
    scheduler = run.scheduler
    planned_start_ns = scheduler.simulation_time_ns()
    if needs_warmup and config.warmup > 0 and not run.completed:
        # The preceding fast-forward distorted the trajectory; run the
        # window head in detail but keep it out of the measurement.
        stats.warmup_windows += 1
        run.advance(run.sim.state.global_time() + config.warmup)
    entry = _counters(run)
    run.advance(boundary)  # a no-op on a completed run
    feats = _counters(run).delta(entry)
    if not restored:
        # First-attempt cost only: a restored interval's plan was its
        # fast traversal, already accounted by the caller.
        stats.planned_host_ns += scheduler.simulation_time_ns() - planned_start_ns
    if feats.cycles <= 0:
        # Completion landed exactly on the previous cut; nothing to
        # measure and no phase transition.
        return -1
    phase, _ = detector.observe(feats.vector())
    stats.measured_intervals += 1
    samples.append(_sample(index, phase, feats, measured=True, restored=restored))
    return phase
