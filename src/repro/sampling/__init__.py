"""``repro.sampling`` — live statistical sampling of slack simulations.

Pac-Sim-style sampled simulation as a first-class mode of operation:
phases are detected *online* (no offline profiling pass), representative
intervals are simulated in detail, the rest are fast-forwarded under
unbounded slack with a functional-warmup window, and the terminal
estimates (CPI, violation rate, slowdown) carry Student-t confidence
intervals extrapolated per phase.

The subsystem composes three layers plus the harness glue:

- :class:`~repro.sampling.phases.PhaseDetector` — incremental
  leader-follower clustering over per-interval feature vectors
  (``repro.telemetry.features``) on an injectable seeded RNG;
- :class:`~repro.sampling.engine.SamplingConfig` /
  :func:`~repro.sampling.engine.run_sampled` — the interval-cut loop on
  the resumable :class:`~repro.core.simulation.Run` handle, with COW
  snapshots guarding speculative skips;
- :func:`~repro.sampling.estimator.estimate` — stratified per-phase
  ratio estimators with Welch-combined confidence intervals
  (``repro.stats.aggregate``);
- :func:`~repro.sampling.frontier.sampling_frontier` — the schemes ×
  sampling-rates error-vs-speedup table.

Determinism contract: same spec + same sample seed ⇒ byte-identical
sampled report and estimates; at rate 1.0 the engine degenerates to a
pure cut loop and the report digest is byte-identical to the unsampled
run for every scheme kind.
"""

from repro.sampling.engine import SampledRunResult, SamplingConfig, SamplingStats, run_sampled
from repro.sampling.estimator import IntervalSample, SampledEstimate, estimate
from repro.sampling.frontier import sampling_frontier
from repro.sampling.phases import PhaseDetector

__all__ = [
    "IntervalSample",
    "PhaseDetector",
    "SampledEstimate",
    "SampledRunResult",
    "SamplingConfig",
    "SamplingStats",
    "estimate",
    "run_sampled",
    "sampling_frontier",
]
