"""The error-vs-speedup frontier: schemes x sampling rates.

Sampling buys simulation speed by measuring less; the honest way to
present that trade is the whole frontier, not one operating point.  This
experiment sweeps the sampling rate for each scheme on a fixed workload,
compares every sampled run's estimates against the scheme's *full*
(unsampled-equivalent, rate 1.0) run, and records:

- the CPI and violation-rate estimation errors and whether each metric's
  confidence interval covers the full-run value (the estimator's own
  honesty check);
- the modeled speedup (extrapolated detailed host time over the sampled
  run's actual modeled host time) and the wall-clock speedup actually
  observed on this host;
- phase/interval accounting (how much the detector measured).

The table is returned for the CLI to print; with ``output=`` the records
are also written as JSON with the host fingerprint stamped, because the
wall-clock column is only comparable against runs from the same host.
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import (
    AdaptiveConfig,
    SchemeConfig,
    SlackConfig,
    paper_host_config,
    paper_target_config,
)
from repro.harness.cache import RunSpec
from repro.harness.experiments import ExperimentResult
from repro.harness.hostinfo import host_fingerprint
from repro.sampling.engine import SampledRunResult, SamplingConfig, run_sampled

__all__ = ["FRONTIER_RATES", "FRONTIER_SCHEMES", "sampling_frontier"]

#: Swept sampling rates, full run first (it doubles as the reference).
FRONTIER_RATES: Tuple[float, ...] = (1.0, 0.5, 0.25, 0.1)

#: Scheme factories swept by the frontier (paper schemes that are legal
#: below rate 1.0 — speculation carries its own rollback and is excluded).
FRONTIER_SCHEMES: Dict[str, object] = {
    "cc": lambda: SlackConfig(bound=0),
    "slack16": lambda: SlackConfig(bound=16),
    "adaptive": lambda: AdaptiveConfig(target_rate=1e-3, adjust_period=250),
}


def _frontier_spec(
    scheme: SchemeConfig, benchmark: str, cores: int, scale: float, seed: int
) -> RunSpec:
    return RunSpec(
        benchmark=benchmark,
        scheme=scheme,
        scale=scale,
        checkpoint=None,
        detection=True,
        seed=seed,
        num_threads=cores,
        target=paper_target_config(num_cores=cores),
        host=paper_host_config(),
    )


def _row(
    scheme: str,
    rate: float,
    result: SampledRunResult,
    reference: SampledRunResult,
    wall_s: float,
    reference_wall_s: float,
) -> Dict[str, object]:
    ref = reference.report
    est = result.estimate
    cpi_err = (
        abs(est.cpi.mean - ref.cpi) / ref.cpi if ref.cpi else 0.0
    )
    vio_err = (
        abs(est.violation_rate.mean - ref.violation_rate) / ref.violation_rate
        if ref.violation_rate
        else abs(est.violation_rate.mean)
    )
    return {
        "scheme": scheme,
        "rate": rate,
        "intervals": est.num_intervals,
        "measured": est.num_measured,
        "phases": est.num_phases,
        "restored": result.stats.restored_intervals,
        "cpi": est.cpi.to_dict(),
        "cpi_full": ref.cpi,
        "cpi_error": cpi_err,
        "cpi_ci_covers": est.cpi.covers(ref.cpi),
        "violation_rate": est.violation_rate.to_dict(),
        "violation_rate_full": ref.violation_rate,
        "violation_rate_error": vio_err,
        "violation_rate_ci_covers": est.violation_rate.covers(ref.violation_rate),
        "modeled_speedup": result.stats.estimated_speedup,
        "predicted_speedup": result.stats.predicted_speedup,
        "wall_s": wall_s,
        "wall_speedup": (reference_wall_s / wall_s) if wall_s > 0 else 0.0,
        "digest": result.digest,
    }


def sampling_frontier(
    runner=None,
    benchmark: str = "fft",
    cores: int = 8,
    scale: float = 1.0,
    seed: int = 12345,
    sample_seed: int = 12345,
    rates: Sequence[float] = FRONTIER_RATES,
    interval: int = 1000,
    warmup: int = 100,
    output: Optional[str] = None,
) -> ExperimentResult:
    """Sweep schemes x sampling rates; write the records to ``output``
    when one is given.

    ``runner`` is accepted (and ignored) so the function slots into the
    CLI's experiment registry unchanged — sampled runs drive the
    scheduler directly and cannot go through the report cache.
    """
    records: List[Dict[str, object]] = []
    rows: List[tuple] = []
    for scheme_name, factory in FRONTIER_SCHEMES.items():
        reference: Optional[SampledRunResult] = None
        reference_wall = 0.0
        for rate in rates:
            config = SamplingConfig(
                rate=rate, interval=interval, warmup=warmup, seed=sample_seed
            )
            spec = _frontier_spec(factory(), benchmark, cores, scale, seed)
            started = time.perf_counter()
            result = run_sampled(spec, config)
            wall = time.perf_counter() - started
            if reference is None:
                if rate != 1.0:
                    raise ValueError(
                        "the first swept rate must be 1.0 — it is the "
                        f"reference run (got {rate})"
                    )
                reference = result
                reference_wall = wall
            record = _row(scheme_name, rate, result, reference, wall, reference_wall)
            records.append(record)
            est = result.estimate
            rows.append(
                (
                    scheme_name,
                    f"{rate:g}",
                    est.num_intervals,
                    est.num_measured,
                    est.num_phases,
                    f"{est.cpi.mean:.4f}±{est.cpi.half_width:.4f}"
                    if est.cpi.half_width != float("inf")
                    else f"{est.cpi.mean:.4f}±inf",
                    f"{record['cpi_error']:.2%}",
                    "y" if record["cpi_ci_covers"] else "n",
                    f"{record['violation_rate_error']:.2%}",
                    "y" if record["violation_rate_ci_covers"] else "n",
                    f"{result.stats.estimated_speedup:.2f}x",
                    f"{record['wall_speedup']:.2f}x",
                )
            )

    if output:
        doc = {
            "schema": 1,
            "benchmark": benchmark,
            "cores": cores,
            "scale": scale,
            "seed": seed,
            "sample_seed": sample_seed,
            "interval": interval,
            "warmup": warmup,
            "host": host_fingerprint(),
            "results": records,
        }
        pathlib.Path(output).write_text(json.dumps(doc, indent=2) + "\n")

    return ExperimentResult(
        name="frontier",
        title=(
            f"Sampling error-vs-speedup frontier "
            f"({benchmark}, {cores} cores, scale {scale:g})"
        ),
        headers=(
            "scheme", "rate", "ints", "meas", "phases", "cpi est",
            "cpi err", "ci", "vio err", "ci", "model spd", "wall spd",
        ),
        rows=rows,
        notes=(
            "Errors are vs each scheme's own rate-1.0 run (digest-identical "
            "to the unsampled run). 'ci' marks whether the 95% interval "
            "covers the full-run value; modeled speedup is extrapolated "
            "detailed host time over the sampled run's modeled host time."
        ),
    )
