"""Time-parallel single-run benchmark: speedup and divergence curves.

Measures, on the long bounded/adaptive cases, what epoch pipelining
(``repro.harness.timepar``) buys for one simulation:

- **serial** wall (the baseline every experiment table is floored by);
- **cold** wall (the chained recording pass: serial + capture overhead);
- **warm** wall at N epochs with a real worker pool (*measured* — on a
  single-CPU host this is bounded by contention, and the stamped host
  fingerprint makes that visible);
- **projected critical-path speedup**: ``serial_wall / max(epoch walls)``
  with per-epoch walls measured contention-free (epochs executed one at a
  time) — what the same chain stitches to when each epoch has its own
  CPU, which is the deployment this feature targets (the paper simulates
  CMPs *on* CMPs);
- **divergence recovery**: the epoch-state cache is deliberately
  mis-primed and the measured divergence / re-execution rate and its
  wall-clock cost are recorded.

Every digest is asserted against the serial run: a speedup that changes
results is a bug, not a result.  Prints the curves; ``--output FILE``
also writes them as host-stamped JSON.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.config import (
    AdaptiveConfig,
    SlackConfig,
    paper_host_config,
    paper_target_config,
)
from repro.harness.cache import RunSpec
from repro.harness.hostinfo import host_fingerprint
from repro.harness.pool import execute_spec
from repro.harness.timepar import EpochStateCache, _plan_boundaries, run_time_parallel

CASES = {
    "fft-bounded-c8-s2": lambda: RunSpec(
        benchmark="fft",
        scheme=SlackConfig(bound=16),
        scale=2.0,
        checkpoint=None,
        detection=True,
        seed=12345,
        num_threads=8,
        target=paper_target_config(num_cores=8),
        host=paper_host_config(),
    ),
    "fft-adaptive-c8-s2": lambda: RunSpec(
        benchmark="fft",
        scheme=AdaptiveConfig(target_rate=1e-3, adjust_period=250),
        scale=2.0,
        checkpoint=None,
        detection=True,
        seed=12345,
        num_threads=8,
        target=paper_target_config(num_cores=8),
        host=paper_host_config(),
    ),
}

EPOCH_COUNTS = (2, 4, 8)


def bench_case(case_id: str, root: pathlib.Path) -> Dict[str, Any]:
    spec = CASES[case_id]()
    start = time.perf_counter()
    serial_report, _ = execute_spec(spec)
    serial_wall = time.perf_counter() - start
    digest = serial_report.digest()

    start = time.perf_counter()
    cold = run_time_parallel(spec, epochs=max(EPOCH_COUNTS), cache_root=root)
    cold_wall = time.perf_counter() - start
    assert cold.digest == digest, f"{case_id}: cold digest drift"

    curve: List[Dict[str, Any]] = []
    for n in EPOCH_COUNTS:
        # Contention-free pass: epochs one at a time, so each epoch wall
        # is its true compute cost — the projection input.
        start = time.perf_counter()
        probe = run_time_parallel(spec, epochs=n, jobs=1, cache_root=root)
        probe_wall = time.perf_counter() - start
        assert probe.digest == digest, f"{case_id}: warm digest drift at N={n}"
        # Pool pass: real worker processes, measured end to end.
        start = time.perf_counter()
        warm = run_time_parallel(spec, epochs=n, jobs=n, cache_root=root)
        warm_wall = time.perf_counter() - start
        assert warm.digest == digest, f"{case_id}: pooled digest drift at N={n}"
        critical = max(probe.stats.epoch_walls) if probe.stats.epoch_walls else probe_wall
        curve.append(
            {
                "epochs": n,
                "epochs_launched": warm.stats.launched,
                "boundaries": warm.stats.boundaries,
                "hit_rate": warm.stats.hit_rate,
                "diverged": warm.stats.diverged,
                "epoch_walls_s": [round(w, 4) for w in probe.stats.epoch_walls],
                "warm_wall_s": round(warm_wall, 4),
                "speedup_measured": round(serial_wall / warm_wall, 2),
                "speedup_projected_critical_path": round(serial_wall / critical, 2),
            }
        )
        print(
            f"  {case_id} N={n}: measured {curve[-1]['speedup_measured']}x, "
            f"projected {curve[-1]['speedup_projected_critical_path']}x "
            f"(critical epoch {critical:.2f}s / serial {serial_wall:.2f}s)"
        )

    # Divergence: mis-prime one interior prediction and measure recovery.
    cache = EpochStateCache(spec, root=root)
    meta = cache.load_meta()
    divergence: Optional[Dict[str, Any]] = None
    bounds = _plan_boundaries(meta, 4) if meta else []
    if len(bounds) >= 2:
        cache.store_state(bounds[1], cache.load_state(bounds[0]))
        start = time.perf_counter()
        recovered = run_time_parallel(spec, epochs=4, jobs=1, cache_root=root)
        recover_wall = time.perf_counter() - start
        assert recovered.digest == digest, f"{case_id}: recovery digest drift"
        stats = recovered.stats
        divergence = {
            "mis_primed": 1,
            "predicted": stats.predicted,
            "diverged": stats.diverged,
            "reexecuted": stats.reexecuted,
            "divergence_rate": round(stats.diverged / stats.predicted, 3)
            if stats.predicted
            else 0.0,
            "recovery_wall_s": round(recover_wall, 4),
        }
        print(
            f"  {case_id} divergence: {stats.diverged}/{stats.predicted} "
            f"diverged, {stats.reexecuted} re-executed, digest still exact"
        )

    return {
        "case": case_id,
        "target_cycles": serial_report.target_cycles,
        "digest": digest,
        "serial_wall_s": round(serial_wall, 4),
        "cold_wall_s": round(cold_wall, 4),
        "cold_overhead": round(cold_wall / serial_wall, 2),
        "curve": curve,
        "divergence": divergence,
    }


def run_bench_timepar(output: Optional[str] = None) -> Dict[str, Any]:
    root = pathlib.Path(tempfile.mkdtemp(prefix="bench-timepar-"))
    try:
        cases = [bench_case(case_id, root) for case_id in CASES]
    finally:
        shutil.rmtree(root, ignore_errors=True)
    best = max(
        (point for case in cases for point in case["curve"]),
        key=lambda p: p["speedup_projected_critical_path"],
    )
    doc = {
        "host": host_fingerprint(),
        "benchmark": "timepar",
        "note": (
            "speedup_measured is the end-to-end pooled wall on THIS host "
            "(see host.cpu_count); speedup_projected_critical_path is "
            "serial_wall / slowest contention-free epoch — the stitched "
            "wall when each epoch gets its own CPU.  All digests are "
            "asserted bit-identical to the serial run."
        ),
        "best_projected_speedup": best["speedup_projected_critical_path"],
        "cases": cases,
    }
    print(
        f"best projected speedup {doc['best_projected_speedup']}x "
        f"on {doc['host']['cpu_count']} CPU(s)"
    )
    if output:
        pathlib.Path(output).write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {output}")
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=None,
                        help="also write the curves as host-stamped JSON")
    args = parser.parse_args(argv)
    run_bench_timepar(args.output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
