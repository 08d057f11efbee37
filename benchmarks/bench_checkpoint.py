"""Checkpoint cost benchmark: copy-on-write capture vs. full deepcopy.

Drives the bench workload under the speculative scheme's state shapes and
measures, at each checkpoint boundary, the host cost of

- ``take_snapshot`` — the copy-on-write capture (dirty SoA pages + the
  residue deepcopy; ``repro.core.snapshot``),
- ``copy.deepcopy`` of the same state root — the historic checkpoint, and
- ``restore_snapshot`` — materializing a fresh root from the capture.

Boundaries are spaced ``interval`` target cycles apart, the unit of the
speculative scheme's checkpoint interval; each segment between them is
the production scheduler loop (``Scheduler.run``) cut on global time.
The first capture of a run syncs every page ever written and is reported
separately; the steady-state mean covers the captures a speculative run
actually repeats.  Prints one row per interval and exits non-zero when
capture at the finest interval is not at least ``MIN_SPEEDUP`` times
cheaper than the deepcopy; ``--output FILE`` also writes the rows as
host-stamped JSON.

Run directly::

    python benchmarks/bench_checkpoint.py
    python benchmarks/bench_checkpoint.py --intervals 500 2000 5000

Under pytest (``pytest benchmarks/bench_checkpoint.py``) a reduced sweep
checks the load-bearing inequality: steady-state COW capture must beat
the deepcopy it replaced.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
import time
from typing import List, Optional

from repro import Simulation
from repro.config import HostConfig, SlackConfig, paper_target_config
from repro.core.checkpoint import restore_snapshot, take_snapshot
from repro.core.scheduler import Scheduler
from repro.harness.hostinfo import host_fingerprint
from repro.workloads import make_workload


def build_sim(cores: int) -> Simulation:
    """The speculative scheme's base (bounded slack) over a memory-heavy
    workload.

    The bench cuts the run itself and takes checkpoints at its own
    boundaries, so it runs the *base* scheme the speculative
    controller wraps — the state being captured (caches, queues, clocks,
    interpreters) is identical, without the controller's own checkpoint
    protocol competing with the measurements.  Checkpoint cost matters
    exactly when the memory system holds real state, so the workload's
    working set is sized to fill the L1s and most of the L2 (the paper
    benchmarks' footprints are cache-resident and would leave the
    full-copy baseline with nothing to copy).
    """
    return Simulation(
        make_workload(
            "synthetic",
            num_threads=cores,
            steps=500_000,
            private_lines=2048,
            shared_lines=512,
            shared_fraction=0.2,
            store_fraction=0.4,
            compute_per_step=2,
        ),
        scheme=SlackConfig(bound=8),
        target=paper_target_config(num_cores=cores),
        host=HostConfig(num_contexts=cores),
    )


def drive(sim: Simulation, cycles: int) -> bool:
    """Run the production loop until global time has moved ``cycles``
    target cycles; True while the workload is still running."""
    target = sim.state.global_time() + cycles
    Scheduler(sim, sim.host).run(stop_when=lambda outcome: outcome.global_time >= target)
    return not sim.state.all_finished


def bench_interval(interval: int, cores: int, max_checkpoints: int) -> dict:
    """Alternate execution and capture; time both checkpoint flavors.

    The deepcopy is timed against the *same* pre-capture state the COW
    capture sees (deepcopy does not mutate, so measuring it first keeps
    the two operand-identical).
    """
    sim = build_sim(cores)
    # Warm the caches before the first boundary so both checkpoint flavors
    # see a realistically populated memory system (a cold capture flatters
    # the full copy: there is nothing to copy yet).
    drive(sim, 60_000)
    take_s: List[float] = []
    deep_s: List[float] = []
    pages: List[int] = []
    first_take_s: Optional[float] = None
    snapshot = None
    running = True
    while running and len(take_s) < max_checkpoints:
        running = drive(sim, interval)
        state = sim.state
        t0 = time.perf_counter()
        clone = copy.deepcopy(state)
        t1 = time.perf_counter()
        snapshot = take_snapshot(state, boundary=0, host_time=0.0)
        t2 = time.perf_counter()
        del clone
        if first_take_s is None:
            # The first capture syncs every page written since __init__;
            # steady state starts at the second.
            first_take_s = t2 - t1
        else:
            take_s.append(t2 - t1)
            pages.append(snapshot.host_pages)
        deep_s.append(t1 - t0)
    restore_s: List[float] = []
    if snapshot is not None:
        # A snapshot restores repeatedly (speculative replay that violates
        # again); time a few round trips of the final one.
        for _ in range(5):
            r0 = time.perf_counter()
            restore_snapshot(snapshot)
            restore_s.append(time.perf_counter() - r0)
    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0
    take_us = mean(take_s) * 1e6
    deep_us = mean(deep_s) * 1e6
    return {
        "interval": interval,
        "checkpoints": len(deep_s),
        "first_take_us": round((first_take_s or 0.0) * 1e6, 1),
        "take_mean_us": round(take_us, 1),
        "deepcopy_mean_us": round(deep_us, 1),
        "restore_mean_us": round(mean(restore_s) * 1e6, 1),
        "host_pages_mean": round(mean(pages), 1),
        "speedup_take_vs_deepcopy": round(deep_us / take_us, 1) if take_us else None,
    }


#: The floor ``main`` (and CI through it) holds the finest interval to.
#: The recorded figure is 11-14x on a quiet host (EXPERIMENTS.md); shared
#: runners only guard the order of magnitude.
MIN_SPEEDUP = 3.0


def run_bench_checkpoint(
    intervals=(500, 2000, 5000),
    cores: int = 4,
    max_checkpoints: int = 12,
    output: Optional[str] = None,
) -> dict:
    rows = []
    for interval in intervals:
        row = bench_interval(interval, cores, max_checkpoints)
        rows.append(row)
        print(
            f"  interval={interval:<6d} take {row['take_mean_us']:8.1f}us"
            f"  deepcopy {row['deepcopy_mean_us']:8.1f}us"
            f"  restore {row['restore_mean_us']:8.1f}us"
            f"  ({row['speedup_take_vs_deepcopy']}x)"
        )
    finest = min(rows, key=lambda r: r["interval"])
    doc = {
        "host": host_fingerprint(),
        "benchmark": "checkpoint",
        "workload": "synthetic",
        "cores": cores,
        "intervals": rows,
        "finest_interval": finest["interval"],
        "finest_speedup_take_vs_deepcopy": finest["speedup_take_vs_deepcopy"],
    }
    print(f"finest interval {finest['interval']}: "
          f"{finest['speedup_take_vs_deepcopy']}x vs deepcopy")
    if output:
        with open(output, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {output}")
    return doc


def test_cow_capture_beats_deepcopy():
    """Steady-state COW capture must be cheaper than the deepcopy it replaced."""
    row = bench_interval(interval=500, cores=4, max_checkpoints=4)
    assert row["checkpoints"] >= 2
    assert row["take_mean_us"] < row["deepcopy_mean_us"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--intervals", type=int, nargs="+", default=[500, 2000, 5000])
    parser.add_argument("--cores", type=int, default=4)
    parser.add_argument("--max-checkpoints", type=int, default=12)
    parser.add_argument("--output", default=None,
                        help="also write the rows as host-stamped JSON")
    args = parser.parse_args(argv)
    doc = run_bench_checkpoint(
        intervals=args.intervals,
        cores=args.cores,
        max_checkpoints=args.max_checkpoints,
        output=args.output,
    )
    ratio = doc["finest_speedup_take_vs_deepcopy"]
    if ratio is None or ratio < MIN_SPEEDUP:
        print(f"FAIL: COW capture only {ratio}x cheaper than deepcopy "
              f"(floor {MIN_SPEEDUP}x)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
