"""Kernel-throughput benchmark: the hot-path perf + determinism gate.

Times the fixed workload matrix (CC / bounded / adaptive / speculative x
4-16 cores), asserts every run's report digest against the golden values
in ``benchmarks/golden_kernel.json``, and writes ``BENCH_kernel.json``
with machine-readable wall-time and steps/s metrics.

Run directly::

    python benchmarks/bench_kernel.py            # full matrix
    python benchmarks/bench_kernel.py --smoke    # CI-sized matrix

or via the CLI (same engine)::

    python -m repro bench [--smoke] [--update-golden]

Under pytest (``pytest benchmarks/bench_kernel.py``) the smoke matrix
runs as a digest-checked benchmark case.
"""

from __future__ import annotations

import argparse
import sys

from repro.harness.bench import run_bench


def test_kernel_smoke(benchmark):
    """Smoke matrix as a pytest-benchmark case; fails on digest drift."""
    doc = benchmark.pedantic(
        lambda: run_bench(smoke=True, output=None), rounds=1, iterations=1
    )
    assert all(r["golden"] == "ok" for r in doc["results"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--update-golden", action="store_true")
    parser.add_argument("--output", default="BENCH_kernel.json")
    args = parser.parse_args(argv)
    run_bench(
        smoke=args.smoke,
        update_golden=args.update_golden,
        output=args.output,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
