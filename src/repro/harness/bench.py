"""Kernel-throughput benchmark with a digest-checked golden matrix.

The simulator's ROADMAP promises runs "as fast as the hardware allows" —
but only if optimizations never change simulation results.  This module
pins both halves of that contract:

- **speed**: a fixed workload matrix (CC / bounded / adaptive /
  speculative x 4-16 cores) is timed and the wall-clock, steps/s, and
  cycles/s figures are written to ``BENCH_kernel.json`` so the perf
  trajectory is tracked PR over PR;
- **determinism**: every run's :meth:`SimulationReport.digest` is checked
  against golden values recorded in ``benchmarks/golden_kernel.json``.  A
  perf PR that drifts any digest fails the bench (and CI).

Run it as ``python -m repro bench`` (add ``--smoke`` for the small CI
matrix, ``--update-golden`` to re-record goldens after an *intentional*
simulation-semantics change).
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import Dict, List, Optional

from repro.config import (
    AdaptiveConfig,
    CheckpointConfig,
    SchemeConfig,
    SlackConfig,
    SpeculativeConfig,
    paper_host_config,
    paper_target_config,
)
from repro.harness.cache import ReportCache, RunSpec, spec_key
from repro.harness.hostinfo import fingerprint_mismatches, host_fingerprint
from repro.harness.pool import ParallelExecutor, execute_spec, new_sanitizer
from repro.telemetry import TelemetrySession

#: Scheme factories for the benchmark matrix.  Factories (not instances)
#: because each run must get a fresh config-derived policy.
SCHEMES = {
    "cc": lambda: SlackConfig(bound=0),
    "bounded": lambda: SlackConfig(bound=16),
    "adaptive": lambda: AdaptiveConfig(target_rate=1e-3, adjust_period=250),
    "speculative": lambda: SpeculativeConfig(
        base=AdaptiveConfig(target_rate=1e-3, adjust_period=250),
        checkpoint=CheckpointConfig(interval=5000),
    ),
}

#: The profiled reference run quoted in README "Performance": 8-core fft,
#: SlackConfig(bound=16), full scale.
REFERENCE_CASE = {"scheme": "bounded", "cores": 8, "scale": 1.0}

_SEED = 12345
_BENCHMARK = "fft"


class BenchCase:
    """One cell of the benchmark matrix."""

    __slots__ = ("scheme", "cores", "scale", "benchmark")

    def __init__(
        self, scheme: str, cores: int, scale: float, benchmark: str = _BENCHMARK
    ) -> None:
        self.scheme = scheme
        self.cores = cores
        self.scale = scale
        self.benchmark = benchmark

    @property
    def case_id(self) -> str:
        return f"{self.benchmark}-{self.scheme}-c{self.cores}-s{self.scale:g}"

    def scheme_config(self) -> SchemeConfig:
        return SCHEMES[self.scheme]()

    def spec(self) -> RunSpec:
        """The cell's full configuration (pool / report-cache identity)."""
        return RunSpec(
            benchmark=self.benchmark,
            scheme=self.scheme_config(),
            scale=self.scale,
            checkpoint=None,
            detection=True,
            seed=_SEED,
            num_threads=self.cores,
            target=paper_target_config(num_cores=self.cores),
            host=paper_host_config(),
        )


#: Non-fft benchmarks promoted into the digest-gated matrix (kernels with
#: materially different sharing patterns: ocean's nearest-neighbour grid
#: sweeps, radix's all-to-all permutation passes).
EXTRA_BENCHMARKS = ("ocean", "radix")


def full_matrix() -> List[BenchCase]:
    """The full matrix: every scheme x 4/8/16 cores at half scale on fft,
    the full-scale reference run, and the promoted ocean/radix kernels
    under the two workhorse schemes at 8 cores."""
    cases = [
        BenchCase(scheme, cores, 0.5)
        for cores in (4, 8, 16)
        for scheme in SCHEMES
    ]
    cases.append(BenchCase(**REFERENCE_CASE))
    cases.extend(
        BenchCase(scheme, 8, 0.5, benchmark=benchmark)
        for benchmark in EXTRA_BENCHMARKS
        for scheme in ("bounded", "adaptive")
    )
    return cases


def smoke_matrix() -> List[BenchCase]:
    """The quick CI matrix: every scheme at 4 and 8 cores, quarter scale,
    plus one bounded ocean/radix case each."""
    cases = [
        BenchCase(scheme, cores, 0.25)
        for cores in (4, 8)
        for scheme in SCHEMES
    ]
    cases.extend(
        BenchCase("bounded", 4, 0.25, benchmark=benchmark)
        for benchmark in EXTRA_BENCHMARKS
    )
    return cases


def _record_from(
    case: BenchCase, report, wall_s: float, cached: bool = False
) -> Dict[str, object]:
    """Build one cell's measurement record from a completed report."""
    steps = report.core_steps + report.manager_steps
    return {
        "case": case.case_id,
        "benchmark": case.benchmark,
        "scheme": case.scheme,
        "cores": case.cores,
        "scale": case.scale,
        "wall_s": wall_s,
        "cached": cached,
        "target_cycles": report.target_cycles,
        "instructions": report.instructions,
        "steps": steps,
        "steps_per_s": steps / wall_s if wall_s > 0 else 0.0,
        "target_cycles_per_s": report.target_cycles / wall_s if wall_s > 0 else 0.0,
        "digest": report.digest(),
    }


def run_case(
    case: BenchCase,
    telemetry: Optional[TelemetrySession] = None,
    sanitizer=None,
) -> Dict[str, object]:
    """Run one cell; return its measurement record."""
    report, wall_s = execute_spec(case.spec(), telemetry=telemetry, sanitizer=sanitizer)
    return _record_from(case, report, wall_s)


def golden_path(repo_root: Optional[pathlib.Path] = None) -> pathlib.Path:
    root = repo_root or pathlib.Path(__file__).resolve().parents[3]
    return root / "benchmarks" / "golden_kernel.json"


def load_golden(path: pathlib.Path) -> Dict[str, str]:
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def _recorded_costs(
    cases: List[BenchCase], output: Optional[str]
) -> List[Optional[float]]:
    """Per-case wall-time hints from the previous ``BENCH_kernel.json``
    (the recorded costs the pool's longest-job-first ordering uses)."""
    walls: Dict[str, float] = {}
    if output:
        try:
            doc = json.loads(pathlib.Path(output).read_text())
            for record in doc.get("results", ()):
                if not record.get("cached"):
                    walls[record["case"]] = float(record["wall_s"])
        except (OSError, ValueError, KeyError, TypeError):
            pass
    return [walls.get(case.case_id) for case in cases]


def run_bench(
    smoke: bool = False,
    update_golden: bool = False,
    output: Optional[str] = "BENCH_kernel.json",
    golden_file: Optional[str] = None,
    jobs: int = 1,
    use_cache: bool = False,
    sanitize: bool = False,
    cases: Optional[List[str]] = None,
) -> Dict[str, object]:
    """Run the matrix; verify digests; write ``BENCH_kernel.json``.

    ``jobs > 1`` fans the cases out over a process pool (results and
    digest checks are order-independent; per-case walls are measured
    inside the workers, so they include any host contention between
    them).  Every fresh run is written to the persistent report cache;
    ``use_cache`` additionally *reads* it, reusing stored digests and
    recorded walls (entries are marked ``"cached": true`` so reused
    timings are never mistaken for fresh measurements).

    ``sanitize`` attaches a fresh slack sanitizer to every run: a digest
    match then certifies not just "same results" but "same results with
    every timing invariant checked along the way".  Sanitized runs are
    always fresh (cache reads are skipped; the point is to check the run,
    not to reuse a report).  ``cases`` filters the matrix by substring
    match on case ids (e.g. ``["cc-c4", "bounded-c8"]``) — the CI
    sanitized smoke job uses this to check a digest-gated subset.

    Returns the result document.  Raises :class:`SystemExit` with a
    non-zero code on digest drift (so CI fails loudly), printing the
    expected and actual digest of every offending case.
    """
    matrix = smoke_matrix() if smoke else full_matrix()
    if cases:
        available = [case.case_id for case in matrix]
        unmatched = [
            wanted
            for wanted in cases
            if not any(wanted in case_id for case_id in available)
        ]
        if unmatched:
            # A filter that selects nothing must fail loudly: an all-pass
            # over zero cases would look exactly like a green bench.
            listing = "\n  ".join(available)
            raise SystemExit(
                f"no bench cases match {unmatched!r}; available cases:\n  {listing}"
            )
        matrix = [
            case
            for case in matrix
            if any(wanted in case.case_id for wanted in cases)
        ]
    gpath = pathlib.Path(golden_file) if golden_file else golden_path()
    golden = load_golden(gpath)
    cache = ReportCache()

    started = time.perf_counter()
    records: List[Optional[Dict[str, object]]] = [None] * len(matrix)
    to_run: List[int] = []
    for i, case in enumerate(matrix):
        if use_cache and not sanitize:
            entry = cache.get(spec_key(case.spec()))
            if entry is not None:
                records[i] = _record_from(case, entry.report, entry.wall_s, cached=True)
                continue
        to_run.append(i)

    costs = _recorded_costs(matrix, output)
    if jobs > 1 and len(to_run) > 1:
        executor = ParallelExecutor(jobs=jobs, sanitize=sanitize)
        outcomes = executor.map(
            [matrix[i].spec() for i in to_run], costs=[costs[i] for i in to_run]
        )
        for i, outcome in zip(to_run, outcomes):
            records[i] = _record_from(matrix[i], outcome.report, outcome.wall_s)
            cache.put(spec_key(matrix[i].spec()), outcome.report, outcome.wall_s)
    else:
        for i in to_run:
            sanitizer = new_sanitizer(sanitize)
            report, wall_s = execute_spec(matrix[i].spec(), sanitizer=sanitizer)
            if sanitizer is not None:
                print(f"  {matrix[i].case_id:<28} {sanitizer.summary()}")
            records[i] = _record_from(matrix[i], report, wall_s)
            cache.put(spec_key(matrix[i].spec()), report, wall_s)
    elapsed_s = time.perf_counter() - started

    results: List[Dict[str, object]] = []
    drifted: List[tuple] = []
    for case, record in zip(matrix, records):
        expected = golden.get(case.case_id)
        record["golden"] = expected
        if expected is None:
            record["status"] = "missing"
        elif expected == record["digest"]:
            record["status"] = "ok"
        else:
            record["status"] = "DRIFT"
            drifted.append((case.case_id, expected, record["digest"]))
        results.append(record)
        tag = record["status"] + (", cached" if record["cached"] else "")
        print(
            f"  {record['case']:<28} {record['wall_s']:7.2f}s "
            f"{record['steps_per_s']:>10.0f} steps/s  [{tag}]"
        )
    if drifted:
        print(f"  digest drift in {len(drifted)} case(s):")
        for case_id, expected, actual in drifted:
            print(f"    {case_id}: expected {expected} actual {actual}")

    # Wall-clock numbers are only comparable on the same host/interpreter:
    # warn when the previous artifact was measured elsewhere, so a perf
    # "regression" caused by a host change cannot pass as real.
    if output:
        try:
            previous = json.loads(pathlib.Path(output).read_text())
        except (OSError, ValueError):
            previous = None
        if previous is not None:
            for line in fingerprint_mismatches(previous.get("host")):
                print(f"  WARNING: cross-host comparison — {line}")

    total_wall = sum(r["wall_s"] for r in results)
    doc = {
        "host": host_fingerprint(),
        "benchmark": _BENCHMARK,
        "matrix": "smoke" if smoke else "full",
        "sanitized": sanitize,
        "case_filter": list(cases) if cases else None,
        "jobs": jobs,
        "total_wall_s": total_wall,
        "elapsed_s": elapsed_s,
        "cached_hits": sum(1 for r in results if r["cached"]),
        "aggregate_steps_per_s": sum(r["steps"] for r in results) / total_wall,
        "results": results,
    }
    if output:
        pathlib.Path(output).write_text(json.dumps(doc, indent=2) + "\n")
        print(
            f"wrote {output} (sum of case walls {total_wall:.2f}s, "
            f"elapsed {elapsed_s:.2f}s, {jobs} job(s))"
        )

    if update_golden:
        merged = dict(golden)
        merged.update({r["case"]: r["digest"] for r in results})
        gpath.parent.mkdir(parents=True, exist_ok=True)
        gpath.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
        print(f"updated {gpath} ({len(merged)} golden digests)")
    elif drifted:
        raise SystemExit(
            "report digests drifted from golden values:\n"
            + "\n".join(
                f"  {case_id}: expected {expected} actual {actual}"
                for case_id, expected, actual in drifted
            )
            + "\n— simulation results changed; if intentional, rerun with "
            "--update-golden"
        )
    return doc


#: Default ceiling for disabled-telemetry overhead on the reference case.
#: Override with ``REPRO_TELEMETRY_GUARD_THRESHOLD`` (a ratio, e.g. 1.08)
#: when a CI host is too noisy for the default.
TELEMETRY_GUARD_THRESHOLD = 1.05


def run_telemetry_guard(
    threshold: Optional[float] = None,
    repeats: int = 2,
    golden_file: Optional[str] = None,
) -> Dict[str, object]:
    """Bound the cost of *disabled* telemetry and sanitizer seams.

    Probe sites stay in the hot loop even when no session is attached, so
    this guard times the reference run three ways — ``telemetry=None``,
    an attached-but-disabled :class:`TelemetrySession`, and an
    attached-but-disabled slack sanitizer — taking the best of
    ``repeats`` walls each to damp scheduler noise.  All variants are
    digest-checked against the golden matrix; the guard fails (raises
    :class:`SystemExit`) on digest drift or when either disabled/baseline
    wall ratio exceeds the threshold (default 5%).
    """
    from repro.analysis.sanitizer import SlackSanitizer

    if threshold is None:
        threshold = float(
            os.environ.get(
                "REPRO_TELEMETRY_GUARD_THRESHOLD", TELEMETRY_GUARD_THRESHOLD
            )
        )
    case = BenchCase(**REFERENCE_CASE)
    golden = load_golden(
        pathlib.Path(golden_file) if golden_file else golden_path()
    )
    expected = golden.get(case.case_id)

    def best_of(
        what: str = "", telemetry=lambda: None, sanitizer=lambda: None
    ) -> Dict[str, object]:
        best = None
        for _ in range(repeats):
            record = run_case(case, telemetry=telemetry(), sanitizer=sanitizer())
            if expected is not None and record["digest"] != expected:
                raise SystemExit(
                    f"telemetry guard: digest drift on {case.case_id}{what} "
                    f"({record['digest']} != golden {expected})"
                )
            if best is None or record["wall_s"] < best["wall_s"]:
                best = record
        return best

    baseline = best_of()
    disabled = best_of(telemetry=TelemetrySession.disabled)
    san_off = best_of(" with a disabled sanitizer", sanitizer=SlackSanitizer.disabled)
    ratio = (
        disabled["wall_s"] / baseline["wall_s"] if baseline["wall_s"] > 0 else 1.0
    )
    san_ratio = (
        san_off["wall_s"] / baseline["wall_s"] if baseline["wall_s"] > 0 else 1.0
    )
    doc = {
        "case": case.case_id,
        "baseline_wall_s": baseline["wall_s"],
        "disabled_wall_s": disabled["wall_s"],
        "sanitizer_off_wall_s": san_off["wall_s"],
        "overhead_ratio": ratio,
        "sanitizer_overhead_ratio": san_ratio,
        "threshold": threshold,
        "digest_checked": expected is not None,
    }
    print(
        f"  telemetry guard: baseline {baseline['wall_s']:.2f}s, "
        f"disabled {disabled['wall_s']:.2f}s, "
        f"overhead {100.0 * (ratio - 1.0):+.1f}% (limit +{100.0 * (threshold - 1.0):.0f}%)"
    )
    print(
        f"  sanitizer guard: off {san_off['wall_s']:.2f}s, "
        f"overhead {100.0 * (san_ratio - 1.0):+.1f}% "
        f"(limit +{100.0 * (threshold - 1.0):.0f}%)"
    )
    if ratio > threshold:
        raise SystemExit(
            f"telemetry guard: disabled-telemetry overhead {ratio:.3f}x exceeds "
            f"{threshold:.3f}x on {case.case_id}"
        )
    if san_ratio > threshold:
        raise SystemExit(
            f"telemetry guard: disabled-sanitizer overhead {san_ratio:.3f}x "
            f"exceeds {threshold:.3f}x on {case.case_id}"
        )
    return doc
