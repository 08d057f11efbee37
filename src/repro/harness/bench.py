"""The golden-digest gate: a fixed workload matrix, checked bit for bit.

Optimizations and refactors may never change simulation results.  A
fixed matrix (CC / bounded / adaptive / speculative x 4-16 cores, plus
ocean and radix) is run and every :meth:`SimulationReport.digest` is
compared with the value recorded in ``benchmarks/golden_kernel.json``;
any drift — or a case the golden file has no entry for — fails the
command, and CI with it.  Per-case walls are printed for orientation
only: the repo's one perf record is ``benchmarks/e2e``.

Run it as ``python -m repro bench`` (add ``--smoke`` for the small CI
matrix, ``--update-golden`` to re-record goldens after an *intentional*
simulation-semantics change).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Dict, List, Optional

from repro.config import (
    AdaptiveConfig,
    CheckpointConfig,
    SlackConfig,
    SpeculativeConfig,
    paper_host_config,
    paper_target_config,
)
from repro.harness.cache import ReportCache, RunSpec, spec_key
from repro.harness.pool import ParallelExecutor

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

#: The reference run (8-core fft, SlackConfig(bound=16), full scale): the
#: full matrix's one full-scale cell.
REFERENCE_CASE = {"scheme": "bounded", "cores": 8, "scale": 1.0}


@dataclasses.dataclass(frozen=True)
class BenchCase:
    """One cell of the benchmark matrix."""

    scheme: str
    cores: int
    scale: float
    benchmark: str = "fft"

    @property
    def case_id(self) -> str:
        return f"{self.benchmark}-{self.scheme}-c{self.cores}-s{self.scale:g}"

    def spec(self) -> RunSpec:
        """The cell's full configuration (pool / report-cache identity)."""
        return RunSpec(
            benchmark=self.benchmark,
            scheme=SCHEMES[self.scheme](),
            scale=self.scale,
            checkpoint=None,
            detection=True,
            seed=12345,
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


def golden_path() -> pathlib.Path:
    root = pathlib.Path(__file__).resolve().parents[3]
    return root / "benchmarks" / "golden_kernel.json"


def load_golden(path: pathlib.Path) -> Dict[str, str]:
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def run_bench(
    smoke: bool = False,
    update_golden: bool = False,
    golden_file: Optional[str] = None,
    jobs: int = 1,
    use_cache: bool = False,
    sanitize: bool = False,
    cases: Optional[List[str]] = None,
) -> List[Dict[str, object]]:
    """Run the matrix and check every digest against the golden file.

    ``jobs > 1`` fans the cases out over a process pool, longest recorded
    wall first (digest checks are order-independent).  Every fresh run is written to the persistent
    report cache; ``use_cache`` additionally *reads* it, and reused rows
    are tagged ``cached``.

    ``sanitize`` attaches a fresh slack sanitizer to every run: a digest
    match then certifies not just "same results" but "same results with
    every timing invariant checked along the way".  Sanitized runs are
    always fresh (cache reads are skipped; the point is to check the run,
    not to reuse a report).  ``cases`` filters the matrix by substring
    match on case ids (e.g. ``["cc-c4", "bounded-c8"]``) — the CI
    sanitized step uses this to check a digest-gated subset.

    Returns one record per case (``case``, ``wall_s``, ``cached``,
    ``digest``, ``golden``, ``status``).  Raises :class:`SystemExit` with
    a non-zero code on digest drift, printing the expected and actual
    digest of every offending case, and — unless ``update_golden`` — when
    a selected case has no golden entry at all.
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
    missing = [case.case_id for case in matrix if case.case_id not in golden]
    if missing and not update_golden:
        # Same argument: a mistyped --golden path checks nothing, and a
        # gate that checked nothing must not be green.
        raise SystemExit(
            f"no golden digest in {gpath} for: {', '.join(missing)}\n"
            "— record them with --update-golden"
        )
    cache = ReportCache()
    specs = [case.spec() for case in matrix]
    keys = [spec_key(spec) for spec in specs]

    runs: Dict[int, tuple] = {}  # matrix index -> (report, wall_s, cached)
    if use_cache and not sanitize:
        for i, key in enumerate(keys):
            entry = cache.get(key)
            if entry is not None:
                runs[i] = (entry.report, entry.wall_s, True)
    to_run = [i for i in range(len(matrix)) if i not in runs]
    outcomes = ParallelExecutor(jobs=jobs, sanitize=sanitize).map(
        [specs[i] for i in to_run],
        costs=[cache.wall_hint(keys[i]) for i in to_run],
    )
    for i, outcome in zip(to_run, outcomes):
        cache.put(keys[i], outcome.report, outcome.wall_s)
        runs[i] = (outcome.report, outcome.wall_s, False)

    records: List[Dict[str, object]] = []
    for i, case in enumerate(matrix):
        report, wall_s, cached = runs[i]
        expected, digest = golden.get(case.case_id), report.digest()
        status = "ok" if expected == digest else "DRIFT" if expected else "missing"
        records.append(
            {
                "case": case.case_id,
                "wall_s": wall_s,
                "cached": cached,
                "digest": digest,
                "golden": expected,
                "status": status,
            }
        )
        tag = status + (", cached" if cached else "")
        print(f"  {case.case_id:<28} {wall_s:7.2f}s  [{tag}]")
    drifted = [
        f"  {r['case']}: expected {r['golden']} actual {r['digest']}"
        for r in records
        if r["status"] == "DRIFT"
    ]
    print(
        f"bench: {sum(r['status'] == 'ok' for r in records)}/{len(records)} ok, "
        f"{len(matrix) - len(to_run)} cached, "
        f"{len(to_run) if sanitize else 0} sanitized "
        f"({'smoke' if smoke else 'full'} matrix, {jobs} job(s))"
    )

    if update_golden:
        merged = dict(golden)
        merged.update({r["case"]: r["digest"] for r in records})
        gpath.parent.mkdir(parents=True, exist_ok=True)
        gpath.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
        print(f"updated {gpath} ({len(merged)} golden digests)")
    elif drifted:
        raise SystemExit(
            "report digests drifted from golden values:\n"
            + "\n".join(drifted)
            + "\n— simulation results changed; if intentional, rerun with "
            "--update-golden"
        )
    return records
