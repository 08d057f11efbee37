"""One function per paper table/figure (plus extensions and ablations).

Scale mapping (documented in EXPERIMENTS.md): the paper simulates 100 M
instructions (~12.5 M cycles) per run; this reproduction's kernels run
~10-50 k cycles, so checkpoint intervals and adaptive target rates are
scaled to keep the *dimensionless* quantities — expected violations per
interval, checkpoints per run, relative overheads — in the paper's regime:

- paper intervals 5K/10K/50K/100K cycles -> 500/1000/5000/10000 here
  (same 1:2:10:20 ladder);
- paper target violation rates 0.01 %-0.20 % -> 0.02 %-0.40 % here (the
  scaled-down caches make violations ~2x denser per cycle at the adaptive
  operating point).

Every experiment returns an :class:`ExperimentResult` whose ``rows`` are
plain tuples, whose ``claims`` check the paper's reported shape against
those rows (``repro experiment`` exits 1 when one fails), and whose
``render()`` prints the paper-style table followed by the claims.  Each
claim iterates the experiment's own arguments, so a small grid yields
claims that may fail but never crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import (
    AdaptiveConfig,
    CheckpointConfig,
    P2PConfig,
    SlackConfig,
    SpeculativeConfig,
)
from repro.core.analytical import SpeculativeModelInputs, speculative_time
from repro.harness.runner import ExperimentRunner
from repro.harness.tables import format_table

#: The paper's Table 1 benchmarks, in its order.
BENCHMARKS: Tuple[str, ...] = ("barnes", "fft", "lu", "water")

#: Scaled checkpoint-interval ladder (paper: 5K/10K/50K/100K cycles).
INTERVALS: Tuple[int, ...] = (500, 1000, 5000, 10000)
INTERVAL_LABELS: Dict[int, str] = {500: "5K", 1000: "10K", 5000: "50K", 10000: "100K"}


def _interval_label(interval: int) -> str:
    """Paper-style label for an interval (falls back to the raw value)."""
    return INTERVAL_LABELS.get(interval, str(interval))

#: Scaled adaptive target rates for Figure 4 (paper: 0.01 % ... 0.20 %).
FIGURE4_TARGETS: Tuple[float, ...] = (
    2e-4, 6e-4, 1e-3, 1.4e-3, 1.8e-3, 2e-3, 2.2e-3, 2.6e-3, 3e-3, 3.4e-3, 3.8e-3, 4e-3,
)

#: The scaled analogue of the paper's baseline 0.01 % target rate.  The
#: dimensionless quantity that defines the paper's operating regime is
#: *expected violations per checkpoint interval* (~5 at the 50K interval:
#: 0.01 % x 50 K); with the scaled interval ladder that corresponds to
#: 1e-3 per cycle here.
BASE_TARGET_RATE: float = 1e-3

#: Benchmark scale for the checkpoint/speculation tables (longer runs so
#: the largest interval still fits several times).
TABLE_SCALE: float = 2.0


def _base_adaptive(band: float = 0.05, target_rate: float = BASE_TARGET_RATE) -> AdaptiveConfig:
    return AdaptiveConfig(target_rate=target_rate, band=band, adjust_period=250)


@dataclass(frozen=True)
class Claim:
    """One shape the paper reports, checked against an experiment's rows."""

    name: str
    source: str
    observed: str
    holds: bool


def _every(name: str, source: str, cases: Sequence[Tuple[str, str, bool]]) -> Claim:
    """A claim over labelled ``(label, observed, holds)`` cases: it holds
    when every case does, and its observed text marks the failing ones."""
    observed = ", ".join(
        f"{label} {text}" + ("" if ok else " (fails)") for label, text, ok in cases
    )
    return Claim(name, source, observed, all(ok for _, _, ok in cases))


@dataclass
class ExperimentResult:
    """Structured output of one experiment."""

    name: str
    title: str
    headers: Sequence[str]
    rows: List[tuple]
    notes: str = ""
    series: Dict[str, List[tuple]] = field(default_factory=dict)
    claims: List[Claim] = field(default_factory=list)

    def render(self) -> str:
        parts = [f"== {self.name}: {self.title} =="]
        parts.append(format_table(self.headers, self.rows))
        for label, points in self.series.items():
            parts.append(f"-- series {label} --")
            parts.append("\n".join(f"  {point}" for point in points))
        if self.notes:
            parts.append(self.notes)
        for claim in self.claims:
            mark = "ok" if claim.holds else "FAIL"
            parts.append(f"[{mark}] {claim.name} ({claim.source}): {claim.observed}")
        return "\n".join(parts)


# --------------------------------------------------------------------- #
# Table 1
# --------------------------------------------------------------------- #

def table1(runner: Optional[ExperimentRunner] = None) -> ExperimentResult:
    """Table 1: benchmarks and (scaled) input sets."""
    from repro.workloads import make_workload

    paper_inputs = {
        "barnes": "1024 bodies",
        "fft": "64K points",
        "lu": "256 x 256 matrix",
        "water": "216 molecules",
    }
    rows = []
    for name in BENCHMARKS:
        workload = make_workload(name, num_threads=8, scale=1.0)
        ours = ", ".join(
            f"{key}={value}"
            for key, value in workload.params.items()
            if key not in ("scale",)
        )
        rows.append((name, paper_inputs[name], ours))
    names = [row[0] for row in rows]
    return ExperimentResult(
        name="table1",
        title="Benchmarks (paper input vs scaled reproduction input)",
        headers=("benchmark", "paper input", "reproduction input"),
        rows=rows,
        notes="Inputs are scaled down with the caches, as the paper scaled its own.",
        claims=[
            Claim("the paper's four benchmarks, in its order", "Table 1", " ".join(names),
                  names == ["barnes", "fft", "lu", "water"]),
            _every("both inputs given", "Table 1",
                   [(name, "yes" if paper and ours else "no", bool(paper and ours))
                    for name, paper, ours in rows]),
        ],
    )


# --------------------------------------------------------------------- #
# Figure 3
# --------------------------------------------------------------------- #

def figure3(
    runner: Optional[ExperimentRunner] = None,
    bounds: Sequence[int] = (1, 2, 4, 8, 16, 30, 60, 120, 250, 500, 1000),
    benchmarks: Sequence[str] = BENCHMARKS,
    scale: float = 1.0,
) -> ExperimentResult:
    """Figure 3: bus and cache-map violation rates vs the slack bound.

    Expected shape: bus violations grow with the bound and plateau; map
    violations are at least an order of magnitude rarer and only appear at
    larger bounds.
    """
    runner = runner or ExperimentRunner()
    runner.prefetch(
        runner.plan(benchmark, SlackConfig(bound=bound), scale=scale)
        for benchmark in benchmarks
        for bound in bounds
    )
    rows = []
    series: Dict[str, List[tuple]] = {}
    for benchmark in benchmarks:
        bus_points, map_points = [], []
        for bound in bounds:
            report = runner.run(benchmark, SlackConfig(bound=bound), scale=scale)
            rows.append(
                (benchmark, bound, report.bus_violation_rate, report.map_violation_rate)
            )
            bus_points.append((bound, report.bus_violation_rate))
            map_points.append((bound, report.map_violation_rate))
        series[f"{benchmark}/bus"] = bus_points
        series[f"{benchmark}/map"] = map_points
    low, high = min(bounds), max(bounds)
    grows, plateau, rarer, quiet, ratios = [], [], [], [], []
    for benchmark in benchmarks:
        bus = dict(series[f"{benchmark}/bus"])
        cache_map = dict(series[f"{benchmark}/map"])
        grows.append((benchmark, f"{bus[low]:.3g}->{bus[high]:.3g}", bus[high] > bus[low]))
        before, final = (bus[b] for b in sorted(bounds)[-2:])
        plateau.append((benchmark, f"{before:.3g}->{final:.3g}", final <= before * 2.0 + 1e-9))
        if cache_map[high] > 0:
            ratios.append(bus[high] / cache_map[high])
            rarer.append((benchmark, f"{ratios[-1]:.3g}x", ratios[-1] >= 2.5))
        quiet_ok = cache_map[low] <= bus[high] * 0.05 + 1e-9
        quiet.append((benchmark, f"{cache_map[low]:.3g}", quiet_ok))
    mean_ratio = sum(ratios) / len(ratios) if ratios else None
    return ExperimentResult(
        name="figure3",
        title="Violation rates of bus and cache map with bounded slack",
        headers=("benchmark", "slack bound", "bus rate", "map rate"),
        rows=rows,
        series=series,
        claims=[
            _every("bus rate grows from the smallest to the largest bound", "Fig. 3a", grows),
            _every("bus rate plateaus: the last step at most doubles it", "Fig. 3a", plateau),
            _every("map at least 2.5x rarer than bus at the largest bound", "Fig. 3b", rarer),
            _every("map at the smallest bound at most 5% of bus at the largest", "Fig. 3b", quiet),
            Claim("map at least 5x rarer than bus on average", "Fig. 3b",
                  "no map violations" if mean_ratio is None else f"{mean_ratio:.3g}x",
                  mean_ratio is None or mean_ratio >= 5.0),
        ],
    )


# --------------------------------------------------------------------- #
# Figure 4
# --------------------------------------------------------------------- #

def figure4(
    runner: Optional[ExperimentRunner] = None,
    benchmarks: Sequence[str] = BENCHMARKS,
    targets: Sequence[float] = FIGURE4_TARGETS,
    bands: Sequence[float] = (0.0, 0.05),
    fixed_bounds: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8, 9),
    scale: float = 1.0,
) -> ExperimentResult:
    """Figure 4: simulation time vs measured violation rate.

    Three series per benchmark: adaptive slack with a 0 % and a 5 %
    violation band (one point per target rate), and the fixed series
    (cycle-by-cycle plus bounded slack S1-S9).  Expected shape: adaptive is
    always faster than CC; bounded slack at a similar violation rate is
    faster than adaptive (the price of the adaptive "safety net"); wider
    bands are slightly faster than narrow ones.
    """
    runner = runner or ExperimentRunner()
    runner.prefetch(
        [
            runner.plan(
                benchmark, _base_adaptive(band=band, target_rate=target), scale=scale
            )
            for benchmark in benchmarks
            for band in bands
            for target in targets
        ]
        + [runner.reference_spec(benchmark, scale=scale) for benchmark in benchmarks]
        + [
            runner.plan(benchmark, SlackConfig(bound=bound), scale=scale)
            for benchmark in benchmarks
            for bound in fixed_bounds
        ]
    )
    rows = []
    series: Dict[str, List[tuple]] = {}
    for benchmark in benchmarks:
        for band in bands:
            points = []
            for target in targets:
                report = runner.run(
                    benchmark, _base_adaptive(band=band, target_rate=target), scale=scale
                )
                rows.append(
                    (
                        benchmark,
                        f"adaptive band {band:.0%}",
                        target,
                        report.violation_rate,
                        report.sim_time_s,
                    )
                )
                points.append((report.violation_rate, report.sim_time_s))
            series[f"{benchmark}/adaptive-band{band:g}"] = points
        fixed_points = []
        cc = runner.reference(benchmark, scale=scale)
        rows.append((benchmark, "cycle-by-cycle", 0.0, cc.violation_rate, cc.sim_time_s))
        fixed_points.append((cc.violation_rate, cc.sim_time_s))
        for bound in fixed_bounds:
            report = runner.run(benchmark, SlackConfig(bound=bound), scale=scale)
            rows.append(
                (benchmark, f"S{bound}", 0.0, report.violation_rate, report.sim_time_s)
            )
            fixed_points.append((report.violation_rate, report.sim_time_s))
        series[f"{benchmark}/fixed"] = fixed_points
    exact, faster, falling = [], [], []
    dominated = comparable = 0
    for benchmark in benchmarks:
        fixed = series[f"{benchmark}/fixed"]
        cc_rate, cc_time = fixed[0]
        exact.append((benchmark, f"{cc_rate:.3g}", cc_rate == 0.0))
        for band in bands:
            adaptive = series[f"{benchmark}/adaptive-band{band:g}"]
            label = f"{benchmark}/{band:.0%}"
            slowest = max(time for _, time in adaptive)
            faster.append((label, f"{slowest / cc_time:.3g}x CC", slowest < cc_time))
            first, last = adaptive[0][1], adaptive[-1][1]
            falling.append((label, f"{last / first:.3g}x", last <= first * 1.10))
        # Bounded slack at a similar violation rate beats adaptive (the
        # price of the adaptive "safety net"), pooled over benchmarks.
        for rate, time in series[f"{benchmark}/adaptive-band{max(bands):g}"]:
            candidates = [t for r, t in sorted(fixed[1:]) if r <= rate * 1.5]
            if candidates:
                comparable += 1
                dominated += min(candidates) <= time
    return ExperimentResult(
        name="figure4",
        title="Simulation time vs violation rate (bounded vs adaptive slack)",
        headers=("benchmark", "scheme", "target rate", "measured rate", "sim time (s)"),
        rows=rows,
        series=series,
        claims=[
            _every("cycle-by-cycle is violation-free", "Fig. 4", exact),
            _every("every adaptive run is faster than cycle-by-cycle", "Fig. 4", faster),
            _every("the highest target rate at most 10% slower than the lowest", "Fig. 4",
                   falling),
            Claim("bounded slack at <= 1.5x the rate beats adaptive at half the points or more",
                  "Fig. 4", f"{dominated}/{comparable}",
                  comparable > 0 and dominated / comparable >= 0.5),
        ],
    )


# --------------------------------------------------------------------- #
# Table 2
# --------------------------------------------------------------------- #

def table2(
    runner: Optional[ExperimentRunner] = None,
    benchmarks: Sequence[str] = BENCHMARKS,
    intervals: Sequence[int] = INTERVALS,
    scale: float = TABLE_SCALE,
) -> ExperimentResult:
    """Table 2: simulation times of CC, SU, Adaptive, and Adaptive with
    periodic checkpointing at each interval.

    Expected shape: SU is 2-3x faster than CC; adaptive sits between; the
    short checkpoint intervals cost more than CC; the long intervals
    approach the plain adaptive time.
    """
    runner = runner or ExperimentRunner()
    runner.prefetch(
        [runner.reference_spec(benchmark, scale=scale) for benchmark in benchmarks]
        + [
            runner.plan(benchmark, SlackConfig(bound=None), scale=scale)
            for benchmark in benchmarks
        ]
        + [runner.plan(benchmark, _base_adaptive(), scale=scale) for benchmark in benchmarks]
        + [
            runner.plan(
                benchmark,
                _base_adaptive(),
                scale=scale,
                checkpoint=CheckpointConfig(interval=interval),
            )
            for benchmark in benchmarks
            for interval in intervals
        ]
    )
    rows = []
    for benchmark in benchmarks:
        cc = runner.reference(benchmark, scale=scale)
        su = runner.run(benchmark, SlackConfig(bound=None), scale=scale)
        adaptive = runner.run(benchmark, _base_adaptive(), scale=scale)
        row = [benchmark, cc.sim_time_s, su.sim_time_s, adaptive.sim_time_s]
        for interval in intervals:
            checked = runner.run(
                benchmark,
                _base_adaptive(),
                scale=scale,
                checkpoint=CheckpointConfig(interval=interval),
            )
            row.append(checked.sim_time_s)
        rows.append(tuple(row))
    headers = ["benchmark", "CC", "SU", "Adapt"] + [
        _interval_label(i) for i in intervals
    ]
    shortest, longest = _interval_label(min(intervals)), _interval_label(max(intervals))
    band, between, costly, falling, approach = [], [], [], [], []
    for name, cc, su, adaptive, *checked in rows:
        costs = [time for _, time in sorted(zip(intervals, checked))]
        band.append((name, f"{cc / su:.2f}x", 1.5 <= cc / su <= 5.0))
        between.append((name, f"{su:.3g}<{adaptive:.3g}<{cc:.3g}", su < adaptive < cc))
        costly.append((name, f"{costs[0] / cc:.3g}x CC", costs[0] > cc))
        ok = all(a > b for a, b in zip(costs, costs[1:]))
        falling.append((name, ">".join(f"{c:.3g}" for c in costs), ok))
        ok = costs[-1] <= adaptive * 1.25
        approach.append((name, f"{costs[-1] / adaptive:.3g}x Adapt", ok))
    return ExperimentResult(
        name="table2",
        title="Simulation time of schemes with the baseline target rate (s, modeled)",
        headers=headers,
        rows=rows,
        notes=(
            "Interval labels follow the paper's 5K/10K/50K/100K ladder; the "
            f"reproduction runs {scale:g}x-scale kernels with intervals "
            f"{list(intervals)} cycles (same 1:2:10:20 ratios)."
        ),
        claims=[
            _every("SU 1.5-5x faster than CC", "Table 2", band),
            _every("adaptive sits between SU and CC", "Table 2", between),
            _every(f"{shortest} checkpointing slower than CC", "Table 2", costly),
            _every("checkpointing cost falls with every longer interval", "Table 2", falling),
            _every(f"{longest} checkpointing within 25% of plain adaptive", "Table 2", approach),
        ],
    )


# --------------------------------------------------------------------- #
# Tables 3 and 4
# --------------------------------------------------------------------- #

def _prefetch_interval_stats(
    runner: ExperimentRunner,
    benchmarks: Sequence[str],
    intervals: Sequence[int],
    scale: float,
    with_reference: bool = False,
) -> None:
    """Declare the checkpoint-interval run set shared by Tables 3-5."""
    specs = [
        runner.plan(
            benchmark,
            _base_adaptive(),
            scale=scale,
            checkpoint=CheckpointConfig(interval=interval),
        )
        for benchmark in benchmarks
        for interval in intervals
    ]
    if with_reference:
        specs += [runner.reference_spec(benchmark, scale=scale) for benchmark in benchmarks]
    runner.prefetch(specs)


def _interval_stats(
    runner: ExperimentRunner,
    benchmark: str,
    interval: int,
    scale: float,
):
    report = runner.run(
        benchmark,
        _base_adaptive(),
        scale=scale,
        checkpoint=CheckpointConfig(interval=interval),
    )
    return report


def table3(
    runner: Optional[ExperimentRunner] = None,
    benchmarks: Sequence[str] = BENCHMARKS,
    intervals: Sequence[int] = INTERVALS[1:],
    scale: float = TABLE_SCALE,
) -> ExperimentResult:
    """Table 3: fraction of checkpoint intervals with >= 1 violation (F).

    Expected shape: F grows with the interval; benchmarks differ by how
    *clustered* their violations are (Barnes spreads them -> high F; LU
    confines them to phase boundaries -> low F).
    """
    runner = runner or ExperimentRunner()
    _prefetch_interval_stats(runner, benchmarks, intervals, scale)
    rows = []
    for benchmark in benchmarks:
        row = [benchmark]
        for interval in intervals:
            report = _interval_stats(runner, benchmark, interval, scale)
            row.append(report.fraction_intervals_violating())
        rows.append(tuple(row))
    headers = ["benchmark"] + [_interval_label(i) for i in intervals]
    # F grows with the interval from the shortest to the longest; runs hold
    # ~5-50 intervals, not the paper's thousands, so small dips between
    # neighbours are tolerated.
    in_range, grows, dips, middle = [], [], [], []
    for name, *values in rows:
        span = f"{min(values):.3g}..{max(values):.3g}"
        in_range.append((name, span, all(0.0 <= v <= 1.0 for v in values)))
        grows.append((name, f"{values[0]:.3g}->{values[-1]:.3g}", values[-1] >= values[0]))
        steps = list(zip(values, values[1:]))
        dip = max([0.0] + [prev - nxt for prev, nxt in steps])
        ok = all(nxt >= prev - 0.12 for prev, nxt in steps)
        dips.append((name, f"largest dip {dip:.3g}", ok))
        middle.append(values[len(values) // 2])
    return ExperimentResult(
        name="table3",
        title="Fraction of checkpoint intervals that have at least one violation",
        headers=headers,
        rows=rows,
        claims=[
            _every("F is a fraction", "Table 3", in_range),
            _every("F grows from the shortest to the longest interval", "Table 3", grows),
            _every("F drops by at most 0.12 between neighbouring intervals", "Table 3", dips),
            Claim("benchmarks differ at the middle interval", "Table 3",
                  f"{min(middle):.3g}..{max(middle):.3g}", max(middle) > min(middle)),
        ],
    )


def table4(
    runner: Optional[ExperimentRunner] = None,
    benchmarks: Sequence[str] = BENCHMARKS,
    intervals: Sequence[int] = INTERVALS[1:],
    scale: float = TABLE_SCALE,
) -> ExperimentResult:
    """Table 4: mean distance from interval start to the first violation
    (the rollback distance D_r), in simulated cycles."""
    runner = runner or ExperimentRunner()
    _prefetch_interval_stats(runner, benchmarks, intervals, scale)
    rows = []
    for benchmark in benchmarks:
        row = [benchmark]
        for interval in intervals:
            report = _interval_stats(runner, benchmark, interval, scale)
            distance = report.mean_first_violation_distance()
            row.append(round(distance, 1) if distance is not None else "-")
        rows.append(tuple(row))
    headers = ["benchmark"] + [_interval_label(i) for i in intervals]
    within = [
        (name, " ".join(map(str, cells)),
         all(0 <= d <= i for i, d in zip(intervals, cells) if d != "-"))
        for name, *cells in rows
    ]
    measured = [d for row in rows for d in row[1:] if d != "-"]
    return ExperimentResult(
        name="table4",
        title="Average distance of first violation within one interval (cycles)",
        headers=headers,
        rows=rows,
        claims=[
            _every("D_r lies within its interval", "Table 4", within),
            Claim("some configuration violates", "Table 4",
                  f"{len(measured)} of {len(rows) * len(intervals)} cells", bool(measured)),
        ],
    )


# --------------------------------------------------------------------- #
# Table 5
# --------------------------------------------------------------------- #

def table5(
    runner: Optional[ExperimentRunner] = None,
    benchmarks: Sequence[str] = BENCHMARKS,
    intervals: Sequence[int] = INTERVALS[2:],
    scale: float = TABLE_SCALE,
) -> ExperimentResult:
    """Table 5: analytical estimate of full speculative simulation time.

    Plugs the measured T_cc, T_cpt, F, and D_r into the section-5.2 model.
    Expected shape (the paper's conclusion): the estimate exceeds CC
    throughout — speculation does not pay at these violation rates.
    """
    runner = runner or ExperimentRunner()
    _prefetch_interval_stats(runner, benchmarks, intervals, scale, with_reference=True)
    rows = []
    for benchmark in benchmarks:
        cc = runner.reference(benchmark, scale=scale)
        row = [benchmark, cc.sim_time_s]
        for interval in intervals:
            report = _interval_stats(runner, benchmark, interval, scale)
            f = report.fraction_intervals_violating()
            distance = report.mean_first_violation_distance() or 0.0
            estimate = speculative_time(
                SpeculativeModelInputs(
                    t_cc=cc.sim_time_s,
                    t_cpt=report.sim_time_s,
                    fraction_violating=f,
                    rollback_distance=min(distance, interval),
                    interval=interval,
                )
            )
            row.append(estimate)
        rows.append(tuple(row))
    headers = ["benchmark", "CC"] + [_interval_label(i) for i in intervals]
    # LU is the borderline case in the paper too (361 vs 343 s); it may
    # graze CC but never beat it decisively.
    above = [
        (name, f"{min(estimates) / cc:.3g}x CC", all(e > cc * 0.90 for e in estimates))
        for name, cc, *estimates in rows
    ]
    return ExperimentResult(
        name="table5",
        title="Estimated overall simulation time of speculative simulation (s, modeled)",
        headers=headers,
        rows=rows,
        claims=[_every("speculation estimate above 0.9x CC", "Table 5", above)],
    )


# --------------------------------------------------------------------- #
# Extension E1: full speculative execution (beyond the paper)
# --------------------------------------------------------------------- #

def speculative_full(
    runner: Optional[ExperimentRunner] = None,
    benchmarks: Sequence[str] = BENCHMARKS,
    intervals: Sequence[int] = INTERVALS[2:],
    scale: float = TABLE_SCALE,
) -> ExperimentResult:
    """E1: measured full speculative execution vs the analytical estimate.

    The paper only modeled speculation; this reproduction implements it
    (checkpoint, detect, rollback, CC replay) and cross-checks the model.
    """
    runner = runner or ExperimentRunner()
    runner.prefetch(
        [
            runner.plan(
                benchmark,
                SpeculativeConfig(
                    base=_base_adaptive(),
                    checkpoint=CheckpointConfig(interval=interval),
                ),
                scale=scale,
            )
            for benchmark in benchmarks
            for interval in intervals
        ]
    )
    analytical = {
        (row[0], interval): row[2 + idx]
        for row in table5(runner, benchmarks, intervals, scale).rows
        for idx, interval in enumerate(intervals)
    }
    rows = []
    for benchmark in benchmarks:
        cc = runner.reference(benchmark, scale=scale)
        for interval in intervals:
            spec = runner.run(
                benchmark,
                SpeculativeConfig(
                    base=_base_adaptive(),
                    checkpoint=CheckpointConfig(interval=interval),
                ),
                scale=scale,
            )
            rows.append(
                (
                    benchmark,
                    _interval_label(interval),
                    cc.sim_time_s,
                    analytical[(benchmark, interval)],
                    spec.sim_time_s,
                    spec.rollbacks,
                    spec.wasted_target_cycles,
                )
            )
    sane, above, agrees = [], [], []
    for name, interval, cc, model_ts, measured_ts, rollbacks, wasted in rows:
        label = f"{name}@{interval}"
        ok = measured_ts > 0 and rollbacks >= 0 and (not rollbacks or wasted > 0)
        sane.append((label, f"{rollbacks} rollbacks/{wasted} cycles", ok))
        above.append((label, f"{measured_ts / cc:.3g}x CC", measured_ts >= cc * 0.9))
        ok = model_ts * 0.4 <= measured_ts <= model_ts * 2.5
        agrees.append((label, f"{measured_ts / model_ts:.3g}x model", ok))
    return ExperimentResult(
        name="speculative_full",
        title="E1: measured speculative slack vs the analytical model",
        headers=(
            "benchmark", "interval", "CC (s)", "model T_s (s)", "measured T_s (s)",
            "rollbacks", "wasted cycles",
        ),
        rows=rows,
        notes="The model omits rollback cost, so it slightly underestimates.",
        claims=[
            _every("positive time, and every rollback wastes cycles", "E1", sane),
            _every("measured speculation at least 0.9x CC", "E1 (Table 5)", above),
            _every("measured within 0.4-2.5x of the model", "E1 (§5.2)", agrees),
        ],
    )


# --------------------------------------------------------------------- #
# Extension E2: Lax-P2P (paper section 6)
# --------------------------------------------------------------------- #

def p2p_comparison(
    runner: Optional[ExperimentRunner] = None,
    benchmarks: Sequence[str] = BENCHMARKS,
    scale: float = 1.0,
) -> ExperimentResult:
    """E2: Graphite-style Lax-P2P vs bounded and unbounded slack."""
    runner = runner or ExperimentRunner()
    p2p_schemes = (
        SlackConfig(bound=8),
        SlackConfig(bound=None),
        P2PConfig(period=100, max_lead=100),
    )
    runner.prefetch(
        [runner.reference_spec(benchmark, scale=scale) for benchmark in benchmarks]
        + [
            runner.plan(benchmark, scheme, scale=scale)
            for benchmark in benchmarks
            for scheme in p2p_schemes
        ]
    )
    rows = []
    for benchmark in benchmarks:
        cc = runner.reference(benchmark, scale=scale)
        for scheme in p2p_schemes:
            report = runner.run(benchmark, scheme, scale=scale)
            rows.append(
                (
                    benchmark,
                    report.scheme,
                    report.speedup_over(cc),
                    report.execution_time_error(cc),
                    report.violation_rate,
                )
            )
    p2p_rows = [row for row in rows if row[1].startswith("p2p")]
    return ExperimentResult(
        name="p2p",
        title="E2: Lax-P2P random pairwise sync vs bounded/unbounded slack",
        headers=("benchmark", "scheme", "speedup vs CC", "exec-time error", "violation rate"),
        rows=rows,
        claims=[
            _every("P2P more than 1.3x faster than CC", "E2 (§6)",
                   [(name, f"{speedup:.2f}x", speedup > 1.3)
                    for name, _, speedup, _, _ in p2p_rows]),
            _every("P2P error below 35%", "E2 (§6)",
                   [(name, f"{error:.1%}", error < 0.35) for name, _, _, error, _ in p2p_rows]),
        ],
    )


# --------------------------------------------------------------------- #
# Extension E3: larger targets than the host (paper section 7)
# --------------------------------------------------------------------- #

def scaling(
    runner: Optional[ExperimentRunner] = None,
    core_counts: Sequence[int] = (8, 16, 32),
    benchmarks: Sequence[str] = ("fft", "barnes"),
    scale: float = 0.5,
) -> ExperimentResult:
    """E3: simulate CMPs larger than the 8-context host.

    The paper's experiments stop at 8 target cores on 8 host contexts
    ("larger-scale simulations must be run..." — section 7).  Here the
    same host simulates 8-, 16- and 32-core targets: core threads share
    contexts and pay context switches, so the CC/SU gap is expected to
    *widen* with target size (slack also absorbs the multiplexing
    imbalance), while per-context multiplexing inflates absolute times.
    """
    from repro.config import paper_target_config

    runner = runner or ExperimentRunner()
    machines = {
        cores: runner.on_machine(target=paper_target_config(num_cores=cores), num_threads=cores)
        for cores in core_counts
    }
    runner.prefetch(
        spec
        for benchmark in benchmarks
        for machine in machines.values()
        for spec in (
            machine.reference_spec(benchmark, scale=scale),
            machine.plan(benchmark, SlackConfig(bound=None), scale=scale),
        )
    )
    rows = []
    for benchmark in benchmarks:
        for cores, machine in machines.items():
            cc = machine.reference(benchmark, scale=scale)
            su = machine.run(benchmark, SlackConfig(bound=None), scale=scale)
            rows.append(
                (
                    benchmark,
                    cores,
                    cc.sim_time_s,
                    su.sim_time_s,
                    cc.sim_time_s / su.sim_time_s,
                    su.execution_time_error(cc),
                )
            )
    grows = []
    for benchmark in benchmarks:
        cc_times = [row[2] for row in sorted(r for r in rows if r[0] == benchmark)]
        grows.append(
            (benchmark, "<=".join(f"{t:.3g}" for t in cc_times), cc_times == sorted(cc_times))
        )
    return ExperimentResult(
        name="scaling",
        title="E3: simulating CMPs larger than the host (8 contexts)",
        headers=(
            "benchmark", "target cores", "CC (s)", "SU (s)", "SU speedup", "SU error",
        ),
        rows=rows,
        claims=[
            _every("CC time grows with the target's cores", "E3 (§7)", grows),
            _every("SU more than 1.3x faster than CC at every size", "E3 (§7)",
                   [(f"{name}@{cores}", f"{speedup:.2f}x", speedup > 1.3)
                    for name, cores, _, _, speedup, _ in rows]),
            _every("SU error below 50% at every size", "E3 (§7)",
                   [(f"{name}@{cores}", f"{error:.1%}", error < 0.5)
                    for name, cores, _, _, _, error in rows]),
        ],
    )


# --------------------------------------------------------------------- #
# Ablation A1: violation-detection overhead
# --------------------------------------------------------------------- #

def ablation_detection(
    runner: Optional[ExperimentRunner] = None,
    benchmarks: Sequence[str] = BENCHMARKS,
    bound: int = 8,
    scale: float = 1.0,
) -> ExperimentResult:
    """A1: the cost of violation detection itself (paper section 3 notes
    detection 'unavoidably disturbs the execution of SlackSim')."""
    runner = runner or ExperimentRunner()
    runner.prefetch(
        runner.plan(benchmark, SlackConfig(bound=bound), scale=scale, detection=detection)
        for benchmark in benchmarks
        for detection in (True, False)
    )
    rows = []
    for benchmark in benchmarks:
        on = runner.run(benchmark, SlackConfig(bound=bound), scale=scale, detection=True)
        off = runner.run(benchmark, SlackConfig(bound=bound), scale=scale, detection=False)
        overhead = on.sim_time_s / off.sim_time_s - 1.0
        rows.append((benchmark, off.sim_time_s, on.sim_time_s, overhead))
    return ExperimentResult(
        name="ablation_detection",
        title=f"A1: violation-detection overhead (bounded slack S{bound})",
        headers=("benchmark", "detection off (s)", "detection on (s)", "overhead"),
        rows=rows,
        # Detection adds per-event host work; schedule noise can offset a
        # little of it, but it can never be a large win.
        claims=[
            _every("detection on at least 0.97x detection off", "A1 (§3)",
                   [(name, f"{on / off:.3g}x", on >= off * 0.97) for name, off, on, _ in rows]),
            _every("detection overhead below 30%", "A1 (§3)",
                   [(name, f"{overhead:.1%}", overhead < 0.30) for name, _, _, overhead in rows]),
        ],
    )


# --------------------------------------------------------------------- #
# Extension E5: adaptive quantum baseline (paper section 6, Falcon et al.)
# --------------------------------------------------------------------- #

def adaptive_quantum_comparison(
    runner: Optional[ExperimentRunner] = None,
    benchmarks: Sequence[str] = BENCHMARKS,
    scale: float = 1.0,
) -> ExperimentResult:
    """E5: traffic-driven adaptive quantum vs violation-driven adaptive slack.

    Section 6 contrasts the paper's scheme with the adaptive quantum of
    Falcon et al., which throttles on network traffic — an indirect error
    proxy.  The paper's claim: the violation rate "is a more direct
    measure of errors".  Here both controllers run on the same benchmarks;
    the quantum baseline stays violation-free (conservative service) but
    pays barrier costs, while adaptive slack trades a controlled violation
    rate for cheaper synchronization.
    """
    from repro.config import AdaptiveQuantumConfig

    runner = runner or ExperimentRunner()
    schemes = (AdaptiveQuantumConfig(), _base_adaptive())
    runner.prefetch(
        [runner.reference_spec(benchmark, scale=scale) for benchmark in benchmarks]
        + [
            runner.plan(benchmark, scheme, scale=scale)
            for benchmark in benchmarks
            for scheme in schemes
        ]
    )
    rows = []
    for benchmark in benchmarks:
        cc = runner.reference(benchmark, scale=scale)
        for scheme in schemes:
            report = runner.run(benchmark, scheme, scale=scale)
            rows.append(
                (
                    benchmark,
                    report.scheme,
                    report.speedup_over(cc),
                    report.execution_time_error(cc),
                    report.violation_rate,
                )
            )
    quantum_rows = [row for row in rows if "quantum" in row[1]]
    slack_speedups = {row[0]: row[2] for row in rows if "quantum" not in row[1]}
    wins = sum(
        1 for name, _, speedup, _, _ in quantum_rows
        if slack_speedups[name] >= speedup * 0.9
    )
    return ExperimentResult(
        name="adaptive_quantum",
        title="E5: traffic-driven adaptive quantum vs violation-driven adaptive slack",
        headers=("benchmark", "scheme", "speedup vs CC", "exec error", "violation rate"),
        rows=rows,
        # Under saturating traffic the quantum controller pins the quantum
        # at one cycle and degenerates to cycle-by-cycle (barnes, water).
        claims=[
            _every("adaptive quantum at least 0.95x CC", "E5 (§6)",
                   [(name, f"{speedup:.2f}x", speedup >= 0.95)
                    for name, _, speedup, _, _ in quantum_rows]),
            _every("adaptive quantum is violation-free", "E5 (§6)",
                   [(name, f"{rate:.3g}", rate == 0.0) for name, _, _, _, rate in quantum_rows]),
            _every("adaptive quantum error below 25%", "E5 (§6)",
                   [(name, f"{error:.1%}", error < 0.25) for name, _, _, error, _ in quantum_rows]),
            Claim("adaptive slack at >= 0.9x the quantum's speedup on at least half the "
                  "benchmarks", "E5 (§6)", f"{wins}/{len(quantum_rows)}",
                  wins >= len(quantum_rows) // 2),
        ],
    )


# --------------------------------------------------------------------- #
# Extension E4: hierarchical manager (paper section 2)
# --------------------------------------------------------------------- #

def hierarchy(
    runner: Optional[ExperimentRunner] = None,
    submanager_counts: Sequence[int] = (0, 2, 4),
    num_cores: int = 32,
    benchmark: str = "fft",
    scale: float = 0.5,
) -> ExperimentResult:
    """E4: hierarchical manager organization.

    The paper anticipates that a bottlenecked manager "should be organized
    hierarchically".  This experiment adds sub-manager threads that each
    consolidate one core group's OutQs before the top manager serves the
    bus/L2, and reports how the *top manager's busy time* shrinks as the
    per-event consolidation work is offloaded.  (At the scales a Python
    host can drive, the manager is not yet the end-to-end bottleneck —
    exactly the paper's observation that its average work "is much less
    than in each core thread" — so the win shows up in manager load, not
    total time.)
    """
    from repro.config import HostConfig, paper_target_config

    runner = runner or ExperimentRunner()
    target = paper_target_config(num_cores=num_cores)
    machines = {
        subs: runner.on_machine(
            target=target,
            host=HostConfig(num_contexts=num_cores + 8, num_submanagers=subs, seed=runner.seed),
            num_threads=num_cores,
        )
        for subs in submanager_counts
    }
    runner.prefetch(
        machine.plan(benchmark, SlackConfig(bound=8), scale=scale)
        for machine in machines.values()
    )
    rows = []
    for subs, machine in machines.items():
        report = machine.run(benchmark, SlackConfig(bound=8), scale=scale)
        rows.append(
            (
                subs,
                report.sim_time_s,
                report.manager_busy_s,
                report.submanager_busy_s,
                report.manager_busy_s / report.sim_time_s,
            )
        )
    by_subs = {row[0]: row for row in rows}
    flat, deepest = by_subs[min(by_subs)], by_subs[max(by_subs)]
    return ExperimentResult(
        name="hierarchy",
        title=f"E4: hierarchical manager on a {num_cores}-core target ({benchmark})",
        headers=(
            "sub-managers", "sim time (s)", "top-mgr busy (s)",
            "sub-mgr busy (s)", "top-mgr load",
        ),
        rows=rows,
        claims=[
            Claim("the deepest hierarchy cuts top-manager busy time below 0.95x flat", "E4 (§2)",
                  f"{deepest[2] / flat[2]:.3g}x", deepest[2] < flat[2] * 0.95),
            Claim("sub-managers do work", "E4 (§2)", f"{deepest[3]:.3g} s", deepest[3] > 0),
            Claim("sim time below 1.3x flat: the manager is not yet the bottleneck", "E4 (§2)",
                  f"{deepest[1] / flat[1]:.3g}x", deepest[1] < flat[1] * 1.3),
        ],
    )


# --------------------------------------------------------------------- #
# Ablation A3: manager placement (pinned vs load-balanced)
# --------------------------------------------------------------------- #

def ablation_manager_placement(
    runner: Optional[ExperimentRunner] = None,
    benchmarks: Sequence[str] = ("barnes", "water"),
    scale: float = 1.0,
) -> ExperimentResult:
    """A3: pin the manager to one context vs OS load balancing.

    With nine simulation threads on eight contexts, pinning the manager
    starves the core thread sharing its context into a permanent laggard;
    under unbounded slack every lock handoff then warps that laggard to
    the frontier, inflating the simulated execution time.  Load balancing
    (the realistic default — Linux migrates the odd thread out) removes
    the systematic drift.  This ablation quantifies why.
    """
    from dataclasses import replace

    from repro.config import paper_host_config

    runner = runner or ExperimentRunner()
    machines = {
        migrates: runner.on_machine(
            host=replace(paper_host_config(seed=runner.seed), manager_migrates=migrates)
        )
        for migrates in (True, False)
    }
    runner.prefetch(
        spec
        for benchmark in benchmarks
        for machine in machines.values()
        for spec in (
            machine.reference_spec(benchmark, scale=scale),
            machine.plan(benchmark, SlackConfig(bound=None), scale=scale),
        )
    )
    rows = []
    for benchmark in benchmarks:
        for migrates, machine in machines.items():
            cc = machine.reference(benchmark, scale=scale)
            su = machine.run(benchmark, SlackConfig(bound=None), scale=scale)
            rows.append(
                (
                    benchmark,
                    "balanced" if migrates else "pinned",
                    su.speedup_over(cc),
                    su.execution_time_error(cc),
                )
            )
    # Rows alternate balanced, pinned per benchmark.
    pairs = list(zip(rows[::2], rows[1::2]))
    return ExperimentResult(
        name="ablation_manager_placement",
        title="A3: manager placement and unbounded-slack drift",
        headers=("benchmark", "manager", "SU speedup", "SU exec error"),
        rows=rows,
        notes=(
            "Pinning recreates the laggard pathology: one core simulates at "
            "half speed and every sync handoff converts the drift into "
            "simulated time."
        ),
        claims=[
            _every("balanced SU error below 15%", "A3",
                   [(name, f"{error:.1%}", error < 0.15) for (name, _, _, error), _ in pairs]),
            _every("pinning worsens SU error", "A3",
                   [(name, f"{balanced:.1%}->{pinned:.1%}", pinned > balanced)
                    for (name, _, _, balanced), (_, _, _, pinned) in pairs]),
        ],
    )


# --------------------------------------------------------------------- #
# Ablation A2: tracked violation types for speculation
# --------------------------------------------------------------------- #

def ablation_tracked(
    runner: Optional[ExperimentRunner] = None,
    benchmarks: Sequence[str] = BENCHMARKS,
    interval: int = 5000,
    scale: float = TABLE_SCALE,
) -> ExperimentResult:
    """A2: speculation tracking all violations vs map violations only.

    The paper (end of section 5.2) argues that tracking only the rare,
    high-impact map violations could make speculation viable; this
    ablation measures exactly that trade-off.
    """
    runner = runner or ExperimentRunner()
    tracked_variants = (("bus", "map"), ("map",))

    def _scheme(tracked):
        return SpeculativeConfig(
            base=_base_adaptive(),
            checkpoint=CheckpointConfig(interval=interval),
            tracked=tracked,
        )

    runner.prefetch(
        [runner.reference_spec(benchmark, scale=scale) for benchmark in benchmarks]
        + [
            runner.plan(benchmark, _scheme(tracked), scale=scale)
            for benchmark in benchmarks
            for tracked in tracked_variants
        ]
    )
    rows = []
    for benchmark in benchmarks:
        cc = runner.reference(benchmark, scale=scale)
        for tracked in tracked_variants:
            spec = runner.run(benchmark, _scheme(tracked), scale=scale)
            rows.append(
                (
                    benchmark,
                    "+".join(tracked),
                    spec.rollbacks,
                    spec.sim_time_s,
                    spec.sim_time_s / cc.sim_time_s,
                )
            )
    # Rows alternate bus+map, map per benchmark.
    pairs = list(zip(rows[::2], rows[1::2]))
    return ExperimentResult(
        name="ablation_tracked",
        title="A2: speculative rollback cost by tracked violation type",
        headers=("benchmark", "tracked", "rollbacks", "T_s (s)", "T_s / T_cc"),
        rows=rows,
        claims=[
            _every("map-only tracking rolls back no more often", "A2 (§5.2)",
                   [(name, f"{every}->{only}", only <= every)
                    for (name, _, every, _, _), (_, _, only, _, _) in pairs]),
            _every("map-only tracking at most 5% slower", "A2 (§5.2)",
                   [(name, f"{only / every:.3g}x", only <= every * 1.05)
                    for (name, _, _, every, _), (_, _, _, only, _) in pairs]),
        ],
    )
