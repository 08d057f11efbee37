"""Tests for the experiment harness (runner caching, table formatting,
experiment structure on tiny configurations)."""

import pytest

from repro import HostConfig, SlackConfig
from repro.config import quick_target_config
from repro.harness.experiments import (
    INTERVAL_LABELS,
    INTERVALS,
    ablation_detection,
    figure3,
    p2p_comparison,
    table1,
)
from repro.harness.runner import ExperimentRunner
from repro.harness.tables import format_table


@pytest.fixture
def tiny_runner():
    """A runner over the quick 4-core target for fast harness tests."""
    return ExperimentRunner(
        target=quick_target_config(num_cores=4),
        host=HostConfig(num_contexts=4),
        num_threads=4,
        seed=7,
    )


class TestFormatTable:
    def test_alignment(self):
        text = format_table(("name", "value"), [("a", 1.0), ("long-name", 123456.0)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_float_rendering(self):
        text = format_table(("x",), [(0.12345,), (12.345,), (1234.5,), (0,)])
        assert "0.1234" in text or "0.1235" in text
        assert "12.35" in text or "12.34" in text
        assert "1234" in text


class TestRunnerCache:
    def test_cache_hit_returns_same_report(self, tiny_runner):
        first = tiny_runner.run("compute-only", SlackConfig(bound=2), scale=0.2)
        second = tiny_runner.run("compute-only", SlackConfig(bound=2), scale=0.2)
        assert first is second

    def test_different_scheme_misses(self, tiny_runner):
        a = tiny_runner.run("compute-only", SlackConfig(bound=2), scale=0.2)
        b = tiny_runner.run("compute-only", SlackConfig(bound=4), scale=0.2)
        assert a is not b

    def test_reference_is_cc(self, tiny_runner):
        report = tiny_runner.reference("compute-only", scale=0.2)
        assert report.scheme == "cycle-by-cycle"


class TestExperimentStructure:
    def test_table1_static(self):
        result = table1()
        assert len(result.rows) == 4
        assert "Benchmarks" in result.title
        assert result.render()

    def test_interval_ladder_matches_paper_ratios(self):
        assert INTERVALS == (500, 1000, 5000, 10000)
        ratios = [i / INTERVALS[0] for i in INTERVALS]
        assert ratios == [1, 2, 10, 20]  # paper: 5K:10K:50K:100K
        assert set(INTERVAL_LABELS.values()) == {"5K", "10K", "50K", "100K"}

    def test_figure3_tiny(self, tiny_runner):
        result = figure3(
            tiny_runner, bounds=(1, 16), benchmarks=("synthetic",), scale=0.4
        )
        assert len(result.rows) == 2
        assert "synthetic/bus" in result.series
        rendered = result.render()
        assert "slack bound" in rendered

    def test_ablation_detection_tiny(self, tiny_runner):
        result = ablation_detection(
            tiny_runner, benchmarks=("synthetic",), bound=8, scale=0.4
        )
        (row,) = result.rows
        # Detection adds per-event work; on a tiny run schedule noise can
        # mask it, so allow a small tolerance.
        assert row[2] >= row[1] * 0.9

    def test_p2p_tiny(self, tiny_runner):
        result = p2p_comparison(tiny_runner, benchmarks=("synthetic",), scale=0.4)
        schemes = {row[1] for row in result.rows}
        assert any(s.startswith("p2p") for s in schemes)
        assert "unbounded" in schemes

    def test_table2_tiny(self, tiny_runner):
        from repro.harness.experiments import table2

        result = table2(
            tiny_runner, benchmarks=("synthetic",), intervals=(500, 1000), scale=1.0
        )
        (row,) = result.rows
        name, cc, su, adapt, ck500, ck1000 = row
        assert name == "synthetic"
        assert su < cc  # slack beats cycle-by-cycle even on tiny runs
        assert ck500 >= ck1000  # denser checkpoints cost at least as much

    def test_table3_table4_tiny(self, tiny_runner):
        from repro.harness.experiments import table3, table4

        t3 = table3(tiny_runner, benchmarks=("synthetic",), intervals=(200, 400), scale=1.0)
        (row3,) = t3.rows
        assert all(0.0 <= v <= 1.0 for v in row3[1:])
        t4 = table4(tiny_runner, benchmarks=("synthetic",), intervals=(200, 400), scale=1.0)
        (row4,) = t4.rows
        for interval, value in zip((200, 400), row4[1:]):
            if value != "-":
                assert 0 <= value <= interval

    def test_table5_tiny(self, tiny_runner):
        from repro.harness.experiments import table5

        result = table5(tiny_runner, benchmarks=("synthetic",), intervals=(400,), scale=1.0)
        (row,) = result.rows
        assert row[2] > 0  # a positive time estimate

    def test_figure4_tiny(self, tiny_runner):
        from repro.harness.experiments import figure4

        result = figure4(
            tiny_runner,
            benchmarks=("synthetic",),
            targets=(1e-3,),
            bands=(0.05,),
            fixed_bounds=(2,),
            scale=0.5,
        )
        assert "synthetic/adaptive-band0.05" in result.series
        assert "synthetic/fixed" in result.series
        # fixed series = CC plus one bound.
        assert len(result.series["synthetic/fixed"]) == 2

    def test_speculative_full_tiny(self, tiny_runner):
        from repro.harness.experiments import speculative_full

        result = speculative_full(
            tiny_runner, benchmarks=("synthetic",), intervals=(400,), scale=1.0
        )
        (row,) = result.rows
        assert row[4] > 0  # measured T_s

    def test_scaling_tiny(self):
        from repro.harness.experiments import scaling

        result = scaling(core_counts=(8,), benchmarks=("fft",), scale=0.25)
        (row,) = result.rows
        assert row[1] == 8
        assert row[4] > 1.0  # SU speedup

    def test_hierarchy_tiny(self, tmp_path, monkeypatch):
        """Each sub-manager count gets its own host, derived from the
        caller's runner: a runner without a persistent cache writes none,
        and the runs land in the caller's memo."""
        from repro.harness.experiments import hierarchy

        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        runner = ExperimentRunner(persistent_cache=False)
        result = hierarchy(
            runner, submanager_counts=(0, 2), num_cores=8, benchmark="synthetic", scale=0.5
        )
        flat, hier = result.rows
        assert hier[3] > 0  # sub-managers worked
        assert hier[2] <= flat[2]  # top manager offloaded
        assert list(cache_dir.iterdir()) == []
        assert len(runner._memo) == 2

    def test_a_derived_machine_keeps_the_runners_settings(self):
        runner = ExperimentRunner(jobs=2, verbose=True, sanitize=True, persistent_cache=False)
        derived = runner.on_machine(num_threads=16)
        assert (derived.num_threads, derived.target, derived.host) == (
            16, runner.target, runner.host,
        )
        assert (derived.seed, derived.jobs, derived.verbose, derived.sanitize) == (
            2010, 2, True, True,
        )
        assert derived.cache is None and derived._memo is runner._memo
