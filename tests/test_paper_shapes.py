"""Headline paper-shape regressions at unit-test scale.

The full grids run in ``python -m repro experiment all``, which checks
each paper claim on its experiment's default grid (CI diffs its output
against ``benchmarks/RESULTS.txt``); these smaller runs guard the same
qualitative results so a plain ``pytest tests/`` catches regressions in
the reproduction's core claims in seconds.
"""

import pytest

from repro import AdaptiveConfig, CheckpointConfig, Simulation, SlackConfig
from repro.workloads import make_workload


@pytest.fixture(scope="module")
def fft_runs():
    workload = make_workload("fft", num_threads=8, scale=0.5)
    cc = Simulation(workload, scheme=SlackConfig(bound=0)).run()
    su = Simulation(workload, scheme=SlackConfig(bound=None)).run()
    return cc, su


class TestHeadlineShapes:
    def test_unbounded_slack_speedup_band(self, fft_runs):
        """Paper: unbounded slack runs 2-3x faster than cycle-by-cycle."""
        cc, su = fft_runs
        assert 1.8 <= su.speedup_over(cc) <= 4.5

    def test_unbounded_slack_error_moderate(self, fft_runs):
        """Paper: SU errors are 'often within single digit (in percent)'."""
        cc, su = fft_runs
        assert su.execution_time_error(cc) < 0.20

    def test_violation_rate_grows_with_bound(self):
        workload = make_workload("barnes", num_threads=8, scale=0.5)
        small = Simulation(workload, scheme=SlackConfig(bound=2)).run()
        large = Simulation(workload, scheme=SlackConfig(bound=30)).run()
        assert large.violation_rate > small.violation_rate

    def test_map_violations_rarer_than_bus(self):
        workload = make_workload("water", num_threads=8, scale=0.5)
        report = Simulation(workload, scheme=SlackConfig(bound=None)).run()
        assert report.violation_counts["bus"] > report.violation_counts["map"]

    def test_adaptive_between_cc_and_unbounded(self, fft_runs):
        cc, su = fft_runs
        workload = make_workload("fft", num_threads=8, scale=0.5)
        adaptive = Simulation(
            workload, scheme=AdaptiveConfig(target_rate=1e-3, adjust_period=250)
        ).run()
        assert su.sim_time_s < adaptive.sim_time_s < cc.sim_time_s

    def test_frequent_checkpointing_costs_more_than_cc(self, fft_runs):
        """Paper Table 2: 5K-interval checkpointing is slower than CC."""
        cc, _ = fft_runs
        workload = make_workload("fft", num_threads=8, scale=0.5)
        checked = Simulation(
            workload,
            scheme=AdaptiveConfig(target_rate=1e-3, adjust_period=250),
            checkpoint=CheckpointConfig(interval=500),
        ).run()
        assert checked.sim_time_s > cc.sim_time_s
