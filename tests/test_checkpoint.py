"""Tests for checkpoint capture/restore and replay determinism.

The key property (which the whole speculative scheme rests on): rolling a
simulation back to a snapshot and re-running it must be possible at any
point, and the snapshot itself must stay pristine across multiple
restores.
"""

import pytest

from repro import CheckpointConfig, HostConfig, Simulation, SlackConfig
from repro.config import HostCostModel, quick_target_config
from repro.core.checkpoint import checkpoint_cost_ns, restore_snapshot, take_snapshot
from repro.errors import CheckpointError
from repro.workloads import make_workload
from tests.test_snapshot import run_segment


def build_sim(**kwargs):
    defaults = dict(
        scheme=SlackConfig(bound=4),
        target=quick_target_config(num_cores=4),
        host=HostConfig(num_contexts=4),
    )
    defaults.update(kwargs)
    return Simulation(
        make_workload("synthetic", num_threads=4, steps=60, shared_lines=8, lock_every=16),
        **defaults,
    )


class TestSnapshotBasics:
    def test_snapshot_freezes_state(self):
        sim = build_sim()
        run_segment(sim, 200)
        snap = take_snapshot(sim.state, boundary=0, host_time=0.0)
        before = sim.state.cores[0].local_time
        resident_before = sim.state.cores[0].model.l1.resident_lines()
        run_segment(sim, 200)
        restored = restore_snapshot(snap)
        assert restored.cores[0].local_time == before  # snapshot froze
        assert restored.cores[0].model.l1.resident_lines() == resident_before

    def test_restore_returns_fresh_copy(self):
        sim = build_sim()
        run_segment(sim, 200)
        snap = take_snapshot(sim.state, 0, 0.0)
        old_root = sim.state
        restored1 = restore_snapshot(snap)
        restored2 = restore_snapshot(snap)
        assert restored1 is not restored2
        assert restored1 is not old_root

    def test_superseded_snapshot_refuses_restore(self):
        sim = build_sim()
        run_segment(sim, 200)
        stale = take_snapshot(sim.state, 0, 0.0)
        run_segment(sim, 100)
        take_snapshot(sim.state, 1, 0.0)  # overwrites the COW shadows
        with pytest.raises(CheckpointError):
            restore_snapshot(stale)

    def test_restore_none_raises(self):
        with pytest.raises(CheckpointError, match="no checkpoint available"):
            restore_snapshot(None)

    def test_restore_empty_snapshot_raises_structured_error(self):
        """A Snapshot constructed without a COW capture (the
        before-any-checkpoint edge) must raise CheckpointError from every
        path, never AttributeError."""
        from repro.core.checkpoint import Snapshot

        empty = Snapshot(None, boundary=0, host_time=0.0, pages=0)
        with pytest.raises(CheckpointError, match="empty snapshot"):
            restore_snapshot(empty)
        with pytest.raises(CheckpointError, match="empty snapshot"):
            empty.host_pages

    def test_snapshot_counts_and_clears_pages(self):
        sim = build_sim()
        run_segment(sim, 300)
        pages_before = sum(len(cs.model.pages_touched) for cs in sim.state.cores)
        assert pages_before > 0
        snap = take_snapshot(sim.state, 0, 0.0)
        assert snap.pages == pages_before
        assert sum(len(cs.model.pages_touched) for cs in sim.state.cores) == 0

    def test_cost_model(self):
        cost = HostCostModel()
        assert checkpoint_cost_ns(cost, 0) == cost.checkpoint_base_ns
        assert checkpoint_cost_ns(cost, 10) == (
            cost.checkpoint_base_ns + 10 * cost.checkpoint_per_page_ns
        )


class TestCheckpointedRuns:
    def test_checkpoint_only_run_completes(self):
        report = build_sim(checkpoint=CheckpointConfig(interval=500)).run()
        assert report.checkpoints >= 2  # initial + periodic
        assert report.rollbacks == 0
        assert report.intervals  # interval records collected

    def test_checkpoint_overhead_grows_with_frequency(self):
        rare = build_sim(checkpoint=CheckpointConfig(interval=2000)).run()
        frequent = build_sim(checkpoint=CheckpointConfig(interval=200)).run()
        assert frequent.checkpoints > rare.checkpoints
        assert frequent.checkpoint_cost_s > rare.checkpoint_cost_s
        assert frequent.sim_time_s > rare.sim_time_s

    def test_checkpointed_run_matches_plain_run_target_timing(self):
        """Checkpointing (without rollback) costs host time but must not
        change the simulated execution."""
        plain = build_sim(scheme=SlackConfig(bound=0)).run()
        checked = build_sim(
            scheme=SlackConfig(bound=0), checkpoint=CheckpointConfig(interval=500)
        ).run()
        assert checked.target_cycles == plain.target_cycles
        assert checked.instructions == plain.instructions

    def test_interval_records_cover_run(self):
        report = build_sim(checkpoint=CheckpointConfig(interval=400)).run()
        starts = [r.start for r in report.intervals]
        assert starts == sorted(starts)
        assert starts[0] == 0
        # Consecutive intervals tile the run
        for prev, nxt in zip(report.intervals, report.intervals[1:]):
            assert nxt.start == prev.end or nxt.start == prev.start + 400
