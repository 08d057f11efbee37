"""Unit tests for the modeled host primitives."""

import pytest

from repro import HostConfig, Simulation, SlackConfig
from repro.config import HostCostModel, quick_target_config
from repro.core.hostmodel import HostContext, HostThread, ThreadState
from repro.core.scheduler import Scheduler
from repro.util import XorShift64
from repro.workloads import make_workload

#: SplitMix64's state increment (one per draw).
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


class _StubRunner:
    name = "stub"


def make_thread():
    context = HostContext(0)
    thread = HostThread(_StubRunner(), context, XorShift64(7))
    context.threads[thread] = None
    return context, thread


class TestHostThread:
    def test_initial_state(self):
        _, thread = make_thread()
        assert thread.state == ThreadState.READY
        assert thread.ready_time == 0.0
        assert thread.name == "stub"

    @pytest.mark.parametrize("jitter_frac, draws_per_step", [(0.25, 1), (0.0, 0)])
    def test_one_jitter_draw_per_modeled_step(self, jitter_frac, draws_per_step):
        """The scheduler draws each step's host noise inline from the
        thread's SplitMix64: exactly one draw per modeled step, replayed
        manager polls and stall cycles included (this is the cc case of
        ``tests/test_scheduler.py::TestReplayedWork``, which replays 3374
        stall cycles and 1725 manager polls), and none without jitter."""
        sim = Simulation(
            make_workload(
                "synthetic", num_threads=4, steps=40, shared_lines=8, barrier_every=20
            ),
            scheme=SlackConfig(bound=0),
            target=quick_target_config(num_cores=4),
            host=HostConfig(num_contexts=4, cost=HostCostModel(jitter_frac=jitter_frac)),
            seed=1,
        )
        scheduler = Scheduler(sim, sim.host)
        before = [thread.rng.state for thread in scheduler.threads]
        stats = scheduler.run()
        assert sum(thread.steps for thread in scheduler.threads) == (
            stats.manager_steps + stats.core_steps
        )
        for thread, state in zip(scheduler.threads, before):
            draws = thread.steps * draws_per_step
            assert thread.rng.state == (state + draws * _GOLDEN_GAMMA) % 2**64


class TestHostContext:
    def test_shared_flag(self):
        context, thread = make_thread()
        assert not context.shared
        context.threads[HostThread(_StubRunner(), context, XorShift64(9))] = None
        assert context.shared

    def test_clock_starts_at_zero(self):
        context, _ = make_thread()
        assert context.clock == 0.0
