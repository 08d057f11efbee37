"""Tests for the runtime slack sanitizer (repro.analysis.sanitizer).

Integration: every scheme kind completes under the sanitizer with zero
violations, and attaching one never changes the report digest (the
observation-only contract).  Unit: each invariant is seeded with a
synthetic breach the sanitizer must catch, and with the adjacent legal
behaviour it must accept.
"""

from dataclasses import replace

import pytest

from repro import (
    AdaptiveConfig,
    CheckpointConfig,
    HostConfig,
    P2PConfig,
    QuantumConfig,
    Simulation,
    SlackConfig,
    SpeculativeConfig,
)
from repro.analysis.sanitizer import SanitizerError, SlackSanitizer, state_digest
from repro.config import quick_target_config
from repro.core.checkpoint import restore_snapshot, take_snapshot
from repro.workloads import make_workload

ALL_SCHEMES = [
    SlackConfig(bound=0),
    SlackConfig(bound=4),
    SlackConfig(bound=None),
    QuantumConfig(quantum=8),
    AdaptiveConfig(target_rate=1e-3, adjust_period=100),
    P2PConfig(period=40, max_lead=40),
    SpeculativeConfig(
        base=SlackConfig(bound=8), checkpoint=CheckpointConfig(interval=400)
    ),
]



def _icache_target():
    target = quick_target_config(num_cores=4)
    return replace(target, core=replace(target.core, model_icache=True))


#: Host and target variants the sanitized run (general path) is checked
#: against the plain run (settled-poll and stall replays engaged) under:
#: sub-managers behind checkpoints, an icache (which turns the fast
#: pipeline and so the stall replay off), and one context (where every
#: replayed step pays context switches).
VARIANTS = {
    "submanagers-checkpointed": dict(
        host=HostConfig(num_contexts=4, num_submanagers=2),
        checkpoint=CheckpointConfig(interval=200),
    ),
    "icache": dict(target=_icache_target()),
    "one-context": dict(host=HostConfig(num_contexts=1)),
}


def workload(**kwargs):
    defaults = dict(
        num_threads=4, steps=80, shared_lines=8, shared_fraction=0.4,
        lock_every=25, barrier_every=40,
    )
    defaults.update(kwargs)
    return make_workload("synthetic", **defaults)


def run(scheme=None, sanitizer=None, **kwargs):
    defaults = dict(
        target=quick_target_config(num_cores=4),
        host=HostConfig(num_contexts=4),
    )
    defaults.update(kwargs)
    sim = Simulation(workload(), scheme=scheme, sanitizer=sanitizer, **defaults)
    return sim.run()


# --------------------------------------------------------------------- #
# Stubs for the manager-side unit probes
# --------------------------------------------------------------------- #


class FakeModel:
    def __init__(self, finished=False, waiting_sync=False):
        self.finished = finished
        self.waiting_sync = waiting_sync


class FakeCore:
    def __init__(self, core_id, local, max_local, finished=False, waiting=False):
        self.core_id = core_id
        self.local_time = local
        self.max_local_time = max_local
        self.model = FakeModel(finished, waiting)


class FakeScheme:
    kind = "fake"

    def __init__(self, problem=None):
        self.problem = problem

    def pacing_violation(self, cores_view, global_time, capped=False):
        return self.problem


class FakeState:
    def __init__(self, cores, scheme=None):
        self.cores = cores
        self.scheme = scheme or FakeScheme()


class FakeOutcome:
    def __init__(self, global_time, violations=()):
        self.global_time = global_time
        self.violations = list(violations)


class FakeViolation:
    def __init__(self, vtype="bus", core_id=0, ts=0):
        self.vtype = vtype
        self.core_id = core_id
        self.ts = ts


class FakeMsg:
    def __init__(self, ts, core_id=0):
        self.ts = ts
        self.core_id = core_id


def attached(num_cores=2, **kwargs):
    san = SlackSanitizer(**kwargs)
    san.attach(num_cores)
    return san


def manager_step(san, cores, global_time, conservative=False, capped=False,
                 scheme=None, violations=()):
    san.on_manager_step(
        FakeState(cores, scheme),
        FakeOutcome(global_time, violations),
        conservative,
        capped,
    )


# --------------------------------------------------------------------- #
# Integration: real runs
# --------------------------------------------------------------------- #


class TestSchemesRunClean:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.kind)
    def test_scheme_clean_and_digest_invariant(self, scheme):
        plain = run(scheme)
        sanitizer = SlackSanitizer()
        checked = run(scheme, sanitizer=sanitizer)
        assert sanitizer.violations == []
        assert sanitizer.total_checks() > 0
        assert checked.digest() == plain.digest()

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.kind)
    def test_variant_clean_and_digest_invariant(self, scheme, variant):
        kwargs = dict(VARIANTS[variant])
        if isinstance(scheme, SpeculativeConfig):
            kwargs.pop("checkpoint", None)  # it carries its own
        plain = run(scheme, **kwargs)
        sanitizer = SlackSanitizer()
        checked = run(scheme, sanitizer=sanitizer, **kwargs)
        assert sanitizer.violations == []
        assert checked.digest() == plain.digest()

    def test_speculative_exercises_rollback_digests(self):
        sanitizer = SlackSanitizer()
        run(
            SpeculativeConfig(
                base=SlackConfig(bound=16),
                checkpoint=CheckpointConfig(interval=300),
            ),
            sanitizer=sanitizer,
        )
        assert sanitizer.checks.get("rollback-state-digest", 0) > 0

    def test_conservative_scheme_exercises_service_order(self):
        sanitizer = SlackSanitizer()
        run(SlackConfig(bound=0), sanitizer=sanitizer)
        assert sanitizer.checks.get("service-order", 0) > 0

    def test_disabled_sanitizer_checks_nothing(self):
        sanitizer = SlackSanitizer.disabled()
        run(SlackConfig(bound=4), sanitizer=sanitizer)
        assert sanitizer.total_checks() == 0
        assert sanitizer.violations == []

    def test_summary_mentions_status(self):
        sanitizer = SlackSanitizer()
        run(SlackConfig(bound=4), sanitizer=sanitizer)
        assert "no invariant violations" in sanitizer.summary()


# --------------------------------------------------------------------- #
# Unit: seeded breaches per invariant
# --------------------------------------------------------------------- #


class TestLocalTimeMonotonic:
    def test_backwards_clock_raises(self):
        san = attached()
        san.on_core_step(0, 10, None)
        with pytest.raises(SanitizerError) as exc:
            san.on_core_step(0, 5, None)
        assert exc.value.invariant == "local-time-monotonic"
        assert exc.value.cores == (0,)

    def test_stationary_clock_legal(self):
        san = attached()
        san.on_core_step(0, 10, None)
        san.on_core_step(0, 10, None)
        assert san.violations == []

    def test_clocks_are_per_core(self):
        san = attached()
        san.on_core_step(0, 10, None)
        san.on_core_step(1, 3, None)  # other core lags; no violation
        assert san.violations == []


class TestSlackBound:
    def test_advance_past_limit_raises(self):
        san = attached()
        san.on_core_step(0, 5, 20)
        with pytest.raises(SanitizerError) as exc:
            san.on_core_step(0, 25, 20)
        assert exc.value.invariant == "slack-bound"

    def test_sync_warp_legalizes_overshoot(self):
        san = attached()
        san.on_core_step(0, 5, 20)
        san.on_sync_warp(0, 25)
        san.on_core_step(0, 25, 20)
        assert san.violations == []

    def test_warp_consumed_after_passing(self):
        san = attached()
        san.on_sync_warp(0, 25)
        san.on_core_step(0, 25, 20)  # consumes the warp
        with pytest.raises(SanitizerError):
            san.on_core_step(0, 40, 20)

    def test_stationary_observation_over_limit_legal(self):
        """An adaptive throttle may lower the limit under a parked core."""
        san = attached()
        san.on_core_step(0, 30, None)
        san.on_core_step(0, 30, 10)  # observed over-limit, but did not advance
        assert san.violations == []


class TestServiceDiscipline:
    def test_out_of_order_conservative_batch_raises(self):
        san = attached()
        with pytest.raises(SanitizerError) as exc:
            san.on_serve_batch([FakeMsg(5), FakeMsg(3)], True, 10)
        assert exc.value.invariant == "service-order"

    def test_event_at_horizon_raises(self):
        san = attached()
        with pytest.raises(SanitizerError) as exc:
            san.on_serve_batch([FakeMsg(10)], True, 10)
        assert exc.value.invariant == "service-horizon"

    def test_ordered_batch_below_horizon_legal(self):
        san = attached()
        san.on_serve_batch([FakeMsg(3), FakeMsg(3), FakeMsg(9)], True, 10)
        assert san.violations == []

    def test_optimistic_batch_not_checked(self):
        san = attached()
        san.on_serve_batch([FakeMsg(5), FakeMsg(3)], False, None)
        assert san.violations == []


class TestGlobalTime:
    def test_mismatched_global_raises(self):
        san = attached()
        cores = [FakeCore(0, 10, None), FakeCore(1, 20, None)]
        with pytest.raises(SanitizerError) as exc:
            manager_step(san, cores, 15)  # true min is 10
        assert exc.value.invariant == "global-time-min"

    def test_min_skips_waiting_and_finished(self):
        san = attached()
        cores = [
            FakeCore(0, 5, None, waiting=True),
            FakeCore(1, 7, None, finished=True),
            FakeCore(2, 12, None),
        ]
        manager_step(san, cores, 12)
        assert san.violations == []

    def test_all_finished_uses_max(self):
        san = attached()
        cores = [
            FakeCore(0, 30, None, finished=True),
            FakeCore(1, 44, None, finished=True),
        ]
        manager_step(san, cores, 44)
        assert san.violations == []

    def test_regression_with_same_contributors_raises(self):
        san = attached()
        cores = [FakeCore(0, 10, None), FakeCore(1, 20, None)]
        manager_step(san, cores, 10)
        cores[0].local_time = 8  # impossible: clocks are monotonic
        with pytest.raises(SanitizerError) as exc:
            manager_step(san, cores, 8)
        assert exc.value.invariant == "global-time-monotonic"

    def test_regression_when_core_rejoins_is_legal(self):
        """A core resuming from a sync wait re-enters the minimum with a
        warped clock that may sit below the old global time."""
        san = attached()
        waiting = FakeCore(0, 5, None, waiting=True)
        cores = [waiting, FakeCore(1, 20, None)]
        manager_step(san, cores, 20)
        waiting.model.waiting_sync = False  # grant delivered; rejoins at 5
        manager_step(san, cores, 5)
        assert san.violations == []


class TestConservativeViolationFree:
    def test_violation_under_conservative_service_raises(self):
        san = attached()
        cores = [FakeCore(0, 10, None)]
        with pytest.raises(SanitizerError) as exc:
            manager_step(
                san, cores, 10, conservative=True,
                violations=[FakeViolation("bus", 0, 9)],
            )
        assert exc.value.invariant == "conservative-violation-free"

    def test_violation_under_optimistic_service_legal(self):
        """Slack schemes trade violations for speed — that is the paper."""
        san = attached()
        cores = [FakeCore(0, 10, None)]
        manager_step(
            san, cores, 10, violations=[FakeViolation("map", 0, 9)]
        )
        assert san.violations == []


class TestPacingWindow:
    def test_scheme_reported_problem_raises(self):
        san = attached()
        cores = [FakeCore(0, 10, 14)]
        with pytest.raises(SanitizerError) as exc:
            manager_step(
                san, cores, 10, scheme=FakeScheme("window exceeded")
            )
        assert exc.value.invariant == "pacing-window"
        assert "window exceeded" in str(exc.value)

    def test_real_slack_policy_window(self):
        from repro.core.schemes import make_policy

        policy = make_policy(SlackConfig(bound=4), num_cores=2)
        ok = [(0, 10, 14, False, False), (1, 12, 14, False, False)]
        assert policy.pacing_violation(ok, 10) is None
        over = [(0, 10, 30, False, False), (1, 12, 14, False, False)]
        assert policy.pacing_violation(over, 10) is not None
        # force_window / window_cap overrides suspend the window check.
        assert policy.pacing_violation(over, 10, capped=True) is None

    def test_missing_limit_under_bounded_scheme(self):
        from repro.core.schemes import make_policy

        policy = make_policy(SlackConfig(bound=4), num_cores=1)
        unlimited = [(0, 10, None, False, False)]
        assert policy.pacing_violation(unlimited, 10) is not None
        finished = [(0, 10, None, True, False)]
        assert policy.pacing_violation(finished, 10) is None


class TestRollbackDigest:
    def _snapshot(self):
        sim = Simulation(
            workload(),
            scheme=SlackConfig(bound=8),
            target=quick_target_config(num_cores=4),
            host=HostConfig(num_contexts=4),
        )
        return sim, take_snapshot(sim.state, boundary=100, host_time=0.0)

    def test_faithful_restore_passes(self):
        sim, snapshot = self._snapshot()
        san = attached(num_cores=4)
        san.on_checkpoint(snapshot, sim.state)
        san.on_rollback(restore_snapshot(snapshot), snapshot)
        assert san.violations == []

    def test_tampered_restore_raises(self):
        sim, snapshot = self._snapshot()
        san = attached(num_cores=4)
        san.on_checkpoint(snapshot, sim.state)
        sim.state.cores[0].local_time += 7  # the live state drifted
        with pytest.raises(SanitizerError) as exc:
            san.on_rollback(sim.state, snapshot)
        assert exc.value.invariant == "rollback-state-digest"

    def test_rollback_rewinds_vector_clocks(self):
        sim, snapshot = self._snapshot()
        san = attached(num_cores=4)
        san.on_core_step(0, 500, None)
        san.on_checkpoint(snapshot, sim.state)
        san.on_rollback(restore_snapshot(snapshot), snapshot)
        # The restored clock (0) is far below 500; no monotonicity error.
        san.on_core_step(0, 1, None)
        assert san.violations == []

    def test_state_digest_sensitive_to_scheme_knobs(self):
        sim = Simulation(
            workload(),
            scheme=AdaptiveConfig(target_rate=1e-3, adjust_period=100),
            target=quick_target_config(num_cores=4),
            host=HostConfig(num_contexts=4),
        )
        before = state_digest(sim.state)
        sim.state.scheme.bound += 1  # the adaptive controller's dynamic knob
        assert state_digest(sim.state) != before


class TestCollectOnly:
    def test_collect_only_records_without_raising(self):
        san = attached(collect_only=True)
        san.on_core_step(0, 10, None)
        san.on_core_step(0, 5, None)
        san.on_core_step(0, 4, None)
        assert len(san.violations) == 2
        assert all(v.invariant == "local-time-monotonic" for v in san.violations)
        assert "INVARIANT VIOLATION" in san.summary()

    def test_error_message_structure(self):
        san = attached(collect_only=True)
        san.on_core_step(1, 10, None)
        san.on_core_step(1, 5, None)
        err = san.violations[0]
        assert "[local-time-monotonic]" in str(err)
        assert "cores=[1]" in str(err)
        assert err.cycle == 5
