"""Round-trip semantics of the copy-on-write snapshot layer.

The load-bearing property: for any reachable simulation state,
``take_snapshot`` + arbitrary further execution + ``restore_snapshot``
must be indistinguishable from the historic full-``deepcopy`` checkpoint
— both in the restored structures (cache banks, status map, queues,
clocks) and behaviorally (driving the restored state forward produces
bit-for-bit the same execution as driving the deepcopy baseline).

Covers every scheme kind, repeated rollback to the same checkpoint
(speculative replay that violates again), and torn/partial-dirty-set
cases where only some pages of an array changed between take and restore
(hypothesis streams over a small CacheArray).  What makes a capture cheap
is pinned by count, not by a stopwatch: on a cache-filling state a
steady-state take copies exactly the dirty pages, fewer than the arrays
hold, and its residue holds stubs in place of the arrays.  Every execution segment
is the production scheduler loop (``Scheduler.run``), cut on global time.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Simulation
from repro.analysis.sanitizer import state_digest
from repro.config import (
    AdaptiveConfig,
    AdaptiveQuantumConfig,
    CacheConfig,
    CheckpointConfig,
    HostConfig,
    P2PConfig,
    QuantumConfig,
    SlackConfig,
    SpeculativeConfig,
    paper_target_config,
    quick_target_config,
)
from repro.core.checkpoint import restore_snapshot, take_snapshot
from repro.core.scheduler import Scheduler
from repro.core.snapshot import _ArrayStub, tracked_arrays
from repro.memory.cache import PAGE_BITS, CacheArray
from repro.memory.mesi import MesiState
from repro.workloads import make_workload

#: One configuration per scheme kind.
SCHEMES = [
    pytest.param(SlackConfig(bound=0), id="cc"),
    pytest.param(SlackConfig(bound=8), id="bounded"),
    pytest.param(SlackConfig(bound=None), id="unbounded"),
    pytest.param(QuantumConfig(quantum=64), id="quantum"),
    pytest.param(AdaptiveConfig(), id="adaptive"),
    pytest.param(AdaptiveQuantumConfig(), id="adaptive-quantum"),
    pytest.param(
        SpeculativeConfig(base=SlackConfig(bound=8), checkpoint=CheckpointConfig(interval=500)),
        id="speculative",
    ),
    pytest.param(P2PConfig(), id="p2p"),
]


def build_sim(scheme):
    return Simulation(
        make_workload("synthetic", num_threads=4, steps=60, shared_lines=8, lock_every=16),
        scheme=scheme,
        target=quick_target_config(num_cores=4),
        host=HostConfig(num_contexts=4),
    )


def run_segment(sim, cycles):
    """Run the production loop until global time has moved ``cycles``
    target cycles past where it stands (or the workload completes).

    Each segment is a fresh ``Scheduler`` on the live state, cut on
    global time.  Asserts progress unless a checkpoint controller rolled
    the segment back: global time reached its target (or the workload
    completed), and every core not finished at the end advanced its
    local time.  Returns the segment's host statistics.
    """
    state = sim.state
    target = state.global_time() + cycles
    before = [cs.local_time for cs in state.cores]
    stats = Scheduler(sim, sim.host).run(
        stop_when=lambda outcome: outcome.global_time >= target
    )
    if not stats.rollbacks:
        state = sim.state
        assert state.all_finished or state.global_time() >= target
        for cs, local in zip(state.cores, before):
            assert cs.finished or cs.local_time > local, (
                f"core {cs.core_id} made no progress past {local}"
            )
    return stats


def cut_snapshot(sim, cycles):
    """Drive a fresh ``sim`` to a cut near ``cycles``; return the
    snapshot under test.

    A checkpoint controller keeps exactly one live checkpoint, and a
    manual ``take_snapshot`` would supersede the one it rolls back to.
    So a checkpointing run advances its :class:`~repro.core.simulation.Run`
    to the first checkpoint at or past ``cycles`` and hands back the
    controller's own snapshot; callers then mutate only up to the next
    boundary (a later checkpoint would supersede this one).
    """
    controller = sim.controller
    if controller is None:
        run_segment(sim, cycles)
        return take_snapshot(sim.state, boundary=0, host_time=0.0)
    sim.start().advance(cycles)
    return controller.snapshot


def resume_from(sim, state):
    """Install ``state`` as the live root as it stood at the cut.  A cut
    lies outside every replay window, so the controller is taken out of
    any replay that one of its rollbacks began after the cut."""
    sim.state = state
    if sim.controller is not None:
        sim.controller.replaying = False


def assert_states_equivalent(got, want):
    """Structural equality of the snapshot-tracked state (banks included).

    ``state_digest`` covers clocks, queues, stats, and scheme dynamics;
    the bank/map comparisons cover what the digest does not (full cache
    contents and LRU order).
    """
    assert state_digest(got) == state_digest(want)
    assert got.local_times == want.local_times
    assert got.max_local_times == want.max_local_times
    for ga, wa in zip(tracked_arrays(got), tracked_arrays(want)):
        assert ga._tag == wa._tag
        assert ga._state == wa._state
        assert ga._lru == wa._lru
        assert ga._index == wa._index
        assert ga._clock == wa._clock
        assert (ga.hits, ga.misses, ga.evictions) == (wa.hits, wa.misses, wa.evictions)
    gm, wm = got.manager, want.manager
    assert gm.cache_map._entries == wm.cache_map._entries
    assert gm.cache_map.gets_served == wm.cache_map.gets_served
    assert gm.cache_map.cache_to_cache == wm.cache_map.cache_to_cache
    assert gm.bus.request_free_at == wm.bus.request_free_at
    assert gm.bus.response_free_at == wm.bus.response_free_at
    for gc, wc in zip(got.cores, want.cores):
        g_mshrs = {line: e.kind for line, e in gc.model.l1.mshrs._entries.items()}
        w_mshrs = {line: e.kind for line, e in wc.model.l1.mshrs._entries.items()}
        assert g_mshrs == w_mshrs
        assert gc.model.pages_touched == wc.model.pages_touched


class TestRoundTripAcrossSchemes:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_take_mutate_restore_matches_deepcopy_baseline(self, scheme):
        sim = build_sim(scheme)
        snap = cut_snapshot(sim, 300)
        # Baseline AFTER the take: take_snapshot drains pages_touched, and
        # the baseline must freeze the same post-checkpoint content.
        baseline = copy.deepcopy(sim.state)
        run_segment(sim, 300)  # mutate the live state past the checkpoint
        restored = restore_snapshot(snap)
        assert_states_equivalent(restored, baseline)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_restored_state_replays_like_the_baseline(self, scheme):
        """Behavioral equivalence: drive restore and baseline forward with
        identical schedulers; the executions must match bit-for-bit."""
        sim = build_sim(scheme)
        snap = cut_snapshot(sim, 250)
        baseline = copy.deepcopy(sim.state)
        run_segment(sim, 250)

        resume_from(sim, restore_snapshot(snap))
        run_segment(sim, 300)
        digest_restored = state_digest(sim.state)

        resume_from(sim, baseline)
        run_segment(sim, 300)
        assert state_digest(sim.state) == digest_restored


class TestRepeatedRollback:
    def test_rollback_replay_rollback_again(self):
        """Speculative nesting: a replay that violates again rolls back to
        the *same* checkpoint; both restores must produce the same state."""
        sim = build_sim(SlackConfig(bound=8))
        run_segment(sim, 300)
        snap = take_snapshot(sim.state, boundary=0, host_time=0.0)
        baseline = copy.deepcopy(sim.state)

        run_segment(sim, 200)
        sim.state = restore_snapshot(snap)
        assert_states_equivalent(sim.state, baseline)

        # Replay diverges (different length), violates again, rolls back.
        run_segment(sim, 350)
        sim.state = restore_snapshot(snap)
        assert_states_equivalent(sim.state, baseline)

    def test_next_checkpoint_supersedes_previous(self):
        sim = build_sim(SlackConfig(bound=8))
        run_segment(sim, 200)
        first = take_snapshot(sim.state, boundary=0, host_time=0.0)
        run_segment(sim, 200)
        second = take_snapshot(sim.state, boundary=1, host_time=0.0)
        baseline = copy.deepcopy(sim.state)
        run_segment(sim, 200)
        # Only the newest snapshot is restorable (matches the controller,
        # which keeps exactly one live checkpoint).
        from repro.errors import CheckpointError

        with pytest.raises(CheckpointError):
            restore_snapshot(first)
        assert_states_equivalent(restore_snapshot(second), baseline)

    @settings(max_examples=8, deadline=None)
    @given(
        k1=st.integers(min_value=150, max_value=1400),
        k2=st.integers(min_value=50, max_value=450),
        k3=st.integers(min_value=50, max_value=450),
    )
    def test_take_mutate_restore_reexecute_with_inner_rollback(self, k1, k2, k3):
        """Property: take → mutate → restore → re-execute is bit-identical
        even when a speculative rollback fires *inside* the restored
        window (the epoch-stitching prerequisite: a re-executed epoch may
        itself roll back, and must still land on the serial trajectory).

        The checkpoint under test is the controller's own, cut at the
        first boundary at or past ``k1``; mutation and re-execution stay
        inside that interval, where the controller's rollbacks return to
        it — the inner rollback.
        """
        scheme = SpeculativeConfig(
            base=SlackConfig(bound=8), checkpoint=CheckpointConfig(interval=500)
        )
        sim = build_sim(scheme)
        snap = cut_snapshot(sim, k1)
        baseline = copy.deepcopy(sim.state)
        run_segment(sim, k2)  # mutate the live state past the checkpoint

        resume_from(sim, restore_snapshot(snap))
        rollbacks = run_segment(sim, k3).rollbacks
        digest_restored = state_digest(sim.state)

        resume_from(sim, baseline)
        assert run_segment(sim, k3).rollbacks == rollbacks
        assert state_digest(sim.state) == digest_restored


class _CountingBank(list):
    """A shadow bank that counts the page copies written into it."""

    def __init__(self, values):
        super().__init__(values)
        self.page_copies = 0

    def __setitem__(self, index, value):
        self.page_copies += isinstance(index, slice)
        super().__setitem__(index, value)


class TestCaptureIsCopyOnWrite:
    def test_steady_state_take_copies_only_dirty_pages_and_stubs_the_arrays(self):
        # A working set that fills the L1s and most of the L2, warmed
        # before the first capture, so the arrays hold real state.
        cores = 4
        sim = Simulation(
            make_workload(
                "synthetic", num_threads=cores, steps=500_000, private_lines=2048,
                shared_lines=512, shared_fraction=0.2, store_fraction=0.4,
                compute_per_step=2,
            ),
            scheme=SlackConfig(bound=8),
            target=paper_target_config(num_cores=cores),
            host=HostConfig(num_contexts=cores),
        )
        run_segment(sim, 60_000)
        take_snapshot(sim.state, boundary=0, host_time=0.0)  # syncs every page
        run_segment(sim, 500)

        arrays = tracked_arrays(sim.state)
        live_pages = sum(len(array._tag) >> PAGE_BITS for array in arrays)
        dirty_pages = sum(len(array._dirty) for array in arrays)
        for array in arrays:
            tags, states, lru = array._shadow
            array._shadow = (_CountingBank(tags), states, lru)
        snap = take_snapshot(sim.state, boundary=0, host_time=0.0)

        assert 0 < snap.host_pages == dirty_pages < live_pages
        assert sum(array._shadow[0].page_copies for array in arrays) == dirty_pages
        residue = snap.cow.residue
        assert [type(cs.model.l1.array) for cs in residue.cores] == [_ArrayStub] * cores
        assert type(residue.manager.l2.array) is _ArrayStub


# --------------------------------------------------------------------- #
# Torn / partial-dirty-set cases at the array level: between sync and
# restore only some pages change, lines migrate between dirty pages,
# and syncs stack across generations.
# --------------------------------------------------------------------- #

_CONFIG = CacheConfig(size=4096, line_size=32, associativity=4, hit_latency=1)
_STATES = [MesiState.MODIFIED, MesiState.EXCLUSIVE, MesiState.SHARED]
_ADDRS = st.integers(min_value=0, max_value=255)
_OPS = st.one_of(
    st.tuples(st.just("lookup"), _ADDRS),
    st.tuples(st.just("fill"), _ADDRS, st.sampled_from(_STATES)),
    st.tuples(st.just("invalidate"), _ADDRS),
    st.tuples(st.just("set_state"), _ADDRS, st.sampled_from(_STATES + [MesiState.INVALID])),
)


def _drive(array, stream):
    for op in stream:
        kind, addr = op[0], op[1]
        if kind == "lookup":
            array.lookup(addr)
        elif kind == "fill":
            if array.find(addr, touch=False) is None:
                array.fill(addr, op[2])
        elif kind == "invalidate":
            array.invalidate(addr)
        else:
            array.set_state(addr, op[2])


def _assert_banks_equal(array, baseline):
    assert array._tag == baseline._tag
    assert array._state == baseline._state
    assert array._lru == baseline._lru
    assert array._index == baseline._index


@given(st.lists(_OPS, max_size=200), st.lists(_OPS, max_size=200))
@settings(max_examples=100, deadline=None)
def test_array_restore_rewinds_partial_dirty_sets(before, after):
    array = CacheArray(_CONFIG)
    _drive(array, before)
    array.snapshot_sync()
    baseline = copy.deepcopy(array)
    _drive(array, after)  # dirties an arbitrary subset of pages
    array.snapshot_restore()
    _assert_banks_equal(array, baseline)


@given(
    st.lists(_OPS, max_size=120),
    st.lists(_OPS, max_size=120),
    st.lists(_OPS, max_size=120),
)
@settings(max_examples=60, deadline=None)
def test_array_syncs_stack_across_generations(gen1, gen2, gen3):
    """sync/mutate/sync/mutate/restore rewinds to the *second* sync, and a
    second restore after further mutation rewinds there again."""
    array = CacheArray(_CONFIG)
    _drive(array, gen1)
    array.snapshot_sync()
    _drive(array, gen2)
    array.snapshot_sync()
    baseline = copy.deepcopy(array)
    _drive(array, gen3)
    array.snapshot_restore()
    _assert_banks_equal(array, baseline)
    # Restore is repeatable: mutate again, rewind again.
    _drive(array, gen3)
    array.snapshot_restore()
    _assert_banks_equal(array, baseline)


def test_a_store_hit_on_an_exclusive_line_rewinds():
    """The L1 turns a store hit on an E line into M with a bank write of
    its own (not through a ``CacheArray`` mutator): it must dirty the
    slot's page, or a rollback resumes with the line still M."""
    from repro.config import CoreConfig
    from repro.memory.l1 import L1Cache, L1Outcome

    l1 = L1Cache(0, _CONFIG, CoreConfig())
    array = l1.array
    array.fill(7, MesiState.EXCLUSIVE)
    array.snapshot_sync()
    assert l1.access_line(7, True, 0) is L1Outcome.HIT
    assert array.lookup(7, touch=False).state is MesiState.MODIFIED
    array.snapshot_restore()
    assert array.lookup(7, touch=False).state is MesiState.EXCLUSIVE
    assert array._dirty == set()
