"""The one resumable run: ``Simulation.start()`` and its ``Run`` handle.

The contract under test (ISSUE 18): a run advanced one cut at a time is
the run — same report, byte for byte, for every scheme kind, with the
sanitizer watching — and the handle is the only place in ``src/repro``
that builds a scheduler, disables the collector or decides what a cut is.
ISSUE 21 removed the two layers that drove it from outside (time-parallel
epochs, live sampling); the machine encoder stays, witnessed here without
a decoder, and the removal is pinned.
"""

import dataclasses
import importlib
import json
import pathlib
import re

import pytest

from repro.analysis.sanitizer import SlackSanitizer
from repro.cli import EXPERIMENTS, build_parser
from repro.config import (
    AdaptiveQuantumConfig,
    CheckpointConfig,
    P2PConfig,
    QuantumConfig,
    SlackConfig,
)
from repro.core import simulation as simulation_module
from repro.core.epochs import (
    _SKIP_FIELDS,
    MACHINE_WIRE_VERSION,
    encode_machine,
    make_stop_predicate,
)
from repro.core.manager import ManagerState
from repro.cpu.core import CoreModel
from repro.errors import ConfigError
from repro.harness.bench import BenchCase, golden_path, load_golden
from repro.harness.pool import build_simulation, execute_spec
from repro.memory.cache import CacheArray
from repro.memory.cache_map import CacheStatusMap

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
GOLDEN = load_golden(golden_path())


def spec_for(scheme=None, checkpoint=None, case="bounded"):
    """The 4-core quarter-scale fft of the smoke matrix (golden digests
    exist for its four bench schemes), optionally under another scheme."""
    spec = BenchCase(case, 4, 0.25).spec()
    if scheme is not None:
        spec = dataclasses.replace(spec, scheme=scheme)
    return dataclasses.replace(spec, checkpoint=checkpoint)


#: (spec, golden case id or None) — every scheme kind, plus plain slack
#: under periodic checkpointing.
KINDS = [
    pytest.param(spec_for(case="cc"), "fft-cc-c4-s0.25", id="cc"),
    pytest.param(spec_for(case="bounded"), "fft-bounded-c4-s0.25", id="slack:16"),
    pytest.param(spec_for(QuantumConfig(quantum=10)), None, id="quantum"),
    pytest.param(spec_for(case="adaptive"), "fft-adaptive-c4-s0.25", id="adaptive"),
    pytest.param(spec_for(P2PConfig()), None, id="p2p"),
    pytest.param(spec_for(AdaptiveQuantumConfig()), None, id="adaptive-quantum"),
    pytest.param(
        spec_for(case="speculative"), "fft-speculative-c4-s0.25", id="speculative"
    ),
    pytest.param(
        spec_for(SlackConfig(bound=16), CheckpointConfig(interval=2000)),
        None,
        id="slack+checkpoint",
    ),
]


def canonical(run):
    """The machine at the run's cut as canonical JSON bytes."""
    payload = encode_machine(run.sim, run.scheduler)
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


class TestCutsAreInvisible:
    @pytest.mark.parametrize("spec, golden_id", KINDS)
    def test_three_advances_equal_one_run(self, spec, golden_id):
        whole, _ = execute_spec(spec)
        total = whole.target_cycles
        sanitizer = SlackSanitizer()
        run = build_simulation(spec, sanitizer=sanitizer).start()
        assert not run.completed
        assert run.advance(total // 3) is False
        first = run.position
        assert first >= total // 3
        assert run.advance(2 * total // 3) is False
        assert run.position >= max(first, 2 * total // 3)
        assert run.advance() is True
        assert run.completed
        report = run.report()
        assert report.digest() == whole.digest()
        assert report.to_dict() == whole.to_dict()
        if golden_id is not None:
            assert report.digest() == GOLDEN[golden_id]
        assert not sanitizer.violations and sanitizer.total_checks() > 0

    @pytest.mark.parametrize("case", ["bounded", "speculative"])
    def test_an_earlier_cut_leaves_the_encoded_machine_unchanged(self, case):
        """Cut at b1, resume to b2: the machine encodes byte-equal to a
        fresh run's single advance to b2 — no field of the state, the
        host scheduler or the controller remembers the earlier stop."""
        spec = spec_for(case=case)
        total = execute_spec(spec)[0].target_cycles
        b1, b2 = total // 3, 2 * total // 3
        twice = build_simulation(spec).start()
        assert twice.advance(b1) is False
        at_b1 = canonical(twice)
        assert twice.advance(b2) is False
        once = build_simulation(spec).start()
        assert once.advance(b2) is False
        assert canonical(twice) == canonical(once) != at_b1

    def test_advance_on_a_completed_run_changes_nothing(self):
        run = build_simulation(spec_for()).start()
        assert run.advance() is True
        before = run.report().to_dict(), run.position, run.scheduler.stats.manager_steps
        assert run.advance() is True
        assert run.advance(1) is True
        assert run.advance(10**9) is True
        after = run.report().to_dict(), run.position, run.scheduler.stats.manager_steps
        assert after == before

    def test_a_cut_past_the_end_completes(self):
        spec = spec_for()
        whole, _ = execute_spec(spec)
        run = build_simulation(spec).start()
        assert run.advance(whole.target_cycles + 1) is True
        assert run.report().digest() == whole.digest()

    def test_a_cut_landing_exactly_on_completion_reports_completed(self):
        """The workload's last act is a core step and the cut rule is
        only asked at manager steps, so a cut *at* the final target time
        is never taken — the run just completes — while a cut at the
        largest global time the manager ever reports is taken and leaves
        only the tail to finish.  'Finished or cut' is read off the
        machine either way."""
        spec = spec_for()
        whole, _ = execute_spec(spec)
        run = build_simulation(spec).start()
        assert run.advance(whole.target_cycles) is True
        assert run.report().digest() == whole.digest()

        spy = build_simulation(spec).start()
        seen = []
        spy.scheduler.run(None, lambda outcome: seen.append(outcome.global_time))
        assert max(seen) < whole.target_cycles
        run = build_simulation(spec).start()
        assert run.advance(max(seen)) is False
        assert run.advance(max(seen) + 1) is True
        assert run.report().digest() == whole.digest()

    def test_report_of_a_cut_run_is_refused(self):
        run = build_simulation(spec_for()).start()
        assert run.advance(1000) is False
        with pytest.raises(ConfigError, match="cut, not completed"):
            run.report()


class TestSingleShot:
    def test_start_twice_raises(self):
        sim = build_simulation(spec_for())
        sim.start()
        with pytest.raises(ConfigError, match="already run"):
            sim.start()

    def test_run_after_start_raises(self):
        sim = build_simulation(spec_for())
        sim.start()
        with pytest.raises(ConfigError, match="already run"):
            sim.run()

    def test_start_after_run_raises(self):
        sim = build_simulation(spec_for())
        sim.run()
        with pytest.raises(ConfigError, match="already run"):
            sim.start()


class TestSpeculativeCuts:
    def test_a_cut_never_lands_inside_a_replay_window(self):
        spec = spec_for(case="speculative")
        whole, _ = execute_spec(spec)
        assert whole.rollbacks > 0, "the case must actually replay"
        interval = spec.scheme.checkpoint.interval
        sim = build_simulation(spec)
        run = sim.start()
        assert run.position == 0  # the time-zero checkpoint
        target, cuts = 1, 0
        while not run.advance(target):
            controller = sim.controller
            assert not controller.replaying
            assert run.position == controller.snapshot.boundary
            assert run.position >= target and run.position % interval == 0
            encode_machine(sim, run.scheduler)  # refuses a mid-replay machine
            cuts += 1
            target = run.position + 1
        assert cuts == whole.target_cycles // interval
        assert run.report().digest() == whole.digest()

    def test_wire_is_plain_json_data(self):
        """The machine payload survives a JSON round trip unchanged — the
        pickle-free discipline (mirrors service/protocol.py's codec)."""
        run = build_simulation(spec_for()).start()
        assert run.advance(1000) is False
        payload = encode_machine(run.sim, run.scheduler)
        assert payload["v"] == MACHINE_WIRE_VERSION
        assert json.loads(json.dumps(payload)) == payload

    def test_the_e2e_layer_pass_can_still_encode_a_mid_run_cut(self):
        """``benchmarks/e2e/layers.py`` (frozen) imports exactly the two
        names imported above and drives a scheduler of its own to the
        predicate's cut."""
        from repro.core.scheduler import Scheduler

        spec = spec_for(case="speculative")
        total = execute_spec(spec)[0].target_cycles
        sim = build_simulation(spec)
        scheduler = Scheduler(sim, sim.host)
        sim.controller.on_run_start(scheduler)
        scheduler.run(None, make_stop_predicate(sim, total // 2))
        assert 0 < sim.state.global_time() < total
        assert len(json.dumps(encode_machine(sim, scheduler))) > 1024


def encoded_fields(node, found=None):
    """``{class name: field names}`` over every object record of an
    ``encode_machine`` payload."""
    found = {} if found is None else found
    if isinstance(node, dict):
        for value in node.values():
            encoded_fields(value, found)
    elif isinstance(node, list):
        if len(node) == 4 and node[0] == "o" and isinstance(node[3], list):
            found.setdefault(node[1], set()).update(name for name, _ in node[3])
        for value in node:
            encoded_fields(value, found)
    return found


class TestSkipFields:
    def test_every_skipped_field_is_live_and_left_out(self):
        """The stale-skip check: each ``_SKIP_FIELDS`` name is an attribute
        its class still carries in a built simulation at a cut, and no
        encoded record of that class carries it."""
        run = build_simulation(spec_for(case="speculative")).start()
        assert run.advance(1000) is False
        state = run.sim.state
        live = {
            CacheArray: state.cores[0].model.l1.array,
            CacheStatusMap: state.manager.cache_map,
            ManagerState: state.manager,
            CoreModel: state.cores[0].model,
        }
        assert set(live) == set(_SKIP_FIELDS)
        encoded = encoded_fields(encode_machine(run.sim, run.scheduler))
        for cls, skipped in _SKIP_FIELDS.items():
            assert type(live[cls]) is cls
            assert all(hasattr(live[cls], name) for name in skipped), cls
            assert encoded[cls.__name__] and not encoded[cls.__name__] & skipped


# --------------------------------------------------------------------- #
# Structural pin: one driver
# --------------------------------------------------------------------- #


def occurrences(pattern):
    """``{relative path: count}`` of a regex over the source tree."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        count = len(re.findall(pattern, path.read_text()))
        if count:
            found[str(path.relative_to(SRC))] = count
    return found


class TestOneDriver:
    def test_the_collector_is_disabled_in_one_place(self):
        assert occurrences(r"gc\.disable\(") == {"core/simulation.py": 1}

    def test_a_scheduler_is_built_in_one_place(self):
        assert occurrences(r"(?<![A-Za-z_])Scheduler\(") == {"core/simulation.py": 1}

    @pytest.mark.parametrize(
        "pattern", [r"def _build_machine", r"def _completed", r"def _cut_position"]
    )
    def test_the_hand_rolled_copies_are_gone(self, pattern):
        assert occurrences(pattern) == {}

    def test_nobody_else_marks_a_simulation_as_run(self):
        assert set(occurrences(r"_ran = True")) == {"core/simulation.py"}

    def test_the_cut_rule_has_one_body(self):
        assert set(occurrences(r"make_stop_predicate")) == {"core/epochs.py"}
        assert make_stop_predicate is simulation_module.cut_rule


# --------------------------------------------------------------------- #
# Structural pin: the two speed layers that did not pay are gone
# --------------------------------------------------------------------- #


class TestRemovedLayers:
    @pytest.mark.parametrize(
        "module",
        ["repro.sampling", "repro.harness.timepar", "repro.telemetry.features"],
    )
    def test_the_modules_do_not_import(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    @pytest.mark.parametrize(
        "name", ["install_machine", "at_time_zero", "timepar", "run_sampled"]
    )
    def test_their_names_occur_nowhere(self, name):
        assert occurrences(name) == {}

    def test_repro_run_help_shows_none_of_the_seven_flags(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--help"])
        flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        removed = {
            "--time-parallel", "--jobs", "--sample", "--sample-rate",
            "--sample-interval", "--warmup", "--sample-seed",
        }
        assert not flags & removed
        assert "--sample-period" in flags  # the telemetry time series stays

    def test_frontier_is_not_an_experiment(self, capsys):
        assert "frontier" not in EXPERIMENTS
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "frontier"])
        assert "invalid choice: 'frontier'" in capsys.readouterr().err
