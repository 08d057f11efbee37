"""Time-parallel single runs: bit-identical stitching across schemes.

The contract under test (ISSUE 8): ``run_time_parallel`` — cold recording
pass, warm speculative pass, and divergence recovery — produces reports
whose digest is byte-identical to the serial run's for every scheme kind,
and the machine wire codec fails structurally (never silently) on skew.
"""

import json

import pytest

from repro.config import (
    AdaptiveConfig,
    AdaptiveQuantumConfig,
    CheckpointConfig,
    HostConfig,
    P2PConfig,
    SlackConfig,
    SpeculativeConfig,
    quick_target_config,
)
from repro.core.epochs import MACHINE_WIRE_VERSION, encode_machine, install_machine
from repro.errors import EpochError
from repro.harness.cache import RunSpec
from repro.harness.pool import build_simulation, execute_spec
from repro.harness.timepar import (
    EpochJob,
    EpochStateCache,
    _plan_boundaries,
    _run_epoch,
    run_time_parallel,
)
from repro.telemetry import TelemetrySession

#: One configuration per scheme kind (the acceptance matrix's kinds).
SCHEMES = [
    pytest.param(SlackConfig(bound=0), id="cc"),
    pytest.param(SlackConfig(bound=16), id="fixed"),
    pytest.param(AdaptiveConfig(target_rate=1e-3, adjust_period=250), id="adaptive"),
    pytest.param(AdaptiveQuantumConfig(), id="adaptive-quantum"),
    pytest.param(P2PConfig(), id="p2p"),
    pytest.param(
        SpeculativeConfig(
            base=SlackConfig(bound=16), checkpoint=CheckpointConfig(interval=500)
        ),
        id="speculative",
    ),
]


def spec_for(scheme, scale=0.2):
    return RunSpec(
        benchmark="fft",
        scheme=scheme,
        scale=scale,
        checkpoint=None,
        detection=True,
        seed=12345,
        num_threads=4,
        target=quick_target_config(num_cores=4),
        host=HostConfig(num_contexts=4),
    )


class TestBitIdenticalStitching:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_cold_then_warm_match_serial(self, scheme, tmp_path):
        spec = spec_for(scheme)
        serial, _ = execute_spec(spec)

        cold = run_time_parallel(spec, epochs=4, cache_root=tmp_path)
        assert cold.stats.mode == "cold"
        assert cold.digest == serial.digest()

        warm = run_time_parallel(spec, epochs=4, cache_root=tmp_path)
        assert warm.stats.mode == "warm"
        assert warm.digest == serial.digest()
        assert warm.stats.hit_rate == 1.0
        assert warm.stats.diverged == 0

    def test_single_epoch_is_the_serial_run(self, tmp_path):
        spec = spec_for(SlackConfig(bound=16))
        serial, _ = execute_spec(spec)
        result = run_time_parallel(spec, epochs=1, cache_root=tmp_path)
        assert result.stats.mode == "serial"
        assert result.digest == serial.digest()

    def test_invalid_epoch_count_raises(self, tmp_path):
        with pytest.raises(EpochError):
            run_time_parallel(spec_for(SlackConfig(bound=16)), epochs=0,
                              cache_root=tmp_path)


class TestDivergenceRecovery:
    def test_mis_primed_prediction_reexecutes_and_self_heals(self, tmp_path):
        """A wrong cached state costs a divergence + re-execution, never
        correctness; the validated actual state overwrites the bad entry."""
        spec = spec_for(SlackConfig(bound=16))
        serial, _ = execute_spec(spec)
        run_time_parallel(spec, epochs=4, cache_root=tmp_path)  # record

        cache = EpochStateCache(spec, root=tmp_path)
        bounds = _plan_boundaries(cache.load_meta(), 4)
        assert len(bounds) >= 2, "case too short to mis-prime"
        cache.store_state(bounds[1], cache.load_state(bounds[0]))

        diverged = run_time_parallel(spec, epochs=4, cache_root=tmp_path)
        assert diverged.digest == serial.digest()
        assert diverged.stats.diverged >= 1
        assert diverged.stats.reexecuted == diverged.stats.diverged
        assert diverged.stats.hit_rate < 1.0

        healed = run_time_parallel(spec, epochs=4, cache_root=tmp_path)
        assert healed.digest == serial.digest()
        assert healed.stats.diverged == 0

    def test_corrupt_cached_wire_falls_back_to_cold(self, tmp_path):
        """An unreadable state file is a miss: the run re-records instead
        of failing."""
        spec = spec_for(SlackConfig(bound=16))
        serial, _ = execute_spec(spec)
        run_time_parallel(spec, epochs=4, cache_root=tmp_path)
        cache = EpochStateCache(spec, root=tmp_path)
        for path in cache.dir.glob("b*.wire"):
            path.unlink()
        again = run_time_parallel(spec, epochs=4, cache_root=tmp_path)
        assert again.stats.mode == "cold"
        assert again.digest == serial.digest()


class TestTelemetryCounters:
    def test_epoch_counters_and_hit_rate_are_emitted(self, tmp_path):
        spec = spec_for(SlackConfig(bound=16))
        run_time_parallel(spec, epochs=4, cache_root=tmp_path)
        session = TelemetrySession(trace=False, metrics=True, sample_period=None)
        result = run_time_parallel(spec, epochs=4, cache_root=tmp_path,
                                   telemetry=session)
        doc = session.metrics.to_dict()
        assert doc["counters"]["timepar.epochs_launched"] == result.stats.launched
        assert doc["counters"]["timepar.epochs_diverged"] == 0
        assert doc["gauges"]["timepar.prediction_hit_rate"] == 1.0


class TestWireCodec:
    def test_version_skew_raises_structured_error(self):
        spec = spec_for(SlackConfig(bound=16))
        run = build_simulation(spec).start()
        payload = encode_machine(run.sim, run.scheduler)
        assert payload["v"] == MACHINE_WIRE_VERSION
        payload["v"] = MACHINE_WIRE_VERSION + 1
        run2 = build_simulation(spec).start(at_time_zero=False)
        with pytest.raises(EpochError, match="wire version"):
            install_machine(run2.sim, run2.scheduler, payload)

    def test_program_structure_mismatch_raises(self):
        """A capture installed into a differently-shaped workload must be
        rejected by the anchor count, not misdecode."""
        spec = spec_for(SlackConfig(bound=16))
        run = build_simulation(spec).start()
        payload = encode_machine(run.sim, run.scheduler)
        other = spec_for(SlackConfig(bound=16), scale=0.4)
        run2 = build_simulation(other).start(at_time_zero=False)
        with pytest.raises(EpochError, match="mismatch"):
            install_machine(run2.sim, run2.scheduler, payload)

    def test_wire_is_plain_json_data(self):
        """The machine payload survives a JSON round trip unchanged — the
        pickle-free discipline (mirrors service/protocol.py's codec)."""
        spec = spec_for(SlackConfig(bound=16))
        run = build_simulation(spec).start()
        payload = encode_machine(run.sim, run.scheduler)
        assert json.loads(json.dumps(payload)) == payload

    def test_epoch_resume_is_bit_identical_mid_run(self, tmp_path):
        """Capture at a cut, install into a fresh machine, run both to the
        next cut: the wires must be byte-equal (the stitching invariant)."""
        spec = spec_for(SlackConfig(bound=16))
        serial, _ = execute_spec(spec)
        b1 = serial.target_cycles // 3
        b2 = (2 * serial.target_cycles) // 3

        first = _run_epoch(EpochJob(0, spec, None, b1))
        assert first["status"] == "cut"
        cont = _run_epoch(EpochJob(1, spec, first["wire"], b2))
        assert cont["status"] == "cut"

        # The same trajectory executed without the intermediate stop.
        spec2 = spec_for(SlackConfig(bound=16))
        direct = _run_epoch(EpochJob(0, spec2, None, b2))
        assert direct["status"] == "cut"
        assert direct["wire"] == cont["wire"]
