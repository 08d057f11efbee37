"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import EXPERIMENTS, build_parser, main, parse_scheme
from repro.config import (
    AdaptiveConfig,
    P2PConfig,
    QuantumConfig,
    SlackConfig,
    SpeculativeConfig,
)


class TestParseScheme:
    def test_cc(self):
        assert parse_scheme("cc") == SlackConfig(bound=0)
        assert parse_scheme("cycle-by-cycle") == SlackConfig(bound=0)

    def test_slack(self):
        assert parse_scheme("slack:5") == SlackConfig(bound=5)
        assert parse_scheme("slack") == SlackConfig(bound=8)

    def test_unbounded(self):
        assert parse_scheme("unbounded") == SlackConfig(bound=None)
        assert parse_scheme("su") == SlackConfig(bound=None)

    def test_quantum(self):
        assert parse_scheme("quantum:20") == QuantumConfig(quantum=20)

    def test_adaptive(self):
        scheme = parse_scheme("adaptive:2e-3")
        assert isinstance(scheme, AdaptiveConfig)
        assert scheme.target_rate == pytest.approx(2e-3)

    def test_p2p(self):
        scheme = parse_scheme("p2p:50,80")
        assert isinstance(scheme, P2PConfig)
        assert (scheme.period, scheme.max_lead) == (50, 80)

    def test_p2p_single_arg(self):
        scheme = parse_scheme("p2p:60")
        assert (scheme.period, scheme.max_lead) == (60, 60)

    def test_speculative(self):
        scheme = parse_scheme("speculative:2000")
        assert isinstance(scheme, SpeculativeConfig)
        assert scheme.checkpoint.interval == 2000

    def test_adaptive_quantum(self):
        from repro.config import AdaptiveQuantumConfig

        scheme = parse_scheme("adaptive-quantum:16")
        assert isinstance(scheme, AdaptiveQuantumConfig)
        assert scheme.initial_quantum == 16
        assert isinstance(parse_scheme("aq"), AdaptiveQuantumConfig)

    def test_unknown_raises(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_scheme("warp-drive")

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("slack", "slack:N"),
            ("quantum", "quantum:N"),
            ("adaptive", "adaptive:RATE"),
            ("speculative", "speculative:INTERVAL"),
            ("aq", "aq:N"),
            ("adaptive-quantum", "adaptive-quantum:N"),
            ("p2p", "p2p:PERIOD[,LEAD]"),
        ],
    )
    def test_empty_argument_after_the_colon_raises(self, name, expected):
        """``slack:`` used to fall back to the default bound silently."""
        with pytest.raises(argparse.ArgumentTypeError) as caught:
            parse_scheme(f"{name}:")
        assert repr(name) in str(caught.value) and expected in str(caught.value)
        parse_scheme(name)  # the bare spelling keeps its default

    def test_empty_argument_is_a_usage_error_on_the_command_line(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["run", "fft", "--scheme", "Slack:"])
        assert caught.value.code == 2
        assert "expects slack:N" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec", ["slack:-3", "quantum:0", "speculative:0", "adaptive:-1"]
    )
    def test_out_of_range_argument_raises(self, spec):
        """These used to escape argparse as a ConfigError traceback."""
        with pytest.raises(argparse.ArgumentTypeError) as caught:
            parse_scheme(spec)
        assert repr(spec) in str(caught.value)

    def test_out_of_range_argument_is_a_usage_error_on_the_command_line(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["run", "fft", "--scheme", "slack:-3"])
        assert caught.value.code == 2
        assert "argument --scheme: 'slack:-3'" in capsys.readouterr().err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "barnes" in out
        assert "table2" in out

    def test_run_quick(self, capsys):
        code = main(
            ["run", "compute-only", "--scheme", "slack:4", "--scale", "0.2",
             "--threads", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "target cycles" in out
        assert "violations" in out

    def test_run_no_detection(self, capsys):
        code = main(
            ["run", "compute-only", "--scale", "0.2", "--threads", "4",
             "--no-detection"]
        )
        assert code == 0

    def test_compare_quick(self, capsys):
        code = main(
            ["compare", "compute-only", "--bounds", "0,None", "--scale", "0.2",
             "--threads", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cycle-by-cycle" in out
        assert "unbounded" in out

    def test_experiment_table1_text(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "Benchmarks" in capsys.readouterr().out

    def test_experiment_table1_csv(self, capsys):
        assert main(["experiment", "table1", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("benchmark,")

    def test_experiment_table1_json(self, capsys):
        import json

        assert main(["experiment", "table1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "table1"
        assert len(payload["rows"]) == 4

    def test_all_experiments_registered(self):
        parser = build_parser()
        args = parser.parse_args(["experiment", "table3"])
        assert args.name == "table3"
        assert set(EXPERIMENTS) >= {"table2", "figure3", "figure4", "speculative"}

    def test_error_path(self, capsys):
        """A workload/thread mismatch surfaces as a clean CLI error."""
        code = main(["run", "barnes", "--threads", "16", "--scale", "0.2"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--threads", "0"),
            ("--scale", "nan"),
            ("--scale", "inf"),
            ("--scale", "0"),
            ("--scale", "-1"),
        ],
    )
    def test_run_rejects_an_out_of_range_spec(self, flag, value, capsys):
        """``--threads 0`` and ``--scale nan|inf`` were tracebacks; scale
        0 and -1 both ran the clamped minimum under two cache keys."""
        assert main(["run", "fft", flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag.lstrip("-") in err


class TestParallelAndCacheFlags:
    def test_experiment_accepts_jobs_and_all(self):
        parser = build_parser()
        args = parser.parse_args(["experiment", "all", "-j", "4"])
        assert args.name == "all"
        assert args.jobs == 4
        assert args.no_cache is False

    def test_bench_accepts_jobs_and_cached(self):
        parser = build_parser()
        args = parser.parse_args(["bench", "--smoke", "-j", "2", "--cached"])
        assert args.jobs == 2
        assert args.cached is True

    def test_experiment_all_writes_output_dir(self, tmp_path, monkeypatch, capsys):
        import repro.cli as cli_mod
        from repro.harness.experiments import ExperimentResult

        def fake_experiment(runner):
            return ExperimentResult(
                name="fake", title="Fake", headers=("a", "b"), rows=[(1, 2)]
            )

        monkeypatch.setattr(cli_mod, "EXPERIMENTS", {"fake": fake_experiment})
        out = tmp_path / "results"
        code = main(
            ["experiment", "all", "--output-dir", str(out), "--format", "csv"]
        )
        assert code == 0
        written = out / "fake.csv"
        assert written.exists()
        assert written.read_text().startswith("a,b")
        assert str(written) in capsys.readouterr().out

    def test_experiment_single_with_no_cache(self, monkeypatch, capsys):
        import repro.cli as cli_mod
        from repro.harness.experiments import ExperimentResult

        seen = {}

        def fake_experiment(runner):
            seen["cache"] = runner.cache
            seen["jobs"] = runner.jobs
            return ExperimentResult(
                name="fake", title="Fake", headers=("a",), rows=[(1,)]
            )

        monkeypatch.setattr(cli_mod, "EXPERIMENTS", {"fake": fake_experiment})
        assert main(["experiment", "fake", "--no-cache", "-j", "2"]) == 0
        assert seen["cache"] is None
        assert seen["jobs"] == 2

    def test_cache_info_and_clear(self, capsys, tmp_path):
        assert main(["cache", "info", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "report cache at" in out
        assert "entries" in out
        assert "on disk" in out
        assert main(["cache", "clear", "--dir", str(tmp_path)]) == 0
        assert "removed 0 cached report(s)" in capsys.readouterr().out

    def test_cache_clear_names_an_orphaned_epochs_tree(self, capsys, tmp_path):
        (tmp_path / "epochs" / "ab").mkdir(parents=True)
        (tmp_path / "epochs" / "ab" / "b500.wire").write_bytes(b"wire")
        assert main(["cache", "clear", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert "removed 0 cached report(s) and the orphaned epochs/ tree" in out
        assert not (tmp_path / "epochs").exists()

    def test_cache_prune(self, capsys, tmp_path):
        assert main(["cache", "prune", "--dir", str(tmp_path), "--max-mb", "1"]) == 0
        assert "pruned 0 report(s)" in capsys.readouterr().out

    def test_cache_prune_requires_max_mb(self, capsys, tmp_path):
        assert main(["cache", "prune", "--dir", str(tmp_path)]) == 2
        assert "requires --max-mb" in capsys.readouterr().err

    def test_cache_prune_rejects_a_negative_size(self, capsys, tmp_path):
        """``total - freed <= max_bytes`` can never hold below zero, so a
        negative size used to evict every entry."""
        entry = tmp_path / "reports" / "ab" / "abcd.json"
        entry.parent.mkdir(parents=True)
        entry.write_text("{}")
        assert main(["cache", "prune", "--dir", str(tmp_path), "--max-mb", "-1"]) == 2
        assert "error: --max-mb must be >= 0" in capsys.readouterr().err
        assert entry.exists()

    @pytest.mark.parametrize("size", ["nan", "inf"])
    def test_cache_prune_rejects_a_size_that_is_not_finite(self, size, capsys, tmp_path):
        """The ``< 0`` guard let NaN through to a traceback."""
        assert main(["cache", "prune", "--dir", str(tmp_path), "--max-mb", size]) == 2
        assert "error: --max-mb must be >= 0 and finite" in capsys.readouterr().err

    def test_run_rejects_a_negative_sample_period(self, capsys, tmp_path):
        metrics = tmp_path / "m.json"
        argv = ["run", "fft", "--scale", "0.1", "--metrics", str(metrics)]
        assert main(argv + ["--sample-period", "-5"]) == 2
        assert "error: --sample-period must be >= 0" in capsys.readouterr().err
        assert not metrics.exists()

    def test_bench_unmatched_cases_fail_listing_names(self):
        from repro.harness.bench import run_bench

        with pytest.raises(SystemExit) as excinfo:
            run_bench(smoke=True, cases=["no-such-case"])
        message = str(excinfo.value)
        assert "no bench cases match" in message
        assert "no-such-case" in message
        assert "available cases" in message
        assert "fft-cc-c4" in message  # the listing names real case ids

    def test_bench_partially_unmatched_cases_fail(self):
        from repro.harness.bench import run_bench

        # One good token must not mask a dud: the dud alone is reported.
        with pytest.raises(SystemExit) as excinfo:
            run_bench(smoke=True, cases=["fft-cc-c4", "zzz-nope"])
        message = str(excinfo.value)
        assert "zzz-nope" in message
        assert "'fft-cc-c4'" not in message.split("available cases")[0]

    def test_bench_missing_golden_entry_fails_naming_cases_and_file(self, tmp_path):
        # Same argument as the unmatched filter: a mistyped --golden path
        # checks nothing, and a gate that checked nothing must not be green.
        nowhere = tmp_path / "no-such-golden.json"
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--smoke", "--cases", "fft-cc-c4", "--golden", str(nowhere)])
        assert excinfo.value.code not in (0, None)
        message = str(excinfo.value)
        assert "fft-cc-c4-s0.25" in message
        assert str(nowhere) in message
        assert "--update-golden" in message

    def test_bench_update_golden_records_a_missing_entry(self, tmp_path, capsys):
        import json

        recorded = tmp_path / "golden.json"
        argv = ["bench", "--smoke", "--cases", "fft-cc-c4", "--golden", str(recorded)]
        assert main(argv + ["--update-golden"]) == 0
        assert "[missing]" in capsys.readouterr().out
        assert list(json.loads(recorded.read_text())) == ["fft-cc-c4-s0.25"]
        assert main(argv) == 0
        assert "bench: 1/1 ok, 0 cached, 0 sanitized" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--output", "x.json"],
            ["loadtest", "--output", "x.json"],
            ["loadtest", "--pattern", "poisson"],
            ["loadtest", "--rate", "5"],
            ["loadtest", "--isolated"],
            ["loadtest", "--spawn-jobs", "2"],
            ["loadtest", "--spawn-queue-limit", "5"],
            ["loadtest", "--verify-local", "2"],
        ],
    )
    def test_the_second_perf_record_has_no_flags_left(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_loadtest_rejects_a_fleet_without_workers(self, workers, capsys):
        # A coordinator with no workers answers nothing: every request
        # would wait out the 300 s submit timeout before the run ends FAIL.
        assert main(["loadtest", "--spawn", workers]) == 2
        assert "error: --spawn must be >= 1" in capsys.readouterr().err


class TestServiceVerbs:
    def test_parser_accepts_service_verbs(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--jobs", "2", "--queue-limit", "8"])
        assert args.func.__name__ == "cmd_serve"
        assert args.queue_limit == 8
        args = parser.parse_args(
            ["submit", "fft", "--scheme", "slack:8", "--priority", "3", "--wait"]
        )
        assert args.func.__name__ == "cmd_submit"
        assert args.scheme == SlackConfig(bound=8)
        assert args.priority == 3
        args = parser.parse_args(["jobs", "--health", "--socket", "/tmp/x.sock"])
        assert args.func.__name__ == "cmd_jobs"
        args = parser.parse_args(["result", "j-1", "--wait", "--json"])
        assert args.func.__name__ == "cmd_result"
        assert args.job_id == "j-1"

    def test_daemon_defaults_come_from_the_config_dataclasses(self):
        """`serve`/`worker` declare no numeric defaults of their own: an
        omitted flag is dropped and the dataclass default applies, so the
        CLI and an embedded daemon cannot disagree."""
        from repro.cli import _daemon_config
        from repro.fabric.coordinator import CoordinatorConfig
        from repro.service import ServiceConfig

        parser = build_parser()
        bare = parser.parse_args(["serve"])
        for flag in ("jobs", "queue_limit", "max_retries", "retry_backoff",
                     "heartbeat_timeout", "max_redispatch"):
            assert getattr(bare, flag) is None, flag
        assert _daemon_config(bare, retry_backoff_s=bare.retry_backoff) == {}
        assert ServiceConfig().retry_backoff_s == 0.5  # the documented value
        given = parser.parse_args(
            ["serve", "--coordinator", "--queue-limit", "8", "--no-fsync",
             "--tcp", "127.0.0.1:7000", "--wal", "/tmp/x.wal"]
        )
        config = CoordinatorConfig(**_daemon_config(given))
        assert (config.queue_limit, config.fsync) == (8, False)
        assert (config.tcp_host, config.tcp_port) == ("127.0.0.1", 7000)
        assert str(config.resolved_wal_path()) == "/tmp/x.wal"
        assert config.heartbeat_timeout_s == CoordinatorConfig().heartbeat_timeout_s
        with pytest.raises(SystemExit, match="--tcp expects HOST:PORT"):
            _daemon_config(parser.parse_args(["worker", "--tcp", "nope"]))

    def test_submit_spec_mirrors_run_defaults(self):
        from repro.config import paper_host_config, paper_target_config
        from repro.cli import _submit_spec

        args = build_parser().parse_args(["submit", "fft", "--seed", "9"])
        spec = _submit_spec(args)
        assert spec.benchmark == "fft"
        assert spec.seed == 9
        assert spec.scheme == SlackConfig(bound=0)
        assert spec.target == paper_target_config()
        assert spec.host == paper_host_config()
        assert spec.checkpoint is None and spec.detection

    def test_submit_wait_jobs_result_against_daemon(self, tmp_path, capsys):
        from repro.harness.pool import PoolResult, execute_spec
        from repro.cli import _submit_spec
        from repro.service import ServiceConfig, ServiceDaemon

        async def inline_run_job(spec, timeout):
            report, wall_s = execute_spec(spec)
            return PoolResult(report, wall_s, None)

        config = ServiceConfig(
            socket_path=tmp_path / "repro.sock",
            cache_dir=tmp_path / "cache",
            wal_path=tmp_path / "jobs.wal",
        )
        daemon = ServiceDaemon(config, run_job=inline_run_job).start()
        try:
            sock = ["--socket", str(tmp_path / "repro.sock")]
            submit = ["submit", "fft", "--scale", "0.1", "--threads", "4",
                      "--wait"] + sock
            assert main(submit) == 0
            out = capsys.readouterr().out
            assert "digest" in out and "source run" in out

            args = build_parser().parse_args(submit)
            local, _ = execute_spec(_submit_spec(args))
            assert local.digest() in out  # service == local, byte for byte

            assert main(["jobs"] + sock) == 0
            out = capsys.readouterr().out
            assert "j-1" in out and "done" in out

            assert main(["result", "j-1"] + sock) == 0
            assert local.digest() in capsys.readouterr().out

            assert main(["jobs", "--drain", "--stop"] + sock) == 0
            assert "daemon stopped" in capsys.readouterr().out
        finally:
            daemon.stop()

    def test_submit_against_dead_socket_fails_cleanly(self, tmp_path, capsys):
        code = main(
            ["submit", "fft", "--socket", str(tmp_path / "nope.sock")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err
