"""Command-line interface: ``python -m repro``.

Subcommands::

    run         simulate one benchmark under one scheme and print the report
    compare     run a benchmark under several schemes against cycle-by-cycle
    experiment  regenerate one paper table/figure (table1..table5, figure3,
                figure4, speculative, p2p, adaptive-quantum, scaling,
                hierarchy, ablation-detection, ablation-manager,
                ablation-tracked) or 'all' of them
    trace       summarize or validate a recorded telemetry trace
    cache       inspect, clear, or prune the persistent report cache
    lint        run the lint rules over the source tree, one file at a
                time: hot-path __slots__ (RPR005), noqa hygiene (RPR008),
                stray deepcopy (RPR009) and asyncio atomicity (RPR103)
    serve       run the simulation job service daemon (unix socket / TCP);
                --coordinator runs the fabric front door instead
    worker      run a fleet worker: a service daemon registered with (and
                heartbeating to) a fabric coordinator
    fabric      show fleet status (workers, ring, backlogs, counters)
    loadtest    fleet smoke: replay a synthetic submission stream against a
                coordinator; pass/fail on the digest gate
    submit      submit one run to a running service (optionally wait)
    jobs        list service jobs, or show health / drain the daemon
    result      fetch a finished job's report from the service
    list        list available workloads and experiments

Examples::

    python -m repro run fft --scheme slack:8
    python -m repro run fft --scheme slack:8 --sanitize
    python -m repro run barnes --scheme adaptive:1e-3 --scale 2
    python -m repro lint
    python -m repro lint --format github
    python -m repro lint --explain RPR103
    python -m repro run fft --scheme adaptive:1e-3 --trace out.json --metrics m.json
    python -m repro trace summarize out.json
    python -m repro compare water --bounds 0,4,None
    python -m repro experiment table2 --format csv
    python -m repro experiment all -j 4 --output-dir out/
    python -m repro bench -j 4
    python -m repro cache info
    python -m repro cache prune --max-mb 256 --dry-run
    python -m repro serve --socket /tmp/repro.sock --jobs 4
    python -m repro serve --coordinator --socket /tmp/coord.sock
    python -m repro worker --coordinator-socket /tmp/coord.sock -j 2
    python -m repro fabric status --socket /tmp/coord.sock
    python -m repro loadtest --spawn 2 --requests 48 --duplicate-ratio 0.5
    python -m repro submit fft --scheme slack:8 --wait
    python -m repro jobs --health
    python -m repro result j-1 --wait
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Optional, Sequence

from repro.config import (
    AdaptiveConfig,
    CheckpointConfig,
    P2PConfig,
    QuantumConfig,
    SchemeConfig,
    SlackConfig,
    SpeculativeConfig,
)
from repro.core.simulation import Simulation
from repro.errors import ConfigError, ReproError
from repro.harness import experiments as experiments_mod
from repro.harness.export import to_csv, to_json
from repro.harness.pool import execute_spec, new_sanitizer
from repro.harness.runner import ExperimentRunner
from repro.workloads import WORKLOADS, make_workload


EXPERIMENTS = {
    "table1": experiments_mod.table1,
    "table2": experiments_mod.table2,
    "table3": experiments_mod.table3,
    "table4": experiments_mod.table4,
    "table5": experiments_mod.table5,
    "figure3": experiments_mod.figure3,
    "figure4": experiments_mod.figure4,
    "speculative": experiments_mod.speculative_full,
    "p2p": experiments_mod.p2p_comparison,
    "adaptive-quantum": experiments_mod.adaptive_quantum_comparison,
    "scaling": lambda runner: experiments_mod.scaling(seed=runner.seed),
    "hierarchy": lambda runner: experiments_mod.hierarchy(seed=runner.seed),
    "ablation-detection": experiments_mod.ablation_detection,
    "ablation-manager": lambda runner: experiments_mod.ablation_manager_placement(
        seed=runner.seed
    ),
    "ablation-tracked": experiments_mod.ablation_tracked,
}


#: The argument each parameterised scheme spec takes after its colon.
_SCHEME_ARGUMENT = {
    "slack": "N",
    "quantum": "N",
    "adaptive-quantum": "N",
    "aq": "N",
    "adaptive": "RATE",
    "p2p": "PERIOD[,LEAD]",
    "speculative": "INTERVAL",
}


def parse_scheme(spec: str) -> SchemeConfig:
    """Parse a scheme spec: ``cc``, ``slack:N``, ``unbounded``,
    ``quantum:N``, ``adaptive:RATE``, ``p2p:PERIOD,LEAD``,
    ``speculative:INTERVAL``."""
    name, colon, arg = spec.partition(":")
    name = name.lower()
    if colon and not arg and name in _SCHEME_ARGUMENT:
        raise argparse.ArgumentTypeError(
            f"scheme {name!r} expects {name}:{_SCHEME_ARGUMENT[name]} but "
            f"nothing follows the colon in {spec!r} (write {name!r} alone "
            "for its default)"
        )
    try:
        if name in ("cc", "cycle-by-cycle"):
            return SlackConfig(bound=0)
        if name in ("unbounded", "su"):
            return SlackConfig(bound=None)
        if name == "slack":
            return SlackConfig(bound=int(arg) if arg else 8)
        if name == "quantum":
            return QuantumConfig(quantum=int(arg) if arg else 10)
        if name in ("adaptive-quantum", "aq"):
            from repro.config import AdaptiveQuantumConfig

            if arg:
                return AdaptiveQuantumConfig(initial_quantum=int(arg))
            return AdaptiveQuantumConfig()
        if name == "adaptive":
            return AdaptiveConfig(target_rate=float(arg) if arg else 1e-3, adjust_period=250)
        if name == "p2p":
            if arg:
                period, _, lead = arg.partition(",")
                return P2PConfig(period=int(period), max_lead=int(lead or period))
            return P2PConfig()
        if name == "speculative":
            return SpeculativeConfig(
                base=AdaptiveConfig(target_rate=1e-3, adjust_period=250),
                checkpoint=CheckpointConfig(interval=int(arg) if arg else 5000),
            )
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(f"{spec!r}: {exc}") from None
    raise argparse.ArgumentTypeError(f"unknown scheme spec {spec!r}")


def _print_report(report) -> None:
    print(report.summary())
    print(f"  instructions      : {report.instructions}")
    print(f"  L1 miss rate      : {report.l1_miss_rate:.4f}")
    print(f"  L2 miss rate      : {report.l2_miss_rate:.4f}")
    print(f"  bus requests      : {report.bus_requests} "
          f"({report.bus_conflict_cycles} conflict cycles)")


def cmd_run(args: argparse.Namespace) -> int:
    """``repro run``: spec -> ``execute_spec`` -> print, with one
    telemetry session and one metrics writer."""
    if args.sample_period < 0:
        print("error: --sample-period must be >= 0", file=sys.stderr)
        return 2
    tracing = bool(args.trace or args.trace_jsonl)
    telemetry = None
    if tracing or args.metrics:
        from repro.telemetry import TelemetrySession

        telemetry = TelemetrySession(
            trace=tracing, metrics=True, sample_period=args.sample_period
        )
    sanitizer = new_sanitizer(args.sanitize)
    report, _ = execute_spec(
        _submit_spec(args), telemetry=telemetry, sanitizer=sanitizer
    )
    _print_report(report)
    if sanitizer is not None:
        print(f"  {sanitizer.summary()}")
    if telemetry is not None:
        tracer = telemetry.tracer
        if args.trace:
            tracer.write_chrome(args.trace)
            print(f"  trace             : {args.trace} "
                  f"({len(tracer)} events, {tracer.dropped} dropped)")
        if args.trace_jsonl:
            tracer.write_jsonl(args.trace_jsonl)
            print(f"  trace (jsonl)     : {args.trace_jsonl}")
        if args.metrics:
            telemetry.write_metrics(
                args.metrics,
                meta={
                    "benchmark": report.benchmark,
                    "scheme": report.scheme,
                    "cores": report.num_cores,
                    "seed": report.seed,
                    "digest": report.digest(),
                },
            )
            print(f"  metrics           : {args.metrics}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry import load_trace, summarize_trace, validate_chrome_trace

    doc = load_trace(args.file)
    if args.action == "validate":
        errors = validate_chrome_trace(doc)
        if errors:
            for err in errors[:20]:
                print(f"  {err}", file=sys.stderr)
            if len(errors) > 20:
                print(f"  ... and {len(errors) - 20} more", file=sys.stderr)
            print(f"error: {args.file}: {len(errors)} validation errors",
                  file=sys.stderr)
            return 1
        print(f"{args.file}: valid ({len(doc.get('traceEvents', []))} events)")
        return 0
    print(summarize_trace(doc))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    workload = make_workload(args.benchmark, num_threads=args.threads, scale=args.scale)
    bounds = []
    for token in args.bounds.split(","):
        token = token.strip()
        bounds.append(None if token.lower() in ("none", "su") else int(token))
    gold: Optional[object] = None
    print(f"{'scheme':>16} {'cycles':>9} {'sim time':>10} {'speedup':>8} "
          f"{'error':>8} {'violations':>11}")
    for bound in bounds:
        report = Simulation(workload, scheme=SlackConfig(bound=bound), seed=args.seed).run()
        if gold is None:
            gold = report
        print(
            f"{report.scheme:>16} {report.target_cycles:>9} "
            f"{report.sim_time_s:>9.3f}s {report.speedup_over(gold):>7.2f}x "
            f"{report.execution_time_error(gold):>8.2%} "
            f"{sum(report.violation_counts.values()):>11}"
        )
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.harness.pool import resolve_jobs

    runner = ExperimentRunner(
        seed=args.seed,
        verbose=args.verbose,
        jobs=resolve_jobs(args.jobs),
        persistent_cache=not args.no_cache,
        sanitize=args.sanitize,
    )
    names = list(EXPERIMENTS) if args.name == "all" else [args.name]
    out_dir = None
    if args.output_dir:
        import pathlib

        out_dir = pathlib.Path(args.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    extension = {"text": "txt", "csv": "csv", "json": "json"}[args.format]
    for name in names:
        result = EXPERIMENTS[name](runner)
        if args.format == "csv":
            rendered = to_csv(result)
        elif args.format == "json":
            rendered = to_json(result)
        else:
            rendered = result.render()
        if out_dir is not None:
            path = out_dir / f"{name}.{extension}"
            path.write_text(rendered + "\n")
            print(f"wrote {path}")
        else:
            print(rendered)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.harness.bench import run_bench
    from repro.harness.pool import resolve_jobs

    cases = None
    if args.cases:
        cases = [token.strip() for token in args.cases.split(",") if token.strip()]
    run_bench(
        smoke=args.smoke,
        update_golden=args.update_golden,
        golden_file=args.golden,
        jobs=resolve_jobs(args.jobs),
        use_cache=args.cached,
        sanitize=args.sanitize,
        cases=cases,
    )
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.engine import RULES, RULES_BY_CODE, explain_rule, lint_paths

    if args.explain:
        code = args.explain.upper()
        if code == "ALL":
            print("\n\n".join(str(explain_rule(rule.code)) for rule in RULES))
            return 0
        if code not in RULES_BY_CODE:
            known = ", ".join(rule.code for rule in RULES)
            print(f"error: unknown rule code {code} (known: {known})",
                  file=sys.stderr)
            return 2
        print(explain_rule(code))
        return 0
    result = lint_paths(args.paths or ["src/repro"], root=os.getcwd())
    print(result.render(args.format))
    return result.exit_code


def cmd_cache(args: argparse.Namespace) -> int:
    import pathlib

    from repro.harness.cache import ORPHANED_EPOCHS_DIR, ReportCache

    cache = ReportCache(pathlib.Path(args.dir) if args.dir else None)
    if args.action == "clear":
        orphaned = (cache.root / ORPHANED_EPOCHS_DIR).is_dir()
        removed = cache.clear()
        print(
            f"removed {removed} cached report(s)"
            + (f" and the orphaned {ORPHANED_EPOCHS_DIR}/ tree" if orphaned else "")
            + f" from {cache.root}"
        )
        return 0
    if args.action == "prune":
        if args.max_mb is None:
            print("error: cache prune requires --max-mb", file=sys.stderr)
            return 2
        if not 0 <= args.max_mb < math.inf:
            print(f"error: --max-mb must be >= 0 and finite, got {args.max_mb}",
                  file=sys.stderr)
            return 2
        removed, freed = cache.prune(
            int(args.max_mb * 1024 * 1024), dry_run=args.dry_run
        )
        info = cache.info()
        if args.dry_run:
            print(
                f"would prune {removed} report(s), freeing "
                f"{freed / (1024 * 1024):.1f} MB; "
                f"{info['entries'] - removed} would remain "
                f"({(info['bytes'] - freed) / 1024:.1f} KiB)"
            )
            return 0
        print(
            f"pruned {removed} report(s), freed {freed / 1024:.1f} KiB; "
            f"{info['entries']} remain ({info['bytes'] / 1024:.1f} KiB)"
        )
        return 0
    info = cache.info()
    print(f"report cache at {info['path']}")
    print(f"  schema    : v{info['schema']} (semantics {info['semantics']})")
    print(f"  entries   : {info['entries']}")
    print(f"  size      : {info['bytes'] / 1024:.1f} KiB on disk")
    return 0


# --------------------------------------------------------------------- #
# Service verbs
# --------------------------------------------------------------------- #


def _host_port(value: str, flag: str):
    """Parse the ``HOST:PORT`` value of ``flag``."""
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"error: {flag} expects HOST:PORT, got {value!r}")
    return host, int(port)


def _service_address(args: argparse.Namespace):
    """Resolve --socket/--tcp into a client address (default socket path)."""
    if args.tcp:
        return _host_port(args.tcp, "--tcp")
    if args.socket:
        return args.socket
    from repro.service.server import ServiceConfig

    return str(ServiceConfig().resolved_socket_path())


def _client(args: argparse.Namespace, **options):
    from repro.service.client import ServiceClient

    return ServiceClient(
        _service_address(args), connect_retries=args.connect_retries, **options
    )


def _submit_spec(args: argparse.Namespace):
    """The fully-resolved spec for ``repro submit`` — field for field the
    configuration ``repro run`` would simulate, so the service's digest
    contract is checkable against the local command."""
    from repro.config import paper_host_config, paper_target_config
    from repro.harness.cache import RunSpec

    return RunSpec(
        benchmark=args.benchmark,
        scheme=args.scheme,
        scale=args.scale,
        checkpoint=None,
        detection=not args.no_detection,
        seed=args.seed,
        num_threads=args.threads,
        target=paper_target_config(),
        host=paper_host_config(),
    )


def _path(value: Optional[str]):
    import pathlib

    return pathlib.Path(value) if value else None


def _daemon_config(args: argparse.Namespace, **fields):
    """Keyword arguments for the config dataclass of a ``serve``/``worker``
    daemon: the listen/queue/journal flags both verbs share, plus
    ``fields``.  A flag the user left out is dropped, so the dataclass's
    own default applies — there is one source of daemon defaults."""
    if args.tcp:
        fields["tcp_host"], fields["tcp_port"] = _host_port(args.tcp, "--tcp")
    fields.update(
        socket_path=_path(args.socket),
        queue_limit=args.queue_limit,
        wal_path=_path(args.wal),
        fsync=False if args.no_fsync else None,
    )
    return {name: value for name, value in fields.items() if value is not None}


def _slots(args: argparse.Namespace) -> Optional[int]:
    from repro.harness.pool import resolve_jobs

    return None if args.jobs is None else resolve_jobs(args.jobs)


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    if args.coordinator:
        from repro.fabric.coordinator import CoordinatorConfig, FabricCoordinator

        config = CoordinatorConfig(**_daemon_config(
            args,
            store_dir=_path(args.cache_dir),
            heartbeat_timeout_s=args.heartbeat_timeout,
            max_redispatch=args.max_redispatch,
        ))
        server = FabricCoordinator(config)
        name = "repro fabric coordinator"
        settings = (
            f"queue_limit={config.queue_limit}, "
            f"heartbeat_timeout={config.heartbeat_timeout_s:g}s, "
            f"store={config.resolved_store_dir()}"
        )
    else:
        from repro.service.server import ServiceConfig, SimulationService

        config = ServiceConfig(**_daemon_config(
            args,
            jobs=_slots(args),
            max_retries=args.max_retries,
            retry_backoff_s=args.retry_backoff,
            job_timeout_s=args.job_timeout,
            cache_dir=_path(args.cache_dir),
        ))
        server = SimulationService(config)
        name = "repro service"
        settings = f"jobs={config.jobs}, queue_limit={config.queue_limit}"

    def banner() -> None:
        print(
            f"{name}: listening on {server.address} "
            f"({settings}, wal={server.store.path})",
            flush=True,
        )

    try:
        asyncio.run(server.run(on_listening=banner))
    except KeyboardInterrupt:
        pass
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.fabric.worker import FabricWorker, WorkerConfig

    coordinator: object
    if args.coordinator_tcp:
        coordinator = _host_port(args.coordinator_tcp, "--coordinator-tcp")
    elif args.coordinator_socket:
        coordinator = args.coordinator_socket
    else:
        from repro.fabric.coordinator import CoordinatorConfig

        coordinator = str(CoordinatorConfig().resolved_socket_path())
    config = WorkerConfig(**_daemon_config(
        args,
        coordinator=coordinator,
        jobs=_slots(args),
        cache_dir=_path(args.cache_dir),
        worker_id=args.worker_id,
        heartbeat_period_s=args.heartbeat,
    ))
    worker = FabricWorker(config).start()
    print(
        f"repro fabric worker {worker.worker_id}: listening on "
        f"{worker.address}, coordinator {coordinator} "
        f"(slots={config.jobs}, heartbeat={worker.heartbeat_period_s:g}s)",
        flush=True,
    )
    done = threading.Event()
    signal.signal(signal.SIGINT, lambda *_: done.set())
    signal.signal(signal.SIGTERM, lambda *_: done.set())
    done.wait()
    print(f"repro fabric worker {worker.worker_id}: deregistering and draining",
          flush=True)
    worker.stop()
    return 0


def cmd_fabric(args: argparse.Namespace) -> int:
    import json

    with _client(args) as client:
        doc = client.request("fabric")
    if args.json:
        doc.pop("v", None)
        doc.pop("ok", None)
        doc.pop("op", None)
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    jobs = doc.get("jobs", {})
    print(
        f"fabric: {len(doc['workers'])} worker(s), "
        f"queue depth {doc['queue_depth']} "
        f"(unassigned {doc['unassigned']}), inflight {doc['inflight']}"
    )
    print("  jobs      : " + (
        ", ".join(f"{state}={n}" for state, n in sorted(jobs.items())) or "none"
    ))
    backlogs = doc.get("backlogs", {})
    for worker in doc["workers"]:
        stats = worker.get("stats", {})
        print(
            f"  {worker['worker_id']:>6} {worker['state']:>8} "
            f"gen {worker['generation']} slots {worker['slots']} "
            f"backlog {backlogs.get(worker['worker_id'], 0)} "
            f"depth {stats.get('queue_depth', '-')} "
            f"inflight {stats.get('inflight', '-')} "
            f"beat {worker['heartbeat_age_s']:.1f}s ago  {worker['address']}"
        )
    counters = doc.get("fleet_counters", {})
    if counters:
        interesting = {
            name: value
            for name, value in counters.items()
            if name.startswith("service.") and value
        }
        print("  fleet     : " + (
            ", ".join(f"{k.split('.', 1)[1]}={v}" for k, v in interesting.items())
            or "no counters yet"
        ))
    return 0


def cmd_loadtest(args: argparse.Namespace) -> int:
    import json
    import pathlib
    import tempfile

    from repro.fabric.loadtest import LoadtestConfig, SpawnedFabric, run_loadtest

    config = LoadtestConfig(
        requests=args.requests,
        concurrency=args.concurrency,
        duplicate_ratio=args.duplicate_ratio,
        distinct_specs=args.specs,
        seed=args.seed,
        scale=args.scale,
        slack_bound=args.slack_bound,
        submit_timeout_s=args.timeout if args.timeout else 300.0,
    )
    try:
        config.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.socket or args.tcp:
        doc = run_loadtest(_service_address(args), config)
    elif args.spawn < 1:
        # A coordinator with no workers answers nothing: every request
        # would wait out the submit timeout before the run ends FAIL.
        print("error: --spawn must be >= 1", file=sys.stderr)
        return 2
    else:
        with tempfile.TemporaryDirectory(prefix="repro-loadtest-") as tmp:
            fleet = SpawnedFabric(pathlib.Path(tmp), workers=args.spawn).start()
            try:
                doc = run_loadtest(fleet.address, config)
            finally:
                fleet.stop()
    results = doc["results"]
    print(f"loadtest: {results['completed']}/{results['submitted']} completed, "
          f"{results['rejected']} rejected (structured), "
          f"{results['failed']} failed, "
          f"{results['transport_errors']} transport error(s)")
    print(f"  sources   : "
          + json.dumps(results["sources"], sort_keys=True))
    gate = doc["digest_gate"]
    verdict = "PASS" if doc["passed"] else "FAIL"
    print(f"  digest    : {gate['distinct_completed']} distinct spec(s), "
          f"{gate['wire_verified']} wire-verified, "
          f"first one re-run locally — {verdict}")
    for problem in gate["problems"]:
        print(f"    problem: {problem}", file=sys.stderr)
    return 0 if doc["passed"] else 1


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.core.report import SimulationReport

    spec = _submit_spec(args)
    with _client(args, timeout=args.timeout) as client:
        accepted = client.submit(
            spec, priority=args.priority, timeout_s=args.job_timeout
        )
        job_id = accepted["job_id"]
        if not args.wait:
            print(
                f"submitted {job_id} (state {accepted['state']}, "
                f"queue depth {accepted['queue_depth']})"
            )
            return 0
        doc = client.result(job_id, wait=True, timeout_s=args.timeout)
    report = SimulationReport.from_dict(doc["report"])
    if report.digest() != doc["digest"]:
        print(f"error: {job_id}: report does not reproduce its wire digest",
              file=sys.stderr)
        return 1
    _print_report(report)
    print(f"  digest            : {doc['digest']}")
    print(f"  job               : {job_id} (source {doc['source']})")
    return 0


def cmd_jobs(args: argparse.Namespace) -> int:
    import json

    with _client(args) as client:
        if args.health:
            print(json.dumps(client.health(), indent=2, sort_keys=True))
            return 0
        if args.drain or args.stop:
            doc = client.drain(wait=True, stop=args.stop)
            suffix = "; daemon stopped" if args.stop else ""
            print(
                f"drained (queue {doc['queue_depth']}, "
                f"inflight {doc['inflight']}){suffix}"
            )
            return 0
        records = client.jobs(state=args.state)
    if args.json:
        print(json.dumps(records, indent=2, sort_keys=True))
        return 0
    if not records:
        print("no jobs")
        return 0
    print(f"{'job':>6} {'state':>10} {'benchmark':>10} {'seed':>6} "
          f"{'source':>7} {'wall':>8}  digest")
    for job in records:
        wall = f"{job['wall_s']:.2f}s" if job.get("wall_s") is not None else "-"
        digest = (job.get("digest") or "-")[:12]
        print(
            f"{job['job_id']:>6} {job['state']:>10} {job['benchmark']:>10} "
            f"{job['seed']:>6} {str(job.get('source') or '-'):>7} "
            f"{wall:>8}  {digest}"
        )
    return 0


def cmd_result(args: argparse.Namespace) -> int:
    import json

    from repro.core.report import SimulationReport

    with _client(args, timeout=args.timeout) as client:
        doc = client.result(args.job_id, wait=args.wait, timeout_s=args.timeout)
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    report = SimulationReport.from_dict(doc["report"])
    if report.digest() != doc["digest"]:
        print(f"error: {args.job_id}: report does not reproduce its wire digest",
              file=sys.stderr)
        return 1
    _print_report(report)
    print(f"  digest            : {doc['digest']}")
    print(f"  source            : {doc['source']}")
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    print("workloads:")
    for name in sorted(WORKLOADS):
        print(f"  {name}")
    print("experiments:")
    for name in EXPERIMENTS:
        print(f"  {name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SlackSim reproduction: slack simulations of CMPs on CMPs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="simulate one benchmark under one scheme")
    run_parser.add_argument("benchmark", choices=sorted(WORKLOADS))
    run_parser.add_argument("--scheme", type=parse_scheme, default=SlackConfig(bound=0),
                            help="cc | slack:N | unbounded | quantum:N | "
                                 "adaptive:RATE | p2p:P,L | speculative:I")
    run_parser.add_argument("--scale", type=float, default=1.0)
    run_parser.add_argument("--threads", type=int, default=8)
    run_parser.add_argument("--seed", type=int, default=12345)
    run_parser.add_argument("--no-detection", action="store_true",
                            help="disable violation detection (ablation A1)")
    run_parser.add_argument("--trace", metavar="FILE",
                            help="record a Chrome-trace/Perfetto JSON trace")
    run_parser.add_argument("--trace-jsonl", metavar="FILE",
                            help="record the trace as compact JSONL")
    run_parser.add_argument("--metrics", metavar="FILE",
                            help="write counters/histograms/samples as JSON")
    run_parser.add_argument("--sample-period", type=int, default=1000,
                            metavar="CYCLES",
                            help="period, in target cycles, of the telemetry "
                                 "time series written by --metrics (0 writes "
                                 "no time series)")
    run_parser.add_argument("--sanitize", action="store_true",
                            help="attach the slack sanitizer: assert timing "
                                 "invariants (local-time monotonicity, slack "
                                 "bounds, global-time derivation, rollback "
                                 "digests) at every step")
    run_parser.set_defaults(func=cmd_run)

    compare_parser = sub.add_parser("compare", help="compare slack bounds vs CC")
    compare_parser.add_argument("benchmark", choices=sorted(WORKLOADS))
    compare_parser.add_argument("--bounds", default="0,1,4,16,None",
                                help="comma-separated bounds; None = unbounded")
    compare_parser.add_argument("--scale", type=float, default=1.0)
    compare_parser.add_argument("--threads", type=int, default=8)
    compare_parser.add_argument("--seed", type=int, default=12345)
    compare_parser.set_defaults(func=cmd_compare)

    experiment_parser = sub.add_parser("experiment", help="regenerate a paper table/figure")
    experiment_parser.add_argument("name", choices=sorted(EXPERIMENTS) + ["all"],
                                   help="one experiment, or 'all' to regenerate "
                                        "every registered table/figure")
    experiment_parser.add_argument("--format", choices=("text", "csv", "json"),
                                   default="text")
    experiment_parser.add_argument("--seed", type=int, default=2010)
    experiment_parser.add_argument("--verbose", action="store_true")
    experiment_parser.add_argument("-j", "--jobs", type=int, default=1,
                                   metavar="N",
                                   help="fan independent runs out over N worker "
                                        "processes (0 = all host CPUs)")
    experiment_parser.add_argument("--output-dir", metavar="DIR",
                                   help="write each experiment to DIR/<name>.<ext> "
                                        "instead of stdout")
    experiment_parser.add_argument("--no-cache", action="store_true",
                                   help="bypass the persistent report cache "
                                        "(~/.cache/repro)")
    experiment_parser.add_argument("--sanitize", action="store_true",
                                   help="run every simulation under the slack "
                                        "sanitizer (bypasses cache reads; "
                                        "fails on any invariant violation)")
    experiment_parser.set_defaults(func=cmd_experiment)

    bench_parser = sub.add_parser(
        "bench",
        help="run the golden-digest gate: the kernel matrix checked against "
             "benchmarks/golden_kernel.json",
    )
    bench_parser.add_argument("--smoke", action="store_true",
                              help="small CI matrix (4/8 cores, quarter scale)")
    bench_parser.add_argument("--update-golden", action="store_true",
                              help="re-record golden report digests")
    bench_parser.add_argument("--golden", default=None,
                              help="override the golden-digest file path")
    bench_parser.add_argument("-j", "--jobs", type=int, default=1, metavar="N",
                              help="run the matrix on N worker processes "
                                   "(0 = all host CPUs); digests are checked "
                                   "identically to a serial run")
    bench_parser.add_argument("--cached", action="store_true",
                              help="reuse report-cache entries (digests and "
                                   "recorded walls) instead of re-running; "
                                   "reused rows are marked cached")
    bench_parser.add_argument("--sanitize", action="store_true",
                              help="attach the slack sanitizer to every case "
                                   "(always fresh runs; digests must still "
                                   "match golden)")
    bench_parser.add_argument("--cases", metavar="SUBSTR[,SUBSTR...]",
                              help="only run matrix cases whose id contains "
                                   "one of the given substrings "
                                   "(e.g. cc-c4,bounded-c8)")
    bench_parser.set_defaults(func=cmd_bench)

    lint_parser = sub.add_parser(
        "lint",
        help="run every lint rule (RPR005, RPR008, RPR009, RPR103) over "
             "the tree, one file at a time",
    )
    lint_parser.add_argument("paths", nargs="*",
                             help="files or directories (default src/repro)")
    lint_parser.add_argument("--format", choices=("text", "json", "github"),
                             default="text",
                             help="output style; 'github' emits Actions "
                                  "::error annotations")
    lint_parser.add_argument("--explain", metavar="CODE",
                             help="print one rule's rationale and fix "
                                  "example (or 'all') and exit")
    lint_parser.set_defaults(func=cmd_lint)

    cache_parser = sub.add_parser(
        "cache", help="inspect, clear, or prune the persistent report cache"
    )
    cache_parser.add_argument("action", choices=("info", "clear", "prune"))
    cache_parser.add_argument("--dir", metavar="DIR",
                              help="cache directory (default $REPRO_CACHE_DIR "
                                   "or ~/.cache/repro)")
    cache_parser.add_argument("--max-mb", type=float, default=None, metavar="MB",
                              help="prune: evict least-recently-used entries "
                                   "until the cache fits under MB megabytes")
    cache_parser.add_argument("--dry-run", action="store_true",
                              help="prune: report what would be evicted "
                                   "(count and MB) without deleting anything")
    cache_parser.set_defaults(func=cmd_cache)

    conn_parser = argparse.ArgumentParser(add_help=False)
    conn_parser.add_argument("--socket", metavar="PATH",
                             help="service unix socket (default "
                                  "<cache-dir>/service/repro.sock)")
    conn_parser.add_argument("--tcp", metavar="HOST:PORT",
                             help="connect over TCP instead of the unix socket")
    conn_parser.add_argument("--connect-retries", type=int, default=5, metavar="N",
                             help="retry the initial connection up to N times "
                                  "with exponential backoff (covers the race "
                                  "against a daemon still starting up)")

    # Flags `serve` and `worker` share.  Defaults are left to the config
    # dataclasses (see _daemon_config), not repeated here.
    def slot_flags(daemon_parser: argparse.ArgumentParser) -> None:
        daemon_parser.add_argument("-j", "--jobs", type=int, metavar="N",
                                   help="concurrent worker slots (0 = all "
                                        "host CPUs)")
        daemon_parser.add_argument("--queue-limit", type=int, metavar="N",
                                   help="admission-control high-water mark: "
                                        "submits past N queued jobs get "
                                        "QUEUE_FULL")

    def journal_flags(daemon_parser: argparse.ArgumentParser) -> None:
        daemon_parser.add_argument("--cache-dir", metavar="DIR",
                                   help="report cache directory (default "
                                        "$REPRO_CACHE_DIR or ~/.cache/repro)")
        daemon_parser.add_argument("--wal", metavar="FILE",
                                   help="write-ahead job store path (default "
                                        "<cache-dir>/service/jobs.wal)")
        daemon_parser.add_argument("--no-fsync", action="store_true",
                                   help="skip fsync on WAL appends (faster, "
                                        "loses the last events on a machine "
                                        "crash)")

    serve_parser = sub.add_parser(
        "serve",
        parents=[conn_parser],
        help="run the simulation job service daemon",
    )
    slot_flags(serve_parser)
    serve_parser.add_argument("--max-retries", type=int, metavar="N",
                              help="retries per job after a worker crash")
    serve_parser.add_argument("--retry-backoff", type=float, metavar="S",
                              help="base of the exponential retry backoff")
    serve_parser.add_argument("--job-timeout", type=float, default=None,
                              metavar="S",
                              help="default per-job wall-time limit")
    journal_flags(serve_parser)
    serve_parser.add_argument("--coordinator", action="store_true",
                              help="run the fabric coordinator instead of a "
                                   "single daemon: shard submissions across "
                                   "registered `repro worker` daemons")
    serve_parser.add_argument("--heartbeat-timeout", type=float, metavar="S",
                              help="coordinator: evict a worker that has not "
                                   "heartbeat within S seconds")
    serve_parser.add_argument("--max-redispatch", type=int, metavar="N",
                              help="coordinator: fail a job after losing its "
                                   "worker N+1 times")
    serve_parser.set_defaults(func=cmd_serve)

    worker_parser = sub.add_parser(
        "worker",
        parents=[conn_parser],
        help="run a fleet worker registered with a fabric coordinator",
        description="A service daemon that registers with, and heartbeats "
                    "to, a fabric coordinator.  Point --cache-dir at the "
                    "coordinator's shared report store.",
    )
    worker_parser.add_argument("--coordinator-socket", metavar="PATH",
                               help="coordinator unix socket (default "
                                    "<cache-dir>/fabric/coordinator.sock)")
    worker_parser.add_argument("--coordinator-tcp", metavar="HOST:PORT",
                               help="reach the coordinator over TCP")
    slot_flags(worker_parser)
    journal_flags(worker_parser)
    worker_parser.add_argument("--worker-id", metavar="ID",
                               help="stable identity across restarts "
                                    "(default: coordinator-assigned w-N)")
    worker_parser.add_argument("--heartbeat", type=float, default=None,
                               metavar="S",
                               help="heartbeat period (default: the "
                                    "coordinator's hint, timeout/3)")
    worker_parser.set_defaults(func=cmd_worker)

    fabric_parser = sub.add_parser(
        "fabric",
        parents=[conn_parser],
        help="show fabric fleet status (workers, ring, backlogs, counters)",
    )
    fabric_parser.add_argument("action", choices=("status",),
                               help="status: one fleet snapshot")
    fabric_parser.add_argument("--json", action="store_true",
                               help="print the raw fleet document")
    fabric_parser.set_defaults(func=cmd_fabric)

    loadtest_parser = sub.add_parser(
        "loadtest",
        parents=[conn_parser],
        help="fleet smoke: replay a synthetic submission stream, pass/fail "
             "on the digest gate",
    )
    loadtest_parser.add_argument("--requests", type=int, default=48, metavar="N",
                                 help="total submissions in the stream")
    loadtest_parser.add_argument("--concurrency", type=int, default=8,
                                 metavar="N",
                                 help="concurrent submitting clients")
    loadtest_parser.add_argument("--duplicate-ratio", type=float, default=0.5,
                                 metavar="R",
                                 help="fraction of submissions repeating an "
                                      "earlier spec (dedup/cache fodder)")
    loadtest_parser.add_argument("--specs", type=int, default=6, metavar="K",
                                 help="distinct specs in the pool")
    loadtest_parser.add_argument("--seed", type=int, default=1)
    loadtest_parser.add_argument("--scale", type=float, default=0.05,
                                 help="workload scale of each spec")
    loadtest_parser.add_argument("--slack-bound", type=int, default=8,
                                 metavar="N",
                                 help="slack bound of the pool specs")
    loadtest_parser.add_argument("--timeout", type=float, default=None,
                                 metavar="S",
                                 help="per-submission wait limit (default 300)")
    loadtest_parser.add_argument("--spawn", type=int, default=2, metavar="N",
                                 help="without --socket/--tcp: spawn an "
                                      "in-process fleet of N workers")
    loadtest_parser.set_defaults(func=cmd_loadtest)

    submit_parser = sub.add_parser(
        "submit",
        parents=[conn_parser],
        help="submit one run to a running service",
    )
    submit_parser.add_argument("benchmark", choices=sorted(WORKLOADS))
    submit_parser.add_argument("--scheme", type=parse_scheme,
                               default=SlackConfig(bound=0),
                               help="cc | slack:N | unbounded | quantum:N | "
                                    "adaptive:RATE | p2p:P,L | speculative:I")
    submit_parser.add_argument("--scale", type=float, default=1.0)
    submit_parser.add_argument("--threads", type=int, default=8)
    submit_parser.add_argument("--seed", type=int, default=12345)
    submit_parser.add_argument("--no-detection", action="store_true",
                               help="disable violation detection")
    submit_parser.add_argument("--priority", type=int, default=0,
                               help="higher runs first (FIFO within a priority)")
    submit_parser.add_argument("--job-timeout", type=float, default=None,
                               metavar="S",
                               help="per-job wall-time limit on the server")
    submit_parser.add_argument("--wait", action="store_true",
                               help="block until the job finishes and print "
                                    "the report (like `repro run`)")
    submit_parser.add_argument("--timeout", type=float, default=None, metavar="S",
                               help="client-side wait limit (default: forever)")
    submit_parser.set_defaults(func=cmd_submit)

    jobs_parser = sub.add_parser(
        "jobs",
        parents=[conn_parser],
        help="list service jobs, show health, or drain the daemon",
    )
    jobs_parser.add_argument("--state", metavar="STATE",
                             help="only jobs in one state (queued, running, "
                                  "done, failed, cancelled)")
    jobs_parser.add_argument("--json", action="store_true",
                             help="print raw job documents")
    jobs_parser.add_argument("--health", action="store_true",
                             help="print the health document (queue depth, "
                                  "in-flight count, metrics) and exit")
    jobs_parser.add_argument("--drain", action="store_true",
                             help="stop admissions and wait until the queue "
                                  "and all in-flight runs are empty")
    jobs_parser.add_argument("--stop", action="store_true",
                             help="with --drain semantics: also shut the "
                                  "daemon down afterwards")
    jobs_parser.set_defaults(func=cmd_jobs)

    result_parser = sub.add_parser(
        "result",
        parents=[conn_parser],
        help="fetch a finished job's report from the service",
    )
    result_parser.add_argument("job_id")
    result_parser.add_argument("--wait", action="store_true",
                               help="block until the job finishes")
    result_parser.add_argument("--timeout", type=float, default=None,
                               metavar="S",
                               help="client-side wait limit (default: forever)")
    result_parser.add_argument("--json", action="store_true",
                               help="print the raw result document")
    result_parser.set_defaults(func=cmd_result)

    trace_parser = sub.add_parser(
        "trace", help="summarize or validate a recorded telemetry trace"
    )
    trace_parser.add_argument("action", choices=("summarize", "validate"))
    trace_parser.add_argument("file", help="trace file (.json or .jsonl)")
    trace_parser.set_defaults(func=cmd_trace)

    list_parser = sub.add_parser("list", help="list workloads and experiments")
    list_parser.set_defaults(func=cmd_list)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream consumer (e.g. `repro lint --explain all | head`)
        # closed the pipe; exit quietly the way POSIX tools do.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
