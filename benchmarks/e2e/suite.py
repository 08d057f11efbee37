"""The five workloads of the end-to-end benchmark.

Everything here drives the program through its public functions only.
A *rep* is one workload run in a fresh process: ``setup()`` (everything a
user waits for before work can start), then ``run()`` (the timed region),
then ``teardown()``.  ``run()`` returns one :class:`Op` per operation — one
simulation for the kernel workloads, one submit→result for the service and
fabric workloads — carrying the delivered report, so the parent can check
every digest and derive the simulated-time metrics.

Sizes are chosen for a 2-core host so that one rep takes about 3 s; see
README.md for why each workload exists and which layers it loads.
"""

from __future__ import annotations

import dataclasses
import pathlib
import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.config import (
    AdaptiveConfig,
    CheckpointConfig,
    SlackConfig,
    SpeculativeConfig,
    paper_host_config,
    paper_target_config,
)
from repro.core.report import SimulationReport
from repro.core.simulation import Simulation
from repro.harness.cache import RunSpec
from repro.workloads import make_workload

DEFAULT_SEED = 12345

#: Workload name -> one line on why it is in the benchmark.
WORKLOADS = {
    "kernel.cc": "lock-step fft: ~1.7 scheduler/manager steps per instruction, "
    "so scheduler+manager dominate and snapshots do nothing",
    "kernel.slack": "same program at slack 16: ~0.27 steps per instruction, so the "
    "fused core step and L1 scan dominate and the manager idles",
    "kernel.spec": "same program under speculative adaptive slack: the kernel state "
    "is snapshotted and restored ~27 times, not only stepped",
    "service.fresh": "10 distinct jobs through one daemon: spawn, import, protocol, "
    "WAL fsync and cache write outweigh the kernel",
    "fabric.dup": "1200 requests over 8 specs through a 2-worker fleet: 8 run, 1192 "
    "are shared-store hits, so protocol and store reads do the work",
}

#: scheme, scale of the three kernel workloads (fft, 8 cores, paper target).
_KERNEL = {
    "kernel.cc": (SlackConfig(bound=0), 1.5),
    "kernel.slack": (SlackConfig(bound=16), 4.0),
    "kernel.spec": (
        SpeculativeConfig(
            base=AdaptiveConfig(target_rate=1e-3, adjust_period=250),
            checkpoint=CheckpointConfig(interval=1000),
        ),
        1.0,
    ),
}

#: distinct specs, requests of the two request-stream workloads.
_STREAM = {"service.fresh": (12, 12), "fabric.dup": (8, 2000)}
_POOL_SCALE = 0.05

#: ``--quick`` divides every scale and request count by this.
QUICK_DIVISOR = 10


@dataclasses.dataclass
class Op:
    """One attempted operation and what it delivered."""

    spec_index: int
    report: Optional[SimulationReport] = None
    digest: Optional[str] = None  # as the wire claimed it
    error: Optional[str] = None
    source: Optional[str] = None
    job_id: Optional[str] = None
    submit_ms: float = 0.0
    result_ms: float = 0.0


def workload_specs(name: str, seed: int, quick: bool) -> Tuple[List[RunSpec], List[int]]:
    """The distinct specs of a workload and the stream of indices into them.

    ``seed`` feeds ``RunSpec.seed`` (distinct specs of a stream take
    consecutive seeds) and, for ``fabric.dup``, the order of the repeats.
    """
    shrink = QUICK_DIVISOR if quick else 1
    if name in _KERNEL:
        scheme, scale = _KERNEL[name]
        spec = RunSpec(
            benchmark="fft",
            scheme=scheme,
            scale=scale / shrink,
            checkpoint=None,
            detection=True,
            seed=seed,
            num_threads=8,
            target=paper_target_config(),
            host=paper_host_config(),
        )
        return [spec], [0]
    from repro.fabric.loadtest import LoadtestConfig, build_spec_pool

    distinct, requests = _STREAM[name]
    requests = max(1, requests // shrink)
    distinct = min(distinct, requests)
    pool = build_spec_pool(
        LoadtestConfig(
            distinct_specs=distinct, seed=seed, scale=_POOL_SCALE / shrink, slack_bound=8
        )
    )
    # Every distinct spec once, in order, then seeded repeats: the first
    # pass runs, the rest must be served from the store.
    rng = random.Random(seed)
    stream = list(range(distinct))
    stream += [rng.randrange(distinct) for _ in range(requests - distinct)]
    return pool, stream


def spec_label(spec: RunSpec) -> str:
    """Stable human-readable identity of a spec (the golden file's key)."""
    return (
        f"{spec.benchmark}/{spec.scheme.kind}/c{spec.target.num_cores}"
        f"/t{spec.num_threads}/s{spec.scale:g}/seed{spec.seed}"
    )


def cc_reference_spec(spec: RunSpec) -> RunSpec:
    """The cycle-by-cycle run every accuracy figure is measured against."""
    return dataclasses.replace(spec, scheme=SlackConfig(bound=0), checkpoint=None)


class _NullTracer:
    """Tracing off: spans cost one no-op context manager."""

    def span(self, name: str, trace_id: str = "") -> "_NullTracer":
        return self

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> None:
        return None


NULL_TRACER = _NullTracer()


class KernelRep:
    """One simulation, built in setup and run in the timed region."""

    def __init__(self, name: str, seed: int, quick: bool, tracer: Any = NULL_TRACER) -> None:
        self.specs, self.stream = workload_specs(name, seed, quick)
        self.tracer = tracer
        self.simulation: Optional[Simulation] = None

    def setup(self) -> None:
        self.simulation = build_simulation(self.specs[0], self.tracer)

    def run(self) -> List[Op]:
        assert self.simulation is not None
        with self.tracer.span("simulation.run"):
            report = self.simulation.run()
        return [Op(0, report=report)]

    def teardown(self) -> None:
        self.simulation = None


def build_simulation(spec: RunSpec, tracer: Any = NULL_TRACER) -> Simulation:
    """``execute_spec``'s construction half, so the run can be timed alone."""
    with tracer.span("workloads.build"):
        workload = make_workload(
            spec.benchmark, num_threads=spec.num_threads, scale=spec.scale
        )
    with tracer.span("simulation.init"):
        return Simulation(
            workload,
            scheme=spec.scheme,
            target=spec.target,
            host=spec.host,
            checkpoint=spec.checkpoint,
            detection=spec.detection,
            seed=spec.seed,
        )


def make_rep(
    name: str, seed: int, quick: bool, tracer: Any = NULL_TRACER, root: str = "."
) -> Any:
    """The rep of a workload; ``root`` is where a stream rep keeps its
    socket, WAL and store (relative to the child's cwd)."""
    if name in _KERNEL:
        return KernelRep(name, seed, quick, tracer)
    if name in _STREAM:
        # Imported here so a kernel child does not pay for (or report in
        # its setup_s) the service and fabric modules.
        import streams

        rep_class = streams.ServiceRep if name == "service.fresh" else streams.FabricRep
        return rep_class(name, seed, quick, tracer, pathlib.Path(root))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


#: Report fields that a pure speed-up must leave identical, by per-layer name.
EXACT_COUNTS = {
    "core.core_steps": "core_steps",
    "core.manager_steps": "manager_steps",
    "memory.l1_miss_rate": "l1_miss_rate",
    "memory.l2_miss_rate": "l2_miss_rate",
    "memory.bus_requests": "bus_requests",
    "memory.bus_conflict_cycles": "bus_conflict_cycles",
    "cpu.stall_cycles": "stall_cycles",
    "violations.rate": "violation_rate",
    "schemes.avg_bound": "average_bound",
    "schemes.bound_adjustments": "bound_adjustments",
    "checkpoint.checkpoints": "checkpoints",
    "checkpoint.rollbacks": "rollbacks",
    "checkpoint.wasted_cycles": "wasted_target_cycles",
    "checkpoint.replay_cycles": "replay_target_cycles",
}


def summarize_ops(ops: Sequence[Op]) -> Dict[str, Any]:
    """What the parent needs from a rep's operations, as plain data: per
    operation the digest re-derived from the delivered report (``None`` if
    the operation failed), and per distinct spec its simulated results.

    A report that does not reproduce the digest the wire claimed for it is
    a failed operation, whatever else it says.
    """
    digests: List[Optional[str]] = []
    errors: Dict[str, str] = {}
    per_spec: Dict[str, Dict[str, Any]] = {}
    instructions = 0
    for n, op in enumerate(ops):
        report = op.report
        digest = report.digest() if report is not None else None
        if op.error is not None:
            errors[str(n)] = op.error
        elif op.digest is not None and op.digest != digest:
            errors[str(n)] = "report does not reproduce its wire digest"
            digest = None
        digests.append(digest)
        if report is None or digest is None:
            continue
        instructions += report.instructions
        per_spec.setdefault(
            str(op.spec_index),
            {
                "target_cycles": report.target_cycles,
                "sim_time_s": report.sim_time_s,
                "exact": {
                    layer: getattr(report, field) or 0 for layer, field in EXACT_COUNTS.items()
                },
            },
        )
    return {
        "spec_indices": [op.spec_index for op in ops],
        "digests": digests,
        "errors": errors,
        "per_spec": per_spec,
        "instructions": instructions,
    }
