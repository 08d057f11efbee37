"""Fleet fixture and pass/fail smoke for the simulation fabric.

:class:`SpawnedFabric` is a coordinator plus N inline workers in this
process — the fixture ``benchmarks/e2e`` (which owns every latency and
throughput number) and ``repro loadtest`` both drive.  ``repro loadtest``
replays a seeded, duplicate-bearing submission stream from concurrent
closed-loop clients against a coordinator (an external one, or a spawned
fleet) and answers one question — did every request get the right
answer:

- **Digest-gated.** Every completed result's digest must agree with
  every other result of the same spec, a wire report per distinct spec
  must reproduce its own digest, and one spec is re-run locally to pin
  the fabric's output to ``repro run``'s.
- **Structured saturation.** Past the admission high-water mark the
  coordinator must answer ``QUEUE_FULL`` — a rejected submission is a
  *successful* protocol exchange.  Dropped connections and transport
  errors are counted separately and fail the run.
"""

from __future__ import annotations

import asyncio
import dataclasses
import pathlib
import random
import threading
from typing import Any, Dict, List, Optional, Sequence

from repro.config import SlackConfig
from repro.config.presets import paper_host_config, quick_target_config
from repro.core.report import SimulationReport
from repro.fabric.coordinator import CoordinatorConfig, CoordinatorDaemon
from repro.fabric.worker import FabricWorker, WorkerConfig
from repro.harness.cache import RunSpec
from repro.harness.pool import PoolResult, execute_spec
from repro.service.client import Address, ServiceClient
from repro.service.protocol import (
    ERR_DRAINING,
    ERR_QUEUE_FULL,
    ERR_UNAVAILABLE,
    ServiceError,
)

__all__ = [
    "LoadtestConfig",
    "SpawnedFabric",
    "build_spec_pool",
    "generate_stream",
    "run_loadtest",
]


@dataclasses.dataclass
class LoadtestConfig:
    """Shape of the synthetic submission stream."""

    requests: int = 48
    concurrency: int = 8
    duplicate_ratio: float = 0.5
    distinct_specs: int = 6
    seed: int = 1
    scale: float = 0.05
    slack_bound: int = 8
    submit_timeout_s: float = 300.0

    def validate(self) -> None:
        if not 0.0 <= self.duplicate_ratio < 1.0:
            raise ValueError("duplicate_ratio must be in [0, 1)")
        if self.requests < 1 or self.concurrency < 1 or self.distinct_specs < 1:
            raise ValueError("requests, concurrency, distinct_specs must be >= 1")


def build_spec_pool(config: LoadtestConfig) -> List[RunSpec]:
    """``distinct_specs`` fully-resolved specs, distinct only in seed —
    so duplicates are byte-identical submissions and distinct entries
    still cost roughly the same."""
    return [
        RunSpec(
            benchmark="fft",
            scheme=SlackConfig(bound=config.slack_bound),
            scale=config.scale,
            checkpoint=None,
            detection=True,
            seed=config.seed + i,
            num_threads=4,
            target=quick_target_config(num_cores=4),
            host=paper_host_config(),
        )
        for i in range(config.distinct_specs)
    ]


def generate_stream(config: LoadtestConfig) -> List[int]:
    """The submission stream as spec-pool indices, deterministically
    seeded.  A ``duplicate_ratio`` of 0.5 means half the submissions
    repeat an index that already appeared (dedup/cache fodder)."""
    rng = random.Random(config.seed)
    stream: List[int] = []
    seen: List[int] = []
    for _ in range(config.requests):
        if seen and rng.random() < config.duplicate_ratio:
            stream.append(rng.choice(seen))
        else:
            index = rng.randrange(config.distinct_specs)
            stream.append(index)
            seen.append(index)
    return stream


@dataclasses.dataclass
class _Submission:
    spec_index: int  # which pool spec
    ok: bool = False
    rejected: bool = False
    transport_error: bool = False
    failed: bool = False
    digest: Optional[str] = None
    source: Optional[str] = None


def run_loadtest(address: Address, config: LoadtestConfig) -> Dict[str, Any]:
    """Replay the stream against ``address`` from ``concurrency``
    closed-loop clients; return the counts, the digest gate and the
    verdict (``passed``)."""
    config.validate()
    pool = build_spec_pool(config)
    submissions = [_Submission(spec_index) for spec_index in generate_stream(config)]
    todo = list(submissions)
    todo_lock = threading.Lock()

    def worker_main() -> None:
        client = ServiceClient(address, timeout=config.submit_timeout_s + 30.0)
        try:
            while True:
                with todo_lock:
                    if not todo:
                        return
                    sub = todo.pop(0)
                _run_one(client, sub)
        finally:
            client.close()

    def _run_one(client: ServiceClient, sub: _Submission) -> None:
        try:
            accepted = client.submit(pool[sub.spec_index])
            result = client.result(
                accepted["job_id"], wait=True, timeout_s=config.submit_timeout_s
            )
            sub.ok = True
            sub.digest = str(result["digest"])
            sub.source = result.get("source")
        except ServiceError as exc:
            if exc.code in (ERR_QUEUE_FULL, ERR_DRAINING):
                sub.rejected = True  # structured backpressure: by design
            elif exc.code == ERR_UNAVAILABLE:
                sub.transport_error = True  # dropped connection: a failure
            else:
                sub.failed = True

    threads = [
        threading.Thread(target=worker_main, name=f"loadtest-{i}", daemon=True)
        for i in range(config.concurrency)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    completed = [s for s in submissions if s.ok]
    transport = sum(s.transport_error for s in submissions)
    failed = sum(s.failed for s in submissions)
    gate = _digest_gate(address, pool, completed)
    return {
        "results": {
            "submitted": len(submissions),
            "completed": len(completed),
            "rejected": sum(s.rejected for s in submissions),
            "failed": failed,
            "transport_errors": transport,
            "sources": _count_by(completed, "source"),
        },
        "digest_gate": gate,
        "passed": bool(
            gate["passed"] and not transport and not failed and completed
        ),
    }


def _count_by(submissions: Sequence[_Submission], field: str) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for sub in submissions:
        value = str(getattr(sub, field))
        counts[value] = counts.get(value, 0) + 1
    return dict(sorted(counts.items()))


def _digest_gate(
    address: Address, pool: List[RunSpec], completed: Sequence[_Submission]
) -> Dict[str, Any]:
    """The three checks that make a completed count mean "right answers"."""
    problems: List[str] = []
    # 1. Every result of the same spec carries the same digest.
    by_spec: Dict[int, set] = {}
    for sub in completed:
        by_spec.setdefault(sub.spec_index, set()).add(sub.digest)
    for spec_index, digests in sorted(by_spec.items()):
        if len(digests) != 1:
            problems.append(
                f"spec {spec_index} produced {len(digests)} distinct digests"
            )
    # 2. A wire report per distinct completed spec reproduces its digest.
    wire_verified = 0
    try:
        with ServiceClient(address, timeout=30.0) as client:
            checked: set = set()
            for sub in completed:
                if sub.spec_index in checked:
                    continue
                checked.add(sub.spec_index)
                result = client.result(_job_for(client, sub), wait=False)
                report = SimulationReport.from_dict(result["report"])
                if report.digest() != sub.digest:
                    problems.append(
                        f"spec {sub.spec_index}: wire report does not "
                        "reproduce its digest"
                    )
                else:
                    wire_verified += 1
    except ServiceError as exc:
        problems.append(f"wire verification failed: {exc.code}")
    # 3. One spec re-run locally must match the fabric exactly.
    if by_spec:
        spec_index = min(by_spec)
        report, _ = execute_spec(pool[spec_index])
        if by_spec[spec_index] != {report.digest()}:
            problems.append(f"spec {spec_index}: fabric digest != local run")
    return {
        "distinct_completed": len(by_spec),
        "wire_verified": wire_verified,
        "problems": problems,
        "passed": not problems,
    }


def _job_for(client: ServiceClient, sub: _Submission) -> str:
    """Find a done job id carrying this submission's digest (any one of
    the coalesced duplicates serves the same report)."""
    for job in client.jobs(state="done"):
        if job.get("digest") == sub.digest:
            return str(job["job_id"])
    raise ServiceError(
        "UNKNOWN_JOB", f"no done job with digest {sub.digest!r} remains"
    )


# --------------------------------------------------------------------- #
# In-process fleet
# --------------------------------------------------------------------- #


async def _inline_run_job(spec: RunSpec, timeout_s: Optional[float]) -> PoolResult:
    """Worker execution seam for spawned fleets: run the simulation on a
    thread of the worker's own process.  Fast (no spawn cost) and digest
    identical to the process pool."""

    def _run() -> PoolResult:
        report, wall_s = execute_spec(spec)
        return PoolResult(report, wall_s, None)

    return await asyncio.to_thread(_run)


#: Admission limit of a spawned coordinator and of each of its workers.
_QUEUE_LIMIT = 256


class SpawnedFabric:
    """A coordinator plus N inline workers in this process, for
    ``benchmarks/e2e``, tests and the CLI's ``loadtest --spawn`` mode."""

    def __init__(self, root: pathlib.Path, workers: int = 2) -> None:
        self.root = pathlib.Path(root)
        store = self.root / "store"
        self.coordinator = CoordinatorDaemon(
            CoordinatorConfig(
                socket_path=self.root / "coordinator.sock",
                store_dir=store,
                wal_path=self.root / "coordinator.wal",
                queue_limit=_QUEUE_LIMIT,
                fsync=False,  # a throwaway fleet: nothing to recover
            )
        )
        self.workers = [
            FabricWorker(
                WorkerConfig(
                    coordinator=self.root / "coordinator.sock",
                    socket_path=self.root / f"worker-{i}.sock",
                    cache_dir=store,
                    wal_path=self.root / f"worker-{i}.wal",
                    queue_limit=_QUEUE_LIMIT,
                    fsync=False,
                ),
                run_job=_inline_run_job,
            )
            for i in range(workers)
        ]

    @property
    def address(self) -> Address:
        return self.root / "coordinator.sock"

    def start(self) -> "SpawnedFabric":
        self.coordinator.start()
        for worker in self.workers:
            worker.start()
        return self

    def stop(self) -> None:
        for worker in self.workers:
            worker.stop()
        self.coordinator.stop()
