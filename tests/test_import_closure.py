"""What a process imports: a kernel run loads the kernel and nothing else.

Set-up time is paid by every kernel child, every spawned job process and
every CLI run, and most of it is imports.  These tests pin the import
closure of each entry point as a module set, measured in a fresh
interpreter and net of what ``python -c pass`` already loads there
(``site`` hooks differ between hosts).  A module list does not drift
with host load the way a stopwatch does.

No lint rule checks imports: a module-level import that drags a heavy
module into ``repro.core`` fails the kernel-child test here.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import repro.telemetry

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: Process, socket and serialization machinery, clocks, entropy and the
#: numerics stack: modules a kernel run never uses.  Each one a
#: module-level import in ``repro.core`` would add to a kernel process is
#: here, so that import fails the kernel-child test.
HEAVY_MODULES = (
    "multiprocessing",
    "concurrent",
    "asyncio",
    "socket",
    "subprocess",
    "logging",
    "pickle",
    "queue",
    "ctypes",
    "datetime",
    "http",
    "uuid",
    "secrets",
    "numpy",
    "scipy",
    "pandas",
    "matplotlib",
)

#: Repro modules a plain (no telemetry, no checkpoint) run never uses.
UNUSED_REPRO = (
    "repro.harness.bench",
    "repro.harness.pool",
    "repro.harness.runner",
    "repro.harness.experiments",
    "repro.harness.tables",
    "repro.telemetry.session",
    "repro.telemetry.tracer",
    "repro.telemetry.sampler",
    "repro.core.speculative",
    "repro.core.checkpoint",
    "repro.core.snapshot",
    "repro.service",
    "repro.fabric",
    "repro.analysis",
)


def probe(body: str):
    """Run ``body`` in a fresh interpreter (``sys`` imported); return the
    Python literal it prints last."""
    done = subprocess.run(
        [sys.executable, "-c", "import sys\n" + body],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return ast.literal_eval(done.stdout.splitlines()[-1])


def _modules(body: str) -> set:
    """``sys.modules`` after running ``body`` in a fresh interpreter."""
    return set(probe(f"{body}\nprint(repr(sorted(sys.modules)))"))


def loaded_by(body: str) -> set:
    """The modules ``body`` adds to a bare interpreter's."""
    return _modules(body) - _modules("pass")


def offenders(loaded: set, banned) -> list:
    return sorted(
        name for name in loaded
        if any(name == ban or name.startswith(ban + ".") for ban in banned)
    )


def test_a_kernel_child_loads_only_the_kernel():
    """What ``benchmarks/e2e`` kernel children do before ``ready``:
    import the spec types and the workloads, then build a CC run."""
    loaded = loaded_by(
        "import repro, repro.harness.cache, repro.workloads\n"
        "from repro import Simulation, SlackConfig\n"
        "from repro.workloads import make_workload\n"
        "Simulation(make_workload('fft', num_threads=4, scale=0.05),"
        " scheme=SlackConfig(bound=0))\n"
    )
    assert "repro.core.simulation" in loaded
    assert offenders(loaded, HEAVY_MODULES + UNUSED_REPRO) == []


def test_a_spawned_job_process_loads_no_harness_or_telemetry_extras():
    """``import repro.harness.pool`` is what a spawned job process pays
    before it can run a spec.  The pool needs the process machinery;
    it does not need the drivers, the tracer or the service."""
    loaded = loaded_by("import repro.harness.pool")
    assert "multiprocessing" in loaded
    banned = tuple(name for name in UNUSED_REPRO if name != "repro.harness.pool")
    assert offenders(loaded, banned) == []


def test_a_sanitized_job_loads_the_sanitizer_and_not_the_lint_engine():
    """A ``--sanitize`` job imports the sanitizer into a process that
    already holds the pool; of ``repro.analysis`` it needs the package and
    that one module."""
    added = probe(
        "import repro.harness.pool\n"
        "before = set(sys.modules)\n"
        "import repro.analysis.sanitizer\n"
        "print(repr(sorted(set(sys.modules) - before)))"
    )
    assert added == ["repro.analysis", "repro.analysis.sanitizer"]


RUN_PROBE = """\
from repro import CheckpointConfig, Simulation, SlackConfig, SpeculativeConfig
from repro.workloads import make_workload
schemes = {{
    "cc": SlackConfig(bound=0),
    "slack16": SlackConfig(bound=16),
    "speculative": SpeculativeConfig(checkpoint=CheckpointConfig(interval=2000)),
}}
sim = Simulation(make_workload("fft", num_threads=4, scale=0.05), scheme=schemes[{name!r}])
before = set(sys.modules)
report = sim.run()
assert report.instructions > 0
print(repr(sorted(set(sys.modules) - before)))
"""


@pytest.mark.parametrize("name", ["cc", "slack16", "speculative"])
def test_a_run_imports_nothing_after_set_up(name):
    """No import cost moved out of set-up into the timed run: everything
    a run needs, including the checkpoint controller of a speculative
    run, is loaded by the time ``Simulation(...)`` returns."""
    assert probe(RUN_PROBE.format(name=name)) == []


@pytest.mark.parametrize("name", repro.telemetry.__all__)
def test_every_telemetry_name_resolves(name):
    assert getattr(repro.telemetry, name) is not None


def test_an_unknown_telemetry_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(repro.telemetry, "no_such_name")
