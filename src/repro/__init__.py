"""SlackSim reproduction: adaptive and speculative slack simulations of
CMPs on CMPs (Chen, Dabbiru, Annavaram, Dubois — MoBS 2010).

Quickstart::

    from repro import Simulation, SlackConfig
    from repro.workloads import make_workload

    workload = make_workload("fft", num_threads=8)
    gold = Simulation(workload, scheme=SlackConfig(bound=0)).run()   # cycle-by-cycle
    fast = Simulation(workload, scheme=SlackConfig(bound=None)).run()  # unbounded slack
    print(f"speedup {fast.speedup_over(gold):.2f}x, "
          f"error {fast.execution_time_error(gold):.2%}")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.config import (
    AdaptiveConfig,
    AdaptiveQuantumConfig,
    BusConfig,
    CacheConfig,
    CheckpointConfig,
    CoreConfig,
    HostConfig,
    HostCostModel,
    L2Config,
    P2PConfig,
    QuantumConfig,
    SlackConfig,
    SpeculativeConfig,
    TargetConfig,
    paper_host_config,
    paper_target_config,
)
from repro.core import (
    Simulation,
    SimulationReport,
    SpeculativeModelInputs,
    speculative_time,
)
from repro.errors import (
    CheckpointError,
    ConfigError,
    DeadlockError,
    ProtocolError,
    ReproError,
    SimulationError,
    WorkloadError,
)
from repro.workloads import make_workload, paper_benchmarks

__version__ = "1.0.0"

__all__ = [
    # Facade
    "Simulation",
    "SimulationReport",
    # Schemes
    "SlackConfig",
    "QuantumConfig",
    "AdaptiveConfig",
    "AdaptiveQuantumConfig",
    "SpeculativeConfig",
    "CheckpointConfig",
    "P2PConfig",
    # Target / host configuration
    "TargetConfig",
    "CoreConfig",
    "CacheConfig",
    "BusConfig",
    "L2Config",
    "HostConfig",
    "HostCostModel",
    "paper_target_config",
    "paper_host_config",
    # Workloads
    "make_workload",
    "paper_benchmarks",
    # Analytical model
    "speculative_time",
    "SpeculativeModelInputs",
    # Errors
    "ReproError",
    "ConfigError",
    "SimulationError",
    "DeadlockError",
    "WorkloadError",
    "CheckpointError",
    "ProtocolError",
    "__version__",
]
