"""Exception hierarchy for the SlackSim reproduction.

All library errors derive from :class:`ReproError` so callers can catch one
base class.  Configuration problems are raised eagerly at construction time
(:class:`ConfigError`), never from deep inside a running simulation.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value."""


class SimulationError(ReproError):
    """The simulation engine reached an inconsistent state."""


class DeadlockError(SimulationError):
    """No simulation thread can make progress.

    A correct slack simulation never deadlocks (simulated and simulation
    time never decrease); this error therefore signals an engine bug or a
    malformed workload (e.g. a barrier that not all threads reach) rather
    than an expected condition.
    """


class WorkloadError(ReproError):
    """A workload kernel produced an invalid operation stream."""


class CheckpointError(ReproError):
    """Checkpoint creation, discard, or rollback failed."""


class EpochError(ReproError):
    """A machine could not be encoded at a cut.

    Raised by the machine-state encoder (``repro.core.epochs``) on a
    class outside its allowlist, an unorderable set, an unanchored
    statement, or a cut inside a rollback replay window.
    """


class ProtocolError(SimulationError):
    """A cache-coherence invariant was broken (MESI state machine bug)."""
