"""Checkpoint capture and restore (paper section 5.1).

SlackSim checkpoints by ``fork()``: the parent process's frozen address
space *is* the checkpoint, and copy-on-write makes its cost proportional to
the pages the child subsequently writes.  The in-memory analogue
(``repro.core.snapshot``) is the same shape: cache-array banks are
captured as dirty pages against shadow copies, the cache status map as an
undo journal, and only the small residue of the
:class:`~repro.core.state.SimulationState` root is deep-copied.  The
modeled cost follows the paper::

    cost = checkpoint_base_ns + pages_touched * checkpoint_per_page_ns

where ``pages_touched`` counts distinct *target* pages written since the
previous checkpoint — the same footprint-proportional shape as fork+COW.
The count is measured by :func:`take_snapshot` itself (it drains the
per-core touched-page sets) and carried on the snapshot, so callers
charge for what the snapshot actually saw rather than a separate
estimate.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.config import HostCostModel
from repro.core import snapshot as cow
from repro.core.state import SimulationState
from repro.errors import CheckpointError


class Snapshot:
    """One global checkpoint: a copy-on-write capture of the state root."""

    __slots__ = ("cow", "boundary", "host_time", "pages")

    def __init__(
        self, capture: cow.StateSnapshot, boundary: int, host_time: float, pages: int
    ) -> None:
        self.cow = capture
        self.boundary = boundary  # target time of the checkpoint
        self.host_time = host_time  # modeled host time it was taken
        #: Distinct target pages written since the previous checkpoint
        #: (measured here; drives the modeled checkpoint cost).
        self.pages = pages

    @property
    def host_pages(self) -> int:
        """Dirty SoA pages the capture actually copied (host-side)."""
        if self.cow is None:
            raise CheckpointError(
                "empty snapshot: no copy-on-write capture is attached "
                "(the snapshot was constructed without taking one)"
            )
        return self.cow.host_pages


def take_snapshot(state: SimulationState, boundary: int, host_time: float) -> Snapshot:
    """Capture a global checkpoint of ``state``.

    Counts and clears the per-core touched-page sets *before* the capture,
    so the next checkpoint is charged only for pages written after this
    one and a rolled-back replay re-counts from the checkpoint's zero.
    """
    pages = 0
    for cs in state.cores:
        pages += len(cs.model.pages_touched)
        cs.model.pages_touched.clear()
    return Snapshot(cow.take(state), boundary, host_time, pages)


def restore_snapshot(snapshot: Optional[Snapshot]) -> SimulationState:
    """Materialize a fresh working state from a snapshot.

    The snapshot itself stays pristine (a second rollback to the same
    checkpoint is possible) — mirroring how a forked parent can itself
    fork again after being awakened.
    """
    if snapshot is None:
        raise CheckpointError("no checkpoint available to roll back to")
    if snapshot.cow is None:
        raise CheckpointError(
            "empty snapshot: cannot restore a snapshot that carries no "
            "copy-on-write capture"
        )
    return cow.restore(snapshot.cow)


def checkpoint_cost_ns(cost: HostCostModel, pages: int) -> float:
    """Modeled host cost of taking one global checkpoint."""
    return cost.checkpoint_base_ns + pages * cost.checkpoint_per_page_ns


def charged_checkpoint(
    scheduler, state: SimulationState, boundary: int, cost: HostCostModel
) -> Tuple[Snapshot, float]:
    """Take a checkpoint of ``state`` and charge it to the modeled host.

    "All threads must synchronize, establish a consistent checkpoint, and
    then proceed" (section 5.1): every context pauses for the measured
    cost, the snapshot is stamped with the host time they resume at, the
    run's checkpoint statistics are charged and every thread is woken.
    The capture happens before the pause — snapshot content is pure
    simulation state, so the order is immaterial — because the snapshot
    itself measures the touched-page count the cost is derived from.
    Returns ``(snapshot, cost_ns)``.
    """
    snapshot = take_snapshot(state, boundary, 0.0)
    cost_ns = checkpoint_cost_ns(cost, snapshot.pages)
    snapshot.host_time = scheduler.pause_all_contexts(cost_ns)
    scheduler.stats.checkpoints += 1
    scheduler.stats.checkpoint_cost_ns += cost_ns
    scheduler.wake_all(snapshot.host_time)
    return snapshot, cost_ns


def charged_rollback(
    scheduler, sim, snapshot: Optional[Snapshot], cost: HostCostModel, wasted: int
) -> float:
    """Restore ``snapshot`` as ``sim``'s working state and account it.

    ``wasted`` is the target progress the rollback discards.  Every
    context pauses for the modeled rollback cost and every thread is
    woken against the restored cores; returns the host time they resume.
    """
    sim.state = restore_snapshot(snapshot)
    stats = scheduler.stats
    stats.rollbacks += 1
    stats.wasted_target_cycles += wasted
    stats.rollback_cost_ns += cost.rollback_ns
    resume = scheduler.pause_all_contexts(cost.rollback_ns)
    scheduler.wake_all(resume)
    return resume
