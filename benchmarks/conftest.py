"""Shared fixtures for the benchmark suite.

One :class:`ExperimentRunner` is shared across every bench in the session,
so experiments that reuse base runs (every table needs the cycle-by-cycle
reference; Table 5 reuses Tables 2-4's checkpoint runs) hit the cache.

Environment knobs:

- ``REPRO_BENCH_FULL=1`` — run the full paper-sized grids (slower);
  otherwise trimmed grids that preserve every reported shape are used.
"""

from __future__ import annotations

import os

import pytest

from repro.harness.runner import ExperimentRunner


def full_grids() -> bool:
    """True when the full experiment grids were requested."""
    return os.environ.get("REPRO_BENCH_FULL", "") == "1"


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    """Session-wide cached experiment runner (paper 8-core target)."""
    return ExperimentRunner(verbose=False)
