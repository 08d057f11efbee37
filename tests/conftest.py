"""Shared fixtures: fast target/host configurations and small workloads.

Unit tests use deliberately tiny targets and workloads so the whole suite
stays fast; ``python -m repro experiment all`` runs the paper-scale
configurations.
"""

from __future__ import annotations

import pytest

from repro import HostConfig, paper_target_config
from repro.config import quick_target_config
from repro.workloads import make_workload


@pytest.fixture(autouse=True)
def _isolated_report_cache(tmp_path, monkeypatch):
    """Point the persistent report cache at a per-test directory so tests
    never read from (or pollute) the user's real ``~/.cache/repro``."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


@pytest.fixture
def quick_target():
    """A tiny 4-core target for fast engine tests."""
    return quick_target_config(num_cores=4)


@pytest.fixture
def paper_target():
    """The paper's 8-core target."""
    return paper_target_config()


@pytest.fixture
def quick_host():
    """A 4-context host matching the quick target."""
    return HostConfig(num_contexts=4)


@pytest.fixture
def tiny_synthetic():
    """A small 4-thread synthetic workload with shared lines and locks."""
    return make_workload(
        "synthetic",
        num_threads=4,
        steps=60,
        shared_lines=8,
        shared_fraction=0.3,
        lock_every=16,
        barrier_every=30,
    )
