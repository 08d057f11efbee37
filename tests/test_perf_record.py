"""Structural pins: ``benchmarks/e2e`` is the only perf record.

``repro bench`` is the golden-digest gate and ``repro loadtest`` the
fleet smoke; neither writes a file, and ``fabric/loadtest.py`` holds no
stopwatch.  What ``benchmarks/e2e`` imports from it keeps working.
"""

import pathlib
import re
import subprocess

import pytest

from repro.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def test_no_bench_file_name_is_left_in_the_package():
    holders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if "BENCH_" in path.read_text()
    ]
    assert holders == []


def test_no_bench_json_is_tracked():
    listing = subprocess.run(
        ["git", "ls-files"], cwd=ROOT, capture_output=True, text=True
    )
    if listing.returncode != 0:
        pytest.skip("not a git checkout")
    tracked = [
        name
        for name in listing.stdout.splitlines()
        if re.fullmatch(r"BENCH_.*\.json", pathlib.PurePosixPath(name).name)
    ]
    assert tracked == []


def test_the_gate_leaves_its_working_directory_empty(tmp_path, monkeypatch):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(["bench", "--smoke", "--cases", "fft-cc-c4"]) == 0
    assert list(cwd.iterdir()) == []


@pytest.mark.parametrize("needle", ["time.perf_counter"])
def test_the_fleet_smoke_holds_no_stopwatch(needle):
    assert needle not in (SRC / "fabric" / "loadtest.py").read_text()


def test_the_fixture_benchmarks_e2e_imports_still_works(tmp_path):
    from repro.fabric.loadtest import LoadtestConfig, SpawnedFabric, build_spec_pool
    from repro.service.client import ServiceClient

    config = LoadtestConfig(distinct_specs=2, seed=1, scale=0.05, slack_bound=8)
    pool = build_spec_pool(config)
    assert [spec.seed for spec in pool] == [1, 2]
    assert {(spec.scale, spec.scheme.bound) for spec in pool} == {(0.05, 8)}

    fleet = SpawnedFabric(tmp_path / "fleet", workers=2).start()
    try:
        with ServiceClient(fleet.address, timeout=30.0) as client:
            health = client.health()
    finally:
        fleet.stop()
    assert health["role"] == "coordinator"
    assert health["workers_alive"] == 2
