"""The generic linters' strict-path gate, as a tier-1 test.

CI's ``lint`` job runs ``ruff check`` and ``mypy`` (the strict overrides
of ``pyproject.toml``) over the packages held to the full rule set.  This
runs the same two commands wherever the tools are installed and skips,
saying so, where they are not — so a change to ``service/`` or
``fabric/`` is either checked or visibly unchecked, never silently
"unverified".
"""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: The paths CI's lint job names (.github/workflows/ci.yml).
STRICT_PATHS = (
    "src/repro/analysis",
    "src/repro/service",
    "src/repro/fabric",
    "src/repro/core/epochs.py",
)


@pytest.mark.parametrize("tool, arguments", [("ruff", ["check"]), ("mypy", [])])
def test_strict_paths_are_clean(tool, arguments):
    if importlib.util.find_spec(tool) is None:
        pytest.skip(f"{tool} is not installed here: strict paths not checked")
    done = subprocess.run(
        [sys.executable, "-m", tool, *arguments, *STRICT_PATHS],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr


@pytest.mark.parametrize("command", ["ruff check", "mypy"])
def test_ci_lint_job_names_the_same_paths(command):
    """The list above and the ``lint`` job's stay in step: neither can
    drop a path the other still claims to check."""
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    lines = [
        line.split()
        for line in workflow.replace("\\\n", " ").splitlines()
        if line.strip().startswith(command + " ")
    ]
    assert len(lines) == 1, f"expected one `{command}` line in the lint job"
    assert sorted(lines[0][len(command.split()):]) == sorted(STRICT_PATHS)
