"""Tests for the determinism linter (repro.analysis).

Every rule gets a seeded synthetic violation (the lint must catch it) and
a clean counter-example (the lint must stay silent).  The engine-level
tests cover suppressions, explain output, the one-parse engine, the CLI,
and the acceptance criterion that the repository lints clean.
"""

import ast
import collections
import importlib
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.engine import (
    RULES,
    explain_rule,
    lint_paths,
    lint_source,
    read_files,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CORE_PATH = "src/repro/core/fake.py"
CPU_PATH = "src/repro/cpu/fake.py"
HARNESS_PATH = "src/repro/harness/fake.py"

#: A hot-path class without ``__slots__``: one RPR005 finding, on line 2,
#: where ``{noqa}`` puts a trailing comment.
UNSLOTTED = "# repro: hot-path\nclass Msg:{noqa}\n    pass\n"


def lint(source, path=CORE_PATH):
    return lint_source(path, textwrap.dedent(source))


def codes(findings):
    return [f.code for f in findings]


class TestHotPathSlotsRule:
    def test_marked_class_without_slots_flagged(self):
        found = lint(
            """
            # repro: hot-path
            class Msg:
                def __init__(self):
                    self.ts = 0
            """
        )
        assert codes(found) == ["RPR005"]
        assert "Msg" in found[0].message

    def test_marked_class_with_slots_clean(self):
        found = lint(
            """
            # repro: hot-path
            class Msg:
                __slots__ = ("ts",)
            """
        )
        assert codes(found) == []

    def test_annotated_slots_clean(self):
        """``__slots__: tuple = (...)`` declares slots; a bare annotation
        does not."""
        declared = lint(
            """
            # repro: hot-path
            class Msg:
                __slots__: tuple = ("ts",)
            """
        )
        assert codes(declared) == []
        annotated_only = lint(
            """
            # repro: hot-path
            class Msg:
                __slots__: tuple
            """
        )
        assert codes(annotated_only) == ["RPR005"]

    def test_marker_above_decorator(self):
        found = lint(
            """
            def deco(cls):
                return cls

            # repro: hot-path
            @deco
            class Msg:
                pass
            """
        )
        assert codes(found) == ["RPR005"]

    def test_unmarked_class_exempt(self):
        found = lint(
            """
            class Report:
                def __init__(self):
                    self.rows = []
            """
        )
        assert codes(found) == []

    def test_applies_outside_critical_packages_too(self):
        found = lint(
            """
            # repro: hot-path
            class Row:
                pass
            """,
            path=HARNESS_PATH,
        )
        assert codes(found) == ["RPR005"]


class TestDeepcopyOutsideSnapshotRule:
    def test_deepcopy_call_flagged(self):
        found = lint(
            """
            import copy

            def save(state):
                return copy.deepcopy(state)
            """,
            path=CPU_PATH,
        )
        assert codes(found) == ["RPR009"]

    def test_aliased_import_resolved(self):
        found = lint(
            """
            from copy import deepcopy as dc

            def save(state):
                return dc(state)
            """,
            path=CPU_PATH,
        )
        assert codes(found) == ["RPR009"]

    def test_snapshot_layer_allowed(self):
        source = """
            import copy

            def take(state):
                return copy.deepcopy(state)
            """
        assert codes(lint(source, path="src/repro/core/snapshot.py")) == []
        assert codes(lint(source, path="src/repro/core/checkpoint.py")) == []

    def test_deepcopy_protocol_hook_exempt(self):
        found = lint(
            """
            import copy

            class Model:
                def __deepcopy__(self, memo):
                    new = Model.__new__(Model)
                    memo[id(self)] = new
                    new.l1 = copy.deepcopy(self.l1, memo)
                    return new
            """,
            path=CPU_PATH,
        )
        assert codes(found) == []

    def test_non_critical_packages_exempt(self):
        found = lint(
            """
            import copy

            def clone(report):
                return copy.deepcopy(report)
            """,
            path=HARNESS_PATH,
        )
        assert codes(found) == []


class TestSuppressions:
    def test_valid_suppression_silences_finding(self):
        found = lint(
            UNSLOTTED.format(noqa="  # repro: noqa[RPR005] test fixture needs a dict")
        )
        assert codes(found) == []

    def test_reasonless_suppression_flagged(self):
        found = lint(UNSLOTTED.format(noqa="  # repro: noqa[RPR005]"))
        assert codes(found) == ["RPR008"]

    def test_unregistered_code_flagged(self):
        found = lint("x = 1  # repro: noqa[RPR999] no such rule\n")
        assert codes(found) == ["RPR008"]

    def test_unused_suppression_flagged(self):
        found = lint("x = 1  # repro: noqa[RPR005] nothing to suppress here\n")
        assert codes(found) == ["RPR008"]

    def test_docstring_example_not_a_suppression(self):
        found = lint(
            '"""Docs may show the repro: noqa[RPR005] syntax verbatim."""\n'
            "x = 1\n"
        )
        assert codes(found) == []

    def test_multi_code_suppression(self):
        """Each listed code is proven on its own: the used one suppresses
        its finding, the unused one is reported."""
        found = lint(UNSLOTTED.format(noqa="  # repro: noqa[RPR005,RPR103] fixture"))
        assert [f.render() for f in found] == [
            f"{CORE_PATH}:2:1: RPR008 unused noqa: no RPR103 finding on this line"
        ]


class TestSyntaxError:
    def test_unparsable_file_reports_rpr000(self):
        found = lint("def broken(:\n")
        assert codes(found) == ["RPR000"]


class TestExplain:
    def test_every_registered_rule_explains(self):
        for rule in RULES:
            text = explain_rule(rule.code)
            assert text is not None
            assert rule.code in text
            assert "Rationale:" in text
            assert "Fix example:" in text

    def test_unknown_code_returns_none(self):
        assert explain_rule("RPR999") is None

    def test_case_insensitive(self):
        assert explain_rule("rpr005") is not None


@pytest.fixture(scope="class")
def repo_lint():
    """One ``lint_paths`` run over ``src/repro``, watched from outside:
    every ``ast.parse`` call is counted by filename."""
    parses = collections.Counter()
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parses[filename] += 1
        return real_parse(source, filename, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ast, "parse", counting_parse)
        result = lint_paths(
            [os.path.join(REPO_ROOT, "src", "repro")], root=REPO_ROOT
        )
    return result, parses


class TestRepositoryIsClean:
    def test_src_repro_lints_clean(self, repo_lint):
        """Acceptance criterion: no rule finds anything in the repository."""
        result, _ = repo_lint
        assert result.files_checked > 50
        rendered = "\n".join(f.render() for f in result.findings)
        assert result.findings == [], f"lint findings:\n{rendered}"
        assert result.exit_code == 0

    def test_each_file_is_parsed_once_for_every_rule(self, repo_lint):
        """Every rule shares one parse: one ``ast.parse`` per file."""
        _, parses = repo_lint
        files = read_files([os.path.join(REPO_ROOT, "src", "repro")], root=REPO_ROOT)
        assert parses == collections.Counter(path for path, _ in files)


def run_lint(*argv, cwd=None):
    """``python -m repro lint ARGV`` in a subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd or REPO_ROOT,
    )


def write_module(root, relpath, text):
    """Write ``text`` to ``root/relpath`` (parents created); return it."""
    target = root / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text)
    return target


class TestCli:
    def test_lint_src_exits_zero(self):
        proc = run_lint("src/repro")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_json_format(self, tmp_path):
        bad = write_module(tmp_path, "repro/core/bad.py", UNSLOTTED.format(noqa=""))
        proc = run_lint("--format", "json", str(bad))
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["schema"] == "repro.analysis.lint/v2"
        assert [f["code"] for f in doc["findings"]] == ["RPR005"]

    def test_explain_known_rule(self):
        proc = run_lint("--explain", "RPR005")
        assert proc.returncode == 0
        assert "__slots__" in proc.stdout

    def test_explain_all(self):
        proc = run_lint("--explain", "all")
        assert proc.returncode == 0
        for rule in RULES:
            assert rule.code in proc.stdout

    def test_explain_unknown_rule(self):
        proc = run_lint("--explain", "RPR999")
        assert proc.returncode == 2
        assert "RPR999" in proc.stderr


class TestGithubFormat:
    def _result(self, source):
        from repro.analysis.engine import LintResult

        return LintResult(lint_source("src/repro/core/gh.py", source), 1)

    def test_fresh_finding_renders_error_annotation(self):
        rendered = self._result(UNSLOTTED.format(noqa="")).render("github")
        line = rendered.splitlines()[0]
        assert line.startswith("::error file=src/repro/core/gh.py,line=2,")
        assert "title=RPR005" in line
        assert "::" in line.split("title=RPR005", 1)[1]

    def test_message_special_characters_escaped(self):
        from repro.analysis.engine import LintResult
        from repro.analysis.findings import Finding

        finding = Finding(
            "RPR005", "src/a,b.py", 3, 1, "line one\nline two: 50%"
        )
        rendered = LintResult([finding], 1).render("github")
        first = rendered.splitlines()[0]
        assert "file=src/a%2Cb.py" in first
        assert "line one%0Aline two: 50%25" in first
        assert "\n" not in first

    def test_cli_lint_github_format(self, tmp_path):
        bad = write_module(tmp_path, "repro/core/bad.py", UNSLOTTED.format(noqa=""))
        proc = run_lint("--format", "github", str(bad))
        assert proc.returncode == 1
        assert proc.stdout.startswith("::error file=")


class TestAnalyzeCli:
    """``--explain`` rejects a code that no registered rule carries."""

    def test_explain_rpr102_is_an_unknown_rule(self):
        proc = run_lint("--explain", "RPR102")
        assert proc.returncode != 0
        assert "unknown rule code RPR102" in proc.stderr


class TestTheFieldManifestsAreGone:
    """The dataclasses are the wire contract: no hand-kept field list, and
    no analyzer pass to diff one against the classes (the runtime checks
    live in test_service.py ``TestWireCodec`` and test_run_handle.py)."""

    def test_the_codec_drift_checker_does_not_import(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.analysis.codecs")

    @pytest.mark.parametrize("name", ["WIRE_FIELDS", "STATE_FIELDS", "RPR102"])
    def test_their_names_occur_nowhere(self, name):
        src = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
        assert [p for p in src.rglob("*.py") if name in p.read_text()] == []
