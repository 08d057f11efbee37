"""Tests for the determinism linter (repro.analysis).

Every rule gets a seeded synthetic violation (the lint must catch it) and
a clean counter-example (the lint must stay silent).  The engine-level
tests cover suppressions, baselines, explain output, and the acceptance
criterion that the repository lints clean.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.analysis import (
    RULES,
    Baseline,
    explain_rule,
    lint_paths,
    lint_source,
)

CORE_PATH = "src/repro/core/fake.py"
#: Critical package that is not repro.core — wall-clock/entropy fixtures
#: import time/random at module level, which RPR007 would also flag in core.
CPU_PATH = "src/repro/cpu/fake.py"
HARNESS_PATH = "src/repro/harness/fake.py"


def lint(source, path=CORE_PATH):
    return lint_source(path, textwrap.dedent(source))


def codes(findings):
    return [f.code for f in findings]


class TestWallClockRule:
    def test_direct_call_flagged(self):
        found = lint(
            """
            import time
            t = time.perf_counter()
            """,
            path=CPU_PATH,
        )
        assert codes(found) == ["RPR001"]
        assert "time.perf_counter" in found[0].message

    def test_aliased_import_resolved(self):
        found = lint(
            """
            from time import monotonic as now
            t = now()
            """,
            path=CPU_PATH,
        )
        assert codes(found) == ["RPR001"]

    def test_datetime_now_flagged(self):
        found = lint(
            """
            import datetime as dt
            stamp = dt.datetime.now()
            """,
            path=CPU_PATH,
        )
        assert codes(found) == ["RPR001"]

    def test_harness_exempt(self):
        found = lint(
            """
            import time
            t = time.perf_counter()
            """,
            path=HARNESS_PATH,
        )
        assert "RPR001" not in codes(found)


class TestEntropyRule:
    def test_module_level_random_flagged(self):
        found = lint(
            """
            import random
            x = random.random()
            """
        )
        assert "RPR002" in codes(found)

    def test_urandom_flagged(self):
        found = lint("blob = __import__('os')\nimport os\nx = os.urandom(8)\n")
        assert "RPR002" in codes(found)

    def test_seeded_random_instance_allowed(self):
        found = lint(
            """
            import random
            rng = random.Random(1234)
            """
        )
        assert "RPR002" not in codes(found)

    def test_unseeded_random_instance_flagged(self):
        found = lint(
            """
            import random
            rng = random.Random()
            """
        )
        assert "RPR002" in codes(found)


class TestIdAsKeyRule:
    def test_id_call_flagged(self):
        found = lint("order = {}\norder[id(object())] = 1\n")
        assert codes(found) == ["RPR003"]

    def test_deepcopy_memo_exempt(self):
        found = lint(
            """
            class Thing:
                def __deepcopy__(self, memo):
                    new = Thing()
                    memo[id(self)] = new
                    return new
            """
        )
        assert codes(found) == []

    def test_shadowed_id_outside_exempt_method_flagged(self):
        found = lint(
            """
            def key_for(msg):
                return id(msg)
            """
        )
        assert codes(found) == ["RPR003"]


class TestUnorderedIterationRule:
    def test_for_over_set_literal_flagged(self):
        found = lint(
            """
            def walk():
                for x in {1, 2, 3}:
                    pass
            """
        )
        assert codes(found) == ["RPR004"]

    def test_comprehension_over_set_call_flagged(self):
        found = lint("items = [1]\nout = [x for x in set(items)]\n")
        assert codes(found) == ["RPR004"]

    def test_list_wrapper_exposes_order(self):
        found = lint("items = [1]\nout = list(frozenset(items))\n")
        assert codes(found) == ["RPR004"]

    def test_sorted_set_allowed(self):
        found = lint(
            """
            items = [3, 1]
            for x in sorted(set(items)):
                pass
            """
        )
        assert codes(found) == []

    def test_dict_iteration_allowed(self):
        found = lint(
            """
            table = {1: "a"}
            for key in table:
                pass
            """
        )
        assert codes(found) == []


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


class TestTelemetrySeamRule:
    def test_raw_attribute_call_flagged(self):
        found = lint(
            """
            class Manager:
                def step(self):
                    self.telemetry.on_event("x")
            """
        )
        assert codes(found) == ["RPR006"]

    def test_guarded_seam_clean(self):
        found = lint(
            """
            class Manager:
                telemetry = None

                def step(self):
                    tel = self.telemetry
                    if tel is not None and tel.enabled:
                        tel.on_event("x")
            """
        )
        assert codes(found) == []

    def test_internal_import_flagged(self):
        found = lint("from repro.telemetry.tracer import TraceBuffer\n")
        assert codes(found) == ["RPR006"]

    def test_package_root_import_allowed(self):
        found = lint("from repro.telemetry import TelemetrySession\n")
        assert codes(found) == []


class TestCoreImportRule:
    def test_module_level_json_flagged(self):
        found = lint("import json\n")
        assert codes(found) == ["RPR007"]

    def test_from_import_flagged(self):
        found = lint("from multiprocessing import Pool\n")
        assert codes(found) == ["RPR007"]

    def test_function_local_lazy_import_allowed(self):
        found = lint(
            """
            def to_json(rows):
                import json
                return json.dumps(rows)
            """
        )
        assert codes(found) == []

    def test_type_checking_block_still_module_level(self):
        found = lint(
            """
            from typing import TYPE_CHECKING
            if TYPE_CHECKING:
                import json
            """
        )
        assert codes(found) == ["RPR007"]

    def test_other_packages_exempt(self):
        found = lint("import json\n", path=HARNESS_PATH)
        assert codes(found) == []


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
            "order = {}\n"
            "order[id(object())] = 1  # repro: noqa[RPR003] test fixture "
            "needs address identity\n"
        )
        assert codes(found) == []

    def test_reasonless_suppression_flagged(self):
        found = lint("order = {}\norder[id(object())] = 1  # repro: noqa[RPR003]\n")
        assert "RPR008" in codes(found)

    def test_unregistered_code_flagged(self):
        found = lint("x = 1  # repro: noqa[RPR999] no such rule\n")
        assert codes(found) == ["RPR008"]

    def test_unused_suppression_flagged(self):
        found = lint("x = 1  # repro: noqa[RPR003] nothing to suppress here\n")
        assert codes(found) == ["RPR008"]

    def test_docstring_example_not_a_suppression(self):
        found = lint(
            '"""Docs may show the repro: noqa[RPR003] syntax verbatim."""\n'
            "x = 1\n"
        )
        assert codes(found) == []

    def test_multi_code_suppression(self):
        found = lint(
            """
            import time
            import random
            t = time.time() + random.random()  # repro: noqa[RPR001,RPR002] fixture
            """,
            path=CPU_PATH,
        )
        assert codes(found) == []


class TestSyntaxError:
    def test_unparsable_file_reports_rpr000(self):
        found = lint("def broken(:\n")
        assert codes(found) == ["RPR000"]


class TestBaseline:
    SOURCE = "order = {}\norder[id(object())] = 1\n"

    def test_partition_grandfathers_known_findings(self):
        findings = lint(self.SOURCE)
        baseline = Baseline.from_findings(findings)
        fresh, grandfathered, stale = baseline.partition(lint(self.SOURCE))
        assert fresh == []
        assert codes(grandfathered) == ["RPR003"]
        assert stale == []

    def test_new_finding_stays_fresh(self):
        baseline = Baseline.from_findings(lint(self.SOURCE))
        extra = self.SOURCE + "order[id(list())] = 2\n"
        fresh, grandfathered, _ = baseline.partition(lint(extra))
        assert codes(grandfathered) == ["RPR003"]
        assert codes(fresh) == ["RPR003"]

    def test_fixed_finding_reported_stale(self):
        baseline = Baseline.from_findings(lint(self.SOURCE))
        fresh, grandfathered, stale = baseline.partition(lint("order = {}\n"))
        assert fresh == [] and grandfathered == []
        assert len(stale) == 1

    def test_multiset_matching(self):
        """Two identical offending lines need two baseline entries."""
        doubled = self.SOURCE + self.SOURCE[len("order = {}\n") :]
        baseline = Baseline.from_findings(lint(self.SOURCE))
        fresh, grandfathered, _ = baseline.partition(lint(doubled))
        assert len(grandfathered) == 1
        assert len(fresh) == 1

    def test_round_trip(self, tmp_path):
        baseline = Baseline.from_findings(lint(self.SOURCE))
        path = tmp_path / "baseline.json"
        baseline.write(str(path))
        loaded = Baseline.load(str(path))
        fresh, _, _ = loaded.partition(lint(self.SOURCE))
        assert fresh == []


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
        assert explain_rule("rpr001") is not None


class TestRepositoryIsClean:
    def test_src_repro_lints_clean(self):
        """Acceptance criterion: the repository has zero fresh findings."""
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        result = lint_paths(
            [os.path.join(repo_root, "src", "repro")], root=repo_root
        )
        assert result.files_checked > 50
        rendered = "\n".join(f.render() for f in result.fresh)
        assert result.fresh == [], f"fresh lint findings:\n{rendered}"
        assert result.exit_code == 0


class TestCli:
    def _run(self, *argv, cwd=None):
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(repo_root, "src")
        return subprocess.run(
            [sys.executable, "-m", "repro", "lint", *argv],
            capture_output=True,
            text=True,
            env=env,
            cwd=cwd or repo_root,
        )

    def test_lint_src_exits_zero(self):
        proc = self._run("src/repro")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_json_format(self, tmp_path):
        bad = tmp_path / "repro" / "core"
        bad.mkdir(parents=True)
        (bad / "bad.py").write_text("import json\n")
        proc = self._run("--format", "json", str(bad / "bad.py"))
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["schema"] == "repro.analysis.lint/v1"
        assert [f["code"] for f in doc["new"]] == ["RPR007"]

    def test_explain_known_rule(self):
        proc = self._run("--explain", "RPR004")
        assert proc.returncode == 0
        assert "unordered" in proc.stdout

    def test_explain_all(self):
        proc = self._run("--explain", "all")
        assert proc.returncode == 0
        for rule in RULES:
            assert rule.code in proc.stdout

    def test_explain_unknown_rule(self):
        proc = self._run("--explain", "RPR999")
        assert proc.returncode == 2
        assert "RPR999" in proc.stderr

    def test_write_and_use_baseline(self, tmp_path):
        bad = tmp_path / "repro" / "core"
        bad.mkdir(parents=True)
        target = bad / "bad.py"
        target.write_text("import json\n")
        baseline = tmp_path / "baseline.json"
        wrote = self._run(
            "--write-baseline", str(baseline), str(target), cwd=str(tmp_path)
        )
        assert wrote.returncode == 0, wrote.stdout + wrote.stderr
        rerun = self._run("--baseline", str(baseline), str(target), cwd=str(tmp_path))
        assert rerun.returncode == 0, rerun.stdout + rerun.stderr
        assert "baselined" in rerun.stdout


class TestBaselineMultiset:
    """Satellite coverage: the baseline is a *multiset* keyed on
    (code, path, line text) — line numbers and file order must not
    matter, duplicate findings on one line must need duplicate entries."""

    FILE_A = "src/repro/core/aaa.py"
    FILE_B = "src/repro/core/bbb.py"
    SOURCE = "order = {}\norder[id(object())] = 1\n"

    def _findings(self, order):
        out = []
        for path in order:
            out.extend(lint_source(path, self.SOURCE))
        return out

    def test_identical_findings_different_file_order(self):
        baseline = Baseline.from_findings(
            self._findings([self.FILE_A, self.FILE_B])
        )
        fresh, grandfathered, stale = baseline.partition(
            self._findings([self.FILE_B, self.FILE_A])
        )
        assert fresh == []
        assert len(grandfathered) == 2
        assert stale == []

    def test_line_number_shift_does_not_invalidate(self):
        """Fingerprints key on the line *text*, not the line number."""
        baseline = Baseline.from_findings(
            lint_source(self.FILE_A, self.SOURCE)
        )
        shifted = "# a new leading comment\n" + self.SOURCE
        fresh, grandfathered, stale = baseline.partition(
            lint_source(self.FILE_A, shifted)
        )
        assert fresh == []
        assert len(grandfathered) == 1
        assert stale == []

    def test_duplicate_findings_on_one_line(self):
        """Two id() calls on one line are two findings with the same
        fingerprint: one baseline entry grandfathers exactly one."""
        doubled = "order = {}\norder[id(object())] = id(object())\n"
        findings = lint_source(self.FILE_A, doubled)
        assert len(findings) == 2
        one_entry = Baseline.from_findings(findings[:1])
        fresh, grandfathered, stale = one_entry.partition(findings)
        assert len(grandfathered) == 1
        assert len(fresh) == 1
        assert stale == []
        both = Baseline.from_findings(findings)
        fresh, grandfathered, stale = both.partition(findings)
        assert fresh == [] and len(grandfathered) == 2 and stale == []

    def test_write_then_load_round_trips_duplicates(self, tmp_path):
        doubled = "order = {}\norder[id(object())] = id(object())\n"
        findings = lint_source(self.FILE_A, doubled)
        path = tmp_path / "baseline.json"
        Baseline.from_findings(findings).write(str(path))
        loaded = Baseline.load(str(path))
        fresh, grandfathered, stale = loaded.partition(findings)
        assert fresh == [] and len(grandfathered) == 2 and stale == []


class TestGithubFormat:
    def _result(self, source, baseline=None):
        from repro.analysis.engine import LintResult

        findings = lint_source("src/repro/core/gh.py", source)
        if baseline is None:
            return LintResult(findings, [], [], 1)
        return LintResult(*baseline.partition(findings), 1)

    def test_fresh_finding_renders_error_annotation(self):
        rendered = self._result("import json\n").render("github")
        line = rendered.splitlines()[0]
        assert line.startswith("::error file=src/repro/core/gh.py,line=1,")
        assert "title=RPR007" in line
        assert "::" in line.split("title=RPR007", 1)[1]

    def test_baselined_finding_renders_notice(self):
        source = "import json\n"
        baseline = Baseline.from_findings(
            lint_source("src/repro/core/gh.py", source)
        )
        rendered = self._result(source, baseline).render("github")
        assert rendered.splitlines()[0].startswith("::notice ")

    def test_message_special_characters_escaped(self):
        from repro.analysis.engine import LintResult
        from repro.analysis.findings import Finding

        finding = Finding(
            "RPR001", "src/a,b.py", 3, 1, "line one\nline two: 50%"
        )
        rendered = LintResult([finding], [], [], 1).render("github")
        first = rendered.splitlines()[0]
        assert "file=src/a%2Cb.py" in first
        assert "line one%0Aline two: 50%25" in first
        assert "\n" not in first

    def test_cli_lint_github_format(self, tmp_path):
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        bad = tmp_path / "repro" / "core"
        bad.mkdir(parents=True)
        (bad / "bad.py").write_text("import json\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(repo_root, "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--format", "github",
             str(bad / "bad.py")],
            capture_output=True, text=True, env=env, cwd=repo_root,
        )
        assert proc.returncode == 1
        assert proc.stdout.startswith("::error file=")


class TestFixNoqa:
    def test_unused_code_removed_used_kept(self, tmp_path):
        from repro.analysis.fixes import fix_unused_noqa

        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        target = pkg / "mod.py"
        target.write_text(
            "import time\n"
            "\n"
            "\n"
            "def stamp():\n"
            "    return time.time()  # repro: noqa[RPR001] real waiver\n"
            "\n"
            "\n"
            "def clean():\n"
            "    return 1  # repro: noqa[RPR001] stale\n"
        )
        fixes = fix_unused_noqa([str(target)], root=str(tmp_path))
        assert len(fixes) == 1
        assert fixes[0].dropped_comment
        text = target.read_text()
        assert "real waiver" in text  # used suppression untouched
        assert "stale" not in text
        assert text.endswith("    return 1\n")

    def test_partial_removal_keeps_other_codes(self, tmp_path):
        from repro.analysis.fixes import fix_unused_noqa

        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        target = pkg / "mod.py"
        target.write_text(
            "import time\n"
            "\n"
            "\n"
            "def stamp():\n"
            "    return time.time()  # repro: noqa[RPR001,RPR002] clock only\n"
        )
        fixes = fix_unused_noqa([str(target)], root=str(tmp_path))
        assert [f.removed_codes for f in fixes] == [("RPR002",)]
        assert "# repro: noqa[RPR001] clock only" in target.read_text()

    def test_unregistered_codes_left_for_humans(self, tmp_path):
        from repro.analysis.fixes import fix_unused_noqa

        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        target = pkg / "mod.py"
        body = "def f():\n    return 1  # repro: noqa[XXX999] mystery\n"
        target.write_text(body)
        fixes = fix_unused_noqa([str(target)], root=str(tmp_path))
        assert fixes == []
        assert target.read_text() == body

    def test_deep_scope_requires_flag(self, tmp_path):
        """Without --deep a deep-code noqa is out of proof scope."""
        from repro.analysis.fixes import fix_unused_noqa

        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        target = pkg / "mod.py"
        target.write_text(
            "def f():\n    return 1  # repro: noqa[RPR101] nothing flows\n"
        )
        assert fix_unused_noqa([str(target)], root=str(tmp_path)) == []
        fixes = fix_unused_noqa(
            [str(target)], root=str(tmp_path), include_deep=True
        )
        assert [f.removed_codes for f in fixes] == [("RPR101",)]
        assert "noqa" not in target.read_text()

    def test_cli_fix_noqa(self, tmp_path):
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        target = pkg / "mod.py"
        target.write_text(
            "def f():\n    return 1  # repro: noqa[RPR003] stale\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(repo_root, "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--fix-noqa", str(target)],
            capture_output=True, text=True, env=env, cwd=str(tmp_path),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "removed 1 unused noqa code(s)" in proc.stdout
        assert "noqa" not in target.read_text()


class TestAnalyzeCli:
    def _run(self, *argv, cwd=None):
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(repo_root, "src")
        return subprocess.run(
            [sys.executable, "-m", "repro", "analyze", *argv],
            capture_output=True, text=True, env=env, cwd=cwd or repo_root,
        )

    def test_analyze_repo_is_clean_against_checked_in_baseline(self):
        """Acceptance criterion: `repro analyze` exits 0 on the repo with
        the (empty) checked-in baseline."""
        proc = self._run("--baseline", "analyze-baseline.json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 new finding(s)" in proc.stdout

    def test_checked_in_analyze_baseline_is_empty(self):
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        doc = json.load(open(os.path.join(repo_root, "analyze-baseline.json")))
        assert doc["schema"] == "repro.analysis.baseline/v1"
        assert doc["entries"] == []

    def test_analyze_finds_seeded_taint_flow(self, tmp_path):
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "report.py").write_text(
            "import time\n"
            "\n"
            "\n"
            "class SimulationReport:\n"
            "    def digest(self):\n"
            "        return time.time()\n"
        )
        proc = self._run(str(pkg / "report.py"), cwd=str(tmp_path))
        assert proc.returncode == 1
        assert "RPR101" in proc.stdout
        assert "via digest" in proc.stdout

    def test_lint_deep_runs_both_layers(self, tmp_path):
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "report.py").write_text(
            "import json\n"
            "import time\n"
            "\n"
            "\n"
            "class SimulationReport:\n"
            "    def digest(self):\n"
            "        return time.time()\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(repo_root, "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--deep",
             str(pkg / "report.py")],
            capture_output=True, text=True, env=env, cwd=str(tmp_path),
        )
        assert proc.returncode == 1
        assert "RPR007" in proc.stdout  # shallow: json import in core
        assert "RPR001" in proc.stdout  # shallow: wall clock
        assert "RPR101" in proc.stdout  # deep: taint flow

    def test_explain_deep_rule(self):
        proc = self._run("--explain", "RPR101")
        assert proc.returncode == 0
        assert "taint" in proc.stdout.lower()

    def test_explain_rpr102_is_an_unknown_rule(self):
        proc = self._run("--explain", "RPR102")
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
