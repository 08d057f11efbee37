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

from repro.analysis import (
    RULES,
    explain_rule,
    flow,
    lint_paths,
    lint_source,
    read_files,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

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


@pytest.fixture(scope="class")
def repo_lint():
    """One ``lint_paths`` run over ``src/repro``, watched from outside:
    every ``ast.parse`` call is counted by filename, and the project
    graph the taint rule receives is kept."""
    parses = collections.Counter()
    graphs = []
    real_parse, real_taint = ast.parse, flow.taint_findings

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parses[filename] += 1
        return real_parse(source, filename, *args, **kwargs)

    def watched_taint(graph, *args, **kwargs):
        graphs.append(graph)
        return real_taint(graph, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ast, "parse", counting_parse)
        patch.setattr(flow, "taint_findings", watched_taint)
        result = lint_paths(
            [os.path.join(REPO_ROOT, "src", "repro")], root=REPO_ROOT
        )
    return result, parses, graphs


class TestRepositoryIsClean:
    def test_src_repro_lints_clean(self, repo_lint):
        """Acceptance criterion: every rule, per-file and whole-program,
        finds nothing in the repository, and the taint rule's graph
        resolves the report digest sink (so a clean run is not an empty
        graph)."""
        result, _, graphs = repo_lint
        assert result.files_checked > 50
        rendered = "\n".join(f.render() for f in result.findings)
        assert result.findings == [], f"lint findings:\n{rendered}"
        assert result.exit_code == 0
        (graph,) = graphs
        assert any(
            qualname.endswith("SimulationReport.digest")
            for qualname in graph.functions
        )

    def test_each_file_is_parsed_once_for_every_rule(self, repo_lint):
        """The per-file and whole-program rules share one parse: one
        ``ast.parse`` per file, and the taint rule sees all of them."""
        _, parses, graphs = repo_lint
        files = read_files([os.path.join(REPO_ROOT, "src", "repro")], root=REPO_ROOT)
        assert parses == collections.Counter(path for path, _ in files)
        (graph,) = graphs
        assert sorted(m.path for m in graph.files) == sorted(parses)


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
        bad = write_module(tmp_path, "repro/core/bad.py", "import json\n")
        proc = run_lint("--format", "json", str(bad))
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["schema"] == "repro.analysis.lint/v2"
        assert [f["code"] for f in doc["findings"]] == ["RPR007"]

    def test_explain_known_rule(self):
        proc = run_lint("--explain", "RPR004")
        assert proc.returncode == 0
        assert "unordered" in proc.stdout

    def test_explain_all(self):
        proc = run_lint("--explain", "all")
        assert proc.returncode == 0
        for rule in RULES:
            assert rule.code in proc.stdout

    def test_explain_unknown_rule(self):
        proc = run_lint("--explain", "RPR999")
        assert proc.returncode == 2
        assert "RPR999" in proc.stderr

    def test_unused_rpr101_noqa_is_reported(self, tmp_path):
        """A whole-program code is proven unused like any other: no flow
        passes through this line, so its waiver is dead."""
        quiet = write_module(
            tmp_path,
            "repro/core/report.py",
            "def quiet():\n    return 7  # repro: noqa[RPR101] nothing flows here\n",
        )
        proc = run_lint(str(quiet), cwd=str(tmp_path))
        assert proc.returncode == 1
        assert "repro/core/report.py:2:1: RPR008 unused noqa: no RPR101 finding" in proc.stdout


class TestGithubFormat:
    def _result(self, source):
        from repro.analysis.engine import LintResult

        return LintResult(lint_source("src/repro/core/gh.py", source), 1)

    def test_fresh_finding_renders_error_annotation(self):
        rendered = self._result("import json\n").render("github")
        line = rendered.splitlines()[0]
        assert line.startswith("::error file=src/repro/core/gh.py,line=1,")
        assert "title=RPR007" in line
        assert "::" in line.split("title=RPR007", 1)[1]

    def test_message_special_characters_escaped(self):
        from repro.analysis.engine import LintResult
        from repro.analysis.findings import Finding

        finding = Finding(
            "RPR001", "src/a,b.py", 3, 1, "line one\nline two: 50%"
        )
        rendered = LintResult([finding], 1).render("github")
        first = rendered.splitlines()[0]
        assert "file=src/a%2Cb.py" in first
        assert "line one%0Aline two: 50%25" in first
        assert "\n" not in first

    def test_cli_lint_github_format(self, tmp_path):
        bad = write_module(tmp_path, "repro/core/bad.py", "import json\n")
        proc = run_lint("--format", "github", str(bad))
        assert proc.returncode == 1
        assert proc.stdout.startswith("::error file=")


class TestAnalyzeCli:
    """The whole-program rules (RPR101, RPR103) run in plain ``repro
    lint``, in the same pass as the per-file rules."""

    TAINTED_REPORT = (
        "import time\n"
        "\n"
        "\n"
        "class SimulationReport:\n"
        "    def digest(self):\n"
        "        return time.time()\n"
    )

    def test_analyze_finds_seeded_taint_flow(self, tmp_path):
        report = write_module(tmp_path, "repro/core/report.py", self.TAINTED_REPORT)
        proc = run_lint(str(report), cwd=str(tmp_path))
        assert proc.returncode == 1
        assert "RPR101" in proc.stdout
        assert "via digest" in proc.stdout

    def test_lint_runs_both_layers(self, tmp_path):
        report = write_module(
            tmp_path, "repro/core/report.py", "import json\n" + self.TAINTED_REPORT
        )
        proc = run_lint(str(report), cwd=str(tmp_path))
        assert proc.returncode == 1
        assert "RPR007" in proc.stdout  # per-file: json import in core
        assert "RPR001" in proc.stdout  # per-file: wall clock
        assert "RPR101" in proc.stdout  # whole-program: taint flow

    def test_explain_deep_rule(self):
        proc = run_lint("--explain", "RPR101")
        assert proc.returncode == 0
        assert "taint" in proc.stdout.lower()

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
