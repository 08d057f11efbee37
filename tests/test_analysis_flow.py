"""Tests for the interprocedural taint pass (RPR101) and its call graph.

The acceptance criterion from the issue: a seeded nondeterminism source
several call hops below a digest sink is found, and the finding's
message carries the full source -> call chain -> sink witness path.
"""

import textwrap

from repro.analysis.callgraph import build_graph
from repro.analysis.engine import lint_files, lint_paths, lint_source, read_files
from repro.analysis.flow import taint_findings
from repro.analysis.summaries import function_sources

REPORT = "src/repro/core/report.py"
UTIL = "src/repro/harness/hosttime.py"


def graph_of(*files):
    return build_graph([(path, textwrap.dedent(src)) for path, src in files])


def flows(*files):
    return list(taint_findings(graph_of(*files)))


class TestWitnessPath:
    def test_source_under_sink_is_found_with_full_chain(self):
        """A clock three modules below digest() yields the witness chain."""
        findings = flows(
            (
                REPORT,
                """
                from repro.harness.hosttime import stamp


                class SimulationReport:
                    def digest(self):
                        return stamp(self)
                """,
            ),
            (
                UTIL,
                """
                import time


                def stamp(report):
                    return _now()


                def _now():
                    return time.time()
                """,
            ),
        )
        assert len(findings) == 1
        finding = findings[0]
        assert finding.code == "RPR101"
        # Anchored at the *source* line (where a reasoned noqa belongs).
        assert finding.path == UTIL
        assert finding.line == 10  # the time.time() call
        assert "wall-clock source `time.time()`" in finding.message
        assert (
            "report digest sink `repro.core.report.SimulationReport.digest`"
            in finding.message
        )
        # Full witness chain, rendered sink-outward with call-site lines.
        assert (
            f"via digest ({REPORT}:7) -> stamp ({UTIL}:6) -> _now"
            in finding.message
        )

    def test_source_in_sink_body_chain_is_sink_itself(self):
        findings = flows(
            (
                REPORT,
                """
                import time


                class SimulationReport:
                    def digest(self):
                        return time.time()
                """,
            ),
        )
        assert len(findings) == 1
        assert f"via digest ({REPORT}:6)" in findings[0].message

    def test_unreachable_source_not_flagged(self):
        """Nondeterminism outside the sink's call tree is not a flow."""
        findings = flows(
            (
                REPORT,
                """
                import time


                class SimulationReport:
                    def digest(self):
                        return 7


                def unrelated():
                    return time.time()
                """,
            ),
        )
        assert findings == []

    def test_one_finding_per_source_sink_pair(self):
        """Two call paths to one source produce one finding, not two."""
        findings = flows(
            (
                REPORT,
                """
                import time


                def _clock():
                    return time.time()


                def _a():
                    return _clock()


                def _b():
                    return _clock()


                class SimulationReport:
                    def digest(self):
                        return _a() + _b()
                """,
            ),
        )
        assert len(findings) == 1


class TestSourceKinds:
    def _graph(self, body):
        return graph_of(
            (
                REPORT,
                f"""
                import os
                import random
                import time


                class SimulationReport:
                    def digest(self):
                        return helper()


                def helper():
                    return {body}
                """,
            ),
        )

    def _kinds(self, body):
        return [
            finding.message.split(" source ")[0]
            for finding in taint_findings(self._graph(body))
        ]

    def test_entropy_flagged(self):
        assert self._kinds("random.random()") == ["entropy"]

    def test_seeded_random_allowed(self):
        assert self._kinds("random.Random(42).random()") == []

    def test_env_read_flagged(self):
        assert self._kinds("os.getenv('HOME')") == ["env-read"]

    def test_sorted_set_barrier(self):
        assert self._kinds("[x for x in sorted({1, 2})]") == []

    def test_unsorted_set_comprehension_flagged(self):
        assert self._kinds("[x for x in {1, 2}]") == ["set-iteration"]


class TestMuting:
    def test_shallow_noqa_on_source_line_mutes_flow(self):
        findings = flows(
            (
                REPORT,
                """
                import time


                class SimulationReport:
                    def digest(self):
                        return _stamp()


                def _stamp():
                    return time.time()  # repro: noqa[RPR001] reviewed waiver
                """,
            ),
        )
        assert findings == []

    def test_rpr101_noqa_consumed_by_engine_layer(self):
        """A noqa[RPR101] suppresses the finding *and* registers as used.

        The clock sits outside the critical packages, so no per-file rule
        fires on it: the flow is the only finding to suppress."""
        files = [
            (
                REPORT,
                """
                from repro.harness.hosttime import stamp


                class SimulationReport:
                    def digest(self):
                        return stamp()
                """,
            ),
            (
                UTIL,
                """
                import time


                def stamp():
                    return time.time()  # repro: noqa[RPR101] reviewed waiver
                """,
            ),
        ]
        assert lint_files([(p, textwrap.dedent(s)) for p, s in files]) == []

    def test_unused_deep_noqa_flagged_by_hygiene(self):
        findings = lint_source(
            REPORT,
            textwrap.dedent(
                """
                def quiet():
                    return 7  # repro: noqa[RPR101] nothing flows here
                """
            ),
        )
        assert [f.code for f in findings] == ["RPR008"]
        assert "unused noqa" in findings[0].message

    def test_source_waiver_is_used_by_the_flow_through_it(self, tmp_path):
        """A reasoned per-file waiver on a source outside the critical
        packages (where its own rule never fires) waives the flow through
        it and counts as used; once no flow passes, it is dead."""
        report = tmp_path / "src" / "repro" / "core" / "report.py"
        hosttime = tmp_path / "src" / "repro" / "harness" / "hosttime.py"
        report.parent.mkdir(parents=True)
        hosttime.parent.mkdir(parents=True)
        hosttime.write_text(
            "import time\n"
            "\n"
            "\n"
            "def stamp():\n"
            "    return time.time()  # repro: noqa[RPR001] reviewed host-time waiver\n"
        )
        report.write_text(
            "from repro.harness.hosttime import stamp\n"
            "\n"
            "\n"
            "class SimulationReport:\n"
            "    def digest(self):\n"
            "        return stamp()\n"
        )
        result = lint_paths([str(tmp_path / "src")], root=str(tmp_path))
        assert result.findings == [], [f.render() for f in result.findings]

        report.write_text(
            "class SimulationReport:\n"
            "    def digest(self):\n"
            "        return 0\n"
        )
        result = lint_paths([str(tmp_path / "src")], root=str(tmp_path))
        assert [f.render() for f in result.findings] == [
            "src/repro/harness/hosttime.py:5:1: RPR008 unused noqa: "
            "no RPR001 finding on this line"
        ]


class TestCallGraphResolution:
    def test_cross_module_import_alias(self):
        graph = graph_of(
            (
                "src/repro/core/a.py",
                """
                from repro.core.b import helper as h


                def caller():
                    return h()
                """,
            ),
            (
                "src/repro/core/b.py",
                """
                def helper():
                    return 1
                """,
            ),
        )
        fn = graph.functions["repro.core.a.caller"]
        assert [site.target for site in fn.calls] == ["repro.core.b.helper"]

    def test_self_method_resolves_through_base_class(self):
        graph = graph_of(
            (
                "src/repro/core/c.py",
                """
                class Base:
                    def leaf(self):
                        return 1


                class Child(Base):
                    def run(self):
                        return self.leaf()
                """,
            ),
        )
        fn = graph.functions["repro.core.c.Child.run"]
        assert [site.target for site in fn.calls] == ["repro.core.c.Base.leaf"]

    def test_instantiation_resolves_to_init(self):
        graph = graph_of(
            (
                "src/repro/core/d.py",
                """
                class Thing:
                    def __init__(self):
                        self.x = 1


                def make():
                    return Thing()
                """,
            ),
        )
        fn = graph.functions["repro.core.d.make"]
        assert [site.target for site in fn.calls] == [
            "repro.core.d.Thing.__init__"
        ]

    def test_syntax_error_file_skipped(self):
        graph = build_graph(
            [
                ("src/repro/core/ok.py", "def fine():\n    return 1\n"),
                ("src/repro/core/broken.py", "def broken(:\n"),
            ]
        )
        assert "repro.core.ok" in graph.modules
        assert "repro.core.broken" not in graph.modules


class TestRepositoryFlows:
    def test_function_sources_on_real_repo_report(self):
        """The real digest call tree carries no unwaived sources (repo is
        clean); sanity-check by loading the real files."""
        import os

        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        files = read_files([os.path.join(repo_root, "src", "repro")], repo_root)
        graph = build_graph(files)
        assert any(
            qualname.endswith("SimulationReport.digest")
            for qualname in graph.functions
        )
        assert list(taint_findings(graph)) == []

    def test_sources_helper_directly(self):
        graph = graph_of(
            (
                REPORT,
                """
                import time


                def f():
                    return time.time()
                """,
            ),
        )
        sources = function_sources(graph, graph.functions["repro.core.report.f"])
        assert [s.kind for s in sources] == ["wall-clock"]
        assert sources[0].detail == "time.time()"
