"""The lint engine: parse, run rules, apply suppressions and baselines.

``lint_source`` checks one in-memory file (the unit tests' entry point);
``lint_paths`` walks directories, applies an optional baseline, and
returns a :class:`LintResult` that renders as text, JSON, or GitHub
Actions annotations and knows its process exit code.

``analyze_paths`` is the whole-program layer (``repro analyze`` /
``repro lint --deep``): it builds one project call graph over the same
files and runs the **deep rules** — interprocedural taint flow (RPR101)
and asyncio atomicity (RPR103) — through the same
Finding/suppression/baseline plumbing as the per-file rules.

Suppression hygiene (RPR008) is *scoped* so the shallow and deep CI steps
do not flag each other's suppressions as unused: a plain lint checks
unused-ness only among the shallow codes, a plain analyze only among the
deep codes, and ``lint --deep`` among both.  Reasonless and
unregistered-code checks always run (both steps must see a bad comment),
and the registered-code universe includes the deep codes, so a
``noqa[RPR103]`` is never "unregistered" to the shallow step.
"""

from __future__ import annotations

import ast
import json
import os
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.baseline import Baseline
from repro.analysis.callgraph import ModuleInfo, ProjectGraph, build_graph
from repro.analysis.findings import Finding, sort_findings
from repro.analysis.noqa import Suppression, parse_suppressions
from repro.analysis.rules import RULES, LintContext, Rule
from repro.analysis.rules import explain_rule as _explain_in
from repro.analysis.async_rules import AsyncAtomicityRule
from repro.analysis.flow import TaintFlowRule

#: Schema tag for ``--format json`` output.
LINT_SCHEMA = "repro.analysis.lint/v1"

#: The whole-program rules (``deep = True``), in code order.
DEEP_RULES = (TaintFlowRule(), AsyncAtomicityRule())

#: Every registered rule, shallow then deep.
ALL_RULES = tuple(RULES) + DEEP_RULES

ALL_RULES_BY_CODE: Dict[str, Rule] = {rule.code: rule for rule in ALL_RULES}

#: Hygiene scopes: which codes an invocation can prove used/unused.
SHALLOW_CODES: FrozenSet[str] = frozenset(rule.code for rule in RULES)
DEEP_CODES: FrozenSet[str] = frozenset(rule.code for rule in DEEP_RULES)


def explain_rule(code: str) -> Optional[str]:
    """Rationale + fix example for any rule code, shallow or deep."""
    return _explain_in(code, ALL_RULES_BY_CODE)


def _relpath(path: str, root: Optional[str]) -> str:
    """Repo-relative posix path (so baselines travel between machines)."""
    rel = os.path.relpath(path, root) if root else path
    return rel.replace(os.sep, "/")


def _hygiene_findings(
    path: str,
    line_text: str,
    suppression: Suppression,
    unused_scope: FrozenSet[str],
    check_comment: bool,
) -> List[Finding]:
    """RPR008 findings for one suppression, scoped to ``unused_scope``."""
    out: List[Finding] = []
    if check_comment:
        if not suppression.reason:
            out.append(
                Finding(
                    "RPR008", path, suppression.line, 1,
                    "noqa suppression without a written reason", line_text,
                )
            )
        for code in suppression.codes:
            if code not in ALL_RULES_BY_CODE:
                out.append(
                    Finding(
                        "RPR008", path, suppression.line, 1,
                        f"noqa names unregistered rule code {code}", line_text,
                    )
                )
    for code in suppression.unused_codes:
        if code in unused_scope:
            out.append(
                Finding(
                    "RPR008", path, suppression.line, 1,
                    f"unused noqa: no {code} finding on this line", line_text,
                )
            )
    return out


def lint_source(
    path: str,
    source: str,
    unused_scope: FrozenSet[str] = SHALLOW_CODES,
) -> List[Finding]:
    """Lint one file's contents; returns post-suppression findings.

    Suppression processing also enforces RPR008: reasonless noqa,
    unregistered codes, and unused suppressions (among ``unused_scope``)
    each produce a finding.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        line = exc.lineno or 1
        return [
            Finding(
                "RPR000", path, line, (exc.offset or 0) + 1,
                f"file does not parse: {exc.msg}",
            )
        ]
    ctx = LintContext(path, source, tree)
    raw: List[Finding] = []
    for rule in RULES:
        raw.extend(rule.check(ctx))

    suppressions = parse_suppressions(ctx.source)
    kept: List[Finding] = []
    for finding in raw:
        suppression = suppressions.get(finding.line)
        if suppression is not None and suppression.suppresses(
            finding.code, finding.line
        ):
            continue
        kept.append(finding)

    for suppression in suppressions.values():
        kept.extend(
            _hygiene_findings(
                path,
                ctx.line_text(suppression.line),
                suppression,
                unused_scope,
                check_comment=True,
            )
        )
    return sort_findings(kept)


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of .py files."""
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                dirnames[:] = [d for d in dirnames if d != "__pycache__"]
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        files.append(os.path.join(dirpath, name))
        elif path.endswith(".py"):
            files.append(path)
    return files


def _gh_escape_data(text: str) -> str:
    return text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def _gh_escape_prop(text: str) -> str:
    return (
        _gh_escape_data(text).replace(":", "%3A").replace(",", "%2C")
    )


class LintResult:
    """Everything one lint invocation produced."""

    def __init__(
        self,
        fresh: List[Finding],
        grandfathered: List[Finding],
        stale_baseline: List[Dict[str, object]],
        files_checked: int,
    ) -> None:
        self.fresh = fresh
        self.grandfathered = grandfathered
        self.stale_baseline = stale_baseline
        self.files_checked = files_checked

    @property
    def exit_code(self) -> int:
        return 1 if self.fresh else 0

    @property
    def all_findings(self) -> List[Finding]:
        return sort_findings(self.fresh + self.grandfathered)

    def render_text(self) -> str:
        lines: List[str] = []
        for finding in self.fresh:
            lines.append(finding.render())
        for finding in self.grandfathered:
            lines.append(f"{finding.render()} [baseline]")
        for entry in self.stale_baseline:
            lines.append(
                f"stale baseline entry: {entry.get('path')} {entry.get('code')} "
                f"({entry.get('fingerprint')}) no longer matches — remove it"
            )
        lines.append(
            f"checked {self.files_checked} file(s): "
            f"{len(self.fresh)} new finding(s), "
            f"{len(self.grandfathered)} baselined, "
            f"{len(self.stale_baseline)} stale baseline entr(y/ies)"
        )
        return "\n".join(lines)

    def render_json(self) -> str:
        doc = {
            "schema": LINT_SCHEMA,
            "files_checked": self.files_checked,
            "new": [f.to_dict() for f in self.fresh],
            "baselined": [f.to_dict() for f in self.grandfathered],
            "stale_baseline": self.stale_baseline,
            "exit_code": self.exit_code,
        }
        return json.dumps(doc, indent=2)

    def render_github(self) -> str:
        """GitHub Actions workflow commands: findings annotate PR diffs.

        Fresh findings are ``::error`` (they fail the job), grandfathered
        ones ``::notice``, stale baseline entries ``::warning`` — followed
        by the plain-text summary line for the job log.
        """
        lines: List[str] = []
        for finding in self.fresh:
            lines.append(
                f"::error file={_gh_escape_prop(finding.path)},"
                f"line={finding.line},col={finding.column},"
                f"title={_gh_escape_prop(finding.code)}::"
                f"{_gh_escape_data(finding.message)}"
            )
        for finding in self.grandfathered:
            lines.append(
                f"::notice file={_gh_escape_prop(finding.path)},"
                f"line={finding.line},col={finding.column},"
                f"title={_gh_escape_prop(finding.code)} (baselined)::"
                f"{_gh_escape_data(finding.message)}"
            )
        for entry in self.stale_baseline:
            lines.append(
                f"::warning title=stale baseline entry::"
                f"{_gh_escape_data(str(entry.get('path')))} "
                f"{_gh_escape_data(str(entry.get('code')))} "
                f"({entry.get('fingerprint')}) no longer matches — remove it"
            )
        lines.append(
            f"checked {self.files_checked} file(s): "
            f"{len(self.fresh)} new finding(s), "
            f"{len(self.grandfathered)} baselined, "
            f"{len(self.stale_baseline)} stale baseline entr(y/ies)"
        )
        return "\n".join(lines)

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.render_json()
        if fmt == "github":
            return self.render_github()
        return self.render_text()


def _read_files(
    paths: Sequence[str], root: Optional[str]
) -> List[Tuple[str, str]]:
    out: List[Tuple[str, str]] = []
    for filename in iter_python_files(paths):
        with open(filename, "r", encoding="utf-8") as fh:
            source = fh.read()
        out.append((_relpath(filename, root), source))
    return out


def lint_paths(
    paths: Sequence[str],
    baseline: Optional[Baseline] = None,
    root: Optional[str] = None,
) -> LintResult:
    """Lint every .py file under ``paths`` against an optional baseline."""
    findings: List[Finding] = []
    files = _read_files(paths, root)
    for rel, source in files:
        findings.extend(lint_source(rel, source))
    findings = sort_findings(findings)
    if baseline is None:
        return LintResult(findings, [], [], len(files))
    fresh, grandfathered, stale = baseline.partition(findings)
    return LintResult(fresh, grandfathered, stale, len(files))


def deep_findings(
    graph: ProjectGraph, check_comment_hygiene: bool = True
) -> List[Finding]:
    """Run the deep rules over a built graph, suppression-processed.

    Deep-code suppressions are consumed here (marking them used); RPR008
    hygiene then covers unused deep codes and — when
    ``check_comment_hygiene`` — reasonless/unregistered comments too (the
    analyze-only step has no shallow pass to report those).
    """
    raw: List[Finding] = []
    for rule in DEEP_RULES:
        raw.extend(rule.check_project(graph))

    by_path: Dict[str, ModuleInfo] = {
        graph.modules[name].path: graph.modules[name] for name in graph.modules
    }
    kept: List[Finding] = []
    for finding in raw:
        module = by_path.get(finding.path)
        if module is not None:
            suppression = module.suppressions.get(finding.line)
            if suppression is not None and suppression.suppresses(
                finding.code, finding.line
            ):
                continue
        kept.append(finding)

    for name in graph.modules:
        module = graph.modules[name]
        lines = module.source.splitlines()
        for suppression in module.suppressions.values():
            text = (
                lines[suppression.line - 1].strip()
                if 1 <= suppression.line <= len(lines)
                else ""
            )
            kept.extend(
                _hygiene_findings(
                    module.path, text, suppression, DEEP_CODES,
                    check_comment=check_comment_hygiene,
                )
            )
    return sort_findings(kept)


def analyze_paths(
    paths: Sequence[str],
    baseline: Optional[Baseline] = None,
    root: Optional[str] = None,
    include_shallow: bool = False,
) -> LintResult:
    """Whole-program analysis over every .py file under ``paths``.

    With ``include_shallow`` (the ``lint --deep`` spelling) the per-file
    rules run too, with hygiene widened to both code families; otherwise
    only the deep rules run (plus comment hygiene, which both CI steps
    must enforce).
    """
    files = _read_files(paths, root)
    findings: List[Finding] = []
    if include_shallow:
        for rel, source in files:
            findings.extend(
                lint_source(rel, source, unused_scope=SHALLOW_CODES)
            )
    else:
        # The deep pass skips unparseable files when building the graph;
        # surface them as RPR000 exactly like the shallow lint would.
        for rel, source in files:
            try:
                ast.parse(source, filename=rel)
            except SyntaxError as exc:
                findings.append(
                    Finding(
                        "RPR000", rel, exc.lineno or 1, (exc.offset or 0) + 1,
                        f"file does not parse: {exc.msg}",
                    )
                )
    graph = build_graph(files)
    findings.extend(
        deep_findings(graph, check_comment_hygiene=not include_shallow)
    )
    findings = sort_findings(findings)
    if baseline is None:
        return LintResult(findings, [], [], len(files))
    fresh, grandfathered, stale = baseline.partition(findings)
    return LintResult(fresh, grandfathered, stale, len(files))
