"""The lint engine: one per-file pass, one suppression loop.

``lint_files`` lints ``(repo-relative path, source)`` pairs in one run.
For each file, in path order:

1. ``ast.parse`` runs once; a file that does not parse is an RPR000
   finding;
2. every rule in :data:`RULES` checks the one :class:`LintContext`;
3. each finding is dropped if a ``# repro: noqa[...]`` on its line names
   its code, which marks that code used;
4. RPR008 hygiene checks every suppression: a written reason, registered
   codes only, and every code used.  All rules ran, so "unused" is
   proven for every code, whatever rule it names.

No rule reads more than its own file, so there is no project graph.
``lint_source`` is the one-file spelling the unit tests use;
``lint_paths`` reads files and directories and returns a
:class:`LintResult` that renders as text, JSON, or GitHub Actions
annotations and knows its process exit code.
"""

from __future__ import annotations

import ast
import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.async_rules import AsyncAtomicityRule
from repro.analysis.findings import Finding, sort_findings
from repro.analysis.noqa import Suppression
from repro.analysis.rules import (
    DeepcopyOutsideSnapshotRule,
    HotPathSlotsRule,
    LintContext,
    Rule,
    SuppressionHygieneRule,
)

#: Schema tag for ``--format json`` output.
LINT_SCHEMA = "repro.analysis.lint/v2"

#: The registry, in code order.  ``repro lint --explain RPRxxx`` renders
#: rationale and fix example straight from here.
RULES: Tuple[Rule, ...] = (
    HotPathSlotsRule(),
    SuppressionHygieneRule(),
    DeepcopyOutsideSnapshotRule(),
    AsyncAtomicityRule(),
)

RULES_BY_CODE: Dict[str, Rule] = {rule.code: rule for rule in RULES}


def explain_rule(code: str) -> Optional[str]:
    """Human-readable rationale + fix example for one rule code."""
    rule = RULES_BY_CODE.get(code.upper())
    if rule is None:
        return None
    lines = [
        f"{rule.code} — {rule.name}",
        "",
        f"  {rule.summary}",
        "",
        "Rationale:",
    ]
    lines.extend(f"  {line}" for line in rule.rationale.splitlines())
    lines.append("")
    lines.append("Fix example:")
    lines.extend(f"  {line}" for line in rule.fix_example.splitlines())
    return "\n".join(lines)


def _hygiene_findings(path: str, suppression: Suppression) -> List[Finding]:
    """RPR008 findings for one suppression, after every rule has run."""
    line = suppression.line
    out: List[Finding] = []
    if not suppression.reason:
        out.append(
            Finding("RPR008", path, line, 1, "noqa suppression without a written reason")
        )
    for code in suppression.codes:
        if code not in RULES_BY_CODE:
            message = f"noqa names unregistered rule code {code}"
        elif code not in suppression.used_codes:
            message = f"unused noqa: no {code} finding on this line"
        else:
            continue
        out.append(Finding("RPR008", path, line, 1, message))
    return out


def _check_file(path: str, source: str) -> List[Finding]:
    """Every rule over one file, suppressions applied, RPR008 added."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                "RPR000", path, exc.lineno or 1, (exc.offset or 0) + 1,
                f"file does not parse: {exc.msg}",
            )
        ]
    ctx = LintContext(path, source, tree)
    kept: List[Finding] = []
    for rule in RULES:
        for finding in rule.check(ctx):
            suppression = ctx.suppressions.get(finding.line)
            if suppression is None or not suppression.suppresses(
                finding.code, finding.line
            ):
                kept.append(finding)
    for suppression in ctx.suppressions.values():
        kept.extend(_hygiene_findings(path, suppression))
    return kept


def lint_files(files: Sequence[Tuple[str, str]]) -> List[Finding]:
    """Lint ``(repo-relative path, source)`` pairs with every rule.

    Each distinct path is parsed once.  Returns the findings left after
    suppressions, RPR008 included, in report order.
    """
    findings: List[Finding] = []
    for path, source in sorted(dict(files).items()):
        findings.extend(_check_file(path, source))
    return sort_findings(findings)


def lint_source(path: str, source: str) -> List[Finding]:
    """Lint one in-memory file."""
    return lint_files([(path, source)])


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


def read_files(
    paths: Sequence[str], root: Optional[str] = None
) -> List[Tuple[str, str]]:
    """Every .py file under ``paths`` as ``(posix path, source)``.

    Paths are made relative to ``root`` when it is given, so a report
    names ``src/repro/...`` wherever the repository lives.
    """
    out: List[Tuple[str, str]] = []
    for filename in iter_python_files(paths):
        with open(filename, encoding="utf-8") as fh:
            source = fh.read()
        rel = os.path.relpath(filename, root) if root else filename
        out.append((rel.replace(os.sep, "/"), source))
    return out


def _gh_escape_data(text: str) -> str:
    return text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def _gh_escape_prop(text: str) -> str:
    return (
        _gh_escape_data(text).replace(":", "%3A").replace(",", "%2C")
    )


class LintResult:
    """Everything one lint invocation produced."""

    def __init__(self, findings: List[Finding], files_checked: int) -> None:
        self.findings = findings
        self.files_checked = files_checked

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def _summary(self) -> str:
        return (
            f"checked {self.files_checked} file(s): "
            f"{len(self.findings)} finding(s)"
        )

    def render_text(self) -> str:
        lines = [finding.render() for finding in self.findings]
        lines.append(self._summary())
        return "\n".join(lines)

    def render_json(self) -> str:
        doc = {
            "schema": LINT_SCHEMA,
            "files_checked": self.files_checked,
            "findings": [f.to_dict() for f in self.findings],
            "exit_code": self.exit_code,
        }
        return json.dumps(doc, indent=2)

    def render_github(self) -> str:
        """GitHub Actions workflow commands: each finding is an ``::error``
        annotation on its diff line, then the plain-text summary line for
        the job log."""
        lines = [
            f"::error file={_gh_escape_prop(finding.path)},"
            f"line={finding.line},col={finding.column},"
            f"title={_gh_escape_prop(finding.code)}::"
            f"{_gh_escape_data(finding.message)}"
            for finding in self.findings
        ]
        lines.append(self._summary())
        return "\n".join(lines)

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.render_json()
        if fmt == "github":
            return self.render_github()
        return self.render_text()


def lint_paths(paths: Sequence[str], root: Optional[str] = None) -> LintResult:
    """Lint every .py file under ``paths`` with every rule, in one run."""
    files = read_files(paths, root)
    return LintResult(lint_files(files), len(files))
