"""Lint findings: the record every rule produces and the engine reports.

A finding names one rule code at one ``path:line:column`` location.  It
is anchored where the fix (or a reasoned ``# repro: noqa[...]``) belongs.
"""

from __future__ import annotations

from typing import Dict, List


class Finding:
    """One rule violation at one source location."""

    __slots__ = ("code", "path", "line", "column", "message")

    def __init__(
        self, code: str, path: str, line: int, column: int, message: str
    ) -> None:
        self.code = code
        self.path = path
        self.line = line
        self.column = column
        self.message = message

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.column}: {self.code} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Finding({self.render()!r})"


def sort_findings(findings: List[Finding]) -> List[Finding]:
    """Deterministic report order: path, then line, then code."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.column, f.code))
