"""Inline suppression comments: ``repro: noqa[RPRxxx] <reason>`` (as a
``#`` comment on the offending line).

A suppression silences the named rule codes *on its own line* and must
carry a written reason; several codes may be listed comma-separated.
Suppressions are themselves linted (rule RPR008): a missing reason, an
unregistered code, or a suppression that matches no finding is reported.

Suppressions are parsed from real COMMENT tokens (``tokenize``), never
from raw line text — so noqa-shaped examples inside docstrings and
string literals (this repo documents its own lint syntax) are not
mistaken for live suppressions.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, List

#: Matches the suppression marker inside a comment token's text: the
#: "repro:" prefix, the keyword, bracketed codes ("[RPR005]" or
#: "[RPR005,RPR009]"), then free-text reason.
_NOQA_RE = re.compile(
    r"repro:\s*noqa\[(?P<codes>[A-Za-z0-9_, ]+)\]\s*(?P<reason>.*)$"
)


class Suppression:
    """One parsed noqa comment."""

    __slots__ = ("line", "codes", "reason", "used_codes")

    def __init__(self, line: int, codes: List[str], reason: str) -> None:
        self.line = line
        self.codes = codes
        self.reason = reason
        self.used_codes: set = set()

    def suppresses(self, code: str, line: int) -> bool:
        if line == self.line and code in self.codes:
            self.used_codes.add(code)
            return True
        return False


def parse_suppressions(source: str) -> Dict[int, Suppression]:
    """All noqa comments in a file, keyed by 1-based line number."""
    found: Dict[int, Suppression] = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type != tokenize.COMMENT:
                continue
            match = _NOQA_RE.search(token.string)
            if match is None:
                continue
            codes = [
                part.strip().upper()
                for part in match.group("codes").split(",")
                if part.strip()
            ]
            line = token.start[0]
            found[line] = Suppression(line, codes, match.group("reason").strip())
    except (tokenize.TokenError, IndentationError):
        # The engine parses the file before suppression processing, so a
        # tokenizer failure here means trailing garbage after valid code;
        # treat it as "no suppressions" rather than crashing the lint.
        pass
    return found
