"""The lint rules no runtime check can stand in for.

========  =====================================================
RPR005    ``__slots__`` required on ``# repro: hot-path`` classes
RPR008    suppression hygiene (reasonless / unknown / unused noqa)
RPR009    ``copy.deepcopy`` of simulation state outside the snapshot layer
========  =====================================================

RPR103 (await atomicity) lives in :mod:`~repro.analysis.async_rules`;
:mod:`~repro.analysis.engine` holds the registry.  Every rule reads one
file: a :class:`LintContext` carries its parsed tree, raw source lines,
import aliases, suppressions and package, so a rule can scope itself to
the packages it guards.  Wall-clock and entropy reads, ``id()`` keys,
set-order iteration, raw telemetry calls, heavyweight ``repro.core``
imports and taint flows into digest sinks have no rule: the golden
digests, the cache-key, wire and run-handle tests, the disabled-seam
bytecode budget and the import-closure tests fail on each of them
(DESIGN.md section 6, "Rule verdicts").
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.findings import Finding
from repro.analysis.noqa import Suppression, parse_suppressions

#: Packages whose behaviour feeds the report digest: RPR009 keeps full
#: copies of simulation state out of them.
CRITICAL_PACKAGES = ("core", "cpu", "memory", "workloads", "isa", "sync", "fabric")

#: The marker comment that declares a class hot-path (RPR005 then requires
#: ``__slots__`` on it, forever).
HOT_PATH_MARKER = "# repro: hot-path"


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _import_map(tree: ast.Module) -> Dict[str, str]:
    """Local name -> fully-dotted origin, from the module's imports."""
    mapping: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    mapping[alias.asname] = alias.name
                else:
                    head = alias.name.partition(".")[0]
                    mapping[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                mapping[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return mapping


class LintContext:
    """One parsed file: everything a rule needs to check it."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path  # repo-relative, posix separators
        self.lines = source.splitlines()
        self.tree = tree
        self._imports = _import_map(tree)
        self.suppressions: Dict[int, Suppression] = parse_suppressions(source)
        parts = self.path.replace("\\", "/").split("/")
        # Locate the module inside the package: .../repro/<pkg>/...
        self.package: Optional[str] = None
        if "repro" in parts:
            tail = parts[parts.index("repro") + 1 :]
            if len(tail) > 1:
                self.package = tail[0]

    @property
    def in_critical_package(self) -> bool:
        return self.package in CRITICAL_PACKAGES

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def resolve_call(self, node: ast.Call) -> Optional[str]:
        """Fully-dotted name of a call target, through import aliases.

        ``from copy import deepcopy as dc; dc(x)`` resolves to
        ``copy.deepcopy``.  Returns None for calls on computed
        expressions.
        """
        dotted = dotted_name(node.func)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        resolved = self._imports.get(head, head)
        return f"{resolved}.{rest}" if rest else resolved

    def finding(self, code: str, node: ast.AST, message: str) -> Finding:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        return Finding(code, self.path, lineno, col, message)


# --------------------------------------------------------------------- #
# Rule machinery
# --------------------------------------------------------------------- #


class Rule:
    """One registered rule: the engine calls :meth:`check` on every file."""

    code: str = ""
    name: str = ""
    summary: str = ""
    rationale: str = ""
    fix_example: str = ""

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        return iter(())


def _declares_slots(stmt: ast.stmt) -> bool:
    """``__slots__ = ...`` or ``__slots__: T = ...``; an annotation
    without a value declares no slots."""
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        targets = [stmt.target]
    else:
        return False
    return any(isinstance(t, ast.Name) and t.id == "__slots__" for t in targets)


class HotPathSlotsRule(Rule):
    code = "RPR005"
    name = "hot-path-slots"
    summary = "hot-path-marked class without __slots__"
    rationale = (
        "Classes marked `# repro: hot-path` are allocated or accessed inside\n"
        "the per-cycle / per-event loops; their attribute access cost and\n"
        "memory footprint are part of the measured 2.16x kernel speedup.\n"
        "__slots__ keeps attribute access on the fast path, prevents\n"
        "accidental attribute creation (a classic source of state that\n"
        "escapes checkpoint deep copies), and pins the class layout the\n"
        "determinism digest relies on.  The marker makes the requirement\n"
        "explicit and machine-checked, so a refactor cannot silently drop\n"
        "the slots."
    )
    fix_example = (
        "    # repro: hot-path\n"
        "    class OutMsg:\n"
        "        __slots__ = (\"core_id\", \"ts\", \"host_time\", \"request\")"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            # The marker sits on its own line immediately above the class
            # statement (above any decorators).
            first_line = min(
                [node.lineno] + [d.lineno for d in node.decorator_list]
            )
            marked = False
            probe = first_line - 1
            while probe >= 1:
                text = ctx.line_text(probe).strip()
                if HOT_PATH_MARKER in text:
                    marked = True
                    break
                if text.startswith("#"):
                    probe -= 1  # allow further comment lines between
                    continue
                break
            if not marked:
                continue
            if not any(_declares_slots(stmt) for stmt in node.body):
                yield ctx.finding(
                    self.code, node,
                    f"class `{node.name}` is marked hot-path but defines no "
                    "__slots__",
                )


class SuppressionHygieneRule(Rule):
    """Checked by the engine after every other rule has run: a
    ``# repro: noqa[...]`` must carry a written reason, name only
    registered codes, and actually suppress something on its line."""

    code = "RPR008"
    name = "suppression-hygiene"
    summary = "malformed, unexplained, or unused noqa suppression"
    rationale = (
        "Inline suppressions are load-bearing documentation: a future reader\n"
        "must learn *why* the invariant is waived here, and a suppression\n"
        "that no longer matches any finding silently rots.  The engine\n"
        "therefore rejects `# repro: noqa[RPRxxx]` comments with no reason\n"
        "text, with codes that are not registered, or that suppress nothing\n"
        "on their line.  Every rule runs in the same `repro lint` pass, so\n"
        "an unused code is proven unused whatever rule it names; the fix is\n"
        "to delete it."
    )
    fix_example = (
        "    # bad:\n"
        "    self._beats = beats + 1  # repro: noqa[RPR103]\n"
        "    # good:\n"
        "    self._beats = beats + 1  # repro: noqa[RPR103] single writer: "
        "only the heartbeat task touches _beats"
    )


class DeepcopyOutsideSnapshotRule(Rule):
    code = "RPR009"
    name = "deepcopy-outside-snapshot"
    summary = "copy.deepcopy of simulation state outside the snapshot layer"
    rationale = (
        "Checkpointing is copy-on-write (repro.core.snapshot): dirty content\n"
        "pages plus a residue walk whose cost scales with *writes*, not with\n"
        "state size.  A stray copy.deepcopy of simulation state anywhere\n"
        "else in the critical packages reintroduces the O(state) full-copy\n"
        "cost benchmarks/bench_checkpoint.py exists to keep out — and,\n"
        "worse, bypasses the memo stubs that keep the flat cache banks\n"
        "shared, so the copy silently diverges from the snapshot protocol.\n"
        "Only core/snapshot.py and core/checkpoint.py may call it; class\n"
        "__deepcopy__/__copy__ hooks recursing with an explicit memo are the\n"
        "protocol itself and stay exempt."
    )
    fix_example = (
        "    # bad (inside repro/core/..., outside the snapshot layer):\n"
        "    saved = copy.deepcopy(sim.state)\n"
        "    # good: go through the COW layer\n"
        "    snap = take(sim.state)          # repro.core.snapshot\n"
        "    ... \n"
        "    sim.state = restore(snap)"
    )

    _ALLOWED_SUFFIXES = ("core/snapshot.py", "core/checkpoint.py")
    _EXEMPT_FUNCS = frozenset({"__deepcopy__", "__copy__", "__reduce__"})

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if not ctx.in_critical_package:
            return
        path = ctx.path.replace("\\", "/")
        if path.endswith(self._ALLOWED_SUFFIXES):
            return
        exempt_spans: List[Tuple[int, int]] = []
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in self._EXEMPT_FUNCS
            ):
                exempt_spans.append((node.lineno, node.end_lineno or node.lineno))
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.resolve_call(node)
            if target != "copy.deepcopy":
                continue
            line = node.lineno
            if any(lo <= line <= hi for lo, hi in exempt_spans):
                continue
            yield ctx.finding(
                self.code, node,
                "copy.deepcopy of simulation state outside core/snapshot.py; "
                "checkpoints must go through the COW snapshot layer",
            )

