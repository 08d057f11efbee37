"""repro.analysis — determinism linter and runtime slack sanitizer.

The reproduction's whole value rests on two fragile properties:

- **bit-for-bit determinism** — ``repro bench`` checks the digest matrix
  against ``benchmarks/golden_kernel.json`` on every PR, and

- **the paper's timing invariants** — bounded slack never exceeds ``b``,
  ``global_time == min(local_time)`` over running cores, and a rollback
  restores exactly the checkpointed state.

End-to-end digest comparison tells you *that* one of them broke, never
*where*.  This package enforces them directly, at two layers:

- a **static determinism linter** (``python -m repro lint``): one parse
  of the tree, then every rule over it — per-file AST rules (RPR001–009)
  that generic linters cannot express (no wall-clock or entropy sources
  inside determinism-critical packages, no iteration over unordered
  containers in digest-affecting paths, ``__slots__`` on
  hot-path-marked classes, telemetry reached only through the guarded
  probe seams, no heavyweight imports in ``core/``), and two
  whole-program rules over the shared project call graph:
  interprocedural taint flow from nondeterminism sources into
  digest-critical sinks with full source→call-chain→sink witness paths
  (RPR101), and asyncio read-modify-write-across-await atomicity in the
  service and fabric layers (RPR103).  Suppressions are applied once,
  and RPR008 proves each ``noqa`` code used or unused against every
  rule;

- a **runtime slack sanitizer** ("SlackSan", ``repro run --sanitize``):
  an opt-in checker wired through the same seams the telemetry probes use,
  maintaining per-core vector clocks and asserting the paper's invariants
  while the simulation runs.  Violations raise a structured
  :class:`~repro.analysis.sanitizer.SanitizerError` naming the invariant,
  the cores involved, and the cycle.
"""

from repro.analysis.callgraph import ProjectGraph, build_graph
from repro.analysis.engine import (
    RULES,
    LintResult,
    explain_rule,
    lint_files,
    lint_paths,
    lint_source,
    read_files,
)
from repro.analysis.findings import Finding
from repro.analysis.rules import Rule
from repro.analysis.sanitizer import SanitizerError, SlackSanitizer, state_digest

__all__ = [
    "Finding",
    "LintResult",
    "ProjectGraph",
    "RULES",
    "Rule",
    "SanitizerError",
    "SlackSanitizer",
    "build_graph",
    "explain_rule",
    "lint_files",
    "lint_paths",
    "lint_source",
    "read_files",
    "state_digest",
]
