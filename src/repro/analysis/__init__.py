"""repro.analysis — determinism linter and runtime slack sanitizer.

The reproduction's whole value rests on two fragile properties:

- **bit-for-bit determinism** — ``repro bench`` checks the digest matrix
  against ``benchmarks/golden_kernel.json`` on every PR, and

- **the paper's timing invariants** — bounded slack never exceeds ``b``,
  ``global_time == min(local_time)`` over running cores, and a rollback
  restores exactly the checkpointed state.

End-to-end digest comparison tells you *that* one of them broke, never
*where*.  This package enforces them directly, at two layers:

- a **static determinism linter** (``python -m repro lint``): an AST pass
  with repo-specific rules (codes ``RPR001+``) that generic linters cannot
  express — no wall-clock or entropy sources inside determinism-critical
  packages, no iteration over unordered containers in digest-affecting
  paths, ``__slots__`` on hot-path-marked classes, telemetry reached only
  through the guarded probe seams, no heavyweight imports in ``core/``;

- a **whole-program analyzer** (``python -m repro analyze``, or
  ``repro lint --deep`` to run both layers at once): two passes over a
  shared project call graph — interprocedural taint flow from
  nondeterminism sources into digest-critical sinks with full
  source→call-chain→sink witness paths (RPR101), and asyncio
  read-modify-write-across-await atomicity in the service and fabric
  layers (RPR103);

- a **runtime slack sanitizer** ("SlackSan", ``repro run --sanitize``):
  an opt-in checker wired through the same seams the telemetry probes use,
  maintaining per-core vector clocks and asserting the paper's invariants
  while the simulation runs.  Violations raise a structured
  :class:`~repro.analysis.sanitizer.SanitizerError` naming the invariant,
  the cores involved, and the cycle.
"""

from repro.analysis.baseline import Baseline
from repro.analysis.callgraph import ProjectGraph, build_graph
from repro.analysis.engine import (
    ALL_RULES,
    DEEP_RULES,
    LintResult,
    analyze_paths,
    explain_rule,
    lint_paths,
    lint_source,
)
from repro.analysis.findings import Finding
from repro.analysis.fixes import fix_unused_noqa
from repro.analysis.rules import RULES, Rule
from repro.analysis.sanitizer import SanitizerError, SlackSanitizer, state_digest

__all__ = [
    "ALL_RULES",
    "Baseline",
    "DEEP_RULES",
    "Finding",
    "LintResult",
    "ProjectGraph",
    "RULES",
    "Rule",
    "SanitizerError",
    "SlackSanitizer",
    "analyze_paths",
    "build_graph",
    "explain_rule",
    "fix_unused_noqa",
    "lint_paths",
    "lint_source",
    "state_digest",
]
