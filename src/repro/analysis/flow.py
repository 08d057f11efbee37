"""RPR101 — interprocedural determinism taint analysis.

The syntactic rules guard a hand-listed set of critical packages; this
pass derives criticality from the call graph instead.  Every function
transitively reachable from a **digest-critical sink** executes on the
digest path, so a nondeterminism source anywhere in that call tree —
however many modules away — makes the sink's output host-dependent.

Sinks (the functions whose output must be a pure function of
``(configuration, seed)``):

==========================================  ===========================
``repro.core.report.*.digest``              the report digest the 13-case
                                            bench matrix gates on
``repro.core.epochs.encode_machine``        machine-state encoding
``repro.service.protocol.spec_to_wire``     RunSpec wire encoding
``repro.service.protocol.encode_line``      service wire lines
``repro.service.store.*._append``           WAL records
``repro.core.snapshot.take``                checkpoint capture
``repro.harness.cache.fingerprint``         result-cache spec identity
==========================================  ===========================

For each sink the pass walks call edges breadth-first (so every witness
is a *shortest* chain), and for every reachable function consults the
:mod:`~repro.analysis.summaries` source list.  A hit produces one
finding per ``(source line, sink)`` pair, anchored at the **source**
line — that is where a reasoned ``# repro: noqa[RPR101]`` (or the
matching per-file code) belongs, because a waiver at the source covers
every path through it.

The finding message carries the full witness chain, rendered
sink-outward::

    wall-clock source `time.time()` reaches digest sink
    `repro.core.report.SimulationReport.digest` via
    digest (src/repro/core/report.py:160) -> _walltime (src/.../util.py:12)
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

from repro.analysis.callgraph import CallSite, ProjectGraph
from repro.analysis.findings import Finding
from repro.analysis.rules import Rule
from repro.analysis.summaries import Source, function_sources

__all__ = ["SINKS", "SinkSpec", "TaintFlowRule", "taint_findings"]


class SinkSpec:
    """One digest-critical sink: (module, function-or-method name)."""

    __slots__ = ("module", "name", "label")

    def __init__(self, module: str, name: str, label: str) -> None:
        self.module = module
        self.name = name
        self.label = label

    def matches(self, qualname: str, module: str, short_name: str) -> bool:
        return module == self.module and short_name == self.name


#: The default sink table for this repository.
SINKS: Tuple[SinkSpec, ...] = (
    SinkSpec("repro.core.report", "digest", "report digest"),
    SinkSpec("repro.core.epochs", "encode_machine", "machine-state encoding"),
    SinkSpec("repro.service.protocol", "spec_to_wire", "RunSpec wire encoding"),
    SinkSpec("repro.service.protocol", "encode_line", "service wire line"),
    SinkSpec("repro.service.store", "_append", "WAL record"),
    SinkSpec("repro.core.snapshot", "take", "checkpoint capture"),
    SinkSpec("repro.harness.cache", "fingerprint", "result-cache fingerprint"),
)


def _sink_roots(graph: ProjectGraph, sinks: Sequence[SinkSpec]) -> List[Tuple[str, SinkSpec]]:
    roots: List[Tuple[str, SinkSpec]] = []
    for qualname in graph.functions:
        fn = graph.functions[qualname]
        for spec in sinks:
            if spec.matches(qualname, fn.module, fn.short_name):
                roots.append((qualname, spec))
    return roots


def _shortest_paths(
    graph: ProjectGraph, root: str
) -> Dict[str, List[Tuple[str, CallSite]]]:
    """BFS from a sink root along call edges.

    Returns, for every reachable function, the chain of
    ``(caller qualname, call site)`` hops leading from the root to it.
    The root maps to an empty chain.
    """
    paths: Dict[str, List[Tuple[str, CallSite]]] = {root: []}
    queue: List[str] = [root]
    while queue:
        current = queue.pop(0)
        fn = graph.functions.get(current)
        if fn is None:
            continue
        for site in fn.calls:
            if site.target in paths:
                continue
            paths[site.target] = paths[current] + [(current, site)]
            queue.append(site.target)
    return paths


def _render_chain(
    graph: ProjectGraph, root: str, chain: List[Tuple[str, CallSite]]
) -> str:
    """``digest (path:12) -> helper (path:40) -> leaf`` — sink outward."""
    parts: List[str] = []
    for caller, site in chain:
        caller_fn = graph.functions[caller]
        parts.append(f"{caller_fn.short_name} ({caller_fn.path}:{site.line})")
    if chain:
        leaf = graph.functions.get(chain[-1][1].target)
        if leaf is not None:
            parts.append(leaf.short_name)
    else:
        root_fn = graph.functions[root]
        parts.append(f"{root_fn.short_name} ({root_fn.path}:{root_fn.line})")
    return " -> ".join(parts)


def taint_findings(
    graph: ProjectGraph, sinks: Sequence[SinkSpec] = SINKS
) -> Iterator[Finding]:
    """All RPR101 findings for the project graph.

    Deterministic: sinks in table order, reachable functions in BFS
    order, one finding per ``(source path, source line, sink root)``.
    """
    source_cache: Dict[str, List[Source]] = {}
    seen: set = set()
    for root, spec in _sink_roots(graph, sinks):
        paths = _shortest_paths(graph, root)
        for qualname in paths:
            fn = graph.functions.get(qualname)
            if fn is None:
                continue
            if qualname not in source_cache:
                source_cache[qualname] = function_sources(graph, fn)
            for source in source_cache[qualname]:
                key = (source.path, source.line, root)
                if key in seen:
                    continue
                seen.add(key)
                chain = _render_chain(graph, root, paths[qualname])
                yield Finding(
                    "RPR101",
                    source.path,
                    source.line,
                    1,
                    f"{source.kind} source `{source.detail}` reaches "
                    f"{spec.label} sink `{root}` via {chain}",
                )


class TaintFlowRule(Rule):
    """Registry entry for RPR101 (checked project-wide, not per-file)."""

    code = "RPR101"
    name = "taint-flow"
    summary = "nondeterminism source reaches a digest-critical sink"
    rationale = (
        "The report digest, the machine-state encoding, the WAL, the RunSpec\n"
        "cache key, and checkpoint capture must each be a pure function of\n"
        "(configuration, seed).  The syntactic rules (RPR001-004) guard a\n"
        "hand-listed set of critical packages; this pass instead walks the\n"
        "project call graph from each digest sink and flags any wall-clock\n"
        "read, entropy draw, id() use, unordered-set iteration, or\n"
        "environment read reachable from it — however many call hops away\n"
        "and in whichever package it lives.  The finding's message carries\n"
        "the full sink -> ... -> source witness chain.  Suppress at the\n"
        "source line (never at the sink) with a written reason.  A noqa\n"
        "naming the matching per-file code (RPR001-004) mutes the flow\n"
        "source too, in any package, and the flow counts as its use: once\n"
        "no flow passes through it, RPR008 reports it unused."
    )
    fix_example = (
        "    # bad: three calls below SimulationReport.digest\n"
        "    def _stamp(self):\n"
        "        return time.time()\n"
        "    # good: thread host timing in from the harness, outside the\n"
        "    # digest call tree, or model it via the host cost model."
    )

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        return taint_findings(graph)
