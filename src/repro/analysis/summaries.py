"""Per-function nondeterminism summaries for the interprocedural taint pass.

For every function in the :class:`~repro.analysis.callgraph.ProjectGraph`
this module answers one question: *does this body, locally, observe
host-dependent state?*  The answer is a list of :class:`Source` records —
kind, line, and the offending expression — that :mod:`repro.analysis.flow`
then propagates backwards along call edges into digest-critical sinks.

Source kinds (mirroring the syntactic rules, but project-wide):

``wall-clock``
    ``time.time()`` & friends, ``datetime.now()`` — the RPR001 table.
``entropy``
    ``os.urandom``, ``uuid4``, ``secrets.*``, unseeded ``random.*`` —
    the RPR002 table plus its seeded-``random.Random(seed)`` carve-out.
``id``
    ``id(obj)`` outside the ``__deepcopy__``/``__copy__``/``__reduce__``
    memo protocol (the RPR003 exemption).
``set-iteration``
    iteration over an unordered ``set``/``frozenset`` that is not passed
    through the ``sorted(...)`` barrier.
``env-read``
    ``os.environ[...]`` / ``os.environ.get`` / ``os.getenv`` — host
    configuration leaking into behaviour.

Sanitizers recognized here (a sanitized expression is *not* a source):

- ``sorted(<set expr>)`` — an ordering barrier for set iteration;
- ``random.Random(seed)`` with an explicit seed argument — deterministic
  given the seed;
- the project's own seeded generators (``SplitMix64``, ``XorShift64``)
  are ordinary deterministic code and never match the tables at all.

A ``# repro: noqa[...]`` on the source line naming the matching
per-file code (RPR001–RPR004) mutes the source, and the flow through it
uses that code (so RPR008 does not call the waiver unused): a reviewed,
reasoned waiver at the source is a waiver for every path through it.  A
``noqa[RPR101]`` there instead suppresses the flow finding itself.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional

from repro.analysis.callgraph import (
    FunctionInfo,
    ModuleInfo,
    ProjectGraph,
    dotted_name,
)
from repro.analysis.rules import (
    ENTROPY_CALLS,
    ENTROPY_PREFIXES,
    WALL_CLOCK_CALLS,
)

__all__ = ["Source", "SOURCE_CODES", "function_sources"]

#: Which per-file rule code covers each source kind — a noqa naming that
#: code on the source line mutes the flow source too.
SOURCE_CODES: Dict[str, str] = {
    "wall-clock": "RPR001",
    "entropy": "RPR002",
    "id": "RPR003",
    "set-iteration": "RPR004",
    "env-read": "RPR001",  # same family: host state observed at runtime
}

#: Functions whose bodies are the deepcopy memo protocol itself.
_MEMO_PROTOCOL_FUNCS = frozenset({"__deepcopy__", "__copy__", "__reduce__"})

#: Environment-read call targets.
_ENV_CALLS = frozenset({"os.getenv", "os.environ.get", "os.environ.setdefault"})


class Source:
    """One local nondeterminism observation inside one function."""

    __slots__ = ("kind", "qualname", "path", "line", "detail")

    def __init__(
        self, kind: str, qualname: str, path: str, line: int, detail: str
    ) -> None:
        self.kind = kind
        self.qualname = qualname
        self.path = path
        self.line = line
        self.detail = detail

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Source({self.kind} at {self.path}:{self.line})"


def _resolve_call(module: ModuleInfo, node: ast.Call) -> Optional[str]:
    """Fully-dotted call target through the module's import aliases."""
    dotted = dotted_name(node.func)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    resolved = module.imports.get(head, head)
    return f"{resolved}.{rest}" if rest else resolved


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _muted(module: ModuleInfo, line: int, kind: str) -> bool:
    """True when a noqa on ``line`` names the kind's per-file rule code.

    A reviewed per-file waiver (``noqa[RPR001] operational timestamp``)
    mutes the flow source outright and is marked used, so RPR008 reports
    it unused only once no flow (and no per-file finding) passes through
    it.  ``noqa[RPR101]`` is deliberately *not* handled here: the flow
    finding is still produced and consumed by the engine's suppression
    pass, which marks it used the same way.
    """
    suppression = module.suppressions.get(line)
    if suppression is None:
        return False
    return suppression.suppresses(SOURCE_CODES[kind], line)


def function_sources(graph: ProjectGraph, fn: FunctionInfo) -> List[Source]:
    """All local nondeterminism sources in one function body."""
    module = graph.modules[fn.module]

    def emit(kind: str, node: ast.AST, detail: str) -> Iterator[Source]:
        line = getattr(node, "lineno", fn.line)
        if _muted(module, line, kind):
            return
        yield Source(kind, fn.qualname, fn.path, line, detail)

    out: List[Source] = []
    memo_protocol = fn.short_name in _MEMO_PROTOCOL_FUNCS
    # sorted(...) is an ordering barrier: remember the set expressions it
    # wraps so the iteration walk below skips them.
    sanitized: List[ast.AST] = []
    for node in ast.walk(fn.node):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sorted"
            and node.args
        ):
            sanitized.append(node.args[0])

    for node in ast.walk(fn.node):
        if isinstance(node, ast.Call):
            target = _resolve_call(module, node)
            if target is not None:
                if target in WALL_CLOCK_CALLS:
                    out.extend(emit("wall-clock", node, f"{target}()"))
                elif (
                    target in ENTROPY_CALLS
                    or target.startswith(ENTROPY_PREFIXES)
                    or target == "random.SystemRandom"
                    or (
                        target.startswith("random.")
                        and not (
                            target == "random.Random"
                            and (node.args or node.keywords)
                        )
                    )
                ):
                    out.extend(emit("entropy", node, f"{target}()"))
                elif target in _ENV_CALLS:
                    out.extend(emit("env-read", node, f"{target}()"))
            if (
                isinstance(node.func, ast.Name)
                and node.func.id == "id"
                and len(node.args) == 1
                and not memo_protocol
            ):
                out.extend(emit("id", node, "id()"))
        elif isinstance(node, ast.Subscript):
            dotted = dotted_name(node.value)
            if dotted is not None:
                head = dotted.partition(".")[0]
                resolved = module.imports.get(head, head)
                full = resolved + dotted[len(head):]
                if full == "os.environ":
                    out.extend(emit("env-read", node, "os.environ[...]"))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if _is_set_expr(node.iter) and node.iter not in sanitized:
                out.extend(emit("set-iteration", node.iter, "for ... in <set>"))
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for gen in node.generators:
                if _is_set_expr(gen.iter) and gen.iter not in sanitized:
                    out.extend(
                        emit("set-iteration", gen.iter, "comprehension over <set>")
                    )
    return out

