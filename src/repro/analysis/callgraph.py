"""Project-wide call graph: the one parse every lint rule runs on.

The per-file rules in :mod:`repro.analysis.rules` look at one file at a
time; the whole-program rules (RPR101, RPR103) need to know *who calls
whom across the project* — a wall-clock read three calls below a digest
sink is exactly the leak a per-file rule cannot see.  This module builds
that graph statically, and ``repro lint`` runs both kinds of rule over
it:

- every file under the linted paths is parsed exactly once (a file that
  does not parse is recorded for the engine's RPR000) and its module is
  indexed by dotted name (``src/repro/core/report.py`` ->
  ``repro.core.report``); the per-file rules read the same
  :class:`ModuleInfo` tree, imports and suppressions;
- every function and method gets a :class:`FunctionInfo` keyed by its
  fully-qualified name (``repro.core.report.SimulationReport.digest``);
  nested defs and lambdas are folded into their enclosing named function
  (a closure's body executes on behalf of its owner);
- call expressions are resolved through import aliases, ``self.``
  method dispatch (including project-resolvable base classes), class
  instantiation (``Foo()`` -> ``Foo.__init__``), and — as a last resort
  for attribute calls on values we cannot type — a *unique-name* match:
  if exactly one function/method in the whole project bears the called
  name, the edge is drawn; ambiguous names draw no edge.

Resolution is deliberately conservative: a missing edge costs recall, a
wrong edge costs a false finding that the repo-lints-clean acceptance
gate would then force someone to suppress.  Everything is deterministic
(sorted walks, insertion-ordered indices) so findings are stable across
runs and machines.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.noqa import Suppression, parse_suppressions

__all__ = [
    "CallSite",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectGraph",
    "build_graph",
    "dotted_name",
    "module_name_for_path",
]


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


def module_name_for_path(path: str) -> str:
    """Dotted module name for a repo-relative posix path.

    Leading ``src/`` is stripped, ``__init__.py`` maps to the package
    itself, and anything that is not under a package root still gets a
    stable (if synthetic) dotted name so test fixtures work.
    """
    norm = path.replace("\\", "/")
    if norm.startswith("src/"):
        norm = norm[len("src/"):]
    if norm.endswith(".py"):
        norm = norm[: -len(".py")]
    if norm.endswith("/__init__"):
        norm = norm[: -len("/__init__")]
    return norm.replace("/", ".")


class CallSite:
    """One resolved call edge, anchored at its source location."""

    __slots__ = ("target", "line")

    def __init__(self, target: str, line: int) -> None:
        self.target = target  # callee qualname
        self.line = line


class FunctionInfo:
    """One project function or method (nested defs folded in)."""

    __slots__ = (
        "qualname",
        "module",
        "path",
        "line",
        "node",
        "class_name",
        "calls",
    )

    def __init__(
        self,
        qualname: str,
        module: str,
        path: str,
        line: int,
        node: ast.AST,
        class_name: Optional[str],
    ) -> None:
        self.qualname = qualname
        self.module = module
        self.path = path
        self.line = line
        self.node = node
        self.class_name = class_name
        self.calls: List[CallSite] = []

    @property
    def short_name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


class ModuleInfo:
    """One parsed module: tree, imports, and its local definitions."""

    __slots__ = ("name", "path", "tree", "source", "imports", "suppressions")

    def __init__(self, name: str, path: str, tree: ast.Module, source: str) -> None:
        self.name = name
        self.path = path
        self.tree = tree
        self.source = source
        self.imports: Dict[str, str] = _import_map(tree)
        self.suppressions: Dict[int, Suppression] = parse_suppressions(source)


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


class ProjectGraph:
    """The call graph plus the class/method indexes used to resolve it."""

    def __init__(self) -> None:
        #: every parsed file, in path order
        self.files: List[ModuleInfo] = []
        #: ``(path, error)`` for every file that did not parse
        self.unparsed: List[Tuple[str, SyntaxError]] = []
        #: dotted module name -> module (the resolver's index)
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: class qualname -> {method name -> method qualname}
        self.class_methods: Dict[str, Dict[str, str]] = {}
        #: class qualname -> base class qualnames (project-resolved only)
        self.class_bases: Dict[str, List[str]] = {}
        #: bare function/method name -> every qualname that defines it
        self.by_name: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------ #

    def module_for(self, qualname: str) -> Optional[ModuleInfo]:
        fn = self.functions.get(qualname)
        return self.modules.get(fn.module) if fn is not None else None

    def resolve_method(self, class_qual: str, method: str) -> Optional[str]:
        """Look ``method`` up on a class, then its project bases (DFS)."""
        seen: List[str] = []
        stack = [class_qual]
        while stack:
            cls = stack.pop(0)
            if cls in seen:
                continue
            seen.append(cls)
            found = self.class_methods.get(cls, {}).get(method)
            if found is not None:
                return found
            stack.extend(self.class_bases.get(cls, []))
        return None

    def unique_by_name(self, name: str) -> Optional[str]:
        """The single project definition of ``name``, if unambiguous."""
        candidates = self.by_name.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None


# --------------------------------------------------------------------- #
# Graph construction
# --------------------------------------------------------------------- #


class _FunctionCollector(ast.NodeVisitor):
    """Collects top-level functions and methods of one module."""

    def __init__(self, graph: ProjectGraph, module: ModuleInfo) -> None:
        self.graph = graph
        self.module = module
        self._class_stack: List[str] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qual = ".".join([self.module.name, *self._class_stack, node.name])
        self.graph.class_methods.setdefault(qual, {})
        bases: List[str] = []
        for base in node.bases:
            dotted = dotted_name(base)
            if dotted is None:
                continue
            resolved = _resolve_dotted(self.module, dotted)
            if resolved is not None:
                bases.append(resolved)
        self.graph.class_bases[qual] = bases
        self._class_stack.append(node.name)
        for child in node.body:
            self.visit(child)
        self._class_stack.pop()

    def _register(self, node: ast.AST, name: str, line: int) -> None:
        class_name = ".".join(self._class_stack) if self._class_stack else None
        qual = ".".join([self.module.name, *self._class_stack, name])
        info = FunctionInfo(
            qual, self.module.name, self.module.path, line, node, class_name
        )
        self.graph.functions[qual] = info
        self.graph.by_name.setdefault(name, []).append(qual)
        if self._class_stack:
            class_qual = ".".join([self.module.name, *self._class_stack])
            self.graph.class_methods.setdefault(class_qual, {})[name] = qual

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._register(node, node.name, node.lineno)
        # Nested defs fold into this function: do not recurse here.

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._register(node, node.name, node.lineno)


def _resolve_dotted(module: ModuleInfo, dotted: str) -> Optional[str]:
    """Resolve ``a.b`` written in ``module`` to a fully-qualified name."""
    head, _, rest = dotted.partition(".")
    origin = module.imports.get(head)
    if origin is not None:
        return f"{origin}.{rest}" if rest else origin
    # A bare local name: qualify against the module itself.
    return f"{module.name}.{dotted}"


def _call_targets(
    graph: ProjectGraph, module: ModuleInfo, fn: FunctionInfo, node: ast.Call
) -> Optional[str]:
    """Resolve one call expression to a project function qualname."""
    dotted = dotted_name(node.func)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    if head == "self" and fn.class_name is not None and rest:
        parts = rest.split(".")
        if len(parts) == 1:
            class_qual = f"{module.name}.{fn.class_name}"
            resolved = graph.resolve_method(class_qual, parts[0])
            if resolved is not None:
                return resolved
        # self.attr.method(...): fall through to the unique-name match.
    else:
        qual = _resolve_dotted(module, dotted)
        if qual is not None:
            if qual in graph.functions:
                return qual
            if qual in graph.class_methods:  # instantiation
                init = graph.resolve_method(qual, "__init__")
                if init is not None:
                    return init
                return None
    # Last resort for attribute calls on values we cannot type: a method
    # name defined exactly once in the whole project is an unambiguous
    # target; anything else draws no edge.
    if "." in dotted:
        leaf = dotted.rsplit(".", 1)[-1]
        unique = graph.unique_by_name(leaf)
        if unique is not None and unique != fn.qualname:
            return unique
    return None


def _collect_calls(graph: ProjectGraph) -> None:
    for qual in graph.functions:
        fn = graph.functions[qual]
        module = graph.modules[fn.module]
        for node in ast.walk(fn.node):  # includes nested defs/lambdas
            if not isinstance(node, ast.Call):
                continue
            target = _call_targets(graph, module, fn, node)
            if target is None:
                continue
            fn.calls.append(CallSite(target, getattr(node, "lineno", fn.line)))


def build_graph(
    files: Sequence[Tuple[str, str]],
) -> ProjectGraph:
    """Build the project graph from ``(repo-relative path, source)`` pairs.

    Each distinct path is parsed once.  A file that fails to parse is
    listed in ``graph.unparsed`` and left out of the graph; a partial
    graph is still useful.
    """
    graph = ProjectGraph()
    for path, source in sorted(dict(files).items()):
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            graph.unparsed.append((path, exc))
            continue
        name = module_name_for_path(path)
        module = ModuleInfo(name, path, tree, source)
        graph.files.append(module)
        graph.modules[name] = module
    for name in graph.modules:
        module = graph.modules[name]
        collector = _FunctionCollector(graph, module)
        for child in module.tree.body:
            collector.visit(child)
    _collect_calls(graph)
    return graph

