"""The per-file determinism rules (codes ``RPR001``–``RPR009``).

Every rule encodes an invariant of *this* repository that a generic linter
cannot express, because it depends on which packages feed the report
digest and on the engine's probe-seam conventions:

========  =====================================================
RPR001    wall-clock reads in determinism-critical packages
RPR002    entropy sources in determinism-critical packages
RPR003    ``id()`` values in determinism-critical packages
RPR004    iteration over unordered ``set`` containers
RPR005    ``__slots__`` required on ``# repro: hot-path`` classes
RPR006    telemetry reached outside the guarded probe seam
RPR007    heavyweight imports inside ``repro.core``
RPR008    suppression hygiene (reasonless / unknown / unused noqa)
RPR009    ``copy.deepcopy`` of simulation state outside the snapshot layer
========  =====================================================

These rules run over the AST of one file at a time; a
:class:`LintContext` carries the parsed tree, the raw source lines, and
the module's location so rules can scope themselves to the packages they
guard.  :class:`Rule` is also the base of the whole-program rules
(RPR101 in :mod:`~repro.analysis.flow`, RPR103 in
:mod:`~repro.analysis.async_rules`), which check the project graph
instead; :mod:`~repro.analysis.engine` holds the registry of all eleven.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.analysis.callgraph import ModuleInfo, ProjectGraph, dotted_name
from repro.analysis.findings import Finding

#: Packages whose behaviour feeds the report digest.  A wall-clock read or
#: entropy draw anywhere in here breaks the "same seed => same digest"
#: contract that gates every PR.  ``fabric`` is in scope because workers
#: replay RunSpecs and publish digests to the shared store: any
#: nondeterminism there poisons cross-host result comparison.  Its
#: legitimate wall-clock uses (timeouts, heartbeats, latency telemetry)
#: carry reasoned RPR001 suppressions.
CRITICAL_PACKAGES = ("core", "cpu", "memory", "workloads", "isa", "sync", "fabric")

#: Individual modules outside those packages that are nonetheless
#: digest-critical.  Two runs cut at one position must encode byte-equal;
#: a clock or entropy draw in the machine encoder would make that
#: host-dependent.  (repro.core.epochs is already covered by the ``core``
#: package; it is listed here so the scope survives a future move out of
#: core.)
CRITICAL_MODULES = ("repro/core/epochs.py",)

#: The marker comment that declares a class hot-path (RPR005 then requires
#: ``__slots__`` on it, forever).
HOT_PATH_MARKER = "# repro: hot-path"

#: Modules that must never be imported from ``repro.core``: serialization,
#: process/thread machinery, I/O, filesystem, numerics-stack heavyweights,
#: and the time/entropy modules (already forbidden call-wise by
#: RPR001/RPR002 — forbidding the import catches them earlier).
CORE_FORBIDDEN_IMPORTS = frozenset(
    {
        "asyncio",
        "concurrent",
        "ctypes",
        "datetime",
        "http",
        "importlib",
        "json",
        "matplotlib",
        "multiprocessing",
        "numpy",
        "os",
        "pandas",
        "pathlib",
        "pickle",
        "random",
        "scipy",
        "secrets",
        "shutil",
        "socket",
        "subprocess",
        "tempfile",
        "threading",
        "time",
        "urllib",
        "uuid",
    }
)

#: Wall-clock call targets (RPR001), as fully-dotted names.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.thread_time",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Entropy call targets (RPR002).  ``random.*`` module-level functions are
#: matched by prefix; ``random.Random(seed)`` with an explicit seed is the
#: one allowed spelling (deterministic given the seed).
ENTROPY_CALLS = frozenset({"os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4"})
ENTROPY_PREFIXES = ("secrets.", "numpy.random.")


class LintContext:
    """Everything a rule needs to check one file: its parsed module."""

    def __init__(self, module: ModuleInfo) -> None:
        self.path = module.path  # repo-relative, posix separators
        self.lines = module.source.splitlines()
        self.tree = module.tree
        self._imports = module.imports
        parts = self.path.replace("\\", "/").split("/")
        # Locate the module inside the package: .../repro/<pkg>/...
        self.package: Optional[str] = None
        if "repro" in parts:
            tail = parts[parts.index("repro") + 1 :]
            if len(tail) > 1:
                self.package = tail[0]

    @property
    def in_critical_package(self) -> bool:
        if self.package in CRITICAL_PACKAGES:
            return True
        norm = self.path.replace("\\", "/")
        return any(norm.endswith(mod) for mod in CRITICAL_MODULES)

    @property
    def in_core(self) -> bool:
        return self.package == "core"

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def resolve_call(self, node: ast.Call) -> Optional[str]:
        """Fully-dotted name of a call target, through import aliases.

        ``from time import time as now; now()`` resolves to ``time.time``;
        ``import datetime as dt; dt.datetime.now()`` resolves to
        ``datetime.datetime.now``.  Returns None for calls on computed
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
    """One registered determinism rule.

    A per-file rule overrides :meth:`check`, a whole-program rule
    :meth:`check_project`; the engine calls both on every rule.
    """

    code: str = ""
    name: str = ""
    summary: str = ""
    rationale: str = ""
    fix_example: str = ""

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        return iter(())

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        return iter(())


class WallClockRule(Rule):
    code = "RPR001"
    name = "wall-clock-read"
    summary = "wall-clock read inside a determinism-critical package"
    rationale = (
        "Simulation results must be a pure function of (configuration, seed).\n"
        "A wall-clock read (time.time, time.perf_counter, datetime.now, ...)\n"
        "inside core/, cpu/, memory/, workloads/, isa/, or sync/ leaks host\n"
        "timing into simulation state, so two identical runs diverge and the\n"
        "digests in benchmarks/golden_kernel.json can no longer gate refactors.\n"
        "Wall-clock measurement belongs in the harness (bench walls) or the\n"
        "telemetry layer, both outside the digest-affecting packages."
    )
    fix_example = (
        "    # bad (inside repro/core/...):\n"
        "    started = time.perf_counter()\n"
        "    # good: model host time explicitly ...\n"
        "    cost_ns += cost_model.manager_cycle_ns\n"
        "    # ... or measure in the harness, outside the critical packages."
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if not ctx.in_critical_package:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                target = ctx.resolve_call(node)
                if target in WALL_CLOCK_CALLS:
                    yield ctx.finding(
                        self.code, node, f"wall-clock read `{target}()` in "
                        f"determinism-critical package `{ctx.package}/`"
                    )


class EntropyRule(Rule):
    code = "RPR002"
    name = "entropy-source"
    summary = "non-seeded entropy source inside a determinism-critical package"
    rationale = (
        "Every random draw in the simulation must come from an explicitly\n"
        "seeded generator forked from the run seed (repro.util.SplitMix64 /\n"
        "XorShift64), so that runs replay bit-for-bit.  os.urandom, uuid4,\n"
        "secrets, and module-level random.* functions draw from hidden global\n"
        "or kernel state and silently break replayability.  random.Random()\n"
        "without a seed argument seeds itself from the OS and is equally\n"
        "forbidden; random.Random(seed) is tolerated."
    )
    fix_example = (
        "    # bad:\n"
        "    jitter = random.random()\n"
        "    # good:\n"
        "    rng = SplitMix64(host.seed).fork()\n"
        "    jitter = rng.next_float()"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if not ctx.in_critical_package:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.resolve_call(node)
            if target is None:
                continue
            bad = (
                target in ENTROPY_CALLS
                or target.startswith(ENTROPY_PREFIXES)
                or target == "random.SystemRandom"
                or (
                    target.startswith("random.")
                    and not (target == "random.Random" and (node.args or node.keywords))
                )
            )
            if bad:
                yield ctx.finding(
                    self.code, node, f"entropy source `{target}` in "
                    f"determinism-critical package `{ctx.package}/`"
                )


class IdAsKeyRule(Rule):
    code = "RPR003"
    name = "id-as-key"
    summary = "id() value used inside a determinism-critical package"
    rationale = (
        "id() returns a host memory address: stable within one process, but\n"
        "different on every run.  Using it as a dict key, sort key, or tie\n"
        "breaker makes container ordering (and anything derived from it)\n"
        "address-dependent, which surfaces as digest drift that only\n"
        "reproduces on some machines.  The one legitimate use — the deepcopy\n"
        "memo protocol (`memo[id(self)] = new`) — is exempted when it appears\n"
        "inside __deepcopy__/__copy__/__reduce__."
    )
    fix_example = (
        "    # bad:\n"
        "    order[id(msg)] = seq\n"
        "    # good: key on stable simulation identity\n"
        "    order[(msg.core_id, msg.ts)] = seq"
    )

    _EXEMPT_FUNCS = frozenset({"__deepcopy__", "__copy__", "__reduce__"})

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if not ctx.in_critical_package:
            return
        exempt_spans: List[Tuple[int, int]] = []
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in self._EXEMPT_FUNCS
            ):
                exempt_spans.append((node.lineno, node.end_lineno or node.lineno))
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"
                and len(node.args) == 1
            ):
                line = node.lineno
                if any(lo <= line <= hi for lo, hi in exempt_spans):
                    continue
                yield ctx.finding(
                    self.code, node,
                    "id() is a host memory address; key on stable simulation "
                    "identity instead",
                )


class UnorderedIterationRule(Rule):
    code = "RPR004"
    name = "unordered-iteration"
    summary = "iteration over an unordered set in a determinism-critical package"
    rationale = (
        "Python sets iterate in hash order, which for str/object elements is\n"
        "salted per process: the same set can yield a different order on the\n"
        "next run.  Iterating one in a digest-affecting path (serving events,\n"
        "walking sharers, accumulating statistics) reorders effects and\n"
        "drifts the digest.  dicts are exempt — insertion order is part of\n"
        "the language — so the fix is usually sorted(...) or an\n"
        "insertion-ordered dict keyed by the same elements."
    )
    fix_example = (
        "    # bad:\n"
        "    for line in set(dirty_lines): flush(line)\n"
        "    # good:\n"
        "    for line in sorted(set(dirty_lines)): flush(line)"
    )

    _ORDER_EXPOSING_WRAPPERS = frozenset({"list", "tuple", "enumerate", "reversed"})

    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if not ctx.in_critical_package:
            return
        for node in ast.walk(ctx.tree):
            iters: List[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in self._ORDER_EXPOSING_WRAPPERS
                and node.args
            ):
                iters.append(node.args[0])
            for it in iters:
                if self._is_set_expr(it):
                    yield ctx.finding(
                        self.code, it,
                        "iteration over an unordered set; wrap in sorted(...) "
                        "or use an insertion-ordered container",
                    )


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
            has_slots = any(
                isinstance(stmt, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in stmt.targets
                )
                for stmt in node.body
            )
            if not has_slots:
                yield ctx.finding(
                    self.code, node,
                    f"class `{node.name}` is marked hot-path but defines no "
                    "__slots__",
                )


class TelemetrySeamRule(Rule):
    code = "RPR006"
    name = "telemetry-seam"
    summary = "telemetry reached outside the guarded probe seam"
    rationale = (
        "The engine's telemetry contract (DESIGN.md \"Telemetry probes\") is\n"
        "that every probe site binds the session to a local and guards it:\n"
        "`tel = self.telemetry` / `if tel is not None and tel.enabled:`.\n"
        "Calling through the raw attribute (`self.telemetry.on_x(...)`)\n"
        "skips the None/enabled guard — it crashes detached runs, and it\n"
        "drags probe overhead into the disabled fast path whose bytecode\n"
        "budget tests/test_scheduler.py pins.  Importing telemetry submodule\n"
        "internals (tracer/metrics/sampler) into critical packages couples\n"
        "the engine to telemetry implementation details; only the package\n"
        "root (the NULL_REGISTRY-safe seam) is a legal import."
    )
    fix_example = (
        "    # bad:\n"
        "    self.telemetry.on_gq_event(kind)\n"
        "    # good:\n"
        "    tel = self.telemetry\n"
        "    if tel is not None and tel.enabled:\n"
        "        tel.on_gq_event(kind)"
    )

    _INTERNAL_MODULES = (
        "repro.telemetry.tracer",
        "repro.telemetry.metrics",
        "repro.telemetry.sampler",
        "repro.telemetry.session",
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if not ctx.in_critical_package:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                value = node.func.value
                if isinstance(value, ast.Attribute) and value.attr == "telemetry":
                    yield ctx.finding(
                        self.code, node,
                        "call through the raw `.telemetry` attribute; bind to "
                        "a local and guard `is not None and .enabled`",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module in self._INTERNAL_MODULES:
                    yield ctx.finding(
                        self.code, node,
                        f"import of telemetry internals `{node.module}`; "
                        "critical packages may import only the "
                        "`repro.telemetry` package root",
                    )


class CoreImportRule(Rule):
    code = "RPR007"
    name = "core-heavyweight-import"
    summary = "forbidden heavyweight import inside repro.core"
    rationale = (
        "repro.core is the checkpointable simulation kernel: importing\n"
        "serialization, I/O, process/thread, filesystem, or numerics-stack\n"
        "modules there either adds nondeterministic state (time, random),\n"
        "breaks deep-copy checkpointing (sockets, threads), or bloats the\n"
        "per-worker import cost the parallel fleet pays in every pool\n"
        "process.  Harness concerns (json, pathlib, os) belong in\n"
        "repro.harness; entropy and clocks are banned outright (RPR001/2).\n"
        "Only module-level imports are flagged: a function-local import in\n"
        "a cold path (report serialization, an error formatter) is the\n"
        "sanctioned lazy-import escape hatch — it costs nothing at kernel\n"
        "import time and cannot leak into the deep-copied state.  The rule\n"
        "reads only repro.core's own import statements; what a whole\n"
        "kernel or job process loads (package __init__ files included) is\n"
        "pinned as a module set by tests/test_import_closure.py."
    )
    fix_example = (
        "    # bad (inside repro/core/..., module level):\n"
        "    import json\n"
        "    # good: return plain data and serialize in repro.harness,\n"
        "    # or lazy-import inside the cold method that needs it:\n"
        "    def to_json(self):\n"
        "        import json\n"
        "        return json.dumps(self.to_dict())"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if not ctx.in_core:
            return
        # Module level only (direct statements, plus inside `if` guards
        # such as TYPE_CHECKING blocks); imports nested in function bodies
        # are deliberate lazy imports and stay out of the kernel's import
        # cost and checkpointed state.
        stack: List[ast.stmt] = list(ctx.tree.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.If, ast.Try)):
                for body in ast.iter_child_nodes(node):
                    if isinstance(body, ast.stmt):
                        stack.append(body)
                continue
            names: List[Tuple[ast.AST, str]] = []
            if isinstance(node, ast.Import):
                names = [(node, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                names = [(node, node.module)]
            for where, dotted in names:
                top = dotted.partition(".")[0]
                if top in CORE_FORBIDDEN_IMPORTS:
                    yield ctx.finding(
                        self.code, where,
                        f"heavyweight module-level import `{dotted}` in "
                        "repro.core; move the concern to the harness/"
                        "telemetry layer or lazy-import it in a cold path",
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
        "on their line.  Every rule, per-file and whole-program, runs in the\n"
        "same `repro lint` pass, so an unused code is proven unused whatever\n"
        "rule it names; the fix is to delete it."
    )
    fix_example = (
        "    # bad:\n"
        "    memo[id(self)] = new  # repro: noqa[RPR003]\n"
        "    # good:\n"
        "    memo[id(self)] = new  # repro: noqa[RPR003] deepcopy memo "
        "protocol keys by object identity"
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

