"""RPR103 — asyncio atomicity lint for the service and fabric layers.

asyncio gives you atomicity *between* awaits for free: a task cannot be
preempted except at a suspension point.  Every interleaving bug in the
coordinator/server/dispatcher family therefore has the same shape — a
**read-modify-write of shared task state that spans an ``await``**::

    free = self._free_slots          # read
    result = await self._probe(key)  # suspension: another task runs,
                                     # admits a job, decrements the count
    self._free_slots = free - 1      # write clobbers the other task's update

This pass scans every ``async def`` in ``repro/service/`` and
``repro/fabric/`` and flags exactly that shape: a read of ``self.<attr>``
followed — across at least one ``await`` — by a write to the same
attribute, with no ``async with`` lock held over the span.  One-statement
forms (``self.x += await f()``, ``self.x = await f(self.x)``) are the
same bug and are caught by walking expression events in evaluation order.

What does *not* fire:

- any read/modify/write entirely inside an ``async with`` block (the
  dispatcher's ``async with self._cond:`` discipline) — acquiring an
  asyncio lock/condition/semaphore is the sanctioned fix;
- reads and writes with no suspension point between them;
- local variables (task-private by construction).

Single-writer designs (one task owns the attribute, others only read)
are legitimate and impossible to prove statically — that is what the
``# repro: noqa[RPR103] <why single-writer holds>`` escape hatch is for.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.findings import Finding
from repro.analysis.rules import LintContext, Rule

__all__ = ["AsyncAtomicityRule"]

#: Path fragments that put a module inside the asyncio perimeter.
_ASYNC_SCOPES = ("repro/service/", "repro/fabric/")


class _PendingRead:
    __slots__ = ("read_line", "await_line")

    def __init__(self, read_line: int) -> None:
        self.read_line = read_line
        self.await_line: Optional[int] = None  # set when an await intervenes


def _expr_events(node: ast.AST) -> Iterator[Tuple[str, str, int]]:
    """``(kind, attr, line)`` events of one expression, evaluation order.

    Kinds: ``read`` (of ``self.<attr>``) and ``await`` (attr empty).
    Await arguments are evaluated before the task suspends, so the await
    event follows its operand's events.
    """
    if isinstance(node, ast.Await):
        for event in _expr_events(node.value):
            yield event
        yield ("await", "", node.lineno)
        return
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and isinstance(node.ctx, ast.Load)
    ):
        yield ("read", node.attr, node.lineno)
        return
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        return  # separate execution context
    for child in ast.iter_child_nodes(node):
        yield from _expr_events(child)


class _AsyncScanner:
    """Scans one ``async def`` body for await-spanning read-modify-writes."""

    def __init__(self, path: str, func_name: str) -> None:
        self.path = path
        self.func_name = func_name
        self.findings: List[Finding] = []
        self._pending: Dict[str, _PendingRead] = {}
        self._lock_depth = 0

    # -- events -------------------------------------------------------- #

    def _on_read(self, attr: str, line: int) -> None:
        if self._lock_depth:
            return
        # Keep the earliest unresolved read; a fresh read after an await
        # re-anchors the window (the value is re-observed).
        pending = self._pending.get(attr)
        if pending is None or pending.await_line is not None:
            self._pending[attr] = _PendingRead(line)

    def _on_await(self, line: int) -> None:
        if self._lock_depth:
            return
        for pending in self._pending.values():
            if pending.await_line is None:
                pending.await_line = line

    def _on_write(self, attr: str, line: int) -> None:
        if self._lock_depth:
            self._pending.pop(attr, None)
            return
        pending = self._pending.pop(attr, None)
        if pending is not None and pending.await_line is not None:
            self.findings.append(
                Finding(
                    "RPR103",
                    self.path,
                    line,
                    1,
                    f"read-modify-write of `self.{attr}` spans an await in "
                    f"`{self.func_name}`: read at line {pending.read_line}, "
                    f"task suspends at line {pending.await_line}, write at "
                    f"line {line} — another task can interleave and its "
                    "update is lost; hold an `async with` lock across the "
                    "span (or document the single-writer discipline)",
                )
            )

    def _fork(self) -> Dict[str, _PendingRead]:
        out: Dict[str, _PendingRead] = {}
        for attr, pending in self._pending.items():
            copy = _PendingRead(pending.read_line)
            copy.await_line = pending.await_line
            out[attr] = copy
        return out

    def _scan_branches(self, branches: List[List[ast.stmt]]) -> None:
        """Scan mutually-exclusive branches from forked pre-state.

        A read in one branch must never pair with a write in a sibling
        branch (they cannot both execute), so each branch starts from a
        copy of the pre-branch state; afterwards the branches' surviving
        reads are merged conservatively (earliest read, any await wins).
        """
        pre = self._fork()
        merged: Dict[str, _PendingRead] = {}
        for body in branches:
            self._pending = pre
            self._pending = self._fork()
            self.scan(body)
            for attr, pending in self._pending.items():
                existing = merged.get(attr)
                if existing is None:
                    merged[attr] = pending
                else:
                    existing.read_line = min(existing.read_line, pending.read_line)
                    if existing.await_line is None:
                        existing.await_line = pending.await_line
        self._pending = merged

    def _emit_expr(self, node: Optional[ast.AST]) -> None:
        if node is None:
            return
        for kind, attr, line in _expr_events(node):
            if kind == "read":
                self._on_read(attr, line)
            else:
                self._on_await(line)

    def _store_targets(self, target: ast.AST) -> Iterator[Tuple[str, int]]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from self._store_targets(elt)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            yield (target.attr, target.lineno)
        elif isinstance(target, ast.Subscript):
            # `self.x[k] = v` mutates the container read through self.x:
            # treat it as a write to the attribute.
            yield from self._store_targets(target.value)

    # -- statements ---------------------------------------------------- #

    def scan(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self._scan_stmt(stmt)

    def _scan_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._emit_expr(stmt.value)
            for target in stmt.targets:
                for attr, line in self._store_targets(target):
                    self._on_write(attr, line)
        elif isinstance(stmt, ast.AnnAssign):
            self._emit_expr(stmt.value)
            for attr, line in self._store_targets(stmt.target):
                self._on_write(attr, line)
        elif isinstance(stmt, ast.AugAssign):
            if (
                isinstance(stmt.target, ast.Attribute)
                and isinstance(stmt.target.value, ast.Name)
                and stmt.target.value.id == "self"
            ):
                self._on_read(stmt.target.attr, stmt.target.lineno)
                self._emit_expr(stmt.value)
                self._on_write(stmt.target.attr, stmt.target.lineno)
            else:
                self._emit_expr(stmt.value)
        elif isinstance(stmt, ast.AsyncWith):
            for item in stmt.items:
                self._emit_expr(item.context_expr)
            # Acquiring the lock suspends; then the body runs protected.
            self._on_await(stmt.lineno)
            self._lock_depth += 1
            self.scan(stmt.body)
            self._lock_depth -= 1
            self._on_await(stmt.lineno)  # __aexit__ suspends too
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self._emit_expr(item.context_expr)
            self.scan(stmt.body)
        elif isinstance(stmt, ast.If):
            self._emit_expr(stmt.test)
            self._scan_branches([stmt.body, stmt.orelse])
        elif isinstance(stmt, ast.While):
            self._emit_expr(stmt.test)
            self._scan_branches([stmt.body, stmt.orelse])
        elif isinstance(stmt, ast.For):
            self._emit_expr(stmt.iter)
            self._scan_branches([stmt.body, stmt.orelse])
        elif isinstance(stmt, ast.AsyncFor):
            self._emit_expr(stmt.iter)
            self._on_await(stmt.lineno)
            self._scan_branches([stmt.body, stmt.orelse])
        elif isinstance(stmt, ast.Try):
            # body then orelse run sequentially; each handler is an
            # alternative continuation of the body; finally always runs.
            self.scan(stmt.body)
            self._scan_branches(
                [stmt.orelse] + [handler.body for handler in stmt.handlers]
            )
            self.scan(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested definitions execute later, in their own frame
        elif isinstance(stmt, (ast.Return, ast.Expr)):
            self._emit_expr(stmt.value)
        elif isinstance(stmt, ast.Raise):
            self._emit_expr(stmt.exc)
            self._emit_expr(stmt.cause)
        elif isinstance(stmt, ast.Assert):
            self._emit_expr(stmt.test)
            self._emit_expr(stmt.msg)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                for attr, line in self._store_targets(target):
                    self._on_write(attr, line)


class AsyncAtomicityRule(Rule):
    """RPR103: each ``async def`` of a service/fabric module, scanned alone."""

    code = "RPR103"
    name = "await-atomicity"
    summary = "read-modify-write of shared task state spans an await"
    rationale = (
        "asyncio tasks are atomic between suspension points, so every lost-\n"
        "update bug in the coordinator/server/dispatcher family is a read of\n"
        "shared `self.<attr>` state, an `await` that lets another task run,\n"
        "then a write computed from the stale read.  This pass scans every\n"
        "async def under repro/service/ and repro/fabric/ for exactly that\n"
        "event sequence — including the one-statement forms\n"
        "`self.x += await f()` and `self.x = await f(self.x)` — and exempts\n"
        "spans protected by `async with` (asyncio Lock/Condition/Semaphore\n"
        "discipline, e.g. the dispatcher's `async with self._cond:`).\n"
        "Single-writer designs are legitimate but unprovable statically:\n"
        "document them with `# repro: noqa[RPR103] <why>` on the write line."
    )
    fix_example = (
        "    # bad:\n"
        "    free = self._free_slots\n"
        "    await self._probe(key)\n"
        "    self._free_slots = free - 1\n"
        "    # good:\n"
        "    async with self._lock:\n"
        "        self._free_slots -= 1\n"
        "        await self._probe(key)"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        norm = ctx.path.replace("\\", "/")
        if not any(scope in norm for scope in _ASYNC_SCOPES):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                scanner = _AsyncScanner(ctx.path, node.name)
                scanner.scan(node.body)
                yield from scanner.findings
