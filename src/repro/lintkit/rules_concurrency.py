"""Concurrency invariants: the event loop, locks, signals, shared memory.

Each rule encodes a failure this codebase has already shipped and fixed
once — the point is that no reviewer should have to remember them:

* :class:`AsyncBlockRule` (``REPRO-ASYNC-BLOCK``) — the PR-7 loop-lag
  gauge *observes* a stalled event loop at runtime; this catches the
  blocking call before it ships.
* :class:`LockHeldRule` (``REPRO-LOCK-HELD``) — PR 5 shipped (and then
  review-fixed) cold graph builds under the ``GraphRegistry`` lock.
* :class:`SignalRestoreRule` (``REPRO-SIGNAL-RESTORE``) — PR 5's
  ``SIGALRM`` handler-restore bug: ``run_guarded`` swapped the handler
  and an early degrade path leaked it.
* :class:`ShmLifecycleRule` (``REPRO-SHM-LIFECYCLE``) — PR 9's shm
  ready-flag race and segment-leak class: every mapping must be closed
  or handed to an owner that closes it.

All passes are syntactic and single-file.  They deliberately do not
chase calls across functions — the blocking/expensive *entry points*
are named instead, which keeps false positives near zero and makes a
finding actionable at the flagged line.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lintkit.findings import Finding
from repro.lintkit.runner import (
    FileContext,
    Rule,
    dotted_name,
    register_rule,
    terminal_name,
)

__all__ = [
    "AsyncBlockRule",
    "LockHeldRule",
    "ShmLifecycleRule",
    "SignalRestoreRule",
]


def _iter_scope(node: ast.AST) -> Iterator[ast.AST]:
    """Children of *node* staying inside the current function scope.

    Nested ``def``/``async def``/``lambda`` bodies are separate scopes:
    a closure handed to the worker pool runs *off* the loop, a nested
    helper gets its own pass when the visitor reaches it.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        yield child


def _walk_scope(node: ast.AST) -> Iterator[ast.AST]:
    """Depth-first walk of the current function scope (see above)."""
    for child in _iter_scope(node):
        yield child
        for grandchild in _walk_scope(child):
            yield grandchild


def _is_lockish(expr: ast.AST) -> bool:
    """Whether *expr* names a lock (``self._lock``, ``session.lock``...).

    The naming convention is the contract: every guarded-attribute in
    :data:`GUARDED_LOCK_ATTRS` ends in ``lock``, and the suffix match
    extends the rule to new lock attributes without a map edit.
    """
    name = terminal_name(expr)
    return name is not None and name.lower().endswith("lock")


# ----------------------------------------------------------------------
# REPRO-ASYNC-BLOCK
# ----------------------------------------------------------------------
#: Module-level callables that block the calling thread outright.
BLOCKING_DOTTED = frozenset(
    {
        "time.sleep",
        "os.system",
        "os.popen",
        "os.waitpid",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "socket.create_connection",
        "socket.getaddrinfo",
        "urllib.request.urlopen",
    }
)

#: Method names that block when invoked synchronously (``Lock.acquire``,
#: ``socket.recv`` ...).  Exempt inside an ``await`` expression — the
#: asyncio variants of these names are awaitables.
BLOCKING_METHODS = frozenset({"acquire", "recv", "accept", "sendall"})

#: ``Event.wait`` / ``Process.wait`` block; ``await x.wait()`` (or any
#: use inside an awaited expression, e.g. ``asyncio.wait_for(x.wait(),
#: t)``) is the legitimate asyncio spelling.
WAIT_METHODS = frozenset({"wait"})

#: Solver entry points: a whole prepare/solve on the event loop is the
#: pathology the service's pool bridge exists to prevent.
SOLVER_ENTRYPOINTS = frozenset(
    {
        "dcs_greedy",
        "new_sea",
        "top_k_dcsad",
        "top_k_dcsga",
        "replicator_dynamics",
        "execute_payload",
        "run_guarded",
        "snapshot_recompute",
    }
)


class AsyncBlockRule(Rule):
    rule_id = "REPRO-ASYNC-BLOCK"
    summary = (
        "no blocking calls (sleep, file/subprocess/socket I/O, "
        "Lock.acquire, Event.wait, solver entry points) directly in an "
        "async def body"
    )
    motivation = (
        "the PR-7 loop-lag gauge observes these stalls at runtime; "
        "service p95 dies when one lands on the event loop"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                for finding in self._scan(ctx, node):
                    yield finding

    def _scan(
        self, ctx: FileContext, fn: ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        for node, in_await in _walk_await_aware(fn):
            if isinstance(node, ast.Call):
                message = self._blocking_call(node, in_await, fn.name)
                if message is not None:
                    yield ctx.finding(self.rule_id, node, message)
            elif isinstance(node, ast.With):
                for item in node.items:
                    if _is_lockish(item.context_expr):
                        label = dotted_name(item.context_expr) or "<lock>"
                        yield ctx.finding(
                            self.rule_id,
                            node,
                            f"'with {label}:' inside 'async def "
                            f"{fn.name}' blocks the event loop while "
                            "the thread lock is contended; hold it in "
                            "pool-thread code instead",
                        )

    def _blocking_call(
        self, call: ast.Call, in_await: bool, fn_name: str
    ) -> Optional[str]:
        dotted = dotted_name(call.func)
        last = terminal_name(call.func)
        where = f"inside 'async def {fn_name}'"
        if dotted in BLOCKING_DOTTED:
            return (
                f"blocking call {dotted}() {where} stalls the event "
                "loop; move it to the worker pool (run_in_executor) or "
                "use the asyncio equivalent"
            )
        if isinstance(call.func, ast.Name) and call.func.id == "open":
            return (
                f"file I/O open() {where} blocks the loop; read in a "
                "pool thread and hand back bytes"
            )
        if in_await or last is None:
            return None
        if isinstance(call.func, ast.Attribute):
            if last in BLOCKING_METHODS:
                return (
                    f".{last}() {where} is a blocking primitive when "
                    "called synchronously; await the asyncio variant or "
                    "move it off the loop"
                )
            if last in WAIT_METHODS:
                return (
                    f"synchronous .{last}() {where} blocks the loop "
                    "(threading.Event semantics); await it, or poll "
                    "with asyncio.sleep"
                )
        if last in SOLVER_ENTRYPOINTS:
            return (
                f"solver entry point {last}() {where} runs a whole "
                "solve on the event loop; submit it through the "
                "admission queue / worker pool"
            )
        return None


def _walk_await_aware(
    fn: ast.AsyncFunctionDef,
) -> Iterator[Tuple[ast.AST, bool]]:
    """Scope walk yielding ``(node, inside-an-await-subtree)``."""

    def walk(node: ast.AST, in_await: bool) -> Iterator[Tuple[ast.AST, bool]]:
        for child in _iter_scope(node):
            child_in_await = in_await or isinstance(child, ast.Await)
            yield child, child_in_await
            for pair in walk(child, child_in_await):
                yield pair

    return walk(fn, False)


# ----------------------------------------------------------------------
# REPRO-LOCK-HELD
# ----------------------------------------------------------------------
#: The classes whose locks guard hot shared state, and the attribute
#: each guards it with — the documented contract this rule enforces.
#: The generic ``*lock`` suffix match covers these and any newcomer
#: that follows the naming convention.
GUARDED_LOCK_ATTRS: Dict[str, Tuple[str, ...]] = {
    "GraphRegistry": ("_lock",),
    "ServiceMetrics": ("_lock",),
    "SessionManager": ("_lock",),
    "StreamSession": ("lock",),
    "SharedGraphStore": ("_lock",),
    "ResultCache": ("_lock",),
}

#: Expensive-build entry points that must never run under a lock:
#: graph prepare, dataset synthesis/parse, shared-memory export, JIT
#: warm-up.  (PR 5's review fix moved exactly these out from under the
#: GraphRegistry lock.)
EXPENSIVE_CALLS = frozenset(
    {
        "PreparedGraph",
        "from_pair",
        "build_named",
        "assemble_difference",
        "read_pair",
        "read_edge_list",
        "read_events",
        "export",
        "resolve",
        "warm",
    }
)


class LockHeldRule(Rule):
    rule_id = "REPRO-LOCK-HELD"
    summary = (
        "no await/yield and no expensive-build calls (prepare, dataset "
        "build, shm export) inside a 'with <lock>:' block"
    )
    motivation = (
        "PR 5 shipped cold graph builds under the GraphRegistry lock — "
        "every warm hit stalled behind one slow synthesis"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.With):
                continue
            for item in node.items:
                if _is_lockish(item.context_expr):
                    label = dotted_name(item.context_expr) or "<lock>"
                    for finding in self._scan_body(ctx, node, label):
                        yield finding
                    break

    def _scan_body(
        self, ctx: FileContext, block: ast.With, label: str
    ) -> Iterator[Finding]:
        held = f"while holding {label}"
        for stmt in block.body:
            yield from self._scan_node(ctx, stmt, held)

    def _scan_node(
        self, ctx: FileContext, node: ast.AST, held: str
    ) -> Iterator[Finding]:
        if isinstance(node, ast.Await):
            yield ctx.finding(
                self.rule_id,
                node,
                f"await {held} parks the coroutine with the thread "
                "lock still taken; release before suspending",
            )
        elif isinstance(node, (ast.Yield, ast.YieldFrom)):
            yield ctx.finding(
                self.rule_id,
                node,
                f"yield {held} suspends the generator with the lock "
                "taken for an unbounded time; snapshot under the lock "
                "and yield outside",
            )
        elif isinstance(node, ast.Call):
            last = terminal_name(node.func)
            if last in EXPENSIVE_CALLS:
                name = dotted_name(node.func) or last
                yield ctx.finding(
                    self.rule_id,
                    node,
                    f"expensive build {name}() {held} serialises every "
                    "contender behind it; build outside and admit the "
                    "result under the lock",
                )
        for child in _iter_scope(node):
            yield from self._scan_node(ctx, child, held)


# ----------------------------------------------------------------------
# REPRO-SIGNAL-RESTORE
# ----------------------------------------------------------------------
class SignalRestoreRule(Rule):
    rule_id = "REPRO-SIGNAL-RESTORE"
    summary = (
        "every signal.signal / signal.setitimer swap must capture the "
        "previous state and restore it in a finally"
    )
    motivation = (
        "PR 5's run_guarded leaked its SIGALRM handler on a degrade "
        "path; the host's next timer then raised our private exception"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        scopes: List[ast.AST] = [ctx.tree]
        scopes.extend(
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        for scope in scopes:
            for finding in self._scan_scope(ctx, scope):
                yield finding

    def _scan_scope(
        self, ctx: FileContext, scope: ast.AST
    ) -> Iterator[Finding]:
        #: (kind, node, captured, restoring)
        entries: List[Tuple[str, ast.Call, bool, bool]] = []

        def visit(node: ast.AST, in_restore: bool) -> None:
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                kind = _signal_kind(node.value)
                if kind is not None:
                    entries.append((kind, node.value, True, in_restore))
            elif isinstance(node, ast.Call):
                kind = _signal_kind(node)
                if kind is not None:
                    entries.append((kind, node, False, in_restore))
            if isinstance(node, ast.Try):
                for part in (node.body, node.orelse):
                    for stmt in part:
                        visit(stmt, in_restore)
                for handler in node.handlers:
                    for stmt in handler.body:
                        visit(stmt, True)
                for stmt in node.finalbody:
                    visit(stmt, True)
                return
            for child in _iter_scope(node):
                # Assign values are revisited as plain calls otherwise.
                if isinstance(node, ast.Assign) and child is node.value:
                    continue
                visit(child, in_restore)

        for stmt in _iter_scope(scope):
            visit(stmt, False)

        restored_kinds = {
            kind for kind, _, _, restoring in entries if restoring
        }
        captured_kinds = {
            kind for kind, _, captured, _ in entries if captured
        }
        for kind, node, captured, restoring in entries:
            if restoring:
                continue
            call = "signal.setitimer" if kind == "timer" else "signal.signal"
            if not captured:
                # A scope that *did* capture a swap of this kind is
                # already flagged on the capture when the restore is
                # missing; its straight-line restore/disarm calls are
                # not independent discards.
                if kind in captured_kinds:
                    continue
                yield ctx.finding(
                    self.rule_id,
                    node,
                    f"{call}() discards the previous "
                    f"{'timer' if kind == 'timer' else 'handler'}; "
                    "capture it and restore in a finally (or waive with "
                    "a justification if the install is process-lifetime)",
                )
            elif kind not in restored_kinds:
                yield ctx.finding(
                    self.rule_id,
                    node,
                    f"{call}() swap is never restored in a finally/"
                    "except path of this function; an early exit leaks "
                    "the swapped state into the host",
                )


def _signal_kind(call: ast.Call) -> Optional[str]:
    """``"handler"``/``"timer"`` for signal-state swaps, else ``None``."""
    dotted = dotted_name(call.func)
    if dotted in ("signal.signal", "signal"):
        return "handler"
    if dotted in ("signal.setitimer", "setitimer"):
        return "timer"
    return None


# ----------------------------------------------------------------------
# REPRO-SHM-LIFECYCLE
# ----------------------------------------------------------------------
#: Constructors that map a POSIX shared-memory segment.
SHM_CONSTRUCTORS = frozenset(
    {"SharedMemory", "_QuietSharedMemory", "QuietSharedMemory"}
)


class ShmLifecycleRule(Rule):
    rule_id = "REPRO-SHM-LIFECYCLE"
    summary = (
        "every SharedMemory create/attach must reach close()/unlink() "
        "or be handed to an owner in the same function"
    )
    motivation = (
        "PR 9's segment-leak class: a mapping dropped on an error path "
        "pins /dev/shm until the supervisor sweep"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        scopes: List[ast.AST] = [ctx.tree]
        scopes.extend(
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        for scope in scopes:
            for finding in self._scan_scope(ctx, scope):
                yield finding

    def _scan_scope(
        self, ctx: FileContext, scope: ast.AST
    ) -> Iterator[Finding]:
        creations: List[Tuple[str, ast.Call]] = []
        for node in _walk_scope(scope):
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                if _is_shm_constructor(node.value):
                    names = [
                        target.id
                        for target in node.targets
                        if isinstance(target, ast.Name)
                    ]
                    attr_targets = [
                        target
                        for target in node.targets
                        if isinstance(target, ast.Attribute)
                    ]
                    if names:
                        creations.append((names[0], node.value))
                    elif not attr_targets:
                        yield ctx.finding(
                            self.rule_id,
                            node.value,
                            "shared-memory mapping bound to an "
                            "untrackable target; bind it to a name so "
                            "close() is checkable",
                        )
                    # self._shm = SharedMemory(...) transfers ownership
                    # to the object; its close path is out of scope.
        for node in _walk_scope(scope):
            if (
                isinstance(node, ast.Call)
                and _is_shm_constructor(node)
                and not self._is_consumed(node, scope)
            ):
                yield ctx.finding(
                    self.rule_id,
                    node,
                    "shared-memory mapping is discarded without a "
                    "handle; nothing can ever close() it",
                )
        for name, call in creations:
            if not _name_reaches_owner(scope, name, call):
                yield ctx.finding(
                    self.rule_id,
                    call,
                    f"segment handle {name!r} never reaches close()/"
                    "unlink() and never escapes to an owner; every "
                    "control-flow path must release the mapping "
                    "(owners unlink when the refcount drains)",
                )

    @staticmethod
    def _is_consumed(call: ast.Call, scope: ast.AST) -> bool:
        """Whether *call*'s result is bound, returned or passed along."""
        for node in _walk_scope(scope):
            if isinstance(node, ast.Assign) and node.value is call:
                return True
            if isinstance(node, (ast.Return, ast.Yield)) and (
                node.value is call
            ):
                return True
            if isinstance(node, ast.Call) and node is not call:
                if call in node.args or any(
                    keyword.value is call for keyword in node.keywords
                ):
                    return True
        return False


def _is_shm_constructor(call: ast.Call) -> bool:
    last = terminal_name(call.func)
    return last in SHM_CONSTRUCTORS


def _name_reaches_owner(
    scope: ast.AST, name: str, creation: ast.Call
) -> bool:
    """Whether *name*'s mapping is closed or handed off in *scope*."""
    for node in _walk_scope(scope):
        if isinstance(node, ast.Call):
            if node is creation:
                continue
            # shm.close() / shm.unlink()
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("close", "unlink")
                and isinstance(func.value, ast.Name)
                and func.value.id == name
            ):
                return True
            # SharedGraphSegment(name, shm, ...) — ownership transfer
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if isinstance(arg, ast.Name) and arg.id == name:
                    return True
        elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            value = node.value
            if value is not None and any(
                isinstance(sub, ast.Name) and sub.id == name
                for sub in ast.walk(value)
            ):
                return True
        elif isinstance(node, ast.Assign):
            # self._shm = shm — the object owns it now
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == name
                and any(
                    isinstance(target, ast.Attribute)
                    for target in node.targets
                )
            ):
                return True
    return False


register_rule(AsyncBlockRule())
register_rule(LockHeldRule())
register_rule(SignalRestoreRule())
register_rule(ShmLifecycleRule())
