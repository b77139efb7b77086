"""Interprocedural lock simulation: which locks are held at every call.

Every project function is walked as a potential entry point with an
empty held-lock set; ``with <lock>:`` statements extend the set
lexically, and calls made while holding locks are followed into their
resolved targets (memoized on ``(function, held set)`` so the walk
terminates).  The walk records what ``conc-blocking`` needs:

* **under-lock calls** — calls made while holding at least one lock
  *acquired lexically in the reporting function* (so findings anchor
  at the actionable site, not deep inside callees),
* **static call edges** — the plain call graph, for the transitive
  blocking fixpoint,
* **lock-order edges** — lock A held while lock B was acquired; the
  report carries their count (the tree has two) so a new nesting shows
  up in review.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.tools.lint.callgraph import FunctionInfo, ProgramIndex

__all__ = [
    "LockSimResult",
    "UnderLockCall",
    "simulate",
    "calls_in",
    "direct_blocking_reason",
]

#: Call-graph recursion bound when propagating held-lock sets.
MAX_CALL_DEPTH = 20

#: ``<module>.<func>(...)`` calls that block the calling thread.  Keys
#: are (dotted module, function name); the module part is resolved
#: through the file's imports, so aliasing doesn't evade the rule.
BLOCKING_MODULE_CALLS: frozenset[tuple[str, str]] = frozenset(
    {
        ("time", "sleep"),
        ("socket", "create_connection"),
        ("select", "select"),
        ("subprocess", "run"),
        ("subprocess", "check_output"),
        ("subprocess", "check_call"),
    }
)

#: ``<expr>.<name>(...)`` attribute calls treated as blocking when the
#: receiver cannot be resolved to a project class that defines the
#: method itself.  ``wait`` on the lock being *held* is exempt (a
#: ``Condition.wait`` releases its own lock while waiting).
BLOCKING_ATTR_CALLS: frozenset[str] = frozenset(
    {
        "result",       # concurrent.futures.Future.result
        "wait",         # Event.wait / Condition.wait
        "recv",
        "accept",
        "connect",
        "sendall",
        "read_text",    # pathlib disk I/O
        "read_bytes",
        "write_text",
        "write_bytes",
    }
)


def short_name(lock: str) -> str:
    """``repro.core.cache.CacheManager._lock`` -> ``CacheManager._lock``."""
    return ".".join(lock.rsplit(".", 2)[-2:])


@dataclass
class UnderLockCall:
    """One call made while at least one lock was held."""

    caller: FunctionInfo
    line: int
    held: tuple[str, ...]
    #: Resolved project callees (empty for a syntactically blocking call).
    targets: tuple[FunctionInfo, ...] = ()
    #: Why the call blocks, when it is *directly* blocking.
    blocking_reason: str | None = None


@dataclass
class LockSimResult:
    """Everything one simulation run produced."""

    locks: set[str] = field(default_factory=set)
    #: (held, acquired) lock pairs of nested acquisition.
    edges: set[tuple[str, str]] = field(default_factory=set)
    under_lock_calls: list[UnderLockCall] = field(default_factory=list)
    #: Plain call graph: caller key -> callee keys.
    call_edges: dict[str, set[str]] = field(default_factory=dict)


def calls_in(node: ast.AST) -> Iterator[ast.Call]:
    """Call expressions in ``node``, without descending into nested
    function/class/lambda bodies (those run when called, not here)."""
    stack: list[ast.AST] = [node]
    while stack:
        current = stack.pop()
        if current is not node and isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        if isinstance(current, ast.Call):
            yield current
        stack.extend(ast.iter_child_nodes(current))


def direct_blocking_reason(
    index: ProgramIndex,
    func: FunctionInfo,
    env: dict[str, str],
    call: ast.Call,
) -> tuple[str | None, str | None]:
    """(reason, waited lock) when this call is syntactically blocking.

    The second element is the lock a ``<cond>.wait()`` call releases
    while waiting — holding *only* that lock during the wait is the
    designed use of a condition variable, not a hazard.
    """
    target = call.func
    if isinstance(target, ast.Name):
        sym = index._sym_imports.get(func.module, {}).get(target.id)
        if sym is not None and sym in BLOCKING_MODULE_CALLS:
            return f"{sym[0]}.{sym[1]}() blocks", None
        if target.id == "open":
            return "open() performs file I/O", None
        return None, None
    if not isinstance(target, ast.Attribute):
        return None, None
    receiver = target.value
    if isinstance(receiver, ast.Name):
        module = index._mod_imports.get(func.module, {}).get(receiver.id)
        if module is not None and (module, target.attr) in BLOCKING_MODULE_CALLS:
            return f"{module}.{target.attr}() blocks", None
    if isinstance(receiver, ast.Constant) and isinstance(receiver.value, str):
        return None, None  # ", ".join(...) and friends
    name = target.attr
    if name == "join" and not call.args:
        return ".join() waits for a thread", None
    if name in BLOCKING_ATTR_CALLS:
        waited = None
        if name == "wait":
            waited = index.lock_for_expr(receiver, func, env)
        return f".{name}() blocks the calling thread", waited
    return None, None


class LockSimulator:
    """The interprocedural walk (one instance per analysis run)."""

    def __init__(self, index: ProgramIndex) -> None:
        self.index = index
        self.result = LockSimResult(locks=index.all_locks())
        self._visited: set[tuple[str, frozenset[str]]] = set()

    def run(self) -> LockSimResult:
        for func in self.index.functions.values():
            self._walk(func, (), 0)
        return self.result

    def _walk(self, func: FunctionInfo, held: tuple[str, ...], depth: int) -> None:
        state = (func.key, frozenset(held))
        if state in self._visited or depth > MAX_CALL_DEPTH:
            return
        self._visited.add(state)
        env = self.index.env_for(func)
        self._walk_body(func.node.body, func, env, held, (), depth)

    def _walk_body(
        self,
        stmts: list[ast.stmt],
        func: FunctionInfo,
        env: dict[str, str],
        held: tuple[str, ...],
        local: tuple[str, ...],
        depth: int,
    ) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner_held, inner_local = held, local
                for item in stmt.items:
                    self._visit_calls(
                        item.context_expr, func, env, inner_held, inner_local, depth
                    )
                    lock = self.index.lock_for_expr(item.context_expr, func, env)
                    if lock is not None and lock not in inner_held:
                        self.result.edges.update((entry, lock) for entry in inner_held)
                        inner_held += (lock,)
                        inner_local += (lock,)
                self._walk_body(stmt.body, func, env, inner_held, inner_local, depth)
            elif isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            elif isinstance(stmt, (ast.If, ast.While)):
                self._visit_calls(stmt.test, func, env, held, local, depth)
                self._walk_body(stmt.body, func, env, held, local, depth)
                self._walk_body(stmt.orelse, func, env, held, local, depth)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._visit_calls(stmt.iter, func, env, held, local, depth)
                self._walk_body(stmt.body, func, env, held, local, depth)
                self._walk_body(stmt.orelse, func, env, held, local, depth)
            elif isinstance(stmt, ast.Try):
                for body in (stmt.body, *(h.body for h in stmt.handlers)):
                    self._walk_body(body, func, env, held, local, depth)
                self._walk_body(stmt.orelse, func, env, held, local, depth)
                self._walk_body(stmt.finalbody, func, env, held, local, depth)
            else:
                self._visit_calls(stmt, func, env, held, local, depth)

    def _visit_calls(
        self,
        node: ast.AST,
        func: FunctionInfo,
        env: dict[str, str],
        held: tuple[str, ...],
        local: tuple[str, ...],
        depth: int,
    ) -> None:
        for call in calls_in(node):
            targets = self.index.resolve_call_targets(
                call, func.module, env, func.cls_key, caller=func
            )
            if targets:
                callees = self.result.call_edges.setdefault(func.key, set())
                callees.update(target.key for target in targets)
                if local:
                    # Report at this site: the lock is held lexically
                    # here, so this is where a fix would land.
                    self.result.under_lock_calls.append(
                        UnderLockCall(func, call.lineno, held, tuple(targets))
                    )
                for target in targets if held else ():
                    self._walk(target, held, depth + 1)
                continue
            if not local:
                continue
            reason, waited = direct_blocking_reason(self.index, func, env, call)
            effective = tuple(lock for lock in held if lock != waited)
            if reason is not None and effective:
                self.result.under_lock_calls.append(
                    UnderLockCall(func, call.lineno, effective, blocking_reason=reason)
                )


def simulate(index: ProgramIndex) -> LockSimResult:
    return LockSimulator(index).run()
