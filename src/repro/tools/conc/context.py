"""Rule ``conc-context``: pool/thread boundaries must carry ambient context.

The deadline (:mod:`repro.core.deadline`) and span
(:mod:`repro.obs.span`) contexts ride in ``ContextVar``\\ s, which do
**not** cross ``Executor.submit`` or ``threading.Thread`` boundaries —
a worker starts with empty ambient state, silently orphaning traces
and outliving deadlines.  :meth:`repro.core.iosched.IOScheduler.run`
shows the required hand-off: capture the ambient value on the
submitting thread and pass it into the worker, which re-attaches it::

    parent = current_span()
    deadline = current_deadline()
    self._pool.submit(_attached, parent, deadline, task)

A submission site passes this rule, per context kind, when either

* a captured value (``current_span()`` / ``current_deadline()`` /
  ``copy_context()``, directly or through a local name) appears among
  the call's arguments, or
* the submitted callable itself re-attaches (calls
  ``set_ambient`` for spans, ``deadline_scope`` for deadlines).

Lifecycle threads started where no ambient context exists (server
startup) are legitimate: suppress with ``# lint: allow[conc-context]``
and a justifying comment.
"""

from __future__ import annotations

import ast

from repro.tools.conc.callgraph import FunctionInfo, ProgramIndex
from repro.tools.conc.lockorder import calls_in
from repro.tools.lint.model import Finding, SourceFile

__all__ = ["check_context"]

_EXECUTOR_TYPES = ("ThreadPoolExecutor", "ProcessPoolExecutor", "Executor")
_POOLISH = ("pool", "executor")


def check_context(
    index: ProgramIndex, sources_by_path: dict[str, SourceFile]
) -> list[Finding]:
    findings: list[Finding] = []
    for func in index.functions.values():
        env = index.env_for(func)
        captures = _capture_assignments(index, func)
        for call in calls_in(func.node):
            boundary, callable_expr = _boundary(index, func, env, call)
            if boundary is None:
                continue
            missing: list[str] = []
            config = index.config
            if not _handed_off(
                index, func, call, captures,
                config.span_capture_names, config.span_attach_names,
                callable_expr, env,
            ):
                missing.append(
                    "span (capture current_span() and re-attach in the worker)"
                )
            if not _handed_off(
                index, func, call, captures,
                config.deadline_capture_names, config.deadline_attach_names,
                callable_expr, env,
            ):
                missing.append(
                    "deadline (capture current_deadline() and re-enter "
                    "deadline_scope() in the worker)"
                )
            if not missing:
                continue
            source = sources_by_path.get(func.source.rel_path)
            if source is None:
                continue
            findings.append(
                source.finding(
                    "conc-context",
                    call.lineno,
                    f"{boundary} drops ambient context: "
                    + "; ".join(missing)
                    + " — hand off explicitly the way core.iosched does",
                )
            )
    return findings


def _boundary(
    index: ProgramIndex,
    func: FunctionInfo,
    env: dict[str, str],
    call: ast.Call,
) -> tuple[str | None, ast.expr | None]:
    """(description, submitted callable) when the call crosses a thread
    boundary; (None, None) otherwise."""
    target = call.func
    if isinstance(target, ast.Attribute) and target.attr == "submit":
        receiver_type = index.typeof(target.value, func, env) or ""
        receiver_name = ""
        if isinstance(target.value, ast.Attribute):
            receiver_name = target.value.attr
        elif isinstance(target.value, ast.Name):
            receiver_name = target.value.id
        if receiver_type.endswith(_EXECUTOR_TYPES) or any(
            hint in receiver_name.lower() for hint in _POOLISH
        ):
            callable_expr = call.args[0] if call.args else None
            return "Executor.submit", callable_expr
        return None, None
    ctor = index._resolve_type_expr(target, func.module)
    if ctor is not None and ctor.endswith(("threading.Thread", ".Timer")):
        for keyword in call.keywords:
            if keyword.arg == "target":
                return "Thread(target=...)", keyword.value
        return "Thread(target=...)", None
    return None, None


def _capture_assignments(
    index: ProgramIndex, func: FunctionInfo
) -> dict[str, set[str]]:
    """capture function name -> local names its results were bound to."""
    captured: dict[str, set[str]] = {}
    for node in ast.walk(func.node):
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        name = _called_name(node.value)
        if name is None:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                captured.setdefault(name, set()).add(target.id)
    return captured


def _called_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _handed_off(
    index: ProgramIndex,
    func: FunctionInfo,
    call: ast.Call,
    captures: dict[str, set[str]],
    capture_names: frozenset[str],
    attach_names: frozenset[str],
    callable_expr: ast.expr | None,
    env: dict[str, str],
) -> bool:
    arg_exprs = list(call.args) + [kw.value for kw in call.keywords]
    arg_names: set[str] = set()
    for expr in arg_exprs:
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                arg_names.add(node.id)
            elif isinstance(node, ast.Call):
                name = _called_name(node)
                if name in capture_names:
                    return True  # captured inline in the argument list
    for capture in capture_names:
        if captures.get(capture, set()) & arg_names:
            return True
    if callable_expr is not None:
        for target in _resolve_callable(index, func, env, callable_expr):
            for inner in calls_in(target.node):
                name = _called_name(inner)
                if name in attach_names or name in capture_names:
                    return True
    return False


def _resolve_callable(
    index: ProgramIndex,
    func: FunctionInfo,
    env: dict[str, str],
    expr: ast.expr,
) -> list[FunctionInfo]:
    if isinstance(expr, ast.Name):
        if expr.id in func.nested:
            return [func.nested[expr.id]]
        found = index._module_funcs.get((func.module, expr.id))
        return [found] if found is not None else []
    if isinstance(expr, ast.Attribute):
        base = index.typeof(expr.value, func, env)
        if base is not None and base in index.classes:
            return index.method_targets(base, expr.attr)
    return []
