"""Hot-path and error-handling hygiene rules.

* ``hot-path-clock`` — no wall-clock reads (``time.time``,
  ``datetime.now``/``utcnow``/``today``, ``date.today``) in the
  hot-path packages (``core``, ``storage``).  Hot paths must take
  timestamps from injected clocks or the trace layer so query latency
  accounting stays deterministic and testable.
* ``broad-except`` — ``except Exception``/bare ``except`` must
  re-raise somewhere in the handler, or carry a
  ``# lint: allow[broad-except] <reason>`` justification.
* ``except-pass`` — a broad handler whose entire body is ``pass``
  (silent swallowing) is always reported, even when re-raising
  elsewhere would excuse ``broad-except``.
* ``mutable-default`` — no mutable default argument values.
* ``todo`` — no ``TODO``/``FIXME``/``XXX`` comments: fix it now, or
  accept it on its line with ``# lint: allow[todo] <reason>``, where
  review sees it.
"""

from __future__ import annotations

import ast
import re

from repro.tools.lint.model import HOT_PATH_PACKAGES, Finding, Program

__all__ = [
    "check_wall_clock",
    "check_broad_except",
    "check_mutable_defaults",
    "check_todos",
    "WALL_CLOCK_CALLS",
]

#: Fully-resolved callables that read the wall clock.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_TODO_RE = re.compile(r"\b(TODO|FIXME|XXX)\b")


def _import_origins(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted origin, from a module's import statements."""
    origins: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                origins[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                origins[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return origins


def _dotted_name(node: ast.expr, origins: dict[str, str]) -> str | None:
    """Resolve a call target to its dotted origin, following imports."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = origins.get(node.id, node.id)
    parts.append(root)
    return ".".join(reversed(parts))


def check_wall_clock(program: Program) -> list[Finding]:
    findings: list[Finding] = []
    for source in program.sources:
        if source.package not in HOT_PATH_PACKAGES:
            continue
        origins = _import_origins(source.tree)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_name(node.func, origins)
            if dotted in WALL_CLOCK_CALLS:
                findings.append(
                    source.finding(
                        "hot-path-clock",
                        node.lineno,
                        f"wall-clock call {dotted}() in hot-path package "
                        f"{source.package!r}; inject a clock or use the "
                        f"trace layer",
                    )
                )
    return findings


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    candidates: list[ast.expr] = (
        list(handler.type.elts)
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for candidate in candidates:
        name = (
            candidate.id
            if isinstance(candidate, ast.Name)
            else candidate.attr
            if isinstance(candidate, ast.Attribute)
            else None
        )
        if name in ("Exception", "BaseException"):
            return True
    return False


def _body_is_pass(body: list[ast.stmt]) -> bool:
    real = [
        stmt
        for stmt in body
        if not (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, (str, type(Ellipsis)))
        )
    ]
    return all(isinstance(stmt, ast.Pass) for stmt in real)


def _reraises(body: list[ast.stmt]) -> bool:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Raise):
                return True
    return False


def check_broad_except(program: Program) -> list[Finding]:
    findings: list[Finding] = []
    for source in program.sources:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ExceptHandler) or not _is_broad(node):
                continue
            if _body_is_pass(node.body):
                findings.append(
                    source.finding(
                        "except-pass",
                        node.lineno,
                        "broad exception handler silently swallows errors "
                        "(`except ...: pass`)",
                    )
                )
                continue
            if not _reraises(node.body):
                findings.append(
                    source.finding(
                        "broad-except",
                        node.lineno,
                        "broad exception handler neither re-raises nor "
                        "carries a `# lint: allow[broad-except]` "
                        "justification",
                    )
                )
    return findings


def check_mutable_defaults(program: Program) -> list[Finding]:
    findings: list[Finding] = []
    mutable_calls = frozenset({"list", "dict", "set", "OrderedDict", "defaultdict"})
    for source in program.sources:
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                bad = isinstance(
                    default, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp)
                ) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in mutable_calls
                )
                if bad:
                    findings.append(
                        source.finding(
                            "mutable-default",
                            default.lineno,
                            f"mutable default argument in {node.name}(); "
                            f"use None and construct inside the function",
                        )
                    )
    return findings


def check_todos(program: Program) -> list[Finding]:
    findings: list[Finding] = []
    for source in program.sources:
        for lineno, comment in sorted(source.comments.items()):
            match = _TODO_RE.search(comment)
            if match:
                findings.append(
                    source.finding(
                        "todo",
                        lineno,
                        f"{match.group(1)} comment; fix it, or accept it "
                        f"with `# lint: allow[todo] <reason>`",
                    )
                )
    return findings
