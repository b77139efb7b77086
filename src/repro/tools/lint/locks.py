"""Rule ``lock-guard``: writes to lock-guarded attributes must hold the lock.

An attribute is declared guarded by annotating its initialisation site
with a ``# guarded-by: <lock>`` comment::

    self._lock = threading.Lock()
    self._cubes: OrderedDict[...] = OrderedDict()  # guarded-by: _lock

After that declaration, every *mutation* of ``self._cubes`` in the
class — assignment, augmented assignment, item store/delete, or a call
to a known mutating method (``append``, ``clear``, ``move_to_end``,
...) — must sit lexically inside ``with self._lock:``.  ``__init__``
and ``__post_init__`` are exempt (the object is not shared while it is
being constructed); reads are not checked (CPython reads of a dict are
atomic, and read policy is the class's business).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.tools.lint.model import Finding, Program, SourceFile

__all__ = [
    "check_locks",
    "guarded_attributes",
    "self_attribute",
    "CONSTRUCTOR_METHODS",
    "MUTATING_METHODS",
]

#: Method names treated as in-place mutation of the receiver.
MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "extendleft",
        "insert",
        "move_to_end",
        "pop",
        "popitem",
        "remove",
        "reverse",
        "rotate",
        "setdefault",
        "sort",
        "update",
    }
)

#: Methods that run before the object is shared; exempt from lock rules.
CONSTRUCTOR_METHODS = frozenset({"__init__", "__post_init__", "__new__"})


def self_attribute(node: ast.expr) -> str | None:
    """``self.<attr>`` -> attr name, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _mutated_attrs(node: ast.stmt) -> Iterator[tuple[str, int]]:
    """(attr, lineno) pairs this single statement mutates on ``self``."""
    targets: list[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        if isinstance(node, ast.AnnAssign) and node.value is None:
            targets = []
        else:
            targets = [node.target]
    elif isinstance(node, ast.Delete):
        targets = list(node.targets)
    for target in targets:
        for leaf in _unpack_targets(target):
            attr = _store_target_attr(leaf)
            if attr is not None:
                yield attr, leaf.lineno
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
        call = node.value
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in MUTATING_METHODS
        ):
            attr = self_attribute(call.func.value)
            if attr is not None:
                yield attr, call.lineno


def _unpack_targets(target: ast.expr) -> Iterator[ast.expr]:
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _unpack_targets(element)
    else:
        yield target


def _store_target_attr(target: ast.expr) -> str | None:
    """Attr name when the store/delete target is ``self.x`` or ``self.x[...]``."""
    attr = self_attribute(target)
    if attr is not None:
        return attr
    if isinstance(target, ast.Subscript):
        return self_attribute(target.value)
    return None


def _locks_acquired(item: ast.withitem) -> str | None:
    return self_attribute(item.context_expr)


def check_locks(program: Program) -> list[Finding]:
    findings: list[Finding] = []
    for source in program.sources:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(_check_class(source, node))
    return findings


def _check_class(source: SourceFile, cls: ast.ClassDef) -> list[Finding]:
    guarded = guarded_attributes(source, cls)
    if not guarded:
        return []
    findings: list[Finding] = []
    for method in cls.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if method.name in CONSTRUCTOR_METHODS:
            continue
        findings.extend(
            _check_statements(source, cls, method.body, guarded, frozenset())
        )
    return findings


def guarded_attributes(source: SourceFile, cls: ast.ClassDef) -> dict[str, str]:
    """attr -> lock name, from ``# guarded-by:`` comments on init sites.

    The comment may sit on any line of the statement: a long
    initializer often carries it on its closing bracket.
    """
    guarded: dict[str, str] = {}
    for node in ast.walk(cls):
        if not isinstance(node, ast.stmt):
            continue
        end = node.end_lineno or node.lineno
        comments = map(source.guarded_comment, range(node.lineno, end + 1))
        lock = next((name for name in comments if name is not None), None)
        for attr, _ in _mutated_attrs(node) if lock is not None else ():
            guarded[attr] = lock
    return guarded


def _check_statements(
    source: SourceFile,
    cls: ast.ClassDef,
    body: list[ast.stmt],
    guarded: dict[str, str],
    held: frozenset[str],
) -> list[Finding]:
    findings: list[Finding] = []
    for node in body:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired = {
                lock
                for item in node.items
                if (lock := _locks_acquired(item)) is not None
            }
            findings.extend(
                _check_statements(
                    source, cls, node.body, guarded, held | frozenset(acquired)
                )
            )
            continue
        for attr, lineno in _mutated_attrs(node):
            lock = guarded.get(attr)
            if lock is None or lock in held:
                continue
            if source.guarded_comment(lineno) is not None:
                continue  # the declaration site itself
            findings.append(
                source.finding(
                    "lock-guard",
                    lineno,
                    f"{cls.name}.{attr} is guarded by self.{lock} but is "
                    f"mutated outside `with self.{lock}:`",
                )
            )
        # Recurse into nested compound statements (if/for/try/def...).
        for child_body in _nested_bodies(node):
            findings.extend(
                _check_statements(source, cls, child_body, guarded, held)
            )
    return findings


def _nested_bodies(node: ast.stmt) -> Iterator[list[ast.stmt]]:
    for field_name in ("body", "orelse", "finalbody"):
        value = getattr(node, field_name, None)
        if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
            yield value
    for handler in getattr(node, "handlers", ()):
        if isinstance(handler, ast.ExceptHandler):
            yield handler.body
