"""Rule ``conc-atomicity``: guarded state must be read and acted on
under one continuous lock acquisition.

Two shapes are reported, both on attributes declared with the
``# guarded-by: <lock>`` convention (shared with the ``lock-guard``
rule, which checks *writes* only):

**check-then-act** — a read of the guarded attribute outside the lock
whose value flows (through a local name, or through the test of an
enclosing ``if``) into a value-carrying write under the lock, with no
re-validating read inside the critical section::

    current = self._counts.get(key, 0)      # stale the moment it's read
    with self._lock:
        self._counts[key] = current + 1     # lost-update race

**read-modify-write across a release** — a read under the lock whose
value (again through a tainted name) feeds a write under a *separate*
acquisition of the same lock, with no re-validation in the second
critical section.

The double-check idiom is deliberately *not* flagged: a critical
section that re-reads the attribute before writing (``if key in
self._cubes: self._cubes[key] = cube``) validates its premise under
the lock, which is exactly the fix this rule asks for.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.tools.lint.locks import (
    CONSTRUCTOR_METHODS,
    MUTATING_METHODS,
    guarded_attributes,
    self_attribute,
)
from repro.tools.lint.model import Finding, Program, SourceFile

__all__ = ["check_atomicity"]

@dataclass
class _Read:
    attr: str
    line: int
    #: Local names assigned from the statement containing the read.
    tainted: frozenset[str]
    #: The ``if``/``while`` statement whose test contained the read.
    branch: ast.stmt | None = None


@dataclass
class _Block:
    """One ``with self.<lock>:`` critical section."""

    lock: str
    node: ast.stmt
    start: int
    #: attr -> first value-carrying write line inside the block.
    writes: dict[str, int] = field(default_factory=dict)
    #: Attributes re-read (validated) inside the block.
    validated: set[str] = field(default_factory=set)
    #: Names loaded anywhere in the block.
    loaded: set[str] = field(default_factory=set)
    #: Names assigned inside the block from a read of attr: name -> attr.
    taints: dict[str, str] = field(default_factory=dict)
    #: Tests of ``if``/``while`` statements enclosing this block.
    guards: tuple[ast.expr, ...] = ()


def check_atomicity(program: Program) -> list[Finding]:
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
        findings.extend(_check_method(source, cls, method, guarded))
    return findings


def _check_method(
    source: SourceFile,
    cls: ast.ClassDef,
    method: ast.FunctionDef | ast.AsyncFunctionDef,
    guarded: dict[str, str],
) -> list[Finding]:
    reads: list[_Read] = []
    blocks: list[_Block] = []
    _scan(method.body, guarded, frozenset(), (), None, reads, blocks)

    findings: list[Finding] = []
    reported: set[tuple[str, int]] = set()

    for block in blocks:
        for attr, write_line in block.writes.items():
            if attr in block.validated:
                continue
            # check-then-act: an unguarded read before this block whose
            # value reaches the critical section.
            for read in reads:
                if read.attr != attr or read.line >= block.start:
                    continue
                if not _flows_into(read, block):
                    continue
                key = (attr, read.line)
                if key in reported:
                    continue
                reported.add(key)
                findings.append(
                    source.finding(
                        "conc-atomicity",
                        read.line,
                        f"check-then-act race: {cls.name}.{attr} is read "
                        f"outside self.{guarded[attr]} here, and the stale "
                        f"value flows into a write under the lock at line "
                        f"{write_line}; re-validate inside the critical "
                        f"section",
                    )
                )
    # read-modify-write spanning a lock release.
    for later in blocks:
        for attr, write_line in later.writes.items():
            if attr in later.validated:
                continue
            for earlier in blocks:
                if earlier is later or earlier.start >= later.start:
                    continue
                if earlier.lock != later.lock:
                    continue
                tainted = {
                    name for name, src in earlier.taints.items() if src == attr
                }
                if not tainted:
                    continue
                used = tainted & later.loaded
                used |= {
                    name
                    for name in tainted
                    for guard in later.guards
                    if name in _names_loaded(guard)
                }
                if not used:
                    continue
                key = (attr, write_line)
                if key in reported:
                    continue
                reported.add(key)
                findings.append(
                    source.finding(
                        "conc-atomicity",
                        write_line,
                        f"read-modify-write spans a lock release: "
                        f"{cls.name}.{attr} was read under self."
                        f"{later.lock} at line {earlier.start} but this "
                        f"dependent write happens under a separate "
                        f"acquisition; hold the lock across the whole "
                        f"sequence or re-validate here",
                    )
                )
    return findings


def _flows_into(read: _Read, block: _Block) -> bool:
    if read.tainted & block.loaded:
        return True
    for guard in block.guards:
        if read.tainted & _names_loaded(guard):
            return True
    if read.branch is not None and _contains(read.branch, block.node):
        return True
    return False


def _contains(outer: ast.stmt, inner: ast.stmt) -> bool:
    return any(child is inner for child in ast.walk(outer))


def _names_loaded(node: ast.AST) -> set[str]:
    return {
        child.id
        for child in ast.walk(node)
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load)
    }


def _scan(
    stmts: list[ast.stmt],
    guarded: dict[str, str],
    held: frozenset[str],
    guards: tuple[ast.expr, ...],
    block: _Block | None,
    reads: list[_Read],
    blocks: list[_Block],
) -> None:
    for stmt in stmts:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            acquired = {
                attr
                for item in stmt.items
                if (attr := self_attribute(item.context_expr)) is not None
            }
            relevant = acquired & set(guarded.values())
            if relevant and block is None:
                new_block = _Block(
                    lock=sorted(relevant)[0],
                    node=stmt,
                    start=stmt.lineno,
                    guards=guards,
                )
                blocks.append(new_block)
                _scan(
                    stmt.body, guarded, held | acquired, guards, new_block,
                    reads, blocks,
                )
            else:
                _scan(
                    stmt.body, guarded, held | acquired, guards, block,
                    reads, blocks,
                )
            continue
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(stmt, (ast.If, ast.While)):
            _record_stmt_effects(stmt.test, stmt, guarded, held, block, reads)
            inner_guards = guards + (stmt.test,)
            _scan(stmt.body, guarded, held, inner_guards, block, reads, blocks)
            _scan(stmt.orelse, guarded, held, inner_guards, block, reads, blocks)
            continue
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            _record_stmt_effects(stmt.iter, stmt, guarded, held, block, reads)
            _scan(stmt.body, guarded, held, guards, block, reads, blocks)
            _scan(stmt.orelse, guarded, held, guards, block, reads, blocks)
            continue
        if isinstance(stmt, ast.Try):
            _scan(stmt.body, guarded, held, guards, block, reads, blocks)
            for handler in stmt.handlers:
                _scan(handler.body, guarded, held, guards, block, reads, blocks)
            _scan(stmt.orelse, guarded, held, guards, block, reads, blocks)
            _scan(stmt.finalbody, guarded, held, guards, block, reads, blocks)
            continue
        _record_stmt_effects(stmt, stmt, guarded, held, block, reads)
        if block is not None:
            _record_block_write(stmt, guarded, block)


def _guarded_reads(node: ast.AST, guarded: dict[str, str]) -> list[ast.Attribute]:
    """Load references of guarded ``self.<attr>``, excluding mutation
    receivers, store-target containers, and aug-assign targets."""
    excluded: set[int] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
            receiver = child.func.value
            if child.func.attr in MUTATING_METHODS and self_attribute(receiver):
                excluded.add(id(child.func.value))
        elif isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets: list[ast.expr]
            if isinstance(child, ast.Assign):
                targets = list(child.targets)
            elif isinstance(child, ast.Delete):
                targets = list(child.targets)
            else:
                targets = [child.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Attribute) and self_attribute(leaf):
                        excluded.add(id(leaf))
    found: list[ast.Attribute] = []
    for child in ast.walk(node):
        if (
            isinstance(child, ast.Attribute)
            and isinstance(child.ctx, ast.Load)
            and self_attribute(child) is not None
            and child.attr in guarded
            and id(child) not in excluded
        ):
            found.append(child)
    return found


def _record_stmt_effects(
    expr_or_stmt: ast.AST,
    stmt: ast.stmt,
    guarded: dict[str, str],
    held: frozenset[str],
    block: _Block | None,
    reads: list[_Read],
) -> None:
    for attr_node in _guarded_reads(expr_or_stmt, guarded):
        attr = attr_node.attr
        lock = guarded[attr]
        tainted = _assigned_names(stmt)
        if lock in held:
            if block is not None:
                block.validated.add(attr)
                for name in tainted:
                    block.taints.setdefault(name, attr)
        else:
            branch = stmt if isinstance(stmt, (ast.If, ast.While)) else None
            reads.append(
                _Read(
                    attr=attr,
                    line=attr_node.lineno,
                    tainted=frozenset(tainted),
                    branch=branch,
                )
            )
    if block is not None:
        block.loaded.update(_names_loaded(expr_or_stmt))


def _assigned_names(stmt: ast.stmt) -> set[str]:
    names: set[str] = set()
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            for leaf in ast.walk(target):
                if isinstance(leaf, ast.Name):
                    names.add(leaf.id)
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        if isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
    elif isinstance(stmt, (ast.If, ast.While)):
        pass  # branch membership handles flow
    return names


def _record_block_write(
    stmt: ast.stmt, guarded: dict[str, str], block: _Block
) -> None:
    """Value-carrying writes of guarded attrs inside a critical section."""
    targets: list[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        targets = [stmt.target]
    for target in targets:
        leaves = (
            list(target.elts)
            if isinstance(target, (ast.Tuple, ast.List))
            else [target]
        )
        for leaf in leaves:
            attr_node = leaf
            if isinstance(leaf, ast.Subscript):
                attr_node = leaf.value
            if (
                isinstance(attr_node, ast.Attribute)
                and self_attribute(attr_node) is not None
                and attr_node.attr in guarded
                and guarded[attr_node.attr] == block.lock
            ):
                block.writes.setdefault(attr_node.attr, leaf.lineno)
