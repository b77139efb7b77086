"""Rule ``layering``: enforce the declared import-layer DAG.

The DAG (``LAYERS`` in :mod:`repro.tools.lint.model`) orders the
top-level packages under ``repro``; a module may import only packages on
*strictly lower* levels (or its own package).  Violations reported:

* ``layering`` — an import that goes upward or sideways in the DAG;
* ``layering-undeclared`` — an import of a package missing from the DAG;
* ``layering-cycle`` — a cycle in the observed package import graph
  (impossible while the layer rule holds, but reported independently so
  a relaxed layer table cannot silently hide a cycle);
* ``layering-shim`` — an in-tree import of a re-export shim
  (``SHIM_MODULES``) that exists only for code outside the
  tree; import the module it forwards to instead.

Rule ``unreached`` walks the same import edges from the entry points
(``ENTRY_MODULES``), the shims and the benchmark modules
(``BENCHMARK_MODULES``), and flags every module the walk
never reaches: code no command, route or outside importer can run.
Importing ``a.b.c`` runs ``a/__init__`` and ``a/b/__init__`` first, so
the walk reaches those too and follows their imports like any other.
A module that only its package ``__init__`` re-exports therefore
counts as reached as soon as anything in the package is imported, so
the rule also flags each name a package ``__init__`` (not the root's,
the library's public face) re-exports that no module imports through
the package.  A tree with no entry point (a fixture slice) is not checked.

Imports inside ``if TYPE_CHECKING:`` blocks are exempt: they never
execute, so they cannot create runtime import cycles — that is exactly
the escape hatch modules like ``collection.pipeline`` use to annotate
objects owned by higher layers.  Function-local (deferred) imports DO
count: they still run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.tools.lint.model import (
    BENCHMARK_MODULES,
    ENTRY_MODULES,
    SHIM_MODULES,
    Finding,
    Program,
    SourceFile,
    level_of,
)

__all__ = ["check_layering", "check_unreached", "module_imports", "ImportEdge"]


@dataclass(frozen=True)
class ImportEdge:
    """One import statement, resolved to a target module path."""

    target: str  # dotted module path, e.g. "repro.core.cache"
    lineno: int
    type_only: bool
    #: The names a ``from`` import takes (any may be a submodule).
    names: tuple[str, ...] = ()


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name) and test.id == "TYPE_CHECKING":
        return True
    return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"


def _resolve_relative(source: SourceFile, node: ast.ImportFrom) -> str | None:
    """Absolute dotted path for a (possibly relative) ``from`` import."""
    if node.level == 0:
        return node.module
    # Relative to the module's package: strip the module's own name
    # (unless it's a package __init__), then one more part per extra dot.
    base = source.module.split(".")
    if not source.path.name == "__init__.py":
        base = base[:-1]
    up = node.level - 1
    if up:
        base = base[: len(base) - up] if up <= len(base) else []
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base) if base else None


def module_imports(source: SourceFile) -> Iterator[ImportEdge]:
    """Every import in a module, tagged type-only when inside a
    ``TYPE_CHECKING`` block."""

    def walk(nodes: Iterable[ast.stmt], type_only: bool) -> Iterator[ImportEdge]:
        for node in nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield ImportEdge(alias.name, node.lineno, type_only)
            elif isinstance(node, ast.ImportFrom):
                target = _resolve_relative(source, node)
                if target:
                    names = tuple(alias.name for alias in node.names)
                    yield ImportEdge(target, node.lineno, type_only, names)
            elif isinstance(node, ast.If):
                guarded = type_only or _is_type_checking_test(node.test)
                yield from walk(node.body, guarded)
                yield from walk(node.orelse, type_only)
            else:
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, ast.stmt):
                        yield from walk([child], type_only)
                    elif hasattr(child, "body"):
                        body = getattr(child, "body")
                        if isinstance(body, list):
                            yield from walk(
                                [s for s in body if isinstance(s, ast.stmt)],
                                type_only,
                            )

    yield from walk(source.tree.body, False)


def _target_package(target: str, root: str) -> str | None:
    """The top-level subpackage a dotted import path lands in."""
    parts = target.split(".")
    if parts[0] != root:
        return None  # stdlib / third-party: out of scope
    if len(parts) == 1:
        return ""  # the package root itself
    return parts[1]


def check_layering(program: Program) -> list[Finding]:
    findings: list[Finding] = []
    # package -> {imported package -> first (path, line)} runtime edges
    edges: dict[str, dict[str, tuple[str, int]]] = {}
    for source in program.sources:
        root = source.module.partition(".")[0]
        src_level = None if source.package == "" else level_of(source.package)
        if source.package != "" and src_level is None:
            findings.append(
                source.finding(
                    "layering-undeclared",
                    1,
                    f"package {source.package!r} is not declared in the layer DAG",
                )
            )
            continue
        for edge in module_imports(source):
            head, _, rest = edge.target.partition(".")
            if head == root and rest in SHIM_MODULES:
                findings.append(
                    source.finding(
                        "layering-shim",
                        edge.lineno,
                        f"import of {edge.target!r}: a re-export shim kept "
                        f"for code outside the tree; import what it forwards to",
                    )
                )
            dst = _target_package(edge.target, root)
            if dst is None or edge.type_only:
                continue
            if dst == source.package or dst == "":
                continue
            dst_level = level_of(dst)
            if dst_level is None:
                findings.append(
                    source.finding(
                        "layering-undeclared",
                        edge.lineno,
                        f"import of {edge.target!r}: package {dst!r} is not "
                        f"declared in the layer DAG",
                    )
                )
                continue
            if source.package != "":
                edges.setdefault(source.package, {}).setdefault(
                    dst, (source.rel_path, edge.lineno)
                )
            if source.package == "":
                continue  # the root module re-exports everything
            assert src_level is not None
            if dst_level >= src_level:
                direction = "sideways" if dst_level == src_level else "upward"
                findings.append(
                    source.finding(
                        "layering",
                        edge.lineno,
                        f"{source.package!r} (level {src_level}) imports "
                        f"{edge.target!r} ({dst!r}, level {dst_level}): "
                        f"{direction} edge violates the layer DAG",
                    )
                )

    findings.extend(_cycle_findings(edges))
    return findings


def check_unreached(program: Program) -> list[Finding]:
    by_module = {source.module: source for source in program.sources}
    if not by_module:
        return []
    root = next(iter(by_module)).partition(".")[0]
    entries = [f"{root}.{name}" for name in sorted(ENTRY_MODULES)]
    if not any(entry in by_module for entry in entries):
        return []
    pending = [*entries, *(f"{root}.{name}" for name in sorted(SHIM_MODULES | BENCHMARK_MODULES))]
    reached: set[str] = set()
    while pending:
        module = pending.pop()
        source = by_module.get(module)
        if source is None or module in reached:
            continue
        reached.add(module)
        parts = module.split(".")
        pending.extend(".".join(parts[:end]) for end in range(1, len(parts)))
        for edge in module_imports(source):
            if not edge.type_only:
                pending.append(edge.target)
                pending.extend(f"{edge.target}.{name}" for name in edge.names)
    findings = [
        source.finding(
            "unreached",
            1,
            f"module {source.module!r} is imported by no entry point "
            f"({', '.join(sorted(ENTRY_MODULES))}) and is no shim",
        )
        for source in program.sources
        if source.module not in reached
    ]
    through = {(e.target, name) for s in program.sources for e in module_imports(s) for name in e.names}
    for source in program.sources:
        if source.path.name != "__init__.py" or source.module == root:
            continue
        for edge in module_imports(source):
            if edge.target.startswith(f"{source.module}."):
                findings.extend(
                    source.finding(
                        "unreached",
                        edge.lineno,
                        f"{source.module!r} re-exports {name!r} from "
                        f"{edge.target!r}, but no module imports it through the package",
                    )
                    for name in edge.names
                    if (source.module, name) not in through
                )
    return findings


def _cycle_findings(edges: dict[str, dict[str, tuple[str, int]]]) -> list[Finding]:
    """Report each package-graph cycle once, anchored at a witness import."""
    graph = {pkg: set(targets) for pkg, targets in edges.items()}
    findings: list[Finding] = []
    for cycle in _simple_cycles(graph):
        members = set(cycle)
        path, lineno = next(
            edges[pkg][target]
            for pkg in cycle
            for target in sorted(edges.get(pkg, {}))
            if target in members
        )
        pretty = " -> ".join([*cycle, cycle[0]])
        findings.append(
            Finding(
                rule="layering-cycle",
                path=path,
                line=lineno,
                message=f"package import cycle: {pretty}",
                context=f"cycle:{pretty}",
            )
        )
    return findings


def _simple_cycles(graph: dict[str, set[str]]) -> list[list[str]]:
    """Cycles via Tarjan SCCs (each non-trivial SCC reported as one cycle)."""
    index_counter = [0]
    stack: list[str] = []
    lowlink: dict[str, int] = {}
    index: dict[str, int] = {}
    on_stack: set[str] = set()
    cycles: list[list[str]] = []

    def strongconnect(node: str) -> None:
        index[node] = lowlink[node] = index_counter[0]
        index_counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        for successor in sorted(graph.get(node, ())):
            if successor not in graph and successor not in index:
                continue
            if successor not in index:
                strongconnect(successor)
                lowlink[node] = min(lowlink[node], lowlink[successor])
            elif successor in on_stack:
                lowlink[node] = min(lowlink[node], index[successor])
        if lowlink[node] == index[node]:
            component: list[str] = []
            while True:
                successor = stack.pop()
                on_stack.discard(successor)
                component.append(successor)
                if successor == node:
                    break
            if len(component) > 1:
                cycles.append(sorted(component))
            elif node in graph.get(node, ()):
                cycles.append([node])

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)
    return cycles
