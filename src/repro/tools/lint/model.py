"""Shared data model for the analyzer: findings, parsed files, the program.

A :class:`SourceFile` bundles everything a rule needs about one module:
the parsed AST, the raw lines, the per-line comments (rules use these
for the ``# guarded-by:`` convention and ``# lint: allow[...]``
suppressions), and the module's dotted name and its package under the
root.  A :class:`Program` is one run's view of the whole tree: every source
file plus the whole-program index and lock simulation, built once.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from repro.tools.lint.callgraph import ProgramIndex
    from repro.tools.lint.locksim import LockSimResult

__all__ = [
    "Finding",
    "Program",
    "SourceFile",
    "LAYERS",
    "SHIM_MODULES",
    "ENTRY_MODULES",
    "BENCHMARK_MODULES",
    "HOT_PATH_PACKAGES",
    "OBS_PACKAGES",
    "CUBE_ORDER_STRICT_PACKAGES",
    "level_of",
    "load_source_file",
    "collect_source_files",
]

#: The declared layer DAG, bottom (most importable) to top.  A package
#: may import only packages on strictly lower levels; packages sharing
#: a level (``osm``/``obs``; ``synth`` and the row-store comparison
#: system) are siblings and may not import each other.  The package
#: root (``repro/__init__.py``) re-exports the public API and sits
#: above everything.
LAYERS: tuple[frozenset[str], ...] = (
    frozenset({"errors"}),
    frozenset({"types"}),
    frozenset({"geo"}),
    frozenset({"osm", "obs"}),
    frozenset({"collection"}),
    frozenset({"storage"}),
    frozenset({"core"}),
    frozenset({"baseline", "synth"}),
    frozenset({"dashboard"}),
    frozenset({"system"}),
    frozenset({"tools"}),
    frozenset({"cli"}),
)

#: Re-export shims (dotted, below the root package) that exist only for
#: importers outside the tree — ``core.calendar`` for the frozen
#: benchmark harness — and that no module in the tree may import.
SHIM_MODULES = frozenset({"core.calendar"})

#: Entry points (dotted, below the root package): the ``rased-repro``
#: console script and ``python -m repro.tools.lint``.  With the shims
#: and the benchmark modules they are the roots the ``unreached`` rule
#: walks imports from.
ENTRY_MODULES = frozenset({"cli", "tools.lint.__main__"})

#: What no command serves but the benchmarks measure the paper's figures
#: with: the row-store and Fig. 9 comparators, the harness's workloads.
BENCHMARK_MODULES = frozenset({"baseline.flat", "baseline.rowstore", "synth.scale", "synth.workload"})

#: Packages where wall-clock calls are forbidden (inject clocks or use
#: the trace layer instead).
HOT_PATH_PACKAGES = frozenset({"core", "storage"})

#: Packages exempt from the metric-name rule (the registry itself, and
#: the analyzer).
OBS_PACKAGES = frozenset({"obs", "tools"})

#: Packages where *partial* axis tuples are also checked for order
#: (construction/serialization code); elsewhere only tuples naming all
#: four axes are checked.
CUBE_ORDER_STRICT_PACKAGES = frozenset({"types", "storage", "core"})

_SUPPRESS_RE = re.compile(r"lint:\s*allow\[([a-z0-9_,\- ]+)\]")
_GUARDED_RE = re.compile(r"guarded-by:\s*(\w+)")


def level_of(package: str) -> int | None:
    for index, names in enumerate(LAYERS):
        if package in names:
            return index
    return None


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    message: str
    #: The stripped source line, for reports.
    context: str = ""

    def to_json(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "context": self.context,
        }


@dataclass
class SourceFile:
    """One parsed module plus the comment metadata rules rely on."""

    path: Path
    rel_path: str
    module: str
    package: str
    text: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    #: lineno -> full comment text (without the leading ``#``).
    comments: dict[int, str] = field(default_factory=dict)
    #: lineno -> rule names suppressed on that line via
    #: ``# lint: allow[rule]`` (``*`` suppresses every rule).
    suppressions: dict[int, frozenset[str]] = field(default_factory=dict)

    def line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(self, rule: str, lineno: int, message: str) -> Finding:
        return Finding(
            rule=rule,
            path=self.rel_path,
            line=lineno,
            message=message,
            context=self.line(lineno),
        )

    def guarded_comment(self, lineno: int) -> str | None:
        """The lock name from a ``# guarded-by: <name>`` comment."""
        comment = self.comments.get(lineno)
        if comment is None:
            return None
        match = _GUARDED_RE.search(comment)
        return match.group(1) if match else None

    def is_suppressed(self, finding: Finding) -> bool:
        allowed = self.suppressions.get(finding.line)
        if not allowed:
            return False
        return "*" in allowed or finding.rule in allowed


@dataclass
class Program:
    """Everything one run analyzes: the parsed tree, and the
    whole-program index and lock simulation the interprocedural rules
    share (built once per run)."""

    sources: list[SourceFile]
    index: ProgramIndex
    sim: LockSimResult


def _extract_comments(text: str) -> dict[int, str]:
    comments: dict[int, str] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string.lstrip("#").strip()
    except tokenize.TokenError:
        pass  # keep whatever comments tokenized before the bad region
    return comments


def _extract_suppressions(
    comments: dict[int, str],
) -> dict[int, frozenset[str]]:
    suppressions: dict[int, frozenset[str]] = {}
    for lineno, comment in comments.items():
        match = _SUPPRESS_RE.search(comment)
        if match:
            rules = frozenset(
                part.strip() for part in match.group(1).split(",") if part.strip()
            )
            if rules:
                suppressions[lineno] = rules
    return suppressions


def load_source_file(path: Path, package_root: Path) -> SourceFile:
    """Parse one file into a :class:`SourceFile`.

    ``package_root`` is the directory of the root package (e.g.
    ``src/repro``) and its name is that package's import name; module
    and package names are derived from the path relative to it.
    """
    text = path.read_text(encoding="utf-8")
    root = package_root.name
    rel = path.relative_to(package_root)
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    module = ".".join([root, *parts]) if parts else root
    # The package root module (repro/__init__.py) belongs to no layer.
    package = parts[0] if parts else ""
    tree = ast.parse(text, filename=str(path))
    comments = _extract_comments(text)
    return SourceFile(
        path=path,
        rel_path=rel.as_posix(),
        module=module,
        package=package,
        text=text,
        tree=tree,
        lines=text.splitlines(),
        comments=comments,
        suppressions=_extract_suppressions(comments),
    )


def collect_source_files(package_root: Path) -> Iterator[SourceFile]:
    """Load every ``.py`` file under the package root, sorted by path."""
    for path in sorted(package_root.rglob("*.py")):
        yield load_source_file(path, package_root)
