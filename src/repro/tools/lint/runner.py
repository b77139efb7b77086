"""Run every rule over a package tree and aggregate the report."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.tools.lint.atomicity import check_atomicity
from repro.tools.lint.blocking import check_blocking
from repro.tools.lint.callgraph import ProgramIndex
from repro.tools.lint.cubeschema import check_cube_order, check_metric_names
from repro.tools.lint.hygiene import (
    check_broad_except,
    check_mutable_defaults,
    check_todos,
    check_wall_clock,
)
from repro.tools.lint.layering import check_layering, check_unreached
from repro.tools.lint.locks import check_locks
from repro.tools.lint.locksim import simulate
from repro.tools.lint.model import Finding, Program, collect_source_files

__all__ = ["LintReport", "RULES", "run_lint", "default_package_root"]

Rule = Callable[[Program], list[Finding]]

#: Rule family -> checker.  A checker may emit several rule ids
#: (e.g. ``layering`` also emits ``layering-cycle``).
RULES: dict[str, Rule] = {
    "layering": check_layering,
    "unreached": check_unreached,
    "lock-guard": check_locks,
    "hot-path-clock": check_wall_clock,
    "broad-except": check_broad_except,
    "mutable-default": check_mutable_defaults,
    "cube-order": check_cube_order,
    "metric-name": check_metric_names,
    "todo": check_todos,
    "conc-blocking": check_blocking,
    "conc-atomicity": check_atomicity,
}


@dataclass
class LintReport:
    """Everything one run produced."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_scanned: int = 0
    #: The static lock graph: locks discovered, and distinct
    #: (held, acquired) pairs of nested acquisition.
    lock_count: int = 0
    edge_count: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_json(self) -> dict[str, object]:
        return {
            "ok": self.ok,
            "files_scanned": self.files_scanned,
            "suppressed": self.suppressed,
            "locks": self.lock_count,
            "lock_order_edges": self.edge_count,
            "findings": [finding.to_json() for finding in self.findings],
        }


def default_package_root() -> Path:
    """The ``repro`` package directory this installation runs from."""
    return Path(__file__).resolve().parents[2]


def run_lint(package_root: Path | None = None) -> LintReport:
    """Run every rule; findings surviving ``# lint: allow[...]`` fail."""
    root = package_root if package_root is not None else default_package_root()
    sources = list(collect_source_files(root))
    index = ProgramIndex(sources)
    program = Program(sources=sources, index=index, sim=simulate(index))
    by_path = {source.rel_path: source for source in sources}

    report = LintReport(
        files_scanned=len(sources),
        lock_count=len(program.sim.locks),
        edge_count=len(program.sim.edges),
    )
    for checker in RULES.values():
        for finding in checker(program):
            source = by_path.get(finding.path)
            if source is not None and source.is_suppressed(finding):
                report.suppressed += 1
            else:
                report.findings.append(finding)
    report.findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return report
