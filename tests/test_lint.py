"""Tests for the project static analyzer (``repro.tools.lint``).

Rule behaviour is pinned against the deliberately broken package tree
in ``tests/lint_fixtures/fixturepkg`` (one must-flag and one must-pass
site per rule; ``unreachedpkg`` beside it is the ``unreached`` rule's,
since that rule needs an entry point), and the real ``src/repro`` tree
is asserted clean.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.tools.lint.runner import LintReport, RULES, run_lint
from repro.tools.lint.cli import main as lint_main
from repro.tools.lint.layering import module_imports
from repro.tools.lint.model import (
    ENTRY_MODULES,
    LAYERS,
    SHIM_MODULES,
    load_source_file,
)
from repro.tools.lint.runner import default_package_root

FIXTURE_ROOT = Path(__file__).resolve().parent / "lint_fixtures" / "fixturepkg"
UNREACHED_ROOT = FIXTURE_ROOT.parent / "unreachedpkg"

#: Every surviving rule id, with its exact count over the fixture tree.
FIXTURE_COUNTS = {
    "layering": 2,
    "layering-cycle": 1,
    "layering-undeclared": 2,
    "layering-shim": 1,
    "lock-guard": 4,
    "hot-path-clock": 2,
    "except-pass": 1,
    "broad-except": 1,
    "mutable-default": 1,
    "cube-order": 3,
    "metric-name": 6,
    "todo": 1,
    "conc-blocking": 2,
    "conc-atomicity": 2,
}


@pytest.fixture(scope="module")
def fixture_report() -> LintReport:
    return run_lint(FIXTURE_ROOT)


def _findings(report: LintReport, rule: str):
    return [f for f in report.findings if f.rule == rule]


# ---------------------------------------------------------------- fixtures


def test_fixture_tree_rule_counts(fixture_report: LintReport) -> None:
    counts = Counter(f.rule for f in fixture_report.findings)
    assert counts == FIXTURE_COUNTS
    assert fixture_report.suppressed == 1
    assert not fixture_report.ok


def test_layering_flags_upward_and_sideways(fixture_report: LintReport) -> None:
    by_path = {f.path: f.message for f in _findings(fixture_report, "layering")}
    assert "upward edge" in by_path["errors/__init__.py"]
    assert "sideways edge" in by_path["osm/__init__.py"]


def test_layering_reports_the_cycle_once(fixture_report: LintReport) -> None:
    (cycle,) = _findings(fixture_report, "layering-cycle")
    assert "core -> errors -> core" in cycle.message


def test_layering_flags_undeclared_packages(fixture_report: LintReport) -> None:
    paths = {f.path for f in _findings(fixture_report, "layering-undeclared")}
    # Once for the undeclared package itself, once at the import site.
    assert paths == {
        "notalayer/__init__.py",
        "dashboard/imports_undeclared.py",
    }


def test_layering_flags_shim_imports_only(fixture_report: LintReport) -> None:
    (finding,) = _findings(fixture_report, "layering-shim")
    assert finding.path == "dashboard/imports_shim.py"
    assert "fixturepkg.core.calendar" in finding.message
    # The real tree keeps one shim, for the frozen benchmark harness.
    assert SHIM_MODULES == {"core.calendar"}
    assert (default_package_root() / "core" / "calendar.py").is_file()


def test_unreached_flags_only_what_no_root_imports() -> None:
    report = run_lint(UNREACHED_ROOT)
    assert {(f.rule, f.path) for f in report.findings} == {
        ("unreached", "core/stability.py"),  # imported by nothing
        ("unreached", "core/typed_only.py"),  # imported under TYPE_CHECKING only
        ("unreached", "synth/__init__.py"),  # re-exports what no one imports through it
    }
    [reexport] = [f for f in report.findings if f.path == "synth/__init__.py"]
    assert "'plant'" in reexport.message and reexport.line == 4
    # Not flagged: the shim (a root), what only the shim imports, a
    # function-local import, a module reached only through its package
    # __init__'s re-export, and the re-export cli.py imports through it.
    assert ENTRY_MODULES == {"cli", "tools.lint.__main__"}
    assert "entry point" in min(report.findings, key=lambda f: f.path).message


def test_unreached_skips_a_tree_without_an_entry_point(
    fixture_report: LintReport,
) -> None:
    assert not _findings(fixture_report, "unreached")


def test_type_checking_imports_are_exempt(fixture_report: LintReport) -> None:
    assert not any(
        f.path == "collection/pipeline.py" for f in fixture_report.findings
    )
    source = load_source_file(FIXTURE_ROOT / "collection" / "pipeline.py", FIXTURE_ROOT)
    edges = {e.target: e for e in module_imports(source)}
    assert edges["fixturepkg.core.clock"].type_only


def test_lock_guard_flags_only_unguarded_mutations(
    fixture_report: LintReport,
) -> None:
    found = _findings(fixture_report, "lock-guard")
    assert {f.path for f in found} == {"core/locks.py", "core/singleflight.py"}
    contexts = {f.context for f in found}
    assert contexts == {
        "self._items[key] = value  # unguarded subscript store",
        "self._items.pop(key, None)  # unguarded mutator call",
        "self._order.clear()  # unguarded; declared on a closing bracket",
        "self._inflight.pop(key, None)  # unguarded inflight pop",
    }
    assert all("guarded by self._lock" in f.message for f in found)


def test_hot_path_clock_only_in_hot_packages(fixture_report: LintReport) -> None:
    found = _findings(fixture_report, "hot-path-clock")
    assert {f.path for f in found} == {"core/clock.py"}
    assert {f.message.split("(")[0].split()[-1] for f in found} == {
        "time.time",
        "datetime.datetime.now",
    }


def test_broad_except_split_and_suppression(fixture_report: LintReport) -> None:
    (swallowed,) = _findings(fixture_report, "except-pass")
    (dropped,) = _findings(fixture_report, "broad-except")
    assert swallowed.path == dropped.path == "geo/hygiene.py"
    # The `justified()` handler carries `# lint: allow[broad-except]`.
    assert fixture_report.suppressed == 1
    assert "allow[broad-except]" not in dropped.context


def test_mutable_default(fixture_report: LintReport) -> None:
    (finding,) = _findings(fixture_report, "mutable-default")
    assert "bad_default" in finding.message


def test_cube_order_strict_vs_presentation(fixture_report: LintReport) -> None:
    found = _findings(fixture_report, "cube-order")
    by_path = {f.path: f for f in found}
    # Strict package: even a 2-axis subset must be ordered.
    assert "('country', 'element_type')" in by_path["storage/pages.py"].message
    # The sparse decode path is storage too: a permuted full tuple is
    # flagged while the ordered full/partial tuples next to it are not.
    assert "SPARSE_DECODE_BAD" in by_path["storage/sparse_kernel.py"].context
    assert not any(
        "SPARSE_DECODE_GOOD" in f.context or "SPARSE_PARTIAL_GOOD" in f.context
        for f in found
    )
    # Presentation package: partial tuples are a user choice, full order is not.
    assert "FULL_BAD" in by_path["dashboard/charts.py"].context


def test_metric_name_hygiene(fixture_report: LintReport) -> None:
    found = _findings(fixture_report, "metric-name")
    assert {f.path for f in found} == {
        "collection/metrics.py",
        "dashboard/admission.py",
        "dashboard/slo_metrics.py",
    }
    messages = " ".join(f.message for f in found)
    assert ".inc()" in messages  # literal passed to a registry writer
    assert "inside a function" in messages  # metric_key() not at module scope
    # The module-level metric_key() constants are NOT among the findings.
    assert not any("_K_OK" in f.context for f in found)
    assert not any("_M_SHED_OK" in f.context for f in found)
    assert not any("_M_SLO_OK" in f.context for f in found)
    assert not any("_M_TRACE_KEPT" in f.context for f in found)
    # The admission metric family is covered like any other: a literal
    # rased_admission_* name in a registry writer is flagged.
    admission = [f for f in found if f.path == "dashboard/admission.py"]
    assert any("rased_admission_requests_total" in f.context for f in admission)
    assert any(
        "rased_admission_deadline_hits_total" in f.context for f in admission
    )
    # Same discipline for the SLO / flight-recorder families.
    slo = [f for f in found if f.path == "dashboard/slo_metrics.py"]
    assert any("rased_slo_requests_total" in f.context for f in slo)
    assert any("rased_trace_dropped_total" in f.context for f in slo)


def test_todo_tracking(fixture_report: LintReport) -> None:
    (finding,) = _findings(fixture_report, "todo")
    assert finding.path == "geo/hygiene.py"
    assert "TODO" in finding.message


# ---------------------------------------------------------------- real tree


def test_real_tree_is_clean_without_baseline() -> None:
    report = run_lint()
    assert report.findings == [], [
        f"{f.path}:{f.line} [{f.rule}] {f.message}" for f in report.findings
    ]
    assert report.files_scanned > 50


def test_every_source_package_is_declared() -> None:
    declared = {name for level in LAYERS for name in level}
    packages = {
        child.name
        for child in default_package_root().iterdir()
        if child.is_dir() and (child / "__init__.py").exists()
    }
    assert packages <= declared


# ---------------------------------------------------------------- CLI


def test_cli_json_on_fixture_tree(capsys: pytest.CaptureFixture) -> None:
    # The top package is the --root directory's name, so the fixture
    # tree's own imports resolve and every rule fires.
    rc = lint_main(["--root", str(FIXTURE_ROOT), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert payload["ok"] is False
    assert Counter(f["rule"] for f in payload["findings"]) == FIXTURE_COUNTS


def test_cli_real_tree_passes(capsys: pytest.CaptureFixture) -> None:
    rc = lint_main(["--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["ok"] is True and payload["findings"] == []


def test_rased_repro_cli_has_lint_subcommand() -> None:
    from repro.cli import build_parser

    args = build_parser().parse_args(["lint", "--format", "json"])
    assert args.format == "json" and callable(args.func)


def test_rules_registry_names() -> None:
    assert set(RULES) == {
        "layering",
        "unreached",
        "lock-guard",
        "hot-path-clock",
        "broad-except",
        "mutable-default",
        "cube-order",
        "metric-name",
        "todo",
        "conc-blocking",
        "conc-atomicity",
    }
