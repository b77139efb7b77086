"""The interprocedural rules of the analyzer (``conc-blocking``,
``conc-atomicity``) and the lock simulation behind them: fixture-tree
detections, the real tree's lock graph, and the CLI's report of both."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.tools.lint.callgraph import ProgramIndex
from repro.tools.lint.locksim import simulate
from repro.tools.lint.model import collect_source_files
from repro.tools.lint.runner import default_package_root, run_lint

FIXTURE_ROOT = Path(__file__).parent / "lint_fixtures" / "fixturepkg"


# -- fixture-tree detections -------------------------------------------------


class TestFixtureDetections:
    @pytest.fixture(scope="class")
    def report(self):
        return run_lint(FIXTURE_ROOT)

    def test_rule_counts_are_exact(self, report):
        counts = Counter(
            f.rule for f in report.findings if f.rule.startswith("conc-")
        )
        assert counts == {"conc-blocking": 2, "conc-atomicity": 2}

    def test_blocking_direct_and_transitive(self, report):
        blocking = [f for f in report.findings if f.rule == "conc-blocking"]
        assert {f.path for f in blocking} == {"core/blockers.py"}
        messages = sorted(f.message for f in blocking)
        assert any("time.sleep" in m and "_drain" not in m for m in messages)
        assert any("_drain" in m for m in messages)  # the transitive one
        # flush_safely blocks before acquiring: must not be flagged.
        lines = {f.line for f in blocking}
        safe_line = _line_of("core/blockers.py", "must NOT be flagged")
        assert safe_line not in lines

    def test_atomicity_check_then_act_and_rmw(self, report):
        atomicity = [f for f in report.findings if f.rule == "conc-atomicity"]
        assert {f.path for f in atomicity} == {"core/checkact.py"}
        messages = sorted(f.message for f in atomicity)
        assert any("check-then-act" in m for m in messages)
        assert any("spans a lock release" in m for m in messages)

    def test_double_check_idiom_is_not_flagged(self, report):
        atomicity = [f for f in report.findings if f.rule == "conc-atomicity"]
        double_checked = _line_of("core/checkact.py", "re-validated under the lock")
        assert double_checked not in {f.line for f in atomicity}


def _line_of(rel_path: str, needle: str) -> int:
    lines = (FIXTURE_ROOT / rel_path).read_text().splitlines()
    for number, line in enumerate(lines, start=1):
        if needle in line:
            return number
    raise AssertionError(f"{needle!r} not found in {rel_path}")


# -- the real tree -----------------------------------------------------------


class TestRealTree:
    def test_real_tree_is_clean_without_baseline(self):
        report = run_lint()
        conc = [f for f in report.findings if f.rule.startswith("conc-")]
        assert conc == [], [f"{f.path}:{f.line} [{f.rule}] {f.message}" for f in conc]

    def test_real_tree_findings_are_only_justified_suppressions(self):
        report = run_lint()
        # The known by-design patterns are suppressed inline, not
        # silently absent: the analyzer must still *see* them.  Three
        # are broad handlers at a request, connection or shard
        # boundary; one is the live poll reading its feed under the
        # lock that serializes polls.
        assert report.suppressed == 4

    def test_real_tree_graph_covers_known_locks(self):
        sources = list(collect_source_files(default_package_root()))
        sim = simulate(ProgramIndex(sources))
        for qualname in (
            "repro.core.cache.CacheManager._lock",
            "repro.core.hierarchy.HierarchicalIndex._catalog_lock",
            "repro.obs.metrics.MetricsRegistry._lock",
        ):
            assert qualname in sim.locks, sorted(sim.locks)
        # The only nested acquisitions in the tree; a new one is a
        # lock-order decision and belongs in review, with this list.
        assert sim.edges == {
            (
                "repro.core.live.LiveMonitor._poll_lock",
                "repro.core.live.LiveMonitor._lock",
            ),
            (
                "repro.dashboard.admission.AdmissionController._lock",
                "repro.obs.metrics.MetricsRegistry._lock",
            ),
        }


# -- CLI ---------------------------------------------------------------------


class TestConcCli:
    def _run(self, *argv: str):
        repo_root = Path(__file__).parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_root / "src")
        return subprocess.run(
            [sys.executable, "-m", "repro.tools.lint", *argv],
            capture_output=True,
            text=True,
            cwd=repo_root,
            env=env,
            timeout=300,
        )

    def test_fixture_tree_fails_with_findings(self):
        result = self._run("--root", str(FIXTURE_ROOT), "--format", "json")
        assert result.returncode == 1, result.stdout + result.stderr
        payload = json.loads(result.stdout)
        conc = [f for f in payload["findings"] if f["rule"].startswith("conc-")]
        assert len(conc) == 4

    def test_real_tree_is_clean_via_cli(self):
        result = self._run("--format", "json")
        assert result.returncode == 0, result.stdout + result.stderr
        payload = json.loads(result.stdout)
        assert payload["ok"] is True
        assert payload["findings"] == []
        assert payload["locks"] >= 10
