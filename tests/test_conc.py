"""The concurrency analyzer (repro.tools.conc) and lock witness
(repro.testing.lockwitness): fixture-tree detections, the clean-tree
gate, baseline/stale handling, and the static/runtime cross-check."""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

from repro.testing.lockwitness import LockWitness
from repro.tools.conc import ConcConfig, run_conc
from repro.tools.conc.runner import CONC_RULES
from repro.tools.lint.baseline import write_baseline
from repro.tools.lint.cli import prune_baseline
from repro.tools.lint.runner import run_lint

FIXTURE_ROOT = Path(__file__).parent / "lint_fixtures" / "fixturepkg"
FIXTURE_CONFIG = ConcConfig(top_package="fixturepkg")
HERE = Path(__file__).resolve().parent
SRC_SCOPE = Path(__file__).resolve().parents[1] / "src" / "repro"


def fixture_report(**kwargs):
    return run_conc(package_root=FIXTURE_ROOT, config=FIXTURE_CONFIG, **kwargs)


# -- fixture-tree detections -------------------------------------------------


class TestFixtureDetections:
    @pytest.fixture(scope="class")
    def report(self):
        return fixture_report()

    def test_rule_counts_are_exact(self, report):
        counts = Counter(f.rule for f in report.findings)
        assert counts == {
            "conc-lock-order": 2,
            "conc-blocking": 2,
            "conc-atomicity": 2,
            "conc-context": 2,
        }

    def test_lock_order_cycle_names_both_locks_and_the_trail(self, report):
        cycles = [
            f
            for f in report.findings
            if f.rule == "conc-lock-order" and "cycle" in f.message
        ]
        assert len(cycles) == 1
        (cycle,) = cycles
        assert cycle.path == "core/deadlock.py"
        assert "_ledger_lock" in cycle.message
        assert "_audit_lock" in cycle.message
        # The interprocedural edge's acquisition trail crosses the call.
        assert "credit" in cycle.message or "_record" in cycle.message

    def test_self_deadlock_is_reported(self, report):
        selfs = [
            f
            for f in report.findings
            if f.rule == "conc-lock-order" and "self-deadlock" in f.message
        ]
        assert len(selfs) == 1
        assert selfs[0].path == "core/deadlock.py"

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

    def test_context_submit_and_thread(self, report):
        context = [f for f in report.findings if f.rule == "conc-context"]
        assert {f.path for f in context} == {"core/handoff.py"}
        descriptions = sorted(f.message for f in context)
        assert any("Executor.submit" in m for m in descriptions)
        assert any("Thread(target=...)" in m for m in descriptions)
        # Both ambient kinds are called out with their capture helper.
        assert all("current_span" in m and "current_deadline" in m for m in descriptions)

    def test_capture_and_attach_shapes_pass(self, report):
        context_lines = {
            f.line for f in report.findings if f.rule == "conc-context"
        }
        for marker in ("submit_safe", "start_worker_safe"):
            start = _line_of("core/handoff.py", f"def {marker}")
            # No finding anchored inside the safe method (next 4 lines).
            assert not context_lines & set(range(start, start + 5))

    def test_each_rule_family_is_required(self, report):
        """Disabling one family removes exactly its findings — i.e.
        every fixture case genuinely depends on its rule."""
        family_to_rule = {
            "lock-order": "conc-lock-order",
            "blocking": "conc-blocking",
            "atomicity": "conc-atomicity",
            "context": "conc-context",
        }
        full = Counter(f.rule for f in report.findings)
        for family in CONC_RULES:
            partial = fixture_report(
                rules=[name for name in CONC_RULES if name != family]
            )
            counts = Counter(f.rule for f in partial.findings)
            expected = dict(full)
            expected.pop(family_to_rule[family])
            assert counts == expected, f"family {family}"

    def test_graph_includes_fixture_locks_and_edges(self, report):
        locks = report.graph["locks"]
        assert "fixturepkg.core.deadlock.Transfer._ledger_lock" in locks
        pairs = {(e["held"], e["acquired"]) for e in report.graph["edges"]}
        ledger = "fixturepkg.core.deadlock.Transfer._ledger_lock"
        audit = "fixturepkg.core.deadlock.Transfer._audit_lock"
        assert (ledger, audit) in pairs
        assert (audit, ledger) in pairs


def _line_of(rel_path: str, needle: str) -> int:
    lines = (FIXTURE_ROOT / rel_path).read_text().splitlines()
    for number, line in enumerate(lines, start=1):
        if needle in line:
            return number
    raise AssertionError(f"{needle!r} not found in {rel_path}")


# -- the real tree -----------------------------------------------------------


class TestRealTree:
    def test_real_tree_is_clean_without_baseline(self):
        report = run_conc(baseline_path=None)
        assert report.findings == [], [
            f"{f.path}:{f.line} [{f.rule}] {f.message}" for f in report.findings
        ]

    def test_real_tree_findings_are_only_justified_suppressions(self):
        report = run_conc(baseline_path=None)
        # The known by-design patterns are suppressed inline, not
        # silently absent: the analyzer must still *see* them.  Two are
        # the server/executor lifecycle threads; one is the accept
        # loop starting a request thread (an accepted connection
        # predates any request context); two are the process-pool
        # dispatcher's submits, where spans cannot cross the process
        # boundary and the deadline is forwarded explicitly.
        assert report.suppressed == 5

    def test_real_tree_graph_covers_known_locks(self):
        report = run_conc(baseline_path=None)
        locks = report.graph["locks"]
        for qualname in (
            "repro.core.cache.CacheManager._lock",
            "repro.core.hierarchy.HierarchicalIndex._catalog_lock",
            "repro.obs.metrics.MetricsRegistry._lock",
        ):
            assert qualname in locks, sorted(locks)


# -- baseline and staleness --------------------------------------------------


class TestBaseline:
    def test_baselined_findings_do_not_fail(self, tmp_path):
        raw = fixture_report()
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, raw.findings)
        report = fixture_report(baseline_path=baseline)
        assert report.ok
        assert report.baselined == len(raw.findings)
        assert report.stale_baseline == []

    def test_stale_conc_entries_are_reported(self, tmp_path):
        raw = fixture_report()
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, raw.findings)
        payload = json.loads(baseline.read_text())
        payload["findings"].append(
            {
                "rule": "conc-blocking",
                "path": "fixturepkg/core/gone.py",
                "context": "with self._lock: time.sleep(1)",
            }
        )
        baseline.write_text(json.dumps(payload))
        report = fixture_report(baseline_path=baseline)
        assert report.ok
        assert report.stale_baseline == [
            "conc-blocking::fixturepkg/core/gone.py::"
            "with self._lock: time.sleep(1)"
        ]

    def test_lint_ignores_conc_entries_and_vice_versa(self, tmp_path):
        """The suites share one file; neither calls the other's live
        entries stale."""
        from repro.tools.lint.model import LintConfig

        conc_raw = fixture_report()
        lint_raw = run_lint(
            package_root=FIXTURE_ROOT,
            config=LintConfig(top_package="fixturepkg"),
        )
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, conc_raw.findings + lint_raw.findings)

        lint_report = run_lint(
            package_root=FIXTURE_ROOT,
            config=LintConfig(top_package="fixturepkg"),
            baseline_path=baseline,
        )
        assert lint_report.ok
        assert lint_report.stale_baseline == []
        conc_report = fixture_report(baseline_path=baseline)
        assert conc_report.ok
        assert conc_report.stale_baseline == []

    def test_prune_drops_only_dead_entries(self, tmp_path):
        from repro.tools.lint.model import LintConfig

        conc_raw = fixture_report()
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, conc_raw.findings)
        payload = json.loads(baseline.read_text())
        payload["findings"].append(
            {"rule": "todo", "path": "fixturepkg/core/gone.py", "context": "# TODO"}
        )
        baseline.write_text(json.dumps(payload))

        dropped = prune_baseline(
            baseline,
            FIXTURE_ROOT,
            lint_config=LintConfig(top_package="fixturepkg"),
            conc_config=FIXTURE_CONFIG,
        )
        # The dead synthetic entry goes; every live conc entry stays.
        assert dropped == ["todo::fixturepkg/core/gone.py::# TODO"]
        report = fixture_report(baseline_path=baseline)
        assert report.ok
        assert report.stale_baseline == []

    def test_prune_baseline_file_caps_counts(self, tmp_path):
        from repro.tools.lint.baseline import prune_baseline_file

        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "version": 1,
                    "findings": [
                        {"rule": "r", "path": "p.py", "context": "x", "count": 3},
                        {"rule": "dead", "path": "q.py", "context": "y"},
                    ],
                }
            )
        )
        dropped = prune_baseline_file(baseline, Counter({"r::p.py::x": 1}))
        assert dropped == ["dead::q.py::y"]
        payload = json.loads(baseline.read_text())
        assert payload["findings"] == [
            {"rule": "r", "path": "p.py", "context": "x"}
        ]


# -- the runtime witness -----------------------------------------------------


class TestLockWitness:
    def test_records_edges_and_restores_factories(self):
        original_lock = threading.Lock
        with LockWitness(scope_paths=[HERE]) as witness:
            first = threading.Lock()
            second = threading.Lock()
            with first:
                with second:
                    pass
        assert threading.Lock is original_lock
        assert len(witness.edges) == 1
        ((held, acquired),) = witness.edges
        assert held.endswith("test_conc.py:" + str(_my_line("first = ")))
        assert witness.inversions == []

    def test_detects_seeded_inversion_deterministically(self):
        """Two locks acquired in both orders — sequenced, so no actual
        deadlock — must be witnessed as an inversion."""
        with LockWitness(scope_paths=[HERE]) as witness:
            alpha = threading.Lock()
            beta = threading.Lock()
            with alpha:
                with beta:
                    pass

            def reversed_order() -> None:
                with beta:
                    with alpha:
                        pass

            worker = threading.Thread(target=reversed_order)
            worker.start()
            worker.join()
        assert len(witness.inversions) == 1
        assert len(witness.edges) == 2

    def test_rlock_reentry_records_no_self_edge(self):
        with LockWitness(scope_paths=[HERE]) as witness:
            lock = threading.RLock()
            with lock:
                with lock:  # re-entry, not a second lock
                    pass
        assert witness.edges == {}
        assert witness.inversions == []

    def test_out_of_scope_locks_get_real_primitives(self, tmp_path):
        with LockWitness(scope_paths=[tmp_path]) as witness:
            lock = threading.Lock()
            with lock:
                pass
        assert witness.to_json()["locks"] == {}

    def test_condition_wait_tracks_held_state(self):
        """A Condition release/reacquire cycle via wait() leaves the
        witness's per-thread stack balanced."""
        with LockWitness(scope_paths=[HERE]) as witness:
            condition = threading.Condition()
            other = threading.Lock()
            done = []

            def waiter() -> None:
                with condition:
                    condition.wait(timeout=5)
                    done.append(True)

            worker = threading.Thread(target=waiter)
            worker.start()
            while not condition._waiters:  # until wait() has parked
                if not worker.is_alive():
                    break
                _short_sleep()
            with condition:
                condition.notify_all()
            worker.join(timeout=5)
            assert done == [True]
            with other:  # stack must be clean: no ghost edge from cond
                pass
        pairs = set(witness.edges)
        assert not any(acquired.endswith(_site("other =")) for _, acquired in pairs)

    def test_artifact_round_trips(self, tmp_path):
        with LockWitness(scope_paths=[HERE]) as witness:
            outer = threading.Lock()
            inner = threading.Lock()
            with outer:
                with inner:
                    pass
            artifact = tmp_path / "witness.json"
            witness.write_artifact(artifact)
        payload = json.loads(artifact.read_text())
        assert payload["version"] == 1
        assert len(payload["locks"]) == 2
        assert len(payload["edges"]) == 1
        assert payload["inversions"] == []


def _short_sleep() -> None:
    import time

    time.sleep(0.001)


def _my_line(needle: str) -> int:
    lines = Path(__file__).read_text().splitlines()
    for number, line in enumerate(lines, start=1):
        if needle in line and "_my_line" not in line:
            return number
    raise AssertionError(needle)


def _site(needle: str) -> str:
    return f"test_conc.py:{_my_line(needle)}"


# -- static/runtime cross-check ----------------------------------------------


def _abs_fixture(rel_path: str) -> str:
    return str(FIXTURE_ROOT / rel_path)


def _fixture_witness(report) -> dict:
    """A witness artifact whose lock keys join against the fixture
    tree's static graph (absolute paths, static creation lines)."""
    locks = {}
    for qualname, info in report.graph["locks"].items():
        rel, _, line = info["site"].rpartition(":")
        key = f"{_abs_fixture(rel)}:{line}"
        locks[key] = {
            "path": _abs_fixture(rel),
            "line": int(line),
            "kind": info["kind"],
            "qualname": qualname,
        }
    return {"version": 1, "locks": locks, "edges": [], "inversions": []}


def _key_for(witness: dict, qualname_suffix: str) -> str:
    for key, info in witness["locks"].items():
        if info["qualname"].endswith(qualname_suffix):
            return key
    raise AssertionError(qualname_suffix)


class TestWitnessCrossCheck:
    @pytest.fixture()
    def static_report(self):
        return fixture_report()

    def _run(self, tmp_path, witness: dict, **kwargs):
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(witness))
        # rules=[] isolates the witness cross-check from the fixture
        # tree's own (deliberate) rule findings.
        return fixture_report(witness_path=path, rules=[], **kwargs)

    def test_corroborated_edges_pass(self, tmp_path, static_report):
        witness = _fixture_witness(static_report)
        witness["edges"] = [
            {
                "from": _key_for(witness, "Transfer._ledger_lock"),
                "to": _key_for(witness, "Transfer._audit_lock"),
                "count": 4,
            }
        ]
        report = self._run(tmp_path, witness)
        assert not [f for f in report.findings if f.rule.startswith("conc-witness")]
        assert report.warnings == []

    def test_witnessed_edge_unknown_statically_is_blind_spot(
        self, tmp_path, static_report
    ):
        """Both locks are statically known, but no acquisition order
        between them is — the call graph has a blind spot there."""
        witness = _fixture_witness(static_report)
        witness["edges"] = [
            {
                "from": _key_for(witness, "SnapshotWriter._lock"),
                "to": _key_for(witness, "TallyBoard._lock"),
                "count": 1,
            }
        ]
        report = self._run(tmp_path, witness)
        blind = [f for f in report.warnings if f.rule == "conc-witness-blindspot"]
        assert len(blind) == 1
        assert "blind spot" in blind[0].message

    def test_contradiction_unit(self):
        from repro.tools.conc.lockorder import LockSimResult
        from repro.tools.conc.model import LockEdge, LockId
        from repro.tools.conc.witnesscheck import cross_check

        a = LockId("fx.A._lock", "Lock", "fx/a.py", 10)
        b = LockId("fx.B._lock", "Lock", "fx/b.py", 20)
        sim = LockSimResult(
            edges={(a.qualname, b.qualname): LockEdge(held=a, acquired=b)},
            locks={a.qualname: a, b.qualname: b},
        )
        witness = {
            "version": 1,
            "locks": {
                "/abs/fx/a.py:10": {"path": "/abs/fx/a.py", "line": 10, "kind": "Lock"},
                "/abs/fx/b.py:20": {"path": "/abs/fx/b.py", "line": 20, "kind": "Lock"},
            },
            "edges": [
                {"from": "/abs/fx/b.py:20", "to": "/abs/fx/a.py:10", "count": 1}
            ],
            "inversions": [],
        }
        failing, warnings = cross_check(sim, witness)
        assert len(failing) == 1
        assert failing[0].rule == "conc-witness-contradiction"
        assert warnings == []

    def test_runtime_inversion_fails(self, tmp_path, static_report):
        witness = _fixture_witness(static_report)
        witness["inversions"] = [
            {
                "a": _key_for(witness, "Transfer._ledger_lock"),
                "b": _key_for(witness, "Transfer._audit_lock"),
                "thread": "q-mix-1",
            }
        ]
        report = self._run(tmp_path, witness)
        inversions = [
            f for f in report.findings if f.rule == "conc-witness-inversion"
        ]
        assert len(inversions) == 1

    def test_unknown_lock_is_blind_spot_warning(self, tmp_path, static_report):
        witness = _fixture_witness(static_report)
        witness["locks"]["/somewhere/dynamic.py:7"] = {
            "path": "/somewhere/dynamic.py",
            "line": 7,
            "kind": "Lock",
        }
        witness["edges"] = [
            {
                "from": "/somewhere/dynamic.py:7",
                "to": _key_for(witness, "Transfer._ledger_lock"),
                "count": 1,
            }
        ]
        report = self._run(tmp_path, witness)
        assert report.ok
        assert len(report.warnings) == 1
        assert "never discovered" in report.warnings[0].message

    def test_strict_witness_promotes_warnings(self, tmp_path, static_report):
        witness = _fixture_witness(static_report)
        witness["edges"] = [
            {
                "from": _key_for(witness, "SnapshotWriter._lock"),
                "to": _key_for(witness, "TallyBoard._lock"),
                "count": 1,
            }
        ]
        report = self._run(tmp_path, witness, strict_witness=True)
        assert not report.ok
        assert any(f.rule == "conc-witness-blindspot" for f in report.findings)

    def test_end_to_end_witnessed_run_matches_static_graph(self, tmp_path):
        """Run real project code under the witness and cross-check the
        artifact against the real tree's static graph: no
        contradictions, no inversions."""
        artifact = tmp_path / "witness.json"
        with LockWitness(scope_paths=[SRC_SCOPE]) as witness:
            from repro.obs.metrics import MetricsRegistry

            registry = MetricsRegistry()
            registry.inc_key(_metric_key("rased_witness_smoke_total"))
            witness.write_artifact(artifact)
        report = run_conc(baseline_path=None, witness_path=artifact)
        assert report.findings == [], [
            f"{f.rule}: {f.message}" for f in report.findings
        ]


def _metric_key(name: str):
    from repro.obs import metric_key

    return metric_key(name)


# -- CLI ---------------------------------------------------------------------


class TestConcCli:
    def _run(self, *argv: str):
        import os

        repo_root = Path(__file__).parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_root / "src")
        return subprocess.run(
            [sys.executable, "-m", "repro.tools.conc", *argv],
            capture_output=True,
            text=True,
            cwd=repo_root,
            env=env,
        )

    def test_fixture_tree_fails_with_findings(self):
        result = self._run(
            "--root",
            str(FIXTURE_ROOT),
            "--top-package",
            "fixturepkg",
            "--no-baseline",
            "--format",
            "json",
        )
        assert result.returncode == 1, result.stdout + result.stderr
        payload = json.loads(result.stdout)
        assert len(payload["findings"]) == 8

    def test_real_tree_is_clean_via_cli(self):
        result = self._run("--no-baseline", "--format", "json")
        assert result.returncode == 0, result.stdout + result.stderr
        payload = json.loads(result.stdout)
        assert payload["ok"] is True
        assert payload["findings"] == []
        assert payload["locks"] >= 10

    def test_dump_graph_writes_artifact(self, tmp_path):
        graph_path = tmp_path / "graph.json"
        result = self._run("--no-baseline", "--dump-graph", str(graph_path))
        assert result.returncode == 0
        payload = json.loads(graph_path.read_text())
        assert payload["version"] == 1
        assert "repro.core.cache.CacheManager._lock" in payload["locks"]

    def test_unknown_rule_is_rejected(self):
        result = self._run("--rules", "nonsense")
        assert result.returncode == 2
        assert "unknown conc rule" in result.stderr
