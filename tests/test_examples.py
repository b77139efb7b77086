"""Smoke tests for the example scripts.

Every example must at least compile; the self-contained quickstart and
live-monitoring scripts are executed end to end (the figure-replica
examples share a larger simulated system and are exercised by
``benchmarks/bench_examples_queries.py`` instead).
"""

from __future__ import annotations

import os
import py_compile
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
SRC_DIR = EXAMPLES_DIR.parent / "src"
ALL_EXAMPLES = sorted(
    p for p in EXAMPLES_DIR.glob("*.py") if not p.name.startswith("_")
)


class TestExamplesCompile:
    def test_example_inventory(self):
        names = {p.name for p in ALL_EXAMPLES}
        assert {
            "quickstart.py",
            "country_analysis.py",
            "road_type_analysis.py",
            "time_series_comparison.py",
            "http_dashboard.py",
            "live_monitoring.py",
        } <= names

    @pytest.mark.parametrize("path", ALL_EXAMPLES, ids=lambda p: p.name)
    def test_compiles(self, path):
        py_compile.compile(str(path), doraise=True)


def run_example(name: str) -> subprocess.CompletedProcess:
    # The child must find the repro package without the repo being
    # installed.  Build its PYTHONPATH from scratch — deliberately NOT
    # inheriting the parent's — so the examples provably run from a
    # clean environment plus src/ alone.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC_DIR)
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        cwd=EXAMPLES_DIR,
        env=env,
        timeout=180,
    )


class TestExamplesRun:
    def test_quickstart_end_to_end(self):
        completed = run_example("quickstart.py")
        assert completed.returncode == 0, completed.stderr[-800:]
        assert "Top rows:" in completed.stdout
        assert "Sample updates" in completed.stdout

    def test_live_monitoring_end_to_end(self):
        completed = run_example("live_monitoring.py")
        assert completed.returncode == 0, completed.stderr[-800:]
        assert "with live overlay" in completed.stdout
        assert "Top contributors" in completed.stdout
