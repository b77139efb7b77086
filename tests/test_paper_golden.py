"""The paper path is a committed golden.

Reduced-size runs of Figs. 7-10, the Sec. VI-A maintenance sweep and
the two modeled overlap sweeps (``benchmarks/paper_golden.py``) must
reproduce ``tests/golden/paper.json`` byte for byte: every query
counter, every store read/write count and every modeled microsecond.
A change that moves one is a change to the paper's numbers; regenerate
only on purpose, with the reason in CHANGES.md.
"""

from __future__ import annotations

import difflib
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_paper_path_matches_the_golden(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import paper_golden

    expected = paper_golden.GOLDEN_PATH.read_text()
    actual = paper_golden.dumps(paper_golden.compute()) + "\n"
    if actual != expected:
        diff = difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            "tests/golden/paper.json",
            "recomputed",
        )
        pytest.fail("paper golden moved:\n" + "".join(list(diff)[:60]))
