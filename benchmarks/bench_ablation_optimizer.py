"""Ablation — level optimization on the paper's worked example
(Section VII-B) and against naive planning strategies.

The paper walks through the window Jan 1 - Feb 15, 2022: it can be
answered by (a) 46 daily cubes, (b) weeks + days, or (c) a month +
week(s) + days; and shows that the best choice flips when the cache
holds the window's daily cubes.  This bench reproduces that flip and
quantifies the optimizer against two naive strategies — always-finest
(all daily) and always-coarsest (canonical cover, cache-blind).

Run: ``pytest benchmarks/bench_ablation_optimizer.py --benchmark-only -s``
"""

from __future__ import annotations

from datetime import date, timedelta

import pytest

from repro.types.temporal import Level, cover_range, day_key
from repro.core.optimizer import FlatPlanner, LevelOptimizer

from common import build_long_index, print_table

WINDOW = (date(2021, 1, 1), date(2021, 2, 15))


@pytest.fixture(scope="module")
def index():
    built, _, _ = build_long_index()
    return built


def _scenarios(index):
    """(label, cached keyset) cache states from the paper's discussion."""
    start, end = WINDOW
    all_days = frozenset(
        day_key(start + timedelta(days=i))
        for i in range((end - start).days + 1)
    )
    month_jan = frozenset(
        k for k in cover_range(start, end) if k.level is Level.MONTH
    )
    return {
        "cold (nothing cached)": frozenset(),
        "daily-heavy (window days cached)": all_days,
        "January month cube cached": month_jan,
    }


def bench_ablation_optimizer(benchmark, index):
    def sweep():
        optimizer = LevelOptimizer(index)
        flat = FlatPlanner(index)
        results = {}
        for label, cached in _scenarios(index).items():
            plan = optimizer.plan(*WINDOW, cached)
            naive_flat = flat.plan(*WINDOW)
            canonical = cover_range(*WINDOW)
            canonical_disk = sum(1 for k in canonical if k not in cached)
            results[label] = {
                "opt_cubes": plan.cube_count,
                "opt_disk": plan.disk_reads,
                "opt_levels": {
                    level.label: count
                    for level, count in sorted(plan.levels_used().items())
                },
                "flat_disk": naive_flat.disk_reads,
                "canonical_disk": canonical_disk,
            }
        return results

    results = benchmark.pedantic(sweep, iterations=1, rounds=1)

    header = ["cache state", "optimizer plan", "opt disk", "all-daily disk", "canonical disk"]
    rows = []
    for label, r in results.items():
        plan_text = "+".join(f"{n}{lvl[0].upper()}" for lvl, n in r["opt_levels"].items())
        rows.append(
            [label, plan_text, str(r["opt_disk"]), str(r["flat_disk"]), str(r["canonical_disk"])]
        )
    print_table("Sec. VII-B ablation: plan choice vs cache state", header, rows)

    cold = results["cold (nothing cached)"]
    daily = results["daily-heavy (window days cached)"]
    january = results["January month cube cached"]

    # Cold: the mixed plan (1 month + 2 weeks + 1 day = 4 cubes) beats
    # 46 daily reads.
    assert cold["opt_cubes"] == 4
    assert cold["opt_disk"] == 4
    assert cold["flat_disk"] == 46

    # Daily-heavy cache: the optimizer flips to the all-daily plan with
    # zero disk reads — the paper's exact scenario — while the cache-
    # blind canonical plan still pays for its month and week cubes
    # (only its one daily unit is cached).
    assert daily["opt_disk"] == 0
    assert daily["canonical_disk"] == 3

    # A cached January cube is exploited; only the February remainder
    # hits disk.
    assert january["opt_disk"] == 3
    benchmark.extra_info["section"] = "VII-B"
