"""Figure 8 — Setting RASED's number of index levels.

Paper setup: storage required for a 1- to 4-level hierarchical index
when the covered period grows from 1 to 16 years.  A flat index is one
level of daily cubes; each extra level adds weekly, monthly, then
yearly cubes.  Expected result: the extra levels cost little — the
paper reports a 4-level 16-year index at ~1.15x the flat index's
storage (and picks 4 levels, since Fig. 9 shows they buy orders of
magnitude of query speed).

Storage is reported at the paper's page size (a 540,000-cell cube is
one ~4.3 MB page), with page counts taken from a really-built index.

Run: ``pytest benchmarks/bench_fig8_index_levels.py --benchmark-only -s``
"""

from __future__ import annotations

from datetime import date

import pytest

from repro.types.temporal import Level, keys_in_range
from repro.types.dimensions import paper_scale_schema
from repro.storage.serializer import cube_page_size

from common import COVERAGE_END, COVERAGE_START, build_long_index, print_table

YEARS = (1, 2, 4, 8, 16)
LEVEL_CONFIGS = {
    1: (Level.DAY,),
    2: (Level.DAY, Level.WEEK),
    3: (Level.DAY, Level.WEEK, Level.MONTH),
    4: (Level.DAY, Level.WEEK, Level.MONTH, Level.YEAR),
}


@pytest.fixture(scope="module")
def built_index():
    index, _, _ = build_long_index()
    return index


def _page_counts(index, years: int) -> dict[Level, int]:
    """Materialized page counts for the most recent ``years`` of coverage."""
    start = date(COVERAGE_END.year - years + 1, 1, 1)
    counts = {}
    for level in LEVEL_CONFIGS[4]:
        keys = [
            k for k in index.keys(level) if k.start >= start and k.end <= COVERAGE_END
        ]
        counts[level] = len(keys)
    return counts


def bench_fig8_index_levels(benchmark, built_index):
    page_bytes = cube_page_size(paper_scale_schema())

    def sweep():
        results = {}
        for years in YEARS:
            counts = _page_counts(built_index, years)
            for levels, config in LEVEL_CONFIGS.items():
                pages = sum(counts[level] for level in config)
                results[(years, levels)] = pages
        return results

    results = benchmark.pedantic(sweep, iterations=1, rounds=1)

    header = ["years", "flat pages", "2-level", "3-level", "4-level", "GB (4-level)", "4L/flat"]
    rows = []
    for years in YEARS:
        flat = results[(years, 1)]
        four = results[(years, 4)]
        rows.append(
            [
                str(years),
                str(flat),
                str(results[(years, 2)]),
                str(results[(years, 3)]),
                str(four),
                f"{four * page_bytes / 1e9:.1f}",
                f"{four / flat:.3f}",
            ]
        )
    print_table("Fig. 8: index storage vs number of levels", header, rows)

    # Paper: a 4-level 16-year index takes ~1.15x the flat storage.
    ratio_16y = results[(16, 4)] / results[(16, 1)]
    assert 1.10 < ratio_16y < 1.22, f"4-level/flat ratio {ratio_16y:.3f}"
    # Paper: ~6,000+ daily, 850+ weekly, 200+ monthly, 16 yearly nodes
    # over its 16-year deployment; our 16 years match those magnitudes.
    counts = _page_counts(built_index, 16)
    assert counts[Level.DAY] == 5844
    assert counts[Level.WEEK] == 16 * 48
    assert counts[Level.MONTH] == 192
    assert counts[Level.YEAR] == 16
    # Total storage at paper page size lands near the paper's ~28 GB.
    total_gb = sum(counts.values()) * page_bytes / 1e9
    assert 25 < total_gb < 35
    benchmark.extra_info["fig"] = "8"
