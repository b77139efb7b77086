"""Ablation — sparse-encoded (v3) vs raw (v1) cube pages.

RASED stores each cube as a raw fixed-size page ("~4 MB of storage,
which directly fits in one disk page", Section VI-A).  Real cubes are
extremely sparse, so encoding only the nonzero cells is the obvious
alternative design; this ablation quantifies the trade RASED made:

* **storage**: delta+RLE pages shrink dramatically (sparse int64);
* **maintenance**: writes pay the encode CPU;
* **query**: every cube read pays the decode CPU on top of the page I/O.

With page I/O at HDD latencies the decode cost is noise and the
encoding looks free — but RASED's design keeps raw pages so a page
maps 1:1 onto a disk block and cached cubes need no decode; we report
both sides so the choice is visible.

Run: ``pytest benchmarks/bench_ablation_compression.py --benchmark-only -s``
"""

from __future__ import annotations

import random
from datetime import date, timedelta

import pytest

from repro.core.hierarchy import HierarchicalIndex
from repro.core.optimizer import LevelOptimizer
from repro.core.executor import QueryExecutor
from repro.core.query import AnalysisQuery
from repro.storage.disk import InMemoryDisk
from repro.storage.serializer import PAGE_VERSION_RAW, PAGE_VERSION_SPARSE

from common import READ_LATENCY, WRITE_LATENCY, make_schema, print_table, synthetic_day_updates

YEAR = 2021
DAYS = 365


@pytest.fixture(scope="module")
def year_updates():
    schema = make_schema()
    rng = random.Random(11)
    updates = {}
    day = date(YEAR, 1, 1)
    while day <= date(YEAR, 12, 31):
        updates[day] = synthetic_day_updates(day, rng, 40, schema)
        day += timedelta(days=1)
    return schema, updates


def _build(schema, updates, page_version: int):
    disk = InMemoryDisk(read_latency=READ_LATENCY, write_latency=WRITE_LATENCY)
    index = HierarchicalIndex(schema, disk, page_version=page_version)
    index.bulk_load(updates)
    disk.reset_stats()
    return index, disk


def bench_ablation_compression(benchmark, year_updates):
    schema, updates = year_updates

    def sweep():
        results = {}
        for version in (PAGE_VERSION_RAW, PAGE_VERSION_SPARSE):
            index, disk = _build(schema, updates, version)
            executor = QueryExecutor(index, optimizer=LevelOptimizer(index))
            queries = [
                AnalysisQuery(
                    start=date(YEAR, month, 1),
                    end=date(YEAR, 12, 31),
                    countries=("germany",),
                    group_by=("element_type",),
                )
                for month in range(1, 13)
            ]
            total_sim = 0.0
            for query in queries:
                total_sim += executor.execute(query).stats.simulated_seconds
            results[version] = {
                "stored_bytes": disk.stored_bytes,
                "avg_query_ms": 1000.0 * total_sim / len(queries),
                "pages": index.total_pages(),
            }
        return results

    results = benchmark.pedantic(sweep, iterations=1, rounds=1)
    raw, sparse = results[PAGE_VERSION_RAW], results[PAGE_VERSION_SPARSE]

    header = ["pages", "stored", "avg query ms"]
    rows = [
        [
            str(raw["pages"]),
            f"{raw['stored_bytes'] / 1e6:.1f} MB (raw)",
            f"{raw['avg_query_ms']:.2f}",
        ],
        [
            str(sparse["pages"]),
            f"{sparse['stored_bytes'] / 1e6:.1f} MB (v3)",
            f"{sparse['avg_query_ms']:.2f}",
        ],
    ]
    print_table("Ablation: raw (v1) vs sparse (v3) cube pages (1 year)", header, rows)

    # Sparse cubes encode at least 3x smaller...
    assert sparse["stored_bytes"] < raw["stored_bytes"] / 3
    # ...while query latency stays I/O-dominated (within 50%).
    assert sparse["avg_query_ms"] < raw["avg_query_ms"] * 1.5
    # Identical page counts — the encoding changes bytes, not structure.
    assert sparse["pages"] == raw["pages"]
