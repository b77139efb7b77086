"""Ablation — sparse-encoded (v3) cube pages against the paper's raw ones.

RASED stores each cube as a raw fixed-size page ("~4 MB of storage,
which directly fits in one disk page", Section VI-A).  Real cubes are
extremely sparse, so this reproduction writes only the nonzero cells
(delta+RLE, page version 3).  A raw page is pure arithmetic —
``HEADER_SIZE + 8 x cell_count`` bytes, whatever it holds — so the
ablation builds one year of the v3 index and sets its stored bytes
against the same page count at the raw size:

* **storage**: delta+RLE pages shrink dramatically (sparse int64);
* **structure**: the page count, and so every modeled read, is the
  encoding's to keep — one cube, one page, one read either way.

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
from repro.storage.serializer import HEADER_SIZE

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


def bench_ablation_compression(benchmark, year_updates):
    schema, updates = year_updates

    def sweep():
        disk = InMemoryDisk(read_latency=READ_LATENCY, write_latency=WRITE_LATENCY)
        index = HierarchicalIndex(schema, disk)
        index.bulk_load(updates)
        disk.reset_stats()
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
        reads = 0
        total_sim = 0.0
        for query in queries:
            stats = executor.execute(query).stats
            reads += stats.disk_reads
            total_sim += stats.simulated_seconds
        pages = index.total_pages()
        return {
            "pages": pages,
            "stored_bytes": disk.stored_bytes,
            "raw_bytes": pages * (HEADER_SIZE + 8 * schema.cell_count),
            "avg_reads": reads / len(queries),
            "avg_query_ms": 1000.0 * total_sim / len(queries),
        }

    result = benchmark.pedantic(sweep, iterations=1, rounds=1)
    print_table(
        "Ablation: raw pages (arithmetic) vs v3 pages as written (1 year)",
        ["pages", "raw", "v3", "avg reads/query", "avg query ms"],
        [
            [
                str(result["pages"]),
                f"{result['raw_bytes'] / 1e6:.1f} MB",
                f"{result['stored_bytes'] / 1e6:.2f} MB",
                f"{result['avg_reads']:.1f}",
                f"{result['avg_query_ms']:.2f}",
            ]
        ],
    )

    # Sparse cubes encode at least 3x smaller than raw pages.
    assert result["stored_bytes"] < result["raw_bytes"] / 3
