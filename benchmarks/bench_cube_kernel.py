"""Columnar cube kernel: scale sweep over 1×/10×/100× worlds.

The cube engine builds every cube in sorted-COO sparse form, writes
delta+RLE (v3) pages and rolls children up in one batched pass.  This
bench measures it at the three canonical scales of
:data:`repro.synth.scale.SCALE_PROFILES` (``100x`` is the paper's
540 K-cell deployment schema):

* **page bytes** — one quarter of daily cubes as written (v3) against
  the raw page the paper stores, ``HEADER_SIZE + 8 x cell_count``
  bytes; at 10×/100× the v3 page must be >= 5x smaller.
* **N-way rollup** — a 90-day quarter merged into one cube by
  :func:`repro.types.cube.sum_cubes`, checked against a plain
  scatter-add of the children.
* **query latency** — a cold LevelOptimizer executor over the quarter
  on a modeled disk; the 100× world must answer the dashboard queries
  within 2x of the 1× world (sparsity must not push decode/aggregate
  costs past the I/O the paper budgets).

Run: ``pytest benchmarks/bench_cube_kernel.py --benchmark-only -s``
or directly: ``python benchmarks/bench_cube_kernel.py [--smoke]``
(the direct run needs ``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import random
import time
from datetime import date, timedelta

import numpy as np

from repro.types.temporal import Level, TemporalKey
from repro.types.cube import AnyCube, sum_cubes
from repro.core.executor import QueryExecutor
from repro.core.hierarchy import HierarchicalIndex
from repro.core.optimizer import LevelOptimizer
from repro.core.query import AnalysisQuery
from repro.collection.records import UpdateList
from repro.storage.disk import InMemoryDisk
from repro.storage.serializer import HEADER_SIZE, serialize_cube
from repro.synth.scale import SCALE_PROFILES, ScaleProfile, profile_schema, scaled_day_updates

from common import READ_LATENCY, WRITE_LATENCY, print_table, write_result_json

QUARTER_START = date(2021, 1, 1)
QUARTER_DAYS = 90
SMOKE_DAYS = 14
TIMING_REPS = 3


def _profiles(smoke: bool) -> tuple[ScaleProfile, ...]:
    return SCALE_PROFILES[:2] if smoke else SCALE_PROFILES


def _quarter_updates(
    profile: ScaleProfile, days: int
) -> tuple[object, dict[date, UpdateList]]:
    """Deterministic fast-path updates for one profile's quarter."""
    schema = profile_schema(profile)
    rng = random.Random(23)
    updates: dict[date, UpdateList] = {}
    day = QUARTER_START
    for _ in range(days):
        updates[day] = scaled_day_updates(day, rng, schema, profile.rows_per_day)
        day += timedelta(days=1)
    return schema, updates


def _day_cubes(schema, updates: dict[date, UpdateList]) -> list[AnyCube]:
    """Daily cubes built through the index scan path (no I/O)."""
    builder = HierarchicalIndex(schema, InMemoryDisk())
    return [builder.build_day_cube(day, ul) for day, ul in sorted(updates.items())]


def _best_of(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


# -- experiment 1: on-disk bytes per daily page -----------------------------


def run_page_bytes(smoke: bool = False) -> dict:
    days = SMOKE_DAYS if smoke else QUARTER_DAYS
    out: dict[str, dict] = {}
    for profile in _profiles(smoke):
        schema, updates = _quarter_updates(profile, days)
        cubes = _day_cubes(schema, updates)
        raw_bytes = HEADER_SIZE + 8 * schema.cell_count
        v3_bytes = sum(len(serialize_cube(cube)) for cube in cubes) / len(cubes)
        out[profile.name] = {
            "days": len(cubes),
            "cells": profile.cell_count,
            "mean_density": sum(cube.density for cube in cubes) / len(cubes),
            "raw_bytes_per_page": raw_bytes,
            "v3_bytes_per_page": v3_bytes,
            "ratio": raw_bytes / v3_bytes,
        }
    return out


# -- experiment 2: N-way rollup ---------------------------------------------


def run_rollup(smoke: bool = False) -> dict:
    days = SMOKE_DAYS if smoke else QUARTER_DAYS
    reps = 1 if smoke else TIMING_REPS
    key = TemporalKey(Level.YEAR, QUARTER_START.year)
    out: dict[str, dict] = {}
    for profile in _profiles(smoke):
        schema, updates = _quarter_updates(profile, days)
        children = _day_cubes(schema, updates)
        expected = np.zeros(schema.shape, dtype=np.int64)
        for cube in children:
            expected += cube.counts
        batch_s = _best_of(lambda: sum_cubes(schema, key, children), reps)
        assert np.array_equal(sum_cubes(schema, key, children).counts, expected)
        out[profile.name] = {
            "children": len(children),
            "batched_ms": 1000.0 * batch_s,
        }
    return out


# -- experiment 3: cold query latency across configurations -----------------

_QUERY_END_FULL = QUARTER_START + timedelta(days=QUARTER_DAYS - 1)


def _build_index(
    schema, updates: dict[date, UpdateList]
) -> tuple[HierarchicalIndex, InMemoryDisk]:
    disk = InMemoryDisk(read_latency=READ_LATENCY, write_latency=WRITE_LATENCY)
    index = HierarchicalIndex(schema, disk)
    index.bulk_load(updates)
    disk.reset_stats()
    return index, disk


def _dashboard_queries(end: date) -> list[AnalysisQuery]:
    return [
        AnalysisQuery(start=QUARTER_START, end=end, group_by=("element_type",)),
        AnalysisQuery(start=QUARTER_START, end=end, group_by=("country",)),
        AnalysisQuery(
            start=QUARTER_START,
            end=min(end, date(2021, 1, 31)),
            group_by=("date",),
        ),
        AnalysisQuery(start=QUARTER_START, end=end, group_by=("update_type",)),
    ]


def _measure_queries(index: HierarchicalIndex) -> dict:
    executor = QueryExecutor(index, optimizer=LevelOptimizer(index))
    queries = _dashboard_queries(index.coverage()[1])
    total_sim = 0.0
    total_reads = 0
    for query in queries:
        result = executor.execute(query)
        total_sim += result.stats.simulated_seconds
        total_reads += result.stats.disk_reads
    return {
        "avg_sim_ms": 1000.0 * total_sim / len(queries),
        "avg_disk_reads": total_reads / len(queries),
    }


def run_query_latency(smoke: bool = False) -> dict:
    days = SMOKE_DAYS if smoke else QUARTER_DAYS
    out: dict[str, dict] = {}
    for profile in _profiles(smoke):
        schema, updates = _quarter_updates(profile, days)
        index, disk = _build_index(schema, updates)
        stats = _measure_queries(index)
        stats["stored_bytes"] = disk.stored_bytes
        out[profile.name] = stats
    baseline = out["1x"]["avg_sim_ms"]
    for stats in out.values():
        stats["vs_1x"] = stats["avg_sim_ms"] / baseline
    return out


# -- harness ----------------------------------------------------------------


def run_all(smoke: bool = False) -> dict:
    payload = {
        "smoke": smoke,
        "page_bytes": run_page_bytes(smoke),
        "rollup": run_rollup(smoke),
        "query_latency": run_query_latency(smoke),
    }
    pages = payload["page_bytes"]
    print_table(
        "Daily page bytes: raw (paper) vs v3 as written",
        ["scale", "cells", "density", "raw B/page", "v3 B/page", "ratio"],
        [
            [
                name,
                str(row["cells"]),
                f"{row['mean_density']:.4f}",
                f"{row['raw_bytes_per_page']:.0f}",
                f"{row['v3_bytes_per_page']:.0f}",
                f"{row['ratio']:.1f}x",
            ]
            for name, row in pages.items()
        ],
    )
    rollup = payload["rollup"]
    print_table(
        f"N-way rollup ({next(iter(rollup.values()))['children']} children)",
        ["scale", "batched ms"],
        [[name, f"{row['batched_ms']:.2f}"] for name, row in rollup.items()],
    )
    queries = payload["query_latency"]
    print_table(
        "Cold dashboard queries (modeled disk)",
        ["scale", "avg sim ms", "avg reads", "stored MB", "vs 1x"],
        [
            [
                name,
                f"{row['avg_sim_ms']:.2f}",
                f"{row['avg_disk_reads']:.1f}",
                f"{row['stored_bytes'] / 1e6:.2f}",
                f"{row['vs_1x']:.2f}x",
            ]
            for name, row in queries.items()
        ],
    )
    if not smoke:
        # The kernel's acceptance numbers.
        for scale in ("10x", "100x"):
            assert pages[scale]["ratio"] >= 5.0, pages[scale]
        assert queries["100x"]["vs_1x"] <= 2.0, queries
    return payload


def bench_cube_kernel(benchmark):
    payload = benchmark.pedantic(run_all, iterations=1, rounds=1)
    benchmark.extra_info["v3_ratio_100x"] = payload["page_bytes"]["100x"]["ratio"]
    benchmark.extra_info["rollup_ms_100x"] = payload["rollup"]["100x"]["batched_ms"]
    write_result_json("cube_kernel", payload)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="scaled-down run without acceptance assertions (CI)",
    )
    args = parser.parse_args()
    document = run_all(smoke=args.smoke)
    if not args.smoke:
        path = write_result_json("cube_kernel", document)
        print(f"\nwrote {path}")
