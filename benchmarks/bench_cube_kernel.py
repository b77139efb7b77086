"""Columnar cube kernel: scale sweep over 1×/10×/100× worlds.

PR 9's tentpole replaces the cell-at-a-time cube interior with a
columnar kernel — a sorted-COO sparse form, a delta+RLE page format
(v3), and batched N-way rollup — all behind the existing ``DataCube``
API and opt-in via :class:`repro.SystemConfig`.  This bench quantifies
the three claims at the three canonical scales of
:data:`repro.synth.scale.SCALE_PROFILES` (``100x`` is the paper's
540 K-cell deployment schema):

* **page bytes** — one quarter of daily cubes serialized raw (v1) vs
  sparse (v3); at 10×/100× the v3 page must be >= 5x smaller.
* **N-way rollup** — a 90-day quarter merged into one cube: the old
  sequential dense ``+=`` pipeline vs the batched sparse
  :func:`repro.sum_cubes` pass; batched must be >= 3x faster at
  10×/100×.
* **query latency** — a cold LevelOptimizer executor over the quarter
  on a modeled disk; the 100× sparse+v3 configuration must answer the
  dashboard queries within 2x of the 1× dense baseline (sparsity must
  not push decode/aggregate costs past the I/O the paper budgets).

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
from repro.types.cube import DataCube, as_dense, as_sparse, sum_cubes
from repro.core.executor import QueryExecutor
from repro.core.hierarchy import HierarchicalIndex
from repro.core.optimizer import LevelOptimizer
from repro.core.query import AnalysisQuery
from repro.collection.records import UpdateList
from repro.storage.disk import InMemoryDisk
from repro.storage.serializer import (
    PAGE_VERSION_RAW,
    PAGE_VERSION_SPARSE,
    serialize_cube,
)
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


def _day_cubes(schema, updates: dict[date, UpdateList]) -> list[DataCube]:
    """Dense daily cubes built through the index scan path (no I/O)."""
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
        raw_total = 0
        v3_total = 0
        density_total = 0.0
        cubes = _day_cubes(schema, updates)
        for cube in cubes:
            raw_total += len(serialize_cube(cube, version=PAGE_VERSION_RAW))
            v3_total += len(serialize_cube(cube, version=PAGE_VERSION_SPARSE))
            density_total += cube.density
        out[profile.name] = {
            "days": len(cubes),
            "cells": profile.cell_count,
            "mean_density": density_total / len(cubes),
            "raw_bytes_per_page": raw_total / len(cubes),
            "v3_bytes_per_page": v3_total / len(cubes),
            "ratio": raw_total / v3_total,
        }
    return out


# -- experiment 2: N-way rollup, sequential dense vs batched sparse ---------


def run_rollup(smoke: bool = False) -> dict:
    days = SMOKE_DAYS if smoke else QUARTER_DAYS
    reps = 1 if smoke else TIMING_REPS
    key = TemporalKey(Level.YEAR, QUARTER_START.year)
    out: dict[str, dict] = {}
    for profile in _profiles(smoke):
        schema, updates = _quarter_updates(profile, days)
        dense = _day_cubes(schema, updates)
        sparse = [as_sparse(cube) for cube in dense]

        def sequential() -> np.ndarray:
            # The pre-PR maintenance pipeline: one dense accumulator,
            # one ``+=`` per child.
            acc = np.zeros(schema.shape, dtype=np.int64)
            for cube in dense:
                acc += cube.counts
            return acc

        def batched():
            return sum_cubes(schema, key, sparse)

        seq_s = _best_of(sequential, reps)
        batch_s = _best_of(batched, reps)
        assert np.array_equal(as_dense(batched()).counts, sequential())
        out[profile.name] = {
            "children": len(dense),
            "sequential_ms": 1000.0 * seq_s,
            "batched_ms": 1000.0 * batch_s,
            "speedup": seq_s / batch_s,
        }
    return out


# -- experiment 3: cold query latency across configurations -----------------

_QUERY_END_FULL = QUARTER_START + timedelta(days=QUARTER_DAYS - 1)


def _build_index(
    schema, updates: dict[date, UpdateList], sparse: bool
) -> tuple[HierarchicalIndex, InMemoryDisk]:
    disk = InMemoryDisk(read_latency=READ_LATENCY, write_latency=WRITE_LATENCY)
    index = HierarchicalIndex(
        schema,
        disk,
        page_version=PAGE_VERSION_SPARSE if sparse else PAGE_VERSION_RAW,
        sparse=sparse,
    )
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
        if profile.name == "1x":
            index, disk = _build_index(schema, updates, sparse=False)
            stats = _measure_queries(index)
            stats["stored_bytes"] = disk.stored_bytes
            out["1x_dense"] = stats
        index, disk = _build_index(schema, updates, sparse=True)
        stats = _measure_queries(index)
        stats["stored_bytes"] = disk.stored_bytes
        out[f"{profile.name}_sparse"] = stats
    baseline = out["1x_dense"]["avg_sim_ms"]
    for name, stats in out.items():
        stats["vs_1x_dense"] = stats["avg_sim_ms"] / baseline
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
        "Daily page bytes: raw v1 vs sparse v3",
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
        ["scale", "sequential ms", "batched ms", "speedup"],
        [
            [
                name,
                f"{row['sequential_ms']:.2f}",
                f"{row['batched_ms']:.2f}",
                f"{row['speedup']:.2f}x",
            ]
            for name, row in rollup.items()
        ],
    )
    queries = payload["query_latency"]
    print_table(
        "Cold dashboard queries (modeled disk)",
        ["config", "avg sim ms", "avg reads", "stored MB", "vs 1x dense"],
        [
            [
                name,
                f"{row['avg_sim_ms']:.2f}",
                f"{row['avg_disk_reads']:.1f}",
                f"{row['stored_bytes'] / 1e6:.2f}",
                f"{row['vs_1x_dense']:.2f}x",
            ]
            for name, row in queries.items()
        ],
    )
    if not smoke:
        # The PR's acceptance numbers.
        for scale in ("10x", "100x"):
            assert pages[scale]["ratio"] >= 5.0, pages[scale]
            assert rollup[scale]["speedup"] >= 3.0, rollup[scale]
        assert queries["100x_sparse"]["vs_1x_dense"] <= 2.0, queries
    return payload


def bench_cube_kernel(benchmark):
    payload = benchmark.pedantic(run_all, iterations=1, rounds=1)
    benchmark.extra_info["v3_ratio_100x"] = payload["page_bytes"]["100x"]["ratio"]
    benchmark.extra_info["rollup_speedup_100x"] = payload["rollup"]["100x"]["speedup"]
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
