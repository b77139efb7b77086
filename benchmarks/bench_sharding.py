"""Sharded index: modeled scatter latency vs shard count.

The same quarter of data (at the 1x/10x/100x worlds of
:data:`repro.synth.scale.SCALE_PROFILES`) queried cold through 1/2/4/8
shards.  Each shard's device reads its misses serially and the shard
devices serve concurrently, so a query's modeled disk time is the
busiest shard's reads times the read latency, and should fall toward
that share as the shard count grows.

The wall-clock serving shoot-out this file used to carry (threaded vs
in-process sharded vs process-pool rps) is retired: ``benchmarks/e2e``
measures process-pool serving calibrated (``scatter_procpool``;
EXPERIMENTS.md, "Retired numbers").

Everything runs the one cube engine (sparse cubes, v3 pages).  Run: ``pytest
benchmarks/bench_sharding.py --benchmark-only -s`` or directly:
``python benchmarks/bench_sharding.py [--smoke]`` (the direct run needs
``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import random
from datetime import date, timedelta

from repro.core.executor import QueryExecutor
from repro.core.hierarchy import HierarchicalIndex
from repro.core.optimizer import LevelOptimizer
from repro.core.shard import (
    ScatterGatherExecutor,
    ShardedIndex,
    ShardedPageStore,
    shard_stores_for,
)
from repro.storage.disk import InMemoryDisk
from repro.synth.scale import (
    SCALE_PROFILES,
    ScaleProfile,
    profile_schema,
    scaled_day_updates,
)
from repro.synth.workload import QueryWorkload

from common import (
    READ_LATENCY,
    WRITE_LATENCY,
    print_table,
    run_queries,
    write_result_json,
)

SCATTER_SHARDS = (1, 2, 4, 8)
QUARTER_START = date(2021, 1, 1)
QUARTER_DAYS = 90
SMOKE_DAYS = 14


def _profiles(smoke: bool) -> tuple[ScaleProfile, ...]:
    return SCALE_PROFILES[:1] if smoke else SCALE_PROFILES


def _quarter_updates(profile: ScaleProfile, days: int):
    schema = profile_schema(profile)
    rng = random.Random(31)
    updates = {}
    day = QUARTER_START
    for _ in range(days):
        updates[day] = scaled_day_updates(
            day, rng, schema, profile.rows_per_day
        )
        day += timedelta(days=1)
    return schema, updates


def _modeled_disk() -> InMemoryDisk:
    return InMemoryDisk(read_latency=READ_LATENCY, write_latency=WRITE_LATENCY)


def _shard_clone(flat: HierarchicalIndex, shards: int) -> ShardedIndex:
    """Re-place an already-built index across ``shards`` stores.

    Building cubes from rows dominates index construction, so the
    sweep builds the flat index once and copies finished cubes into
    each shard layout (placement routes every ``put``).
    """
    disk = _modeled_disk()
    sharded = ShardedIndex(
        flat.schema,
        ShardedPageStore(shard_stores_for(disk, shards), disk),
    )
    for level in flat.levels:
        for key in flat.keys(level):
            sharded.put(flat.get(key))
    return sharded


def _sweep_queries(schema, days: int, smoke: bool):
    workload = QueryWorkload(
        schema=schema,
        coverage_start=QUARTER_START,
        coverage_end=QUARTER_START + timedelta(days=days - 1),
        seed=43,
    )
    if smoke:
        return workload.dashboard_mix(span_days=7, count=6)
    queries = workload.dashboard_mix(span_days=30, count=10)
    queries += workload.dashboard_mix(span_days=90, count=6)
    queries += workload.daily_series(span_days=14, count=4)
    return queries


def run_scatter_sweep(smoke: bool = False) -> dict:
    days = SMOKE_DAYS if smoke else QUARTER_DAYS
    out: dict[str, dict] = {}
    for profile in _profiles(smoke):
        schema, updates = _quarter_updates(profile, days)
        flat = HierarchicalIndex(schema, _modeled_disk())
        flat.bulk_load(updates)
        queries = _sweep_queries(schema, days, smoke)
        by_shards: dict[str, dict] = {}
        for shards in SCATTER_SHARDS:
            if shards == 1:
                flat.store.reset_stats()
                executor = QueryExecutor(flat, optimizer=LevelOptimizer(flat))
                stats = run_queries(executor, queries)
            else:
                index = _shard_clone(flat, shards)
                index.store.reset_stats()
                engine = ScatterGatherExecutor(index, optimizer=LevelOptimizer(index))
                stats = run_queries(engine, queries)
            by_shards[str(shards)] = stats
        baseline = by_shards["1"]["avg_sim_ms"]
        for shards in SCATTER_SHARDS:
            entry = by_shards[str(shards)]
            entry["sim_speedup"] = baseline / entry["avg_sim_ms"]
        out[profile.name] = {
            "days": days,
            "cells": profile.cell_count,
            "queries": len(queries),
            "by_shards": by_shards,
        }
    return out


# -- harness ----------------------------------------------------------------


def run_all(smoke: bool = False) -> dict:
    payload = {
        "smoke": smoke,
        "clock": "modeled",
        "scatter": run_scatter_sweep(smoke),
    }
    for name, profile in payload["scatter"].items():
        by_shards = profile["by_shards"]
        print_table(
            f"Scatter latency vs shard count ({name}, {profile['cells']} cells,"
            f" {profile['queries']} cold queries)",
            ["shards", "sim ms", "speedup", "disk reads"],
            [
                [
                    str(s),
                    f"{by_shards[str(s)]['avg_sim_ms']:.2f}",
                    f"{by_shards[str(s)]['sim_speedup']:.2f}x",
                    f"{by_shards[str(s)]['avg_disk_reads']:.1f}",
                ]
                for s in SCATTER_SHARDS
            ],
        )
    if not smoke:
        # The PR's acceptance numbers.
        for name, profile in payload["scatter"].items():
            speedup = profile["by_shards"]["8"]["sim_speedup"]
            assert speedup >= 1.5, (name, speedup)
    return payload


def bench_sharding(benchmark):
    payload = benchmark.pedantic(run_all, iterations=1, rounds=1)
    benchmark.extra_info["sim_speedup_at_8_shards"] = {
        name: profile["by_shards"]["8"]["sim_speedup"]
        for name, profile in payload["scatter"].items()
    }
    write_result_json("sharding", payload)


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
        path = write_result_json("sharding", document)
        print(f"\nwrote {path}")
