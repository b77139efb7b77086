"""Sharded index + scatter-gather serving: the PR 10 scale story.

Two experiments around ``repro.core.shard`` and the process-pool
serving path:

* **scatter latency vs shard count** — the same quarter of data (at
  the 1×/10×/100× worlds of :data:`repro.synth.scale.SCALE_PROFILES`)
  queried cold through 1/2/4/8 shards.  Each shard's page reads are
  charged serially on its own store and the gather credits the
  overlap (``sum − max``), so modeled latency should fall toward the
  busiest shard's share as the shard count grows.
* **process-pool serving** — a real-sleep, I/O-dominated deployment
  (paper-scale pages on shared storage: 25 ms per read) under
  concurrent HTTP clients: the PR 3 threaded server (one process,
  GIL-shared, each request's reads serial) vs the same threaded front
  door dispatching to a
  :class:`~repro.dashboard.procpool.ProcessPoolDispatcher` worker
  pool over an 8-shard index, where scatter-gather overlaps each
  request's reads 8-way.  The acceptance number is throughput at 16
  clients: multi-process serving must beat the threaded baseline.

Everything runs the sparse/v3 deployment config (the harness default
since this PR).  Run: ``pytest benchmarks/bench_sharding.py
--benchmark-only -s`` or directly: ``python
benchmarks/bench_sharding.py [--smoke]`` (the direct run needs
``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import json
import random
import threading
import time
import urllib.request
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
from repro.dashboard.procpool import ProcessPoolDispatcher
from repro.dashboard.server import DashboardServer
from repro.storage.disk import InMemoryDisk
from repro.storage.serializer import PAGE_VERSION_SPARSE
from repro.synth.scale import (
    SCALE_PROFILES,
    ScaleProfile,
    profile_schema,
    scaled_day_updates,
)
from repro.synth.simulator import SimulationConfig
from repro.synth.workload import QueryWorkload
from repro.system import RasedSystem, SystemConfig

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

#: Serving experiment disk model: 25 ms per page read.  The paper's
#: deployment stores 4 MB cube pages (540 K cells) on shared storage;
#: at cloud block-storage throughput (~125-250 MB/s baseline for
#: gp3-class volumes) a 4 MB page costs 16-32 ms of transfer before
#: seek/RTT — so serving is I/O-dominated: a page fetch is *wait*,
#: not compute.  That regime is what sharding is for: the threaded
#: baseline serializes each request's reads while scatter-gather
#: overlaps them per-request.  (bench_concurrency uses 4 ms/page; at
#: that setting, on a small host, serving becomes CPU-bound and no
#: serving architecture can beat whatever saturates the cores first.)
HTTP_READ_LATENCY = 0.025
HTTP_SPAN_DAYS = 14
SERVING_SHARDS = 8
#: Workers spend most of a request parked in page-read waits, so the
#: pool is sized for read overlap, not cores — but past ~12 processes
#: on a small host, scheduler churn costs more than the extra overlap
#: buys (measured; 16 workers served *fewer* rps than 12).
SERVING_WORKERS = 12
CLIENT_COUNTS = (4, 16, 64)


# -- experiment 1: modeled scatter latency vs shard count -------------------


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
        page_version=PAGE_VERSION_SPARSE,
        sparse=True,
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
        flat = HierarchicalIndex(
            schema,
            _modeled_disk(),
            page_version=PAGE_VERSION_SPARSE,
            sparse=True,
        )
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
                engine = ScatterGatherExecutor(
                    index, optimizer=LevelOptimizer(index)
                )
                try:
                    stats = run_queries(engine, queries)
                finally:
                    engine.shutdown()
            stats["qps_wall"] = 1000.0 / stats["avg_wall_ms"]
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


# -- experiment 2: threaded serving vs process-pool serving -----------------


def _serving_system(
    shards: int, scatter_threads: int | None = None
) -> RasedSystem:
    system = RasedSystem.create(
        store=InMemoryDisk(
            read_latency=HTTP_READ_LATENCY, write_latency=0.0, real_sleep=True
        ),
        config=SystemConfig(
            road_types=8,
            cache_slots=0,  # every query pays real (slept) page reads
            fetch_parallelism=1,
            result_cache_slots=0,
            shards=shards,
            scatter_threads=scatter_threads,
            simulation=SimulationConfig(
                seed=5,
                mapper_count=15,
                base_sessions_per_day=4,
                nodes_per_country=6,
            ),
        ),
    )
    system.simulate_and_ingest(date(2021, 7, 1), date(2021, 7, 31))
    return system


def _payloads() -> list[bytes]:
    bodies = []
    for offset in range(16):
        start = date(2021, 7, 1) + timedelta(days=offset)
        end = start + timedelta(days=HTTP_SPAN_DAYS - 1)
        bodies.append(
            json.dumps(
                {
                    "start": start.isoformat(),
                    "end": min(end, date(2021, 7, 31)).isoformat(),
                    "group_by": ["date"],
                }
            ).encode()
        )
    return bodies


def _drive_clients(
    url: str, clients: int, per_client: int, payloads: list[bytes]
) -> dict:
    barrier = threading.Barrier(clients + 1)
    latencies: list[float] = []
    lock = threading.Lock()
    errors: list[BaseException] = []

    def client(idx: int) -> None:
        mine: list[float] = []
        try:
            barrier.wait(timeout=30)
            for r in range(per_client):
                body = payloads[(idx * per_client + r) % len(payloads)]
                request = urllib.request.Request(
                    url + "/analysis",
                    data=body,
                    headers={"Content-Type": "application/json"},
                )
                started = time.perf_counter()
                with urllib.request.urlopen(request, timeout=60) as response:
                    payload = json.loads(response.read())
                mine.append(time.perf_counter() - started)
                assert payload["rows"], "query returned no rows"
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
        with lock:
            latencies.extend(mine)

    threads = [
        threading.Thread(target=client, args=(i,), name=f"shard-client-{i}")
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=30)
    started = time.perf_counter()
    for thread in threads:
        thread.join(timeout=300)
    elapsed = time.perf_counter() - started
    if errors:
        raise RuntimeError(f"client errors: {errors[:3]}")
    total = clients * per_client
    latencies.sort()
    return {
        "requests": total,
        "seconds": elapsed,
        "rps": total / elapsed,
        "mean_ms": 1000.0 * sum(latencies) / len(latencies),
        "p95_ms": 1000.0 * latencies[int(0.95 * (len(latencies) - 1))],
    }


def _serve_and_drive(
    system: RasedSystem,
    counts: tuple[int, ...],
    per_client: int,
    dispatcher: ProcessPoolDispatcher | None = None,
) -> dict:
    payloads = _payloads()
    server = DashboardServer(
        system.dashboard, threaded=True, dispatcher=dispatcher
    )
    server.start()
    try:
        # A full-width warmup round outside the timed region, so every
        # worker/server thread exists before the first measurement.
        _drive_clients(server.url, max(counts), 1, payloads)
        return {
            str(clients): _drive_clients(
                server.url, clients, per_client, payloads
            )
            for clients in counts
        }
    finally:
        server.stop()


def run_serving(smoke: bool = False) -> dict:
    counts = (4,) if smoke else CLIENT_COUNTS
    per_client = 2 if smoke else 3
    workers = 4 if smoke else SERVING_WORKERS
    out: dict[str, object] = {
        "shards": SERVING_SHARDS,
        "workers": workers,
    }

    # PR 3 baseline: one process, unsharded, threads share the GIL.
    system = _serving_system(shards=1)
    out["threaded"] = _serve_and_drive(system, counts, per_client)

    # Same front door over the sharded index, still in-process.  The
    # scatter pool is widened to the client count: all in-flight
    # requests' subqueries share it, and the min(8, shards) default
    # (right for one query at a time) would serialize their reads.
    system = _serving_system(
        shards=SERVING_SHARDS,
        scatter_threads=max(SERVING_SHARDS, max(counts)),
    )
    out["threaded_sharded"] = _serve_and_drive(system, counts, per_client)

    # Process-pool serving: request threads become I/O shims; each
    # forked worker owns a full dashboard over the sharded deployment.
    # The pool is prewarmed before the server starts, so every fork
    # happens while the parent is quiescent (no serving threads, no
    # scatter pool activity).
    system = _serving_system(shards=SERVING_SHARDS)
    dispatcher = ProcessPoolDispatcher(
        lambda: system.dashboard, workers=workers
    )
    try:
        out["worker_pids"] = sorted(set(dispatcher.prewarm()))
        out["procpool"] = _serve_and_drive(
            system, counts, per_client, dispatcher=dispatcher
        )
    finally:
        dispatcher.shutdown()

    pivot = str(16 if 16 in counts else counts[-1])
    out["pivot_clients"] = int(pivot)
    out["procpool_vs_threaded"] = (
        out["procpool"][pivot]["rps"] / out["threaded"][pivot]["rps"]
    )
    return out


# -- harness ----------------------------------------------------------------


def run_all(smoke: bool = False) -> dict:
    payload = {
        "smoke": smoke,
        "scatter": run_scatter_sweep(smoke),
        "serving": run_serving(smoke),
    }
    for name, profile in payload["scatter"].items():
        by_shards = profile["by_shards"]
        print_table(
            f"Scatter latency vs shard count ({name}, {profile['cells']} cells,"
            f" {profile['queries']} cold queries)",
            ["shards", "sim ms", "speedup", "wall ms", "disk reads"],
            [
                [
                    str(s),
                    f"{by_shards[str(s)]['avg_sim_ms']:.2f}",
                    f"{by_shards[str(s)]['sim_speedup']:.2f}x",
                    f"{by_shards[str(s)]['avg_wall_ms']:.2f}",
                    f"{by_shards[str(s)]['avg_disk_reads']:.1f}",
                ]
                for s in SCATTER_SHARDS
            ],
        )
    serving = payload["serving"]
    counts = sorted((int(c) for c in serving["threaded"]), key=int)
    print_table(
        f"HTTP serving: threaded vs {serving['workers']}-worker process pool"
        f" ({serving['shards']} shards)",
        ["clients", "threaded rps", "sharded rps", "procpool rps", "procpool p95 ms"],
        [
            [
                str(c),
                f"{serving['threaded'][str(c)]['rps']:.1f}",
                f"{serving['threaded_sharded'][str(c)]['rps']:.1f}",
                f"{serving['procpool'][str(c)]['rps']:.1f}",
                f"{serving['procpool'][str(c)]['p95_ms']:.1f}",
            ]
            for c in counts
        ],
    )
    if not smoke:
        # The PR's acceptance numbers.
        for name, profile in payload["scatter"].items():
            speedup = profile["by_shards"]["8"]["sim_speedup"]
            assert speedup >= 1.5, (name, speedup)
        assert serving["procpool_vs_threaded"] > 1.0, serving[
            "procpool_vs_threaded"
        ]
    return payload


def bench_sharding(benchmark):
    payload = benchmark.pedantic(run_all, iterations=1, rounds=1)
    benchmark.extra_info["procpool_vs_threaded"] = payload["serving"][
        "procpool_vs_threaded"
    ]
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
