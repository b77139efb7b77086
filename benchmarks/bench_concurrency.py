"""Concurrent query engine: the modeled fetch-parallelism curve.

One cold 16-year plan (16 yearly page reads), modeled disk queue depth
swept over 1/2/4/8.  A batch of ``n`` overlapped reads is modeled at its
makespan, ``ceil(n / depth)`` read latencies, instead of the serial sum,
so depth 4 should cut modeled latency >= 3x; the overlap credit is the
difference, derived from the query's read count.

The wall-clock experiments this file used to carry (HTTP throughput of
a serial vs threaded server, result-memo qps) are retired: between
processes they spread +-25 %, and ``benchmarks/e2e`` (``dash_cold``,
``dash_hot``) measures the same paths calibrated (EXPERIMENTS.md,
"Retired numbers").

Run: ``pytest benchmarks/bench_concurrency.py --benchmark-only -s``
or directly: ``python benchmarks/bench_concurrency.py [--smoke]``
(the direct run needs ``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import math
from datetime import date

from repro.core.executor import QueryExecutor
from repro.core.optimizer import LevelOptimizer
from repro.core.query import AnalysisQuery

from common import (
    COVERAGE_END,
    COVERAGE_START,
    READ_LATENCY,
    build_long_index,
    print_table,
    write_result_json,
)

PARALLELISM_SWEEP = (1, 2, 4, 8)


def run_fetch_parallelism(smoke: bool = False) -> dict:
    start = date(2014, 1, 1) if smoke else COVERAGE_START
    index, disk, _ = build_long_index(start=start)
    query = AnalysisQuery(
        start=start, end=COVERAGE_END, group_by=("element_type",)
    )
    results: dict[int, dict] = {}
    try:
        for depth in PARALLELISM_SWEEP:
            disk.parallelism = depth
            disk.reset_stats()
            executor = QueryExecutor(index, optimizer=LevelOptimizer(index))
            result = executor.execute(query)
            reads = result.stats.disk_reads
            results[depth] = {
                "sim_ms": result.stats.simulated_ms,
                "disk_reads": reads,
                "overlap_credit_ms": (reads - math.ceil(reads / depth))
                * READ_LATENCY
                * 1000.0,
            }
    finally:
        disk.parallelism = 1
    baseline = results[1]["sim_ms"]
    for depth in PARALLELISM_SWEEP:
        results[depth]["speedup"] = baseline / results[depth]["sim_ms"]
    return {
        "years": COVERAGE_END.year - start.year + 1,
        "by_parallelism": {str(d): results[d] for d in PARALLELISM_SWEEP},
    }


# -- harness ----------------------------------------------------------------


def run_all(smoke: bool = False) -> dict:
    payload = {
        "smoke": smoke,
        "clock": "modeled",
        "fetch_parallelism": run_fetch_parallelism(smoke),
    }
    fetch = payload["fetch_parallelism"]["by_parallelism"]
    print_table(
        "Modeled fetch-parallelism sweep (cold long-plan query)",
        ["depth", "sim ms", "speedup"],
        [
            [str(d), f"{fetch[str(d)]['sim_ms']:.2f}", f"{fetch[str(d)]['speedup']:.2f}x"]
            for d in PARALLELISM_SWEEP
        ],
    )
    if not smoke:
        # The PR's acceptance number.
        assert fetch["4"]["speedup"] >= 3.0, fetch
    return payload


def bench_concurrency(benchmark):
    payload = benchmark.pedantic(run_all, iterations=1, rounds=1)
    benchmark.extra_info["speedup_at_depth_4"] = payload["fetch_parallelism"][
        "by_parallelism"
    ]["4"]["speedup"]
    write_result_json("concurrency", payload)


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
        path = write_result_json("concurrency", document)
        print(f"\nwrote {path}")
