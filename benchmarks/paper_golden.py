"""The paper path as a golden: every counter and modeled microsecond.

Reduced-size runs of the paper's evaluation — Fig. 7 (cache sizes),
Fig. 8 (index levels), Fig. 9 (components), Fig. 10 (vs the scan-based
row store) and Sec. VI-A's maintenance I/O sweep — plus the two modeled
sweeps that exercise overlapped reads: ``bench_concurrency``'s
fetch-parallelism curve and ``bench_sharding``'s scatter sweep, both at
smoke size.  For every query execution the golden keeps every
``QueryStats`` counter (phase *counts*, never phase seconds), the
store's read/write counts around the execution, and the modeled part of
its response time as integer microseconds,
``round((simulated_seconds - wall_seconds) * 1e6)`` — the measured
compute time the figure tables add is left out, so the record is a pure
function of the code.

``tests/test_paper_golden.py`` recomputes it and compares it exactly
with the committed ``tests/golden/paper.json``.  Regenerate (and say
why in CHANGES.md) with::

    PYTHONPATH=src:benchmarks python benchmarks/paper_golden.py --write
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
from datetime import date, timedelta
from functools import partial
from pathlib import Path
from typing import Any, Iterator

from repro.baseline.rowstore import RowStoreDatabase
from repro.core.executor import QueryExecutor
from repro.core.hierarchy import HierarchicalIndex
from repro.core.query import AnalysisQuery, QueryStats
from repro.geo.zones import build_world
from repro.storage.disk import InMemoryDisk
from repro.storage.warehouse import Warehouse
from repro.types.temporal import Level

import bench_concurrency
import bench_sharding
from common import (
    COVERAGE_END,
    READ_LATENCY,
    WRITE_LATENCY,
    build_long_index,
    make_flat_executor,
    make_optimized_executor,
    make_rased_executor,
    make_schema,
    make_workload,
    synthetic_day_updates,
)

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "tests" / "golden" / "paper.json"

FIG7_SLOTS = (32, 128, 512)
FIG7_MONTHS = (1, 3, 12)
FIG7_QUERIES = 2
FIG8_YEARS = (1, 2, 4, 8, 16)
FIG9_YEARS = (1, 4, 16)
FIG10_YEARS = (1, 2)
MAINTENANCE_DAYS = (date(2020, 11, 25), date(2021, 1, 4))


def stats_record(stats: QueryStats) -> dict[str, Any]:
    """Everything in one execution's record that is not a clock."""
    return {
        "cube_count": stats.cube_count,
        "cache_hits": stats.cache_hits,
        "disk_reads": stats.disk_reads,
        "missing_days": stats.missing_days,
        "partial": stats.partial,
        "quarantined_cubes": stats.quarantined_cubes,
        "memo_hit": stats.memo_hit,
        "cache_hits_by_level": _by_level(stats.cache_hits_by_level),
        "disk_reads_by_level": _by_level(stats.disk_reads_by_level),
        "phase_counts": {
            phase: count for phase, (_, count) in sorted(stats.phases.items())
        },
        "modeled_us": round((stats.simulated_seconds - stats.wall_seconds) * 1e6),
    }


def _by_level(counts: dict[Level, int]) -> dict[str, int]:
    return {level.label: counts[level] for level in sorted(counts)}


def _measured(
    execute: Any, store: Any, query: AnalysisQuery
) -> tuple[Any, dict[str, Any]]:
    """Run one query: its result, and its golden record."""
    before = store.stats.snapshot()
    result = execute(query)
    done = store.stats.delta(before)
    record = {**stats_record(result.stats), "reads": done.reads, "writes": done.writes}
    return result, record


def _execution(engine: Any, store: Any, query: AnalysisQuery) -> dict[str, Any]:
    return _measured(engine.execute, store, query)[1]


@contextlib.contextmanager
def recording(into: list[dict[str, Any]]) -> Iterator[None]:
    """Record every ``QueryExecutor.execute`` (either engine) a bench
    function runs, in call order."""
    execute = QueryExecutor.execute

    def recorded(self: QueryExecutor, query: AnalysisQuery) -> Any:
        result, record = _measured(partial(execute, self), self.index.store, query)
        into.append(record)
        return result

    QueryExecutor.execute = recorded  # type: ignore[method-assign]
    try:
        yield
    finally:
        QueryExecutor.execute = execute  # type: ignore[method-assign]


def fig7_8_9(index: HierarchicalIndex) -> dict[str, Any]:
    """Figs. 7-9 over the 16-year index, with fewer points and queries."""
    store = index.store
    workload = make_workload(index)
    fig7 = {}
    for slots in FIG7_SLOTS:
        executor = make_rased_executor(index, cache_slots=slots)
        for months in FIG7_MONTHS:
            queries = workload.daily_series(span_days=months * 30, count=FIG7_QUERIES)
            fig7[f"{slots}/{months}mo"] = [
                _execution(executor, store, query) for query in queries
            ]
    fig8 = {}
    for years in FIG8_YEARS:
        start = date(COVERAGE_END.year - years + 1, 1, 1)
        fig8[str(years)] = {
            level.label: sum(
                1
                for k in index.keys(level)
                if k.start >= start and k.end <= COVERAGE_END
            )
            for level in Level
        }
    engines = {
        "RASED-F": make_flat_executor(index),
        "RASED-O": make_optimized_executor(index),
        "RASED": make_rased_executor(index, cache_slots=500),
    }
    fig9 = {}
    for years in FIG9_YEARS:
        query = AnalysisQuery(
            start=date(COVERAGE_END.year - years + 1, 1, 1),
            end=COVERAGE_END,
            element_types=("way",),
            countries=("germany",),
            road_types=("residential",),
            update_types=("geometry",),
        )
        for name, engine in engines.items():
            fig9[f"{name}/{years}y"] = _execution(engine, store, query)
    return {"fig7": fig7, "fig8": fig8, "fig9": fig9}


def fig10() -> dict[str, Any]:
    """RASED vs the row store over two years of 10 rows a day."""
    index, _, updates_by_day = build_long_index(
        rows_per_day=10, start=date(COVERAGE_END.year - 1, 1, 1)
    )
    heap = Warehouse(index.store)
    for day in sorted(updates_by_day):
        heap.append(updates_by_day[day])
    rowstore = RowStoreDatabase(
        index.store, build_world(), buffer_pages=500, heap_prefix="warehouse/heap"
    )
    rased = make_rased_executor(index, cache_slots=500)
    out = {}
    for years in FIG10_YEARS:
        query = AnalysisQuery(
            start=date(COVERAGE_END.year - years + 1, 1, 1),
            end=COVERAGE_END,
            countries=("germany",),
            group_by=("element_type", "update_type"),
        )
        rowstore.pool.clear()
        out[f"dbms/{years}y"] = _execution(rowstore, index.store, query)
        out[f"rased/{years}y"] = _execution(rased, index.store, query)
    return out


def maintenance() -> dict[str, Any]:
    """Sec. VI-A: each day's page I/O and device clock across a week,
    month and year end."""
    schema = make_schema()
    disk = InMemoryDisk(read_latency=READ_LATENCY, write_latency=WRITE_LATENCY)
    index = HierarchicalIndex(schema, disk)
    rng = random.Random(3)
    out = {}
    day, last = MAINTENANCE_DAYS
    while day <= last:
        before = disk.stats.snapshot()
        index.ingest_day(day, synthetic_day_updates(day, rng, 6, schema))
        done = disk.stats.delta(before)
        out[day.isoformat()] = {
            "reads": done.reads,
            "writes": done.writes,
            "device_us": round(done.simulated_seconds * 1e6),
        }
        day += timedelta(days=1)
    return out


def compute() -> dict[str, Any]:
    index, _, _ = build_long_index()
    golden = fig7_8_9(index)
    golden["fig10"] = fig10()
    golden["maintenance"] = maintenance()
    fetch: list[dict[str, Any]] = []
    with recording(fetch):
        curve = bench_concurrency.run_fetch_parallelism(smoke=True)
    golden["fetch_parallelism"] = {
        "executions": fetch,
        "overlap_credit_us": {
            depth: round(point["overlap_credit_ms"] * 1000)
            for depth, point in curve["by_parallelism"].items()
        },
    }
    scatter: list[dict[str, Any]] = []
    with recording(scatter):
        bench_sharding.run_scatter_sweep(smoke=True)
    golden["scatter"] = scatter
    return golden


def dumps(value: Any, pad: str = "") -> str:
    """Sorted JSON with one execution (or one flat mapping) per line, so
    a regeneration diffs per execution."""
    flat = isinstance(value, dict) and (
        "reads" in value or not any(isinstance(v, (dict, list)) for v in value.values())
    )
    if flat or not isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    inner = pad + " "
    if isinstance(value, dict):
        items = [
            f"{json.dumps(k)}: {dumps(v, inner)}" for k, v in sorted(value.items())
        ]
        brackets = "{}"
    else:
        items = [dumps(v, inner) for v in value]
        brackets = "[]"
    body = ",\n".join(inner + item for item in items)
    return f"{brackets[0]}\n{body}\n{pad}{brackets[1]}"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write", action="store_true", help=f"rewrite {GOLDEN_PATH}")
    args = parser.parse_args()
    text = dumps(compute()) + "\n"
    if args.write:
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(text)
        print(f"wrote {GOLDEN_PATH}")
    else:
        print(text, end="")
