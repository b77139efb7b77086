"""Shared fixtures and helpers for the RASED benchmark harness.

The paper's experiments (Section VIII) run over 16 years of OSM
history.  Re-simulating 16 years of edits with the full editor model
per benchmark would dominate runtime, so the long-horizon benches use
a *fast-path* synthetic UpdateList generator: a deterministic handful
of rows per day with realistic attribute skew, bulk-loaded through the
exact same index/rollup machinery the real pipeline uses.  Cube
*pages* are small (a reduced 12-zone schema) — the simulated disk
charges latency per page regardless of size, so response-time ratios
match the paper's setting, and storage figures are additionally
reported at the paper's 540 K-cell page size.

Timing convention: every reported number is the **virtual-clock
response time** (modeled disk latency + measured in-memory compute),
the quantity comparable to the paper's milliseconds.  pytest-benchmark
wall times are reported alongside for the curious.
"""

from __future__ import annotations

import json
import random
from datetime import date, timedelta
from pathlib import Path

from repro.core.cache import CacheManager, CacheRatios
from repro.types.dimensions import CubeSchema, default_schema
from repro.core.executor import QueryExecutor
from repro.core.hierarchy import HierarchicalIndex
from repro.core.optimizer import FlatPlanner, LevelOptimizer
from repro.core.query import AnalysisQuery
from repro.collection.records import UpdateList
from repro.obs import MetricsRegistry, get_registry
from repro.storage.disk import InMemoryDisk
from repro.storage.serializer import PAGE_VERSION_SPARSE
from repro.synth.scale import scaled_day_updates
from repro.synth.workload import QueryWorkload

#: Where write_result_json drops benchmark outputs (.gitignore'd).
RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Where the compact, committed snapshots live (``BENCH_<name>.json``
#: next to the bench scripts).  Unlike RESULTS_DIR these are tracked in
#: git, so per-PR diffs show how headline numbers moved.
SNAPSHOT_DIR = Path(__file__).resolve().parent

#: Zones used by the long-horizon benches (reduced country axis).
BENCH_COUNTRIES = (
    "united_states", "india", "germany", "brazil", "mexico", "france",
    "vietnam", "qatar", "singapore", "japan", "kenya", "australia",
)
#: Activity skew across BENCH_COUNTRIES (Zipf-flavored).
_COUNTRY_WEIGHTS = [1.0 / (1 + rank) ** 0.7 for rank in range(len(BENCH_COUNTRIES))]

BENCH_ROAD_TYPES = 8
#: Paper disk model: ~5 ms per 4 MB cube page read.
READ_LATENCY = 0.005
WRITE_LATENCY = 0.006

COVERAGE_START = date(2006, 1, 1)
COVERAGE_END = date(2021, 12, 31)


def make_schema() -> CubeSchema:
    return default_schema(BENCH_COUNTRIES, road_types=BENCH_ROAD_TYPES)


def synthetic_day_updates(
    day: date, rng: random.Random, rows_per_day: int, schema: CubeSchema
) -> UpdateList:
    """Fast-path UpdateList for one day (no OSM simulation).

    Delegates to the generalized scale-sweep generator with this
    harness's reduced country list; the random call sequence (and thus
    every committed snapshot) is unchanged.
    """
    return scaled_day_updates(
        day,
        rng,
        schema,
        rows_per_day,
        countries=BENCH_COUNTRIES,
        weights=_COUNTRY_WEIGHTS,
    )


def build_long_index(
    rows_per_day: int = 6,
    start: date = COVERAGE_START,
    end: date = COVERAGE_END,
    seed: int = 7,
    page_version: int | None = PAGE_VERSION_SPARSE,
    sparse: bool = True,
) -> tuple[HierarchicalIndex, InMemoryDisk, dict[date, UpdateList]]:
    """A 16-year four-level index over the fast-path workload.

    Built with the cube kernel of ``SystemConfig.serving()`` (sparse
    COO rollups in delta+RLE v3 pages) — what ``rased-repro`` deploys.
    Pass ``page_version=None, sparse=False`` to rebuild the dense/v1
    setting an older snapshot was taken under.
    """
    schema = make_schema()
    disk = InMemoryDisk(read_latency=READ_LATENCY, write_latency=WRITE_LATENCY)
    index = HierarchicalIndex(
        schema, disk, page_version=page_version, sparse=sparse
    )
    rng = random.Random(seed)
    updates_by_day: dict[date, UpdateList] = {}
    day = start
    while day <= end:
        updates_by_day[day] = synthetic_day_updates(day, rng, rows_per_day, schema)
        day += timedelta(days=1)
    index.bulk_load(updates_by_day)
    disk.reset_stats()
    return index, disk, updates_by_day


def make_workload(index: HierarchicalIndex, seed: int = 17) -> QueryWorkload:
    coverage = index.coverage()
    assert coverage is not None
    return QueryWorkload(
        schema=index.schema,
        coverage_start=coverage[0],
        coverage_end=coverage[1],
        seed=seed,
    )


def run_queries(
    executor: QueryExecutor, queries: list[AnalysisQuery]
) -> dict[str, float]:
    """Run a query batch; return averaged virtual-clock statistics."""
    total_sim = 0.0
    total_wall = 0.0
    total_disk = 0
    total_hits = 0
    total_cubes = 0
    for query in queries:
        result = executor.execute(query)
        total_sim += result.stats.simulated_seconds
        total_wall += result.stats.wall_seconds
        total_disk += result.stats.disk_reads
        total_hits += result.stats.cache_hits
        total_cubes += result.stats.cube_count
    n = max(1, len(queries))
    return {
        "avg_sim_ms": 1000.0 * total_sim / n,
        "avg_wall_ms": 1000.0 * total_wall / n,
        "avg_disk_reads": total_disk / n,
        "avg_cache_hits": total_hits / n,
        "avg_cubes": total_cubes / n,
    }


def make_rased_executor(
    index: HierarchicalIndex,
    cache_slots: int,
    ratios: CacheRatios | None = None,
) -> QueryExecutor:
    cache = CacheManager(index, slots=cache_slots, ratios=ratios or CacheRatios())
    cache.preload()
    index.store.reset_stats()
    return QueryExecutor(index, cache=cache, optimizer=LevelOptimizer(index))


def make_flat_executor(index: HierarchicalIndex) -> QueryExecutor:
    return QueryExecutor(index, cache=None, optimizer=FlatPlanner(index))


def make_optimized_executor(index: HierarchicalIndex) -> QueryExecutor:
    return QueryExecutor(index, cache=None, optimizer=LevelOptimizer(index))


def write_result_json(
    name: str,
    payload: dict,
    registry: MetricsRegistry | None = None,
) -> Path:
    """Persist one bench's results plus a metrics-registry snapshot.

    The snapshot turns every run into an observability record: cache
    hit/miss series, disk I/O, query latency quantiles — the same data
    the dashboard's ``/metrics`` endpoint serves — land next to the
    bench's own numbers in ``benchmarks/results/<name>.json``.
    Components assembled via :class:`repro.system.RasedSystem` report
    into ``system.metrics``; pass that registry here.  Standalone
    executors (the long-horizon benches) report into the default one.
    """
    registry = registry if registry is not None else get_registry()
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    document = {
        "bench": name,
        "results": payload,
        "metrics": registry.snapshot(),
    }
    path.write_text(json.dumps(document, indent=2, sort_keys=True, default=str))
    write_snapshot_json(name, payload)
    return path


def write_snapshot_json(name: str, payload: dict) -> Path:
    """Write the committed ``BENCH_<name>.json`` snapshot.

    Results only — no metrics registry (whose wall-clock histograms
    would make every run a spurious diff).  Committing the file after a
    bench run is a deliberate act; the diff *is* the review artifact.
    """
    path = SNAPSHOT_DIR / f"BENCH_{name}.json"
    path.write_text(
        json.dumps(
            {"bench": name, "results": payload},
            indent=2,
            sort_keys=True,
            default=str,
        )
        + "\n"
    )
    return path


def print_table(title: str, header: list[str], rows: list[list[str]]) -> None:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells):
        return "  ".join(str(c).rjust(widths[i]) for i, c in enumerate(cells))

    print()
    print(f"=== {title} ===")
    print(fmt(header))
    print(fmt(["-" * w for w in widths]))
    for row in rows:
        print(fmt(row))
