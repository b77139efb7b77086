"""What each per-layer metric should move, as data.

``BENCHMARK.json`` at the repo root is the one table of metric names,
units, directions and bounds: ``run.py`` and ``compare.py`` read it
through ``benchmark()``.  Its schema allows nothing more, so the extra
columns live here — which layer a metric belongs to, which end-to-end
metric it should move and on which workloads, and where it must not
move anything — and are what a reviewer checks a performance claim
against.  ``test_harness.py`` asserts ``MOVES`` names exactly the
per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Any, NamedTuple

__all__ = ["benchmark", "Moves", "MOVES", "READ", "INGEST"]

ROOT = Path(__file__).resolve().parents[2]


@functools.cache
def benchmark() -> dict[str, Any]:
    """``BENCHMARK.json``, parsed (``end_to_end`` and ``per_layer`` are
    lists of ``{name, unit, better[, bound]}`` in printing order)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


#: Workload groups used in the ``on`` columns.
READ = ("dash_cold", "dash_hot", "scatter_procpool")
INGEST = ("ingest_mixed",)


class Moves(NamedTuple):
    layer: str
    #: End-to-end metrics this one should move …
    moves: str
    #: … on these workloads …
    on: tuple[str, ...]
    #: … and the workloads on which it must not move.
    not_on: tuple[str, ...] = ()


_COLD = ("dash_cold",)
_COLD_SCATTER = ("dash_cold", "scatter_procpool")
_HOT = ("dash_hot",)
_SCATTER = ("scatter_procpool",)
_FRONT_DOOR = "req_p50_ms cpu_ms_per_req req_rps"
_INGEST_RATE = "ingest_days_per_s"

MOVES: dict[str, Moves] = {
    # dashboard.server
    "server.parse_us": Moves("dashboard.server", _FRONT_DOOR, _HOT + _COLD, INGEST),
    "server.encode_us": Moves("dashboard.server", _FRONT_DOOR, _HOT + _COLD, INGEST),
    "server.response_bytes": Moves("dashboard.server", "req_p50_ms", _HOT + _COLD, INGEST),
    "server.http_overhead_ms": Moves("dashboard.server", _FRONT_DOOR, _HOT + _COLD, INGEST),
    # dashboard.admission
    "admission.admit_us": Moves("dashboard.admission", "req_p50_ms", _HOT, _COLD_SCATTER),
    "admission.refused": Moves("dashboard.admission", "(must stay 0)", _HOT),
    # dashboard.api
    "api.analysis_ms": Moves("dashboard.api", "(parent span: the sum check)", READ),
    # core.resultcache
    "resultcache.get_us": Moves("core.resultcache", "req_p50_ms", _HOT, _COLD_SCATTER),
    "resultcache.hit_ratio": Moves(
        "core.resultcache",
        "req_p50_ms (dash_hot) req_p95_ms (ingest_mixed: epoch churn)",
        _HOT + INGEST,
        _COLD_SCATTER,
    ),
    # core.executor
    "executor.execute_ms": Moves("core.executor", "req_p50_ms cpu_ms_per_req", _COLD, _HOT),
    "executor.self_ms": Moves("core.executor", "req_p50_ms cpu_ms_per_req", _COLD, _HOT),
    # core.optimizer
    "optimizer.plan_us": Moves("core.optimizer", "req_p95_ms", _COLD, _HOT),
    "optimizer.plans_per_req": Moves("core.optimizer", "req_p95_ms", _COLD, _HOT),
    "optimizer.keys_per_req": Moves("core.optimizer", "req_p95_ms", _COLD, _HOT),
    # core.cache
    "cache.get_us": Moves("core.cache", "req_p50_ms", _COLD_SCATTER, _HOT),
    "cache.hit_ratio": Moves(
        "core.cache", "req_p50_ms via pages.reads_per_req", _COLD_SCATTER, _HOT
    ),
    "cache.resident_cubes": Moves(
        "core.cache", "req_p50_ms via pages.reads_per_req", _COLD_SCATTER, _HOT
    ),
    "cache.resident_bytes": Moves("core.cache", "peak_rss_mb", _COLD_SCATTER, _HOT),
    # core.iosched
    "iosched.fetch_ms": Moves("core.iosched", "req_p50_ms", _COLD, _SCATTER + _HOT),
    "iosched.self_ms": Moves("core.iosched", "req_p50_ms", _COLD, _SCATTER + _HOT),
    # core.hierarchy
    "hierarchy.get_us": Moves("core.hierarchy", "req_p50_ms", _COLD_SCATTER, _HOT),
    "hierarchy.ingest_day_ms": Moves("core.hierarchy", _INGEST_RATE, INGEST, READ),
    # storage.pages / storage.disk
    "pages.reads_per_req": Moves("storage.pages", "req_p50_ms", _COLD_SCATTER, _HOT),
    "pages.read_us": Moves("storage.pages", "req_p50_ms", _COLD_SCATTER, _HOT),
    "pages.read_bytes_per_req": Moves("storage.pages", "req_p50_ms", _COLD_SCATTER, _HOT),
    "pages.writes_per_day": Moves(
        "storage.pages", f"{_INGEST_RATE} store_bytes_per_update", INGEST, READ
    ),
    "pages.write_bytes_per_day": Moves(
        "storage.pages", f"{_INGEST_RATE} store_bytes_per_update", INGEST, READ
    ),
    # storage.serializer
    "serializer.decode_us": Moves(
        "storage.serializer", "req_p50_ms cpu_ms_per_req", _COLD_SCATTER, _HOT
    ),
    "serializer.encode_us": Moves("storage.serializer", _INGEST_RATE, INGEST, READ),
    "serializer.bytes_per_page": Moves(
        "storage.serializer", "req_p50_ms store_bytes_per_update", _COLD_SCATTER + INGEST, _HOT
    ),
    # types.cube
    "cube.aggregate_us": Moves("types.cube", "req_p50_ms cpu_ms_per_req", _COLD_SCATTER, _HOT),
    "cube.aggregate_ms_per_req": Moves(
        "types.cube", "req_p50_ms cpu_ms_per_req", _COLD_SCATTER, _HOT
    ),
    "cube.sum_cubes_ms_per_day": Moves("types.cube", _INGEST_RATE, INGEST, READ),
    # core.shard
    "shard.execute_ms": Moves("core.shard", "req_p50_ms req_rps", _SCATTER, _COLD + _HOT),
    "shard.self_ms": Moves("core.shard", "req_p50_ms req_rps", _SCATTER, _COLD + _HOT),
    "shard.fanout": Moves("core.shard", "req_p95_ms", _SCATTER, _COLD + _HOT),
    # dashboard.procpool
    "procpool.run_ms": Moves(
        "dashboard.procpool", "req_rps cpu_ms_per_req", _SCATTER, _COLD + _HOT + INGEST
    ),
    "procpool.hop_ms": Moves(
        "dashboard.procpool", "req_rps cpu_ms_per_req", _SCATTER, _COLD + _HOT + INGEST
    ),
    # collection
    "collection.crawl_ms_per_day": Moves("collection", _INGEST_RATE, INGEST, READ),
    "collection.updates_per_day": Moves("collection", _INGEST_RATE, INGEST, READ),
    # storage.warehouse / hash_index / spatial_index
    "warehouse.append_ms_per_day": Moves(
        "storage.warehouse", f"{_INGEST_RATE} req_p95_ms", INGEST, READ
    ),
    "hash_index.flush_ms_per_day": Moves(
        "storage.hash_index", f"{_INGEST_RATE} req_p95_ms", INGEST, READ
    ),
    "spatial_index.flush_ms_per_day": Moves(
        "storage.spatial_index", f"{_INGEST_RATE} req_p95_ms", INGEST, READ
    ),
    # storage.wal
    "wal.commit_ms_per_day": Moves(
        "storage.wal", f"{_INGEST_RATE} store_bytes_per_update", INGEST, READ
    ),
    "wal.journal_pages_per_day": Moves(
        "storage.wal", f"{_INGEST_RATE} store_bytes_per_update", INGEST, READ
    ),
    # the benchmark itself
    "trace.overhead_pct": Moves(
        "benchmarks.e2e", "(none: cost of the timing wrappers)", READ + INGEST
    ),
}
