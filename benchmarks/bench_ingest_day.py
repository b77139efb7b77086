"""Writer-alone daily ingest: CPU milliseconds per day, part by part.

Simulates a day feed (the ``ingest_mixed`` feed: seed 13, 12 road
types, days from 2022-01-01), then times ``pipeline.run_daily()`` over
it on a fresh in-memory deployment with no reader beside it, pinned to
one CPU.  Each part is the thread CPU time spent inside one entry point,
summed over the run and divided by the days:

* **fetch** — ``ResilientFeed.fetch``: read and parse the diff;
* **crawl** — ``DailyCrawler.process_change``: geocode the diff into
  ``UpdateList`` rows;
* **cube build** — ``HierarchicalIndex.ingest_day``: the daily cube and
  the rollups it completes;
* **store rows** — ``IngestionPipeline._store_rows``: warehouse append
  and both warehouse indexes;
* **rest** — everything else ``run_daily`` does (WAL begin/commit,
  cursor, cache refresh, metrics).

It then ingests the feed once more, untimed, to print the write ledger:
the bytes the store charged per update indexed, filed by page family — the warehouse heap,
its values page (each distinct country and road type once), the index bucket base pages, the
indexes' watermark pages (``<prefix>/folded``), the undo journal by
the family of the page each record undoes, the cube pages, the
road-network size records (``meta:network_sizes``: the first day's and
each month end's), and other (WAL intent and checkpoint, the crawl
cursor).  The families sum to the
store's ``bytes_written``, which ``store_bytes_per_update`` in
``benchmarks/e2e`` divides by the same count.  Beside it, the read
ledger: the bytes the store charged for reads per update, filed by the
family of the page read (undo pages under other); they sum to its
``bytes_read``.

``--monthly`` times the monthly path instead: a deployment that has
ingested ``--months`` months (default 6; seed 17, 8 road types, the
default simulation) writes its full-history dump, then the CPU of
``pipeline.run_monthly`` is taken to rebuild its first month alone, and
all of its months together, from that dump.

``--smoke`` ingests 5 days from 2022-01-29, so its one run folds the
month end of January, and writes exactly two size records: the first
day's and January's month end.  It checks that the heap costs exactly
``ROW_SIZE`` bytes per update, the values page under one and the
watermarks under 0.05; that no index page but a base page or a
watermark is written; and that the fold reads heap pages, never a base
page.

Run: ``PYTHONPATH=src python benchmarks/bench_ingest_day.py [--days 60]
[--runs 3] [--smoke] [--monthly [--months 6]]``.  The last line printed
is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import tempfile
import time
from collections import Counter
from datetime import date, timedelta
from pathlib import Path
from typing import Any, Callable

from repro.collection.daily import DailyCrawler
from repro.collection.pipeline import IngestionPipeline
from repro.core.hierarchy import HierarchicalIndex
from repro.osm.replication import ResilientFeed
from repro.osm.snapshot import SIZES_PREFIX
from repro.storage.disk import InMemoryDisk
from repro.storage.warehouse import ROW_SIZE
from repro.synth.publisher import FeedPublisher
from repro.system import RasedSystem, SimulationConfig, SystemConfig
from repro.types.temporal import TemporalKey, month_key

FEED_SEED = 13
ROAD_TYPES = 12
FIRST_DAY = date(2022, 1, 1)
#: The smoke window's first day: its five days cross a month end.
SMOKE_FIRST_DAY = date(2022, 1, 29)
#: (class, method, part) — the entry points whose CPU time is a part.
PARTS: tuple[tuple[type, str, str], ...] = (
    (ResilientFeed, "fetch", "fetch"),
    (DailyCrawler, "process_change", "crawl"),
    (HierarchicalIndex, "ingest_day", "cube_build"),
    (IngestionPipeline, "_store_rows", "store_rows"),
)


def publish_feed(root: Path, days: int, first: date = FIRST_DAY) -> None:
    """Simulate and publish ``days`` daily diffs from ``first`` under ``root``."""
    publisher = FeedPublisher(root, config=SimulationConfig(seed=FEED_SEED))
    publisher.publish_days(first, first + timedelta(days=days - 1))


def _timed(method: Callable[..., Any], spent: dict[str, float], part: str) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        started = time.thread_time()
        try:
            return method(*args, **kwargs)
        finally:
            spent[part] += time.thread_time() - started

    return wrapper


#: The ledgers' page families, in print order.
FAMILIES = ("heap", "values", "bucket_base", "watermark", "cubes", "meta:network_sizes", "other")


def page_family(page_id: str) -> str:
    """The family of the page ``page_id`` (an undo page's is its own)."""
    if page_id.startswith("warehouse/heap/"):
        return "heap"
    if page_id == "warehouse/values":
        return "values"
    if page_id.startswith(("warehouse/hash/", "warehouse/grid/")):
        return "watermark" if page_id.endswith("/folded") else "bucket_base"
    if page_id.startswith(SIZES_PREFIX):
        return "meta:network_sizes"
    return "cubes" if page_id.startswith("cubes/") else "other"


class LedgerDisk(InMemoryDisk):
    """An in-memory disk that files every byte it charges for a write
    under a family, undo pages under ``undo:`` plus the family of the
    page their header names; and every byte it charges for a read under
    the family of the page read."""

    def __init__(self) -> None:
        super().__init__(read_latency=0.0, write_latency=0.0)
        self.ledger: Counter[str] = Counter()
        self.read_ledger: Counter[str] = Counter()

    def _charge_read(self, nbytes: int, page_id: str = "") -> None:
        super()._charge_read(nbytes, page_id)
        self.read_ledger[page_family(page_id)] += nbytes

    def _charge_write(self, nbytes: int, page_id: str = "") -> None:
        super()._charge_write(nbytes, page_id)
        family = page_family(page_id)
        if page_id.startswith("wal/undo/"):
            undone = json.loads(self._pages[page_id].partition(b"\n")[0])["page_id"]
            family = "undo:" + page_family(undone)
        self.ledger[family] += nbytes


def deployment(feed_root: Path, store: InMemoryDisk) -> RasedSystem:
    """A fresh deployment over ``store`` that reads the feed at ``feed_root``."""
    return RasedSystem.create(
        root=feed_root,
        config=SystemConfig(
            road_types=ROAD_TYPES,
            cache_slots=64,
            result_cache_slots=256,
            durable_ingest=True,
        ),
        store=store,
    )


def ledgers(feed_root: Path) -> tuple[dict[str, float], dict[str, float], list[date], set[str]]:
    """One ingest of the whole feed: bytes written per update by family,
    undo after the pages, then the total; bytes read per update by
    family, then the total (the families must sum to each total); the
    dates of the size records written; and every index page written."""
    disk = LedgerDisk()
    index_pages: set[str] = set()
    charge_write = disk._charge_write

    def noting(nbytes: int, page_id: str = "") -> None:
        if page_id.startswith(("warehouse/hash/", "warehouse/grid/")):
            index_pages.add(page_id)
        charge_write(nbytes, page_id)

    disk._charge_write = noting  # type: ignore[method-assign]
    report = deployment(feed_root, disk).pipeline.run_daily()
    updates = max(report.updates_indexed, 1)
    order = list(FAMILIES) + [f"undo:{family}" for family in FAMILIES]
    assert set(disk.ledger) <= set(order), disk.ledger
    assert sum(disk.ledger.values()) == disk.stats.bytes_written
    assert sum(disk.read_ledger.values()) == disk.stats.bytes_read
    written = {family: disk.ledger[family] / updates for family in order}
    written["total"] = disk.stats.bytes_written / updates
    read = {family: disk.read_ledger[family] / updates for family in FAMILIES}
    read["total"] = disk.stats.bytes_read / updates
    return written, read, report.sizes_recorded, index_pages


def measure(feed_root: Path) -> dict[str, float]:
    """One ingest of the whole feed on a fresh deployment: ms of CPU per
    day for each part, plus the day count and rows indexed."""
    system = deployment(feed_root, InMemoryDisk(read_latency=0.0, write_latency=0.0))
    spent = dict.fromkeys([part for _, _, part in PARTS], 0.0)
    originals = [(owner, name, vars(owner)[name]) for owner, name, _ in PARTS]
    for owner, name, part in PARTS:
        setattr(owner, name, _timed(vars(owner)[name], spent, part))
    try:
        started = time.thread_time()
        report = system.pipeline.run_daily()
        total = time.thread_time() - started
    finally:
        for owner, name, method in originals:
            setattr(owner, name, method)
    days = max(report.days_processed, 1)
    result = {part: 1000.0 * seconds / days for part, seconds in spent.items()}
    result["rest"] = 1000.0 * (total - sum(spent.values())) / days
    result["total"] = 1000.0 * total / days
    result["days"] = report.days_processed
    result["rows"] = report.updates_indexed
    return result


MONTHLY_SEED = 17
MONTHLY_ROAD_TYPES = 8


def rebuild(system: RasedSystem, history: Path, months: list[TemporalKey]) -> float:
    """Thread-CPU milliseconds of one ``run_monthly`` over ``months``."""
    started = time.thread_time()
    system.pipeline.run_monthly(history, months)
    return 1000.0 * (time.thread_time() - started)


def bench_monthly(month_count: int, runs: int) -> dict[str, Any]:
    """Ingest ``month_count`` months from 2021-01, dump their history,
    then time rebuilding the first month and all of them, ``runs`` times."""
    months = [month_key(2021, number) for number in range(1, month_count + 1)]
    with tempfile.TemporaryDirectory(prefix="bench-monthly-") as root:
        system = RasedSystem.create(
            root=root,
            config=SystemConfig(road_types=MONTHLY_ROAD_TYPES),
            store=InMemoryDisk(read_latency=0.0, write_latency=0.0),
        )
        publisher = FeedPublisher(root, system.atlas, SimulationConfig(seed=MONTHLY_SEED))
        publisher.publish_and_ingest(system.pipeline, months[0].start, months[-1].end)
        history = Path(root) / "history.osm"
        versions = publisher.write_history_dump(history)
        dump_bytes = history.stat().st_size
        results = [
            {"one_month_ms": rebuild(system, history, months[:1]),
             "all_months_ms": rebuild(system, history, months)}
            for _ in range(runs)
        ]
    print(f"monthly rebuild CPU ms from a {month_count}-month dump "
          f"({versions} versions, {dump_bytes} bytes), {runs} run(s)")
    print(f"run  {'1 month':>10}  {f'{month_count} months':>10}")
    for number, result in enumerate(results, 1):
        print(f"{number:>3}  {result['one_month_ms']:10.1f}  {result['all_months_ms']:10.1f}")
    return {
        "bench": "ingest_monthly",
        "months": month_count,
        "runs": runs,
        "versions": versions,
        "median_ms": {
            name: round(statistics.median(r[name] for r in results), 1)
            for name in ("one_month_ms", "all_months_ms")
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--days", type=int, default=60, help="days in the feed (60)")
    parser.add_argument("--runs", type=int, default=3, help="ingests of the feed (3)")
    parser.add_argument(
        "--smoke", action="store_true",
        help="5 days over a month end (2 months with --monthly), 1 run (CI)",
    )
    parser.add_argument("--monthly", action="store_true", help="time the monthly rebuild instead")
    parser.add_argument("--months", type=int, default=6, help="months in the --monthly dump (6)")
    args = parser.parse_args()
    days, runs = (5, 1) if args.smoke else (args.days, args.runs)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.monthly:
        print(json.dumps(bench_monthly(2 if args.smoke else args.months, runs), sort_keys=True))
        return
    with tempfile.TemporaryDirectory(prefix="bench-ingest-") as feed_dir:
        publish_feed(Path(feed_dir), days, SMOKE_FIRST_DAY if args.smoke else FIRST_DAY)
        results = [measure(Path(feed_dir)) for _ in range(runs)]
        ledger, read_ledger, recorded, index_pages = ledgers(Path(feed_dir))
    if args.smoke:
        assert ledger["bucket_base"] > 0, "the smoke window folds a month end"
        assert recorded == [SMOKE_FIRST_DAY, date(2022, 1, 31)], recorded
        assert ledger["heap"] == ROW_SIZE, ledger["heap"]
        assert 0 < ledger["values"] < 1, ledger["values"]
        assert not [page for page in index_pages if "/seg/" in page], index_pages
        assert 0 < ledger["watermark"] < 0.05, ledger["watermark"]
        # The fold reads the heap rows it folds, never a base page.
        assert read_ledger["heap"] > 0 and read_ledger["bucket_base"] == 0, read_ledger
    columns = [part for _, _, part in PARTS] + ["rest", "total"]
    print(f"writer-alone CPU ms/day over {days} days, {runs} run(s)")
    print("run  " + "  ".join(f"{name:>10}" for name in columns) + "        rows")
    for number, result in enumerate(results, 1):
        cells = "  ".join(f"{result[name]:10.2f}" for name in columns)
        print(f"{number:>3}  {cells}  {int(result['rows']):>10}")
    print(f"write and read ledgers, bytes per update over {int(results[-1]['rows'])} updates")
    print(f"  {'family':<24} {'written':>9}  {'read':>9}")
    for family, value in ledger.items():
        read = read_ledger.get(family)
        print(f"  {family:<24} {value:9.3f}  " + ("" if read is None else f"{read:9.3f}"))
    summary = {
        "bench": "ingest_day",
        "days": days,
        "runs": runs,
        "rows": [int(result["rows"]) for result in results],
        "median_ms_per_day": {
            name: round(statistics.median(r[name] for r in results), 3) for name in columns
        },
        "bytes_per_update": {family: round(value, 3) for family, value in ledger.items()},
        "read_bytes_per_update": {
            family: round(value, 3) for family, value in read_ledger.items()
        },
    }
    print(json.dumps(summary, sort_keys=True))


if __name__ == "__main__":
    main()
