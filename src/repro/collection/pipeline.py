"""Ingestion pipeline: crawler output → index + warehouse, atomically.

Glues the Data Collection module to Storage & Indexing (paper, Fig. 1):

* **daily cycle** — for every new daily diff: crawl it into a coarse
  UpdateList, build/store the daily cube (plus any week/month/year
  rollups the day completes), append rows to the warehouse heap, and
  update the hash and spatial indexes;
* **monthly cycle** — run the monthly crawler once over the full-history
  dump for any run of months, split the reclassified UpdateList by day,
  and rebuild each month's ingested days and their rollups at full
  resolution ("copied to the index structure only when done": each day,
  and each month's rebuild, is one WAL batch written under the root's
  writer lease).

Both write the road-network size records (``Percentage(*)``'s
denominators) inside their batches, handed to the registry on commit: a
day its feed's sizes when it closes a month or the root has none yet; a
monthly run the sizes its history pass folded as of its last month's end,
or of the dump's last version if the dump ends before it.

The pipeline also refreshes any cache entries the maintenance pass
replaced, so a long-lived dashboard never serves stale cubes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import IO, TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    # Type-only: the pipeline is *handed* its index, warehouse, and
    # cache — it never constructs them — so the upward references to
    # core and storage stay out of the runtime import graph (the
    # layering rule in repro.tools.lint exempts TYPE_CHECKING blocks).
    from repro.core.cache import CacheManager
    from repro.core.hierarchy import HierarchicalIndex
    from repro.core.percentages import NetworkSizeRegistry
    from repro.storage.hash_index import HashIndex
    from repro.storage.spatial_index import GridSpatialIndex
    from repro.storage.wal import IngestWAL, WalRecovery
    from repro.storage.warehouse import Warehouse

from repro.collection.daily import DailyCrawler, DailyCrawlResult
from repro.collection.monthly import MonthlyCrawler
from repro.collection.records import UpdateList
from repro.errors import PageNotFoundError
from repro.osm.snapshot import decode_sizes, encode_sizes, sizes_page_id
from repro.obs import MetricsRegistry, get_registry, metric_key
from repro.types.temporal import Level, TemporalKey, month_key

__all__ = ["IngestionPipeline", "IngestReport"]

_K_DAYS = metric_key("rased_ingest_days_total")
_K_UPDATES = metric_key("rased_ingest_updates_total")
_K_SKIPPED = metric_key("rased_ingest_updates_skipped_total")
_K_CUBES = metric_key("rased_ingest_cubes_written_total")
_K_UPDATES_PER_DAY = metric_key("rased_ingest_updates_per_day")
_K_DAY_SECONDS = metric_key("rased_ingest_day_seconds")
_K_CYCLE_SECONDS = metric_key("rased_ingest_cycle_seconds", cycle="daily")
_K_MONTHLY_SECONDS = metric_key("rased_ingest_cycle_seconds", cycle="monthly")
_K_BATCHES = metric_key("rased_ingest_batches_total")


@dataclass
class IngestReport:
    """What one pipeline cycle accomplished."""

    days_processed: int = 0
    updates_indexed: int = 0
    updates_skipped: int = 0
    cubes_written: list[TemporalKey] = field(default_factory=list)
    warehouse_rows: int = 0
    #: Dates of the road-network size records written.
    sizes_recorded: list[date] = field(default_factory=list)


class IngestionPipeline:
    """Coordinates crawlers, cube index, and the sample-query warehouse."""

    def __init__(
        self,
        daily_crawler: DailyCrawler,
        monthly_crawler: MonthlyCrawler,
        index: HierarchicalIndex,
        warehouse: Warehouse,
        hash_index: HashIndex,
        spatial_index: GridSpatialIndex,
        cache: CacheManager,
        wal: IngestWAL,
        network_sizes: NetworkSizeRegistry,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.daily_crawler = daily_crawler
        self.monthly_crawler = monthly_crawler
        self.index = index
        self.warehouse = warehouse
        self.hash_index = hash_index
        self.spatial_index = spatial_index
        self.cache = cache
        self.network_sizes = network_sizes
        self.metrics = metrics if metrics is not None else get_registry()
        #: The stores above were built over ``wal.store``, so a batch's
        #: cubes, rows, index entries and cursor move together or not at all.
        self.wal = wal
        self._load_cursor()

    #: Page id of the persisted crawl cursor (survives restarts, so a
    #: reopened dashboard resumes from the first unseen diff instead of
    #: double-ingesting the whole feed).
    CURSOR_PAGE = "meta/daily_cursor"

    def _load_cursor(self) -> None:
        try:
            raw = self.index.store.read(self.CURSOR_PAGE)
        except PageNotFoundError:
            return
        self.daily_crawler.last_sequence = int(raw.decode("ascii"))

    def _save_cursor(self) -> None:
        if self.daily_crawler.last_sequence is None:
            return
        self.index.store.write(
            self.CURSOR_PAGE, str(self.daily_crawler.last_sequence).encode("ascii")
        )

    def _record_sizes(self, as_of: date, sizes: dict[str, int], report: IngestReport) -> None:
        self.index.store.write(sizes_page_id(as_of), encode_sizes(sizes))
        report.sizes_recorded.append(as_of)

    # -- daily --------------------------------------------------------------

    def ingest_daily_result(self, result: DailyCrawlResult, report: IngestReport) -> None:
        """Index one crawled day everywhere it belongs; add it to ``report``."""
        started = time.perf_counter()
        written = self.index.ingest_day(result.day, result.updates)
        report.days_processed += 1
        report.cubes_written.extend(written)
        report.updates_indexed += len(result.updates)
        report.updates_skipped += result.skipped
        self._store_rows(result.day, result.updates, report)
        for key in written:
            self.cache.refresh_key(key)
        metrics = self.metrics
        metrics.inc_key(_K_DAYS)
        metrics.inc_key(_K_UPDATES, len(result.updates))
        if result.skipped:
            metrics.inc_key(_K_SKIPPED, result.skipped)
        if written:
            metrics.inc_key(_K_CUBES, len(written))
        metrics.observe_key(_K_UPDATES_PER_DAY, len(result.updates))
        metrics.observe_key(_K_DAY_SECONDS, time.perf_counter() - started)

    def run_daily(self) -> IngestReport:
        """Crawl and ingest every diff published since the last cycle.

        Each day is one batch spanning the cube writes, the warehouse
        append, the secondary-index flushes, and the cursor advance — a
        crash anywhere inside rolls the whole day back, and the
        rolled-back cursor makes the re-run crawl the same diff again:
        exactly-once, not at-most-once.
        """
        started = time.perf_counter()
        report = IngestReport()
        with self.wal.lease():
            self._recover()
            for result in self.daily_crawler.crawl_new():
                day = result.day
                meta = {"kind": "daily", "day": day.isoformat()}
                self.wal.begin(meta)
                self.ingest_daily_result(result, report)
                sizes = None
                if result.sizes is not None and (
                    day == month_key(day.year, day.month).end or not self.network_sizes.dates
                ):
                    sizes = decode_sizes(result.sizes)
                    self._record_sizes(day, sizes, report)
                self._save_cursor()
                self.wal.commit(meta)
                self.metrics.inc_key(_K_BATCHES)
                if sizes is not None:
                    self.network_sizes.add(day, sizes)
        self.metrics.observe_key(
            _K_CYCLE_SECONDS, time.perf_counter() - started
        )
        return report

    def _store_rows(self, day: date, updates: UpdateList, report: IngestReport) -> None:
        rows = self.warehouse.append(updates)
        report.warehouse_rows += len(rows)
        month = month_key(day.year, day.month)
        for index in (self.hash_index, self.spatial_index):
            index.insert_many(rows)
            index.flush()
            # Folded when the day closes its month, or when the tail opens
            # in an earlier month (a feed gap swallowed a month end): a
            # read never meets more than a month's rows plus a gap's.
            if day == month.end or index.buckets.tail_opens_before(month.start):
                index.buckets.fold()

    # -- crash recovery -----------------------------------------------------

    def recover(self) -> WalRecovery:
        """Under the writer lease, roll back any crashed batch (every
        write call does this on entry).  After a rollback or another
        writer's commits, every view of the store — catalog, warehouse
        tail, index watermarks, cube cache, crawl cursor — is rebuilt
        from the pages, so the next :meth:`run_daily` ingests each day
        exactly once.
        """
        with self.wal.lease():
            return self._recover()

    def _recover(self) -> WalRecovery:
        report = self.wal.recover()
        if report.rolled_back or report.moved:
            self._resync()
        return report

    def _resync(self) -> None:
        self.index.reload_catalog()
        self.warehouse.resync()
        self.hash_index.buckets.reload()
        self.spatial_index.buckets.reload()
        self.cache.clear()
        self.network_sizes.load(self.index.store)
        # The rolled-back cursor page is authoritative; the crawler's
        # in-memory position may be a day ahead of it.
        self.daily_crawler.last_sequence = None
        self._load_cursor()

    # -- monthly ---------------------------------------------------------------

    def run_monthly(
        self, history: str | Path | IO[bytes], months: Sequence[TemporalKey]
    ) -> IngestReport:
        """Reclassify ``months`` from full history and rebuild their cubes.

        The dump is read once for all of them; each month is then its
        own batch, all under one hold of the writer lease.  Only days
        already ingested are rebuilt (:meth:`HierarchicalIndex.rebuild_month`).
        The warehouse keeps the daily crawler's rows (the paper's sample
        queries don't require reclassified update types); only the cube
        index is rebuilt.
        """
        started = time.perf_counter()
        report = IngestReport()
        with self.wal.lease():
            self._recover()
            crawl = self.monthly_crawler.crawl(history, months)
            by_day = crawl.updates.by_date()
            for month in months:
                meta = {"kind": "monthly", "month": str(month)}
                self.wal.begin(meta)
                written = self.index.rebuild_month(month, by_day)
                sizes = crawl.sizes if month is months[-1] else None
                if sizes is not None:
                    self._record_sizes(*sizes, report)
                self.wal.commit(meta)
                if sizes is not None:
                    self.network_sizes.add(*sizes)
                self.metrics.inc_key(_K_BATCHES)
                report.cubes_written.extend(written)
                for key in written:
                    self.cache.refresh_key(key)
        rebuilt = [key.start for key in report.cubes_written if key.level is Level.DAY]
        report.days_processed = len(rebuilt)
        report.updates_indexed = sum(len(by_day[day]) for day in rebuilt if day in by_day)
        report.updates_skipped = crawl.skipped
        if report.cubes_written:
            self.metrics.inc_key(_K_CUBES, len(report.cubes_written))
        self.metrics.observe_key(
            _K_MONTHLY_SECONDS, time.perf_counter() - started
        )
        return report
