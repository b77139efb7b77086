"""One-stop assembly of a complete RASED deployment.

:class:`RasedSystem` wires together every module from the paper's
architecture diagram (Fig. 1) — the synthetic OSM feeds, both
crawlers, the hierarchical cube index, the sample-update warehouse,
the cache, the query executor, and the dashboard facade — over either
an in-memory page store or an on-disk directory.

Typical use (see ``examples/quickstart.py``)::

    system = RasedSystem.create()          # in-memory deployment
    system.simulate_and_ingest(date(2021, 1, 1), date(2021, 3, 31))
    result = system.dashboard.analysis(AnalysisQuery(...))
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime, time, timezone
from pathlib import Path
import tempfile
from typing import Any

from repro.core.cache import CacheManager
from repro.types.temporal import TemporalKey, month_key
from repro.types.dimensions import CubeSchema, default_schema
from repro.core.executor import QueryExecutor
from repro.core.hierarchy import HierarchicalIndex
from repro.core.iosched import IOScheduler
from repro.core.optimizer import LevelOptimizer
from repro.core.percentages import NetworkSizeRegistry
from repro.core.resultcache import EpochCounter, ResultCache
from repro.core.shard import (
    ScatterGatherExecutor,
    ShardedIndex,
    ShardedPageStore,
    detect_shard_count,
    shard_stores_for,
)
from repro.collection.daily import DailyCrawler
from repro.collection.geocode import Geocoder
from repro.collection.records import UpdateList as UpdateListType
from repro.collection.monthly import MonthlyCrawler
from repro.collection.pipeline import IngestionPipeline, IngestReport
from repro.dashboard.admission import AdmissionConfig, AdmissionController
from repro.dashboard.api import Dashboard
from repro.errors import ConfigError
from repro.geo.zones import ZoneAtlas, build_world
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    SLOConfig,
    SLOTracker,
    Tracer,
)
from repro.osm.changesets import ChangesetStore
from repro.osm.replication import (
    CRAWL_BREAKER_THRESHOLD,
    CRAWL_RETRY_POLICY,
    CircuitBreaker,
    ReplicationFeed,
    ResilientFeed,
)
from repro.storage.disk import InMemoryDisk
from repro.storage.hash_index import HashIndex
from repro.storage.pages import PageStore
from repro.storage.spatial_index import GridSpatialIndex
from repro.storage.wal import IngestWAL
from repro.storage.warehouse import Warehouse
from repro.synth.simulator import DayOutput, EditSimulator, SimulationConfig

__all__ = ["RasedSystem", "SystemConfig"]


@dataclass(frozen=True)
class SystemConfig:
    """Deployment knobs for an assembled system.

    There is one cube engine: cubes are built sparse and written as v3
    pages (v1 pages an older root holds still read).  The bare
    ``SystemConfig()`` is that engine without the result memo, the WAL
    or admission — the *paper* profile, whose modeled numbers (Figs.
    7-10, ``tests/golden/paper.json``) depend on read counts only;
    :meth:`serving` adds the memo and is the product.
    """

    road_types: int = 12
    cache_slots: int = 64
    #: Accepted only as 3: the one page format written.  Kept (with
    #: ``sparse_cubes``) because the frozen benchmark harness still
    #: spells both; any other value raises :class:`ConfigError`.
    page_version: int = 3
    #: Accepted only as ``True``: cubes are always built sparse.
    sparse_cubes: bool = True
    simulation: SimulationConfig = SimulationConfig()
    #: Place cube pages across this many shard stores (rendezvous
    #: hashing) and read them scatter-gather.  Index, cache and WAL are
    #: the same single ones at every N, so plans and counters do not
    #: depend on it; the differential oracle suite
    #: (``tests/test_shard_oracle.py``) proves N>1 answers byte-equal.
    shards: int = 1
    #: Accepted only as ``None`` or 4, and ``fetch_parallelism`` only as
    #: 4: page reads and shard gathers run on the querying thread, so
    #: these pool widths size nothing.  Fields only because the frozen
    #: benchmark harness still spells both.
    scatter_threads: int | None = None
    fetch_parallelism: int = 4
    #: Slots in the epoch-versioned whole-result memo cache in front
    #: of the executor.  0 disables memoization, so repeated identical
    #: queries still measure real execution.
    result_cache_slots: int = 0
    #: Run ingestion through the write-ahead intent log: every daily
    #: ingest / monthly rebuild becomes one atomic batch, and a crash
    #: at any point rolls back cleanly on the next start.
    durable_ingest: bool = False
    #: Front-door policy for the HTTP server: auth, rate limits,
    #: quotas, per-request deadlines, and load shedding.  The default
    #: disables every feature, so nothing is admission-checked.
    admission: AdmissionConfig = AdmissionConfig()
    #: Causal span tracing.  An untraced code path costs one
    #: ``ContextVar.get`` and the enabled path is held to a <=5%
    #: overhead budget by ``benchmarks/bench_tracing_overhead.py``;
    #: spans never touch the modeled disk clock.
    tracing: bool = True
    #: Service-level objectives evaluated over the HTTP request stream
    #: (availability + latency, multi-window burn-rate alerts).
    slo: SLOConfig = SLOConfig()

    def __post_init__(self) -> None:
        if self.page_version != 3 or self.sparse_cubes is not True:
            raise ConfigError(
                "cubes are always built sparse and written as v3 pages: "
                f"page_version={self.page_version!r} and "
                f"sparse_cubes={self.sparse_cubes!r} are not settable"
            )
        if self.fetch_parallelism != 4 or self.scatter_threads not in (None, 4):
            raise ConfigError(
                "reads run on the querying thread: "
                f"fetch_parallelism={self.fetch_parallelism!r} and "
                f"scatter_threads={self.scatter_threads!r} are not settable"
            )

    @classmethod
    def serving(cls, **overrides: Any) -> "SystemConfig":
        """The deployed profile: what ``rased-repro ingest|serve`` open
        and what ``benchmarks/e2e`` measures — sparse cubes in v3 pages
        behind a 64-slot cube cache, the result memo and tracing
        (``tests/test_system.py`` pins it to the harness's own literal).  ``overrides`` are per-deployment settings
        (shards, WAL, admission, ...)."""
        profile = dict(
            cache_slots=64,
            tracing=True,
            result_cache_slots=256,
        )
        return cls(**(profile | overrides))


class RasedSystem:
    """A fully wired RASED deployment plus its synthetic data source."""

    def __init__(
        self,
        atlas: ZoneAtlas,
        schema: CubeSchema,
        store: PageStore,
        feed_root: Path,
        config: SystemConfig,
    ) -> None:
        self.atlas = atlas
        self.schema = schema
        self.store = store
        self.config = config

        #: Per-deployment metrics registry.  Every component below —
        #: including the externally constructed page store — reports
        #: here, so two systems in one process never mix series.
        self.metrics = MetricsRegistry()
        store.metrics = self.metrics

        #: Index epoch: bumped with the date window of every mutation
        #: of what queries can see (cube writes; globally for catalog
        #: reloads and denominator refreshes); versions the result cache.
        self.epoch = EpochCounter()

        #: Always-on flight recorder + the tracer that feeds it.  The
        #: recorder exists even with tracing disabled (so ``/debug``
        #: surfaces answer consistently); a disabled tracer simply
        #: never delivers traces to it.
        self.recorder = FlightRecorder(metrics=self.metrics)
        self.tracer = Tracer(recorder=self.recorder, enabled=config.tracing)
        #: SLO accounting over the HTTP request stream; the server
        #: records into it, ``/health`` and ``/debug/slo`` read it.
        self.slo = SLOTracker(config.slo, metrics=self.metrics)

        self.simulator = EditSimulator(atlas=atlas, config=config.simulation)
        self.day_feed = ReplicationFeed(feed_root / "replication", "day")
        self.hour_feed = ReplicationFeed(feed_root / "replication", "hour")
        self.changeset_store = ChangesetStore(feed_root / "changesets")
        self.geocoder = Geocoder(atlas)

        #: With ``shards > 1`` the deployment's store becomes a routed
        #: view: cube pages land on per-shard stores (rendezvous
        #: placement), everything else — warehouse, auxiliary indexes,
        #: WAL, feed cursor — stays on the primary store.  Nothing
        #: below this line knows which case it is in, bar the scatter
        #: executor, which gathers shard by shard.
        self.shard_stores: list[PageStore] = []
        routed: ShardedPageStore | None = None
        # Checked before the shard stores (directories) are derived: an
        # on-disk root opened at another count than it was laid out
        # with would scan the wrong directories and come up silently
        # empty — and then write cubes where the right count never looks.
        laid_out = detect_shard_count(store)
        if laid_out is not None and laid_out != config.shards:
            raise ConfigError(
                f"this root is laid out as {laid_out} shard store(s) but "
                f"was opened with shards={config.shards}; the shard count "
                "is fixed when a root's first cube is written"
            )
        if config.shards > 1:
            self.shard_stores = shard_stores_for(store, config.shards)
            routed = ShardedPageStore(self.shard_stores, store)

        #: With durable ingestion, every storage component is built
        #: over the WAL's journaled view (of the routed store, so one
        #: journal covers every shard), and any batch a previous
        #: process left half-done is rolled back *before* the warehouse
        #: scans the heap (a torn tail page would otherwise fail its
        #: construction-time recovery).
        self.wal: IngestWAL | None = None
        effective_store: PageStore = routed if routed is not None else store
        if config.durable_ingest:
            self.wal = IngestWAL(effective_store)
            self.wal.recover()
            effective_store = self.wal.store

        #: The feed the daily crawler polls: the day feed behind retries
        #: and a circuit breaker (both fire on failures only).
        self.crawl_feed = ResilientFeed(
            self.day_feed,
            policy=CRAWL_RETRY_POLICY,
            breaker=CircuitBreaker(CRAWL_BREAKER_THRESHOLD),
            seed=config.simulation.seed,
            metrics=self.metrics,
        )

        index_options: dict[str, Any] = dict(atlas=atlas, epoch=self.epoch)
        sharded_index = (
            ShardedIndex(schema, routed, effective_store, **index_options)
            if routed is not None
            else None
        )
        self.index: HierarchicalIndex = (
            sharded_index
            if sharded_index is not None
            else HierarchicalIndex(schema, effective_store, **index_options)
        )
        self.warehouse = Warehouse(effective_store, metrics=self.metrics)
        self.hash_index = HashIndex(effective_store)
        self.spatial_index = GridSpatialIndex(effective_store)
        self.cache = CacheManager(
            self.index, slots=config.cache_slots, metrics=self.metrics
        )
        self.network_sizes = NetworkSizeRegistry(
            atlas, self.simulator.road_network_sizes()
        )
        self.result_cache = (
            ResultCache(config.result_cache_slots, self.epoch, metrics=self.metrics)
            if config.result_cache_slots > 0
            else None
        )
        engine = QueryExecutor if sharded_index is None else ScatterGatherExecutor
        self.executor: QueryExecutor = engine(
            self.index,
            cache=self.cache,
            optimizer=LevelOptimizer(self.index, metrics=self.metrics),
            network_sizes=self.network_sizes,
            metrics=self.metrics,
            result_cache=self.result_cache,
            tracer=self.tracer,
        )
        #: The executor's phase-1 read loop (it holds no thread).
        self.iosched: IOScheduler = self.executor.iosched
        self.pipeline = IngestionPipeline(
            daily_crawler=DailyCrawler(
                self.crawl_feed, self.changeset_store, self.geocoder
            ),
            monthly_crawler=MonthlyCrawler(self.changeset_store, self.geocoder),
            index=self.index,
            warehouse=self.warehouse,
            hash_index=self.hash_index,
            spatial_index=self.spatial_index,
            cache=self.cache,
            metrics=self.metrics,
            wal=self.wal,
        )
        from repro.core.live import LiveMonitor

        self.live_monitor = LiveMonitor(
            self.hour_feed,
            self.changeset_store,
            self.geocoder,
            schema,
            atlas=atlas,
        )
        #: Front-door admission controller, built only when any policy
        #: is enabled; ``DashboardServer`` receives it at serve time.
        self.admission: AdmissionController | None = (
            AdmissionController(config.admission, metrics=self.metrics)
            if config.admission.any_enabled()
            else None
        )
        self.dashboard = Dashboard(
            executor=self.executor,
            atlas=self.atlas,
            warehouse=self.warehouse,
            hash_index=self.hash_index,
            spatial_index=self.spatial_index,
            live_monitor=self.live_monitor,
            changeset_store=self.changeset_store,
            metrics=self.metrics,
        )
        #: Ground-truth UpdateLists retained per published day (tests).
        self.truth_by_day: dict[date, "UpdateListType"] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def create(
        cls,
        root: str | Path | None = None,
        config: SystemConfig | None = None,
        atlas: ZoneAtlas | None = None,
        store: PageStore | None = None,
    ) -> "RasedSystem":
        """Build a deployment; in-memory pages unless a store is given.

        ``root`` holds the synthetic OSM feed files (replication dirs,
        changeset files, history dumps); a temporary directory is used
        when omitted.
        """
        config = config or SystemConfig()
        atlas = atlas or build_world()
        schema = default_schema(atlas.zone_names(), road_types=config.road_types)
        store = store or InMemoryDisk()
        feed_root = Path(root) if root is not None else Path(tempfile.mkdtemp(prefix="rased-"))
        feed_root.mkdir(parents=True, exist_ok=True)
        return cls(atlas, schema, store, feed_root, config)

    # -- data flow ---------------------------------------------------------------

    def _simulate(self, day: date) -> DayOutput:
        """Simulate ``day``: its changesets are published, its truth kept."""
        output = self.simulator.simulate_day(day)
        for changeset in output.changesets:
            self.changeset_store.add(changeset)
        self.changeset_store.flush()
        self.truth_by_day[day] = output.truth
        return output

    def publish_day(self, day: date, hourly: bool = False) -> int:
        """Simulate one day and publish its diff + changesets.

        With ``hourly=True`` the day's edits are additionally split by
        hour and published to the hour-granularity feed the live
        monitor tails (OSM publishes minute/hour/day diffs in
        parallel; we model hour + day).

        The simulator's ground-truth UpdateList for the day is retained
        in :attr:`truth_by_day` so tests (and EXPERIMENTS.md) can
        validate crawler output against what actually happened.
        """
        output = self._simulate(day)
        stamp = datetime.combine(day, time(23, 59), tzinfo=timezone.utc)
        if hourly:
            from repro.core.live import split_change_by_hour

            for hour, change in split_change_by_hour(output.change):
                hour_stamp = datetime.combine(day, time(hour, 59), tzinfo=timezone.utc)
                self.hour_feed.publish(change, hour_stamp)
        return self.day_feed.publish(output.change, stamp)

    def publish_partial_day(self, day: date, through_hour: int) -> int:
        """Simulate ``day`` but publish only hourly diffs up to an hour.

        Models "today": the daily diff does not exist yet, so only the
        live monitor can see these updates.  Returns updates published.
        """
        output = self._simulate(day)
        from repro.core.live import split_change_by_hour

        published = 0
        for hour, change in split_change_by_hour(output.change):
            if hour > through_hour:
                continue
            stamp = datetime.combine(day, time(hour, 59), tzinfo=timezone.utc)
            self.hour_feed.publish(change, stamp)
            published += len(change)
        return published

    def poll_live(self) -> int:
        """Tail the hourly feed and drop overlays for ingested days.

        An overlay is dropped only when that *specific* day's daily
        cube exists — coverage can have holes (e.g. a daily diff that
        never arrived), and those days must stay live.
        """
        from repro.types.temporal import day_key

        processed = self.live_monitor.poll()
        for day in self.live_monitor.partial_days():
            if self.index.has(day_key(day)):
                self.live_monitor.discard_day(day)
        return processed

    def simulate_and_ingest(
        self, start: date, end: date, monthly_rebuild: bool = False
    ) -> IngestReport:
        """Drive the full loop from simulation to queryable index.

        With ``monthly_rebuild=True``, every completed calendar month
        is additionally reprocessed through the monthly crawler from a
        full-history dump, upgrading its cubes to full resolution.
        """
        day = start
        from datetime import timedelta

        months_completed: list[TemporalKey] = []
        while day <= end:
            self.publish_day(day)
            month = month_key(day.year, day.month)
            if monthly_rebuild and day == month.end:
                months_completed.append(month)
            day += timedelta(days=1)
        report = self.pipeline.run_daily()
        if monthly_rebuild and months_completed:
            history_path = Path(tempfile.mkstemp(suffix=".osm")[1])
            try:
                self.simulator.write_history_dump(history_path)
                for month in months_completed:
                    monthly_report = self.pipeline.run_monthly(history_path, month)
                    report.cubes_written.extend(monthly_report.cubes_written)
            finally:
                history_path.unlink(missing_ok=True)
        # Road networks changed during simulation; refresh denominators.
        for country, size in self.simulator.road_network_sizes().items():
            self.network_sizes.update_country(country, size)
        # Denominators affect every window's percentages but bypass the
        # index's own epoch bumps, so invalidate all memoized results.
        self.epoch.bump()
        return report

    def warm_cache(self) -> int:
        """(Re)preload the recency cache; returns cubes resident."""
        return self.cache.preload()
