"""One-stop assembly of a complete RASED deployment.

:class:`RasedSystem` wires together every module from the paper's
architecture diagram (Fig. 1) — both crawlers over the OSM feeds, the
hierarchical cube index, the sample-update warehouse, the cache, the
query executor, and the dashboard facade — over either an in-memory
page store or an on-disk directory.  It reads feeds; the synthetic
source that writes them is imported only by :meth:`RasedSystem.publish_day`.

Typical use (see ``examples/quickstart.py``)::

    system = RasedSystem.create()          # in-memory deployment
    system.simulate_and_ingest(date(2021, 1, 1), date(2021, 3, 31))
    result = system.dashboard.analysis(AnalysisQuery(...))
    system.close()                         # its temporary feed directory
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from pathlib import Path
import shutil
import tempfile
from typing import TYPE_CHECKING, Any

from repro.core.cache import CacheManager
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
from repro.storage.wal import IngestWAL, WalRecovery
from repro.storage.warehouse import Warehouse
from repro.types.simulation import SimulationConfig

if TYPE_CHECKING:
    from repro.collection.records import UpdateList
    from repro.synth.publisher import FeedPublisher

__all__ = ["RasedSystem", "SystemConfig"]


@dataclass(frozen=True)
class SystemConfig:
    """Deployment knobs for an assembled system.

    There is one cube engine: cubes are built sparse and written as v3
    pages (v1 pages an older root holds still read).  The bare
    ``SystemConfig()`` is that engine without the result memo or
    admission — the *paper* profile, whose modeled numbers (Figs.
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
    #: What :meth:`RasedSystem.publish_day` simulates (default
    #: ``SimulationConfig()``); nothing else reads it.
    simulation: SimulationConfig | None = None
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
    #: Accepted only as ``True``: every write runs through the WAL.  A
    #: field only because the frozen benchmark harness still spells it.
    durable_ingest: bool = True
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
        shims = (self.page_version, self.sparse_cubes, self.durable_ingest)
        if shims != (3, True, True):
            raise ConfigError(
                "cubes are always built sparse, written as v3 pages, through "
                f"the WAL: page_version={self.page_version!r}, sparse_cubes="
                f"{self.sparse_cubes!r}, durable_ingest={self.durable_ingest!r} "
                "are not settable"
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
        (shards, admission, ...)."""
        profile = dict(
            cache_slots=64,
            tracing=True,
            result_cache_slots=256,
        )
        return cls(**(profile | overrides))


class RasedSystem:
    """A fully wired RASED deployment over one root's pages and feeds."""

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
        #: reloads; from a size record's date on, for percentages only);
        #: versions the result cache.
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

        self.feed_root = feed_root
        self._publisher: FeedPublisher | None = None
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

        #: Every storage component is built over the WAL's journaled
        #: view (of the routed store: one journal covers every shard).
        #: Unless a live writer holds the lease, a batch a dead one left
        #: half-done is rolled back *before* the warehouse scans the heap
        #: (whose torn tail would fail it); :attr:`recovered` says so.
        #: Under a live writer, a partial row is its append in flight.
        self.wal = IngestWAL(routed or store, primary=store, metrics=self.metrics)
        self.recovered: WalRecovery | None = None
        try:
            with self.wal.lease():
                self.recovered = self.wal.recover()
        except ConfigError:
            pass  # a live writer's batch is never rolled back from outside
        effective_store: PageStore = self.wal.store

        #: The feed the daily crawler polls: the day feed behind retries
        #: and a circuit breaker (both fire on failures only).
        self.crawl_feed = ResilientFeed(
            self.day_feed,
            policy=CRAWL_RETRY_POLICY,
            breaker=CircuitBreaker(CRAWL_BREAKER_THRESHOLD),
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
        self.warehouse = Warehouse(
            effective_store, metrics=self.metrics, recovered=self.recovered is not None
        )
        self.hash_index = HashIndex(self.warehouse)
        self.spatial_index = GridSpatialIndex(self.warehouse)
        self.cache = CacheManager(
            self.index, slots=config.cache_slots, metrics=self.metrics
        )
        self.network_sizes = NetworkSizeRegistry(atlas, epoch=self.epoch)
        self.network_sizes.load(effective_store)
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
            network_sizes=self.network_sizes,
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
        #: The feed directory :meth:`create` made, which :meth:`close` removes.
        self._owned_root: Path | None = None

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
        changeset files, history dumps); when omitted the system makes a
        temporary directory, owns it, and :meth:`close` removes it.
        """
        config = config or SystemConfig()
        atlas = atlas or build_world()
        schema = default_schema(atlas.zone_names(), road_types=config.road_types)
        store = store or InMemoryDisk()
        feed_root = Path(root) if root is not None else Path(tempfile.mkdtemp(prefix="rased-"))
        feed_root.mkdir(parents=True, exist_ok=True)
        system = cls(atlas, schema, store, feed_root, config)
        system._owned_root = None if root is not None else feed_root
        return system

    def close(self) -> None:
        """Remove the feed directory :meth:`create` made (nothing else)."""
        if self._owned_root is not None:
            shutil.rmtree(self._owned_root, ignore_errors=True)
            self._owned_root = None

    # -- data flow ---------------------------------------------------------------

    @property
    def publisher(self) -> "FeedPublisher":
        """The synthetic source publishing into this root's feeds."""
        if self._publisher is None:
            from repro.synth.publisher import FeedPublisher

            self._publisher = FeedPublisher(
                self.feed_root, self.atlas, self.config.simulation, self.changeset_store
            )
        return self._publisher

    def publish_day(self, day: date, hourly: bool = False) -> int:
        """:meth:`FeedPublisher.publish_day` of :attr:`publisher`."""
        return self.publisher.publish_day(day, hourly)

    @property
    def truth_by_day(self) -> "dict[date, UpdateList]":
        """The simulator's ground truth per published day (tests)."""
        return self._publisher.truth_by_day if self._publisher is not None else {}

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
        """Publish ``start``..``end`` and ingest it: :meth:`FeedPublisher.publish_and_ingest`
        of :attr:`publisher` into this deployment's pipeline."""
        return self.publisher.publish_and_ingest(self.pipeline, start, end, monthly_rebuild)

    def warm_cache(self) -> int:
        """(Re)preload the recency cache; returns cubes resident."""
        return self.cache.preload()
