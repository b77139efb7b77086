"""Sharding: consistent cube placement plus scatter-gather execution.

One process owning the whole hierarchical index is the scaling wall
RASED's "millions of users" pitch eventually hits: the GIL caps the
threaded server, and a single cache budget serves every zone and time
range.  This module splits the index across N **shards**:

* :class:`ShardRouter` — rendezvous (highest-random-weight) hashing
  from a cube's identity to its owning shard.  The hash is a keyed
  BLAKE2b digest, **never** Python's builtin ``hash()`` (which varies
  per process under ``PYTHONHASHSEED``), so placement is deterministic
  across restarts and across the serving process pool.  Rendezvous
  hashing gives the classic consistent-placement property: growing or
  shrinking the shard set by one relocates only ~K/N of K cubes.
* :class:`ShardedIndex` — a :class:`~repro.core.hierarchy.HierarchicalIndex`
  facade over one inner index per shard, each with its own
  :class:`~repro.storage.pages.PageStore`.  All maintenance (daily
  ingest, rollups, monthly rebuild, bulk load) is inherited unchanged:
  it flows through ``put``/``get``/``has``, which route by placement.
* :class:`ShardedCacheManager` — one byte- or slot-budgeted
  :class:`~repro.core.cache.CacheManager` per shard, splitting the
  deployment's budget evenly.  A shard restart re-warms only its own
  cache (:meth:`ShardedCacheManager.rewarm_shard`); the other shards'
  working sets stay hot.
* :class:`ScatterGatherExecutor` — the query pipeline of
  :mod:`repro.core.executor` with one seam overridden: the planned
  keys are grouped by owning shard and each group runs the shared
  :func:`~repro.core.executor.local_gather` on a bounded pool (the
  :mod:`repro.core.iosched` hand-off pattern: ambient span and
  deadline cross the pool boundary explicitly); the per-shard partial
  arrays are merged with :func:`~repro.core.cube.sum_arrays`.

**Correctness argument** (verified end-to-end by
``tests/test_shard_oracle.py``): an analysis answer is plan-invariant
— any exact cover of the query range yields the same totals — and
cube aggregation is integer addition, which is associative and exact.
Grouping the per-cube partial arrays by shard before the final
reduction therefore cannot change a single output byte, regardless of
how placement scattered the plan or how per-shard caches diverge from
the single-process cache's contents.

**Failure semantics** mirror the PR 4 quarantine contract: a shard
that dies mid-query (connection loss, injected fault, crashed worker)
drops its keys from the answer and flags ``partial=true`` — a
degraded lower bound, never a silently wrong total.  Partial answers
are never memoized (the executor's result-cache rule), so a healed
shard immediately serves full answers again.

The virtual disk clock stays conservative: each shard's page reads
are charged serially on that shard's store, and the scatter's
cross-shard overlap is credited explicitly
(:meth:`ShardedPageStore.credit_scatter`) as ``serial - makespan``,
keeping ``simulated + credit == serial`` auditable exactly like
:meth:`~repro.storage.pages.PageStore.rebook_overlapped_reads`.
"""

from __future__ import annotations

import hashlib
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from datetime import date
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.core.cache import CacheManager, CacheRatios, DEFAULT_RATIOS
from repro.core.calendar import Level, TemporalKey
from repro.core.cube import AnyCube, DEFAULT_SPARSE_THRESHOLD, sum_arrays
from repro.core.deadline import (
    Deadline,
    check_deadline,
    current_deadline,
    deadline_scope,
)
from repro.core.dimensions import CubeSchema
from repro.core.executor import GatherPartial, QueryExecutor, local_gather
from repro.core.hierarchy import HierarchicalIndex, parse_page_key
from repro.core.optimizer import LevelOptimizer
from repro.core.percentages import NetworkSizeRegistry
from repro.core.query import QueryStats
from repro.core.resultcache import EpochCounter, ResultCache
from repro.errors import ConfigError, DeadlineExceededError, IndexError_
from repro.geo.zones import ZoneAtlas
from repro.obs import MetricsRegistry, metric_key
from repro.obs.span import Span, Tracer, current_span, reset_ambient, set_ambient
from repro.storage.disk import DirectoryDisk, InMemoryDisk
from repro.storage.pages import DiskStats, PageStore

__all__ = [
    "ShardRouter",
    "ShardedPageStore",
    "ShardedIndex",
    "ShardedCacheManager",
    "ScatterGatherExecutor",
    "shard_stores_for",
]

#: Default bound on concurrent per-shard subqueries per executor.
DEFAULT_SHARD_WORKERS = 8

_K_SUBQUERIES = metric_key("rased_shard_subqueries_total")
_K_DEAD = metric_key("rased_shard_dead_total")
_K_SCATTER_SECONDS = metric_key("rased_shard_scatter_seconds")
_K_SCATTER_CREDIT = metric_key("rased_shard_scatter_credit_seconds_total")


class ShardRouter:
    """Rendezvous-hash placement of cube identities onto shards.

    Every candidate shard gets a pseudo-random weight for the key —
    a keyed BLAKE2b digest of ``salt|shard|name`` — and the highest
    weight wins.  Properties the placement tests pin down:

    * **total**: every key maps to exactly one shard in ``[0, shards)``;
    * **deterministic**: the mapping is a pure function of
      ``(salt, shards, name)`` — identical across processes, restarts
      and machines (no ``PYTHONHASHSEED`` dependence);
    * **minimal disruption**: adding or removing one shard only moves
      the keys whose winning shard changed, ~``K/N`` of ``K`` keys.
    """

    def __init__(self, shards: int, salt: str = "rased-shard-v1") -> None:
        if shards < 1:
            raise ConfigError(f"shard count must be >= 1, got {shards}")
        self.shards = shards
        self.salt = salt
        # Placement is on the query hot path (every plan key routes);
        # memoize per identity.  Bounded by eviction-on-threshold so a
        # hostile key stream cannot grow it without bound.
        self._memo: dict[str, int] = {}  # guarded-by: _memo_lock
        self._memo_lock = threading.Lock()

    def weight(self, shard: int, name: str) -> int:
        """The rendezvous weight of one (shard, key) pair."""
        digest = hashlib.blake2b(
            f"{self.salt}|{shard}|{name}".encode("utf-8"), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big")

    def route(self, name: str) -> int:
        """The owning shard of an identity string."""
        with self._memo_lock:
            cached = self._memo.get(name)
        if cached is not None:
            return cached
        best_shard = 0
        best_weight = -1
        for shard in range(self.shards):
            w = self.weight(shard, name)
            if w > best_weight:
                best_weight = w
                best_shard = shard
        with self._memo_lock:
            if len(self._memo) >= 65536:
                self._memo.clear()
            self._memo[name] = best_shard
        return best_shard

    def shard_for(self, key: TemporalKey) -> int:
        """The owning shard of one cube."""
        return self.route(str(key))


def shard_stores_for(store: PageStore, shards: int) -> list[PageStore]:
    """Derive per-shard page stores siblings of a deployment's store.

    For a :class:`~repro.storage.disk.DirectoryDisk` rooted at
    ``pages/``, shard ``i`` lives at ``pages-shard<i>/`` — a stable
    path, so reopening the deployment finds each shard's cubes where
    placement put them.  In-memory stores get fresh siblings with the
    same latency model.  Other store types must be provided explicitly
    (construct :class:`ShardedIndex` directly).
    """
    if shards < 1:
        raise ConfigError(f"shard count must be >= 1, got {shards}")
    if isinstance(store, DirectoryDisk):
        return [
            DirectoryDisk(
                store.root.parent / f"{store.root.name}-shard{i}",
                read_latency=store.read_latency,
                write_latency=store.write_latency,
                real_sleep=store.real_sleep,
                metrics=store.metrics,
                parallelism=store.parallelism,
            )
            for i in range(shards)
        ]
    if isinstance(store, InMemoryDisk):
        return [
            InMemoryDisk(
                read_latency=store.read_latency,
                write_latency=store.write_latency,
                real_sleep=store.real_sleep,
                metrics=store.metrics,
                parallelism=store.parallelism,
            )
            for i in range(shards)
        ]
    raise ConfigError(
        f"cannot derive shard stores from {type(store).__name__}; "
        "construct ShardedIndex with explicit shard stores"
    )


class ShardedPageStore(PageStore):
    """The routed page-store view a :class:`ShardedIndex` reads through.

    Cube pages route to their owning shard's store; everything else
    (the ingestion pipeline's ``meta/`` crawl cursor, most notably)
    goes to the deployment's primary store.  ``stats`` is the merged
    accounting of every underlying store plus this view's own
    scatter-overlap adjustment, so executor deltas see exactly the I/O
    a query caused, wherever it landed.
    """

    def __init__(
        self,
        shard_stores: Sequence[PageStore],
        meta_store: PageStore,
        router: ShardRouter,
        prefix: str = "cubes",
    ) -> None:
        if len(shard_stores) != router.shards:
            raise ConfigError(
                f"router expects {router.shards} shards, got {len(shard_stores)} stores"
            )
        self.shard_stores = list(shard_stores)
        self.meta_store = meta_store
        self.router = router
        self.prefix = prefix
        self._cube_head = prefix + "/"
        # Scatter credits are negative simulated-seconds adjustments;
        # they live here (not on any one shard's store) because the
        # overlap is a property of the scatter, not of a device.
        self._adjust = DiskStats()  # guarded-by: _adjust_lock
        self._adjust_lock = threading.Lock()

    # -- routing -------------------------------------------------------------

    def _store_for(self, page_id: str) -> PageStore:
        if page_id.startswith(self._cube_head):
            try:
                key = parse_page_key(page_id, self.prefix)
            except IndexError_:
                return self.meta_store
            return self.shard_stores[self.router.shard_for(key)]
        return self.meta_store

    def _all_stores(self) -> list[PageStore]:
        return [self.meta_store, *self.shard_stores]

    # -- merged accounting ---------------------------------------------------

    @property
    def stats(self) -> DiskStats:  # type: ignore[override]
        total = DiskStats()
        for store in self._all_stores():
            s = store.stats
            total.reads += s.reads
            total.writes += s.writes
            total.bytes_read += s.bytes_read
            total.bytes_written += s.bytes_written
            total.simulated_seconds += s.simulated_seconds
            total.overlap_credit_seconds += s.overlap_credit_seconds
        with self._adjust_lock:
            total.simulated_seconds += self._adjust.simulated_seconds
            total.overlap_credit_seconds += self._adjust.overlap_credit_seconds
        return total

    @stats.setter
    def stats(self, value: DiskStats) -> None:
        raise ConfigError(
            "a sharded store's stats are merged from its shards; "
            "use reset_stats()"
        )

    def reset_stats(self) -> None:
        for store in self._all_stores():
            store.reset_stats()
        with self._adjust_lock:
            self._adjust = DiskStats()

    @property
    def parallelism(self) -> int:  # type: ignore[override]
        return self.shard_stores[0].parallelism

    @parallelism.setter
    def parallelism(self, value: int) -> None:
        for store in self._all_stores():
            store.parallelism = value

    def rebook_overlapped_reads(self, reads: int) -> float:
        """No-op: overlap on a sharded store is credited per scatter."""
        return 0.0

    def credit_scatter(self, per_shard_seconds: Sequence[float]) -> float:
        """Credit the virtual clock for one scatter's cross-shard overlap.

        Each shard's just-charged read seconds were serial within the
        shard but concurrent across shards, so the scatter's makespan
        is the slowest shard, not the sum.  The difference moves into
        ``overlap_credit_seconds`` — the serial total stays auditable
        as ``simulated + credit``.
        """
        charged = [s for s in per_shard_seconds if s > 0.0]
        if len(charged) <= 1:
            return 0.0
        credit = sum(charged) - max(charged)
        if credit <= 0.0:
            return 0.0
        with self._adjust_lock:
            self._adjust.simulated_seconds -= credit
            self._adjust.overlap_credit_seconds += credit
        return credit

    # -- routed storage ops --------------------------------------------------

    def read(self, page_id: str) -> bytes:
        return self._store_for(page_id).read(page_id)

    def write(self, page_id: str, data: bytes) -> None:
        self._store_for(page_id).write(page_id, data)

    def delete(self, page_id: str) -> None:
        self._store_for(page_id).delete(page_id)

    def __contains__(self, page_id: str) -> bool:
        return page_id in self._store_for(page_id)

    def list_pages(self, prefix: str = "") -> Iterator[str]:
        merged: set[str] = set()
        for store in self._all_stores():
            merged.update(store.list_pages(prefix))
        return iter(sorted(merged))


class ShardedIndex(HierarchicalIndex):
    """A hierarchical index partitioned across per-shard page stores.

    One inner :class:`HierarchicalIndex` per shard owns that shard's
    catalog, quarantine set, and store; this facade routes single-key
    operations by placement and unions the rest.  Every maintenance
    flow — ``ingest_day``, rollups, ``rebuild_month``, ``bulk_load`` —
    is inherited verbatim, because it only touches the index through
    ``put``/``get``/``has``.
    """

    def __init__(
        self,
        schema: CubeSchema,
        shard_stores: Sequence[PageStore],
        meta_store: PageStore | None = None,
        router: ShardRouter | None = None,
        atlas: ZoneAtlas | None = None,
        levels: tuple[Level, ...] = (Level.DAY, Level.WEEK, Level.MONTH, Level.YEAR),
        prefix: str = "cubes",
        epoch: EpochCounter | None = None,
        page_version: int | None = None,
        sparse: bool = False,
        sparse_threshold: float = DEFAULT_SPARSE_THRESHOLD,
    ) -> None:
        if not shard_stores:
            raise ConfigError("a sharded index needs at least one shard store")
        self.router = router if router is not None else ShardRouter(len(shard_stores))
        if self.router.shards != len(shard_stores):
            raise ConfigError(
                f"router expects {self.router.shards} shards, "
                f"got {len(shard_stores)} stores"
            )
        #: One full index per shard; each loads only its own catalog.
        self.shards: list[HierarchicalIndex] = [
            HierarchicalIndex(
                schema,
                store,
                atlas=atlas,
                levels=levels,
                prefix=prefix,
                epoch=epoch,
                page_version=page_version,
                sparse=sparse,
                sparse_threshold=sparse_threshold,
            )
            for store in shard_stores
        ]
        self.store_view = ShardedPageStore(
            shard_stores,
            meta_store if meta_store is not None else shard_stores[0],
            self.router,
            prefix=prefix,
        )
        super().__init__(
            schema,
            self.store_view,
            atlas=atlas,
            levels=levels,
            prefix=prefix,
            epoch=epoch,
            page_version=page_version,
            sparse=sparse,
            sparse_threshold=sparse_threshold,
        )

    def _load_catalog(self) -> None:
        """No-op: the inner per-shard indexes own the catalogs."""

    # -- placement -----------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def shard_for(self, key: TemporalKey) -> int:
        """The shard a cube lives on (pure placement, no I/O)."""
        return self.router.shard_for(key)

    def shard_index(self, shard: int) -> HierarchicalIndex:
        return self.shards[shard]

    def shard_status(self) -> list[dict[str, object]]:
        """Per-shard health: pages and quarantined cubes (for /health)."""
        return [
            {
                "shard": i,
                "pages": inner.total_pages(),
                "quarantined_cubes": inner.quarantined_count(),
            }
            for i, inner in enumerate(self.shards)
        ]

    # -- routed single-key operations ---------------------------------------

    def has(self, key: TemporalKey) -> bool:
        return self.shards[self.router.shard_for(key)].has(key)

    def get(self, key: TemporalKey) -> AnyCube:
        return self.shards[self.router.shard_for(key)].get(key)

    def put(self, cube: AnyCube) -> None:
        self.shards[self.router.shard_for(cube.key)].put(cube)

    def quarantine(self, key: TemporalKey) -> bool:
        return self.shards[self.router.shard_for(key)].quarantine(key)

    # -- unioned catalog views -----------------------------------------------

    def keys(self, level: Level) -> list[TemporalKey]:
        merged: list[TemporalKey] = []
        for inner in self.shards:
            merged.extend(inner.keys(level))
        return sorted(merged, key=lambda k: (k.start, k.level))

    def coverage(self) -> tuple[date, date] | None:
        spans = [inner.coverage() for inner in self.shards]
        present = [span for span in spans if span is not None]
        if not present:
            return None
        return min(s[0] for s in present), max(s[1] for s in present)

    def quarantined_keys(self) -> list[TemporalKey]:
        merged: list[TemporalKey] = []
        for inner in self.shards:
            merged.extend(inner.quarantined_keys())
        return sorted(merged, key=lambda k: (k.start, k.level))

    def quarantined_count(self) -> int:
        return sum(inner.quarantined_count() for inner in self.shards)

    def reload_catalog(self) -> None:
        for inner in self.shards:
            inner.reload_catalog()

    def pages_per_level(self) -> dict[Level, int]:
        totals = {level: 0 for level in self.levels}
        for inner in self.shards:
            for level, count in inner.pages_per_level().items():
                totals[level] += count
        return totals

    def total_pages(self) -> int:
        return sum(inner.total_pages() for inner in self.shards)


class ShardedCacheManager(CacheManager):
    """One cache per shard, splitting the deployment budget evenly.

    The facade satisfies the full :class:`CacheManager` surface the
    executor, optimizer, pipeline, and system use — ``contents()`` is
    the union, ``get``/``admit``/``refresh_key`` route by placement —
    while each shard's budget, LRU chain, and preload sweep stay
    independent.  That independence is the point: restarting one shard
    (:meth:`rewarm_shard`) re-reads only that shard's pages; the other
    shards' working sets never go cold.
    """

    def __init__(
        self,
        index: ShardedIndex,
        slots: int,
        ratios: CacheRatios = DEFAULT_RATIOS,
        admit_on_miss: bool = False,
        metrics: MetricsRegistry | None = None,
        byte_budget: int | None = None,
    ) -> None:
        super().__init__(
            index,
            slots=slots,
            ratios=ratios,
            admit_on_miss=admit_on_miss,
            metrics=metrics,
            byte_budget=byte_budget,
        )
        self.sharded_index = index
        n = index.shard_count
        slot_split = self._split(slots, n)
        byte_split = (
            self._split(byte_budget, n) if byte_budget is not None else [None] * n
        )
        #: Per-shard caches over the per-shard inner indexes.
        self.shard_caches: list[CacheManager] = [
            CacheManager(
                index.shards[i],
                slots=slot_split[i],
                ratios=ratios,
                admit_on_miss=admit_on_miss,
                metrics=self.metrics,
                byte_budget=byte_split[i],
            )
            for i in range(n)
        ]

    @staticmethod
    def _split(budget: int, n: int) -> list[int]:
        """Even deterministic split; the remainder goes to low shards."""
        base, rem = divmod(budget, n)
        return [base + (1 if i < rem else 0) for i in range(n)]

    def _cache_for(self, key: TemporalKey) -> CacheManager:
        return self.shard_caches[self.sharded_index.shard_for(key)]

    # -- preload / maintenance ----------------------------------------------

    def preload(self) -> int:
        return sum(cache.preload() for cache in self.shard_caches)

    def rewarm_shard(self, shard: int) -> int:
        """Clear and re-preload one shard's cache (its restart path)."""
        self.shard_caches[shard].clear()
        return self.shard_caches[shard].preload()

    def refresh_key(self, key: TemporalKey) -> None:
        self._cache_for(key).refresh_key(key)

    def clear(self) -> int:
        return sum(cache.clear() for cache in self.shard_caches)

    # -- lookup ---------------------------------------------------------------

    def __contains__(self, key: TemporalKey) -> bool:
        return key in self._cache_for(key)

    def contents(self) -> frozenset[TemporalKey]:
        merged: set[TemporalKey] = set()
        for cache in self.shard_caches:
            merged.update(cache.contents())
        return frozenset(merged)

    def get(self, key: TemporalKey) -> AnyCube | None:
        return self._cache_for(key).get(key)

    def admit(self, cube: AnyCube) -> None:
        self._cache_for(cube.key).admit(cube)

    @property
    def cached_count(self) -> int:
        return sum(cache.cached_count for cache in self.shard_caches)

    @property
    def cached_bytes(self) -> int:
        return sum(cache.cached_bytes for cache in self.shard_caches)

    @property
    def hit_rate(self) -> float:
        hits = sum(cache.hits for cache in self.shard_caches)
        misses = sum(cache.misses for cache in self.shard_caches)
        total = hits + misses
        return hits / total if total else 0.0


class ScatterGatherExecutor(QueryExecutor):
    """Query execution over a :class:`ShardedIndex`.

    Windows, planning, percentage math, row shaping, memoization and
    quarantine-overlap degradation are all inherited from
    :class:`QueryExecutor`; only the :meth:`_gather` seam changes —
    the position-tagged keys are grouped by owning shard and each
    group runs as one :func:`~repro.core.executor.local_gather` on a
    bounded thread pool, the shard partials merged per window position
    with :func:`sum_arrays`.  A whole time series is therefore ONE
    fan-out: a 90-day daily chart costs one scatter, not 90.

    A subquery that raises (a dying shard) degrades the answer:
    its keys are dropped and ``partial=true`` is set — the quarantine
    contract, never a wrong total.  :class:`DeadlineExceededError` is
    the exception: an expired request propagates (the client gets its
    504) instead of masquerading as a degraded answer.

    ``fault_hook`` is the shard-level injection point used by
    :func:`repro.testing.faults.shard_fault_hook`: it runs at each
    subquery's entry with ``(shard_id, shard_store)`` and may raise
    (shard-kill) or charge latency (slow shard).  ``None`` — the
    default — costs nothing, keeping fault injection a strict no-op in
    production.
    """

    def __init__(
        self,
        index: ShardedIndex,
        cache: ShardedCacheManager | None = None,
        optimizer: LevelOptimizer | None = None,
        network_sizes: NetworkSizeRegistry | None = None,
        metrics: MetricsRegistry | None = None,
        result_cache: ResultCache | None = None,
        tracer: Tracer | None = None,
        max_workers: int | None = None,
        fault_hook: Callable[[int, PageStore], None] | None = None,
    ) -> None:
        super().__init__(
            index,
            cache=cache,
            optimizer=optimizer,
            network_sizes=network_sizes,
            metrics=metrics,
            iosched=None,  # scatter replaces the per-key overlap path
            result_cache=result_cache,
            tracer=tracer,
        )
        self.sharded_index = index
        if cache is not None:
            self._shard_caches: list[CacheManager | None] = list(cache.shard_caches)
        else:
            self._shard_caches = [None] * index.shard_count
        workers = (
            max_workers
            if max_workers is not None
            else min(DEFAULT_SHARD_WORKERS, index.shard_count)
        )
        if workers < 1:
            raise ConfigError("scatter-gather needs at least one worker")
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="rased-shard"
        )
        self.fault_hook = fault_hook

    def shard_status(self) -> list[dict[str, object]]:
        """Per-shard pages/quarantine/cache state (served on /health)."""
        status = self.sharded_index.shard_status()
        for i, entry in enumerate(status):
            cache = self._shard_caches[i]
            if cache is not None:
                entry["cached_cubes"] = cache.cached_count
        return status

    def shutdown(self) -> None:
        """Stop the scatter pool (idempotent; running subqueries finish)."""
        self._pool.shutdown(wait=True)

    # -- the scattered gather ------------------------------------------------

    def _gather(
        self,
        items: list[tuple[int, TemporalKey]],
        filters: dict,
        group_by: tuple[str, ...],
        stats: QueryStats,
    ) -> tuple[dict[int, np.ndarray], list[list[str]]]:
        """One local gather per owning shard, merged by exact addition."""
        by_shard: dict[int, list[tuple[int, TemporalKey]]] = {}
        for item in items:
            by_shard.setdefault(
                self.sharded_index.shard_for(item[1]), []
            ).append(item)
        # Phase boundary: the fan-out is where the disk cost starts.
        check_deadline("phase1.fetch.disk")
        started = time.perf_counter()
        # ContextVars do NOT cross pool submissions: capture the
        # submitter's ambient span AND deadline here and re-attach both
        # inside each subquery (the core.iosched hand-off pattern).
        parent = current_span()
        deadline = current_deadline()
        submitted: list[tuple[int, Future[GatherPartial]]] = [
            (
                shard,
                self._pool.submit(
                    self._subquery_attached,
                    parent,
                    deadline,
                    shard,
                    shard_items,
                    filters,
                    group_by,
                ),
            )
            for shard, shard_items in sorted(by_shard.items())
        ]
        per_position: dict[int, list[np.ndarray]] = {}
        labels: list[list[str]] = []
        charged: list[float] = []
        dead_shards = 0
        for shard, future in submitted:
            try:
                part = future.result()
            except DeadlineExceededError:
                raise
            except Exception:  # lint: allow[broad-except] dead-shard boundary: any subquery failure degrades to partial=true, never a wrong total
                # The shard died mid-query (injected fault, lost
                # worker, poisoned store): drop its keys and degrade —
                # a lower bound, never a silently wrong total.
                dead_shards += 1
                stats.partial = True
                stats.quarantined_cubes += len(by_shard[shard])
                continue
            for position, array in part.arrays.items():
                per_position.setdefault(position, []).append(array)
            if part.labels:
                labels = part.labels
            self._merge(part, stats)
            charged.append(part.charged_seconds)
        credit = self.sharded_index.store_view.credit_scatter(charged)
        merge_started = time.perf_counter()
        elapsed = merge_started - started
        arrays = {
            position: sum_arrays(parts) for position, parts in per_position.items()
        }
        stats.trace.add(
            "phase2.aggregate", time.perf_counter() - merge_started, count=0
        )
        incs: list[tuple[tuple, float]] = [(_K_SUBQUERIES, float(len(submitted)))]
        if dead_shards:
            incs.append((_K_DEAD, float(dead_shards)))
        if credit:
            incs.append((_K_SCATTER_CREDIT, credit))
        self.metrics.record_batch(incs, ((_K_SCATTER_SECONDS, elapsed),))
        return arrays, labels

    def _subquery_attached(
        self,
        parent: Span | None,
        deadline: Deadline | None,
        shard: int,
        items: list[tuple[int, TemporalKey]],
        filters: dict,
        group_by: tuple[str, ...],
    ) -> GatherPartial:
        """Pool entry point: re-attach the submitter's span + deadline,
        then run this shard's local gather."""
        with deadline_scope(deadline):
            check_deadline("shard.query")
            span = token = None
            if parent is not None:
                span = parent.trace.new_span("shard.query", parent.span_id)
                token = set_ambient(span)
            try:
                index = self.sharded_index.shards[shard]
                if self.fault_hook is not None:
                    self.fault_hook(shard, index.store)
                return local_gather(
                    index, self._shard_caches[shard], items, filters, group_by
                )
            except BaseException as exc:
                if span is not None:
                    span.set_error(exc)
                raise
            finally:
                if span is not None and token is not None:
                    reset_ambient(token)
                    span.attributes["shard"] = shard
                    span.attributes["keys"] = len(items)
                    span.finish()
