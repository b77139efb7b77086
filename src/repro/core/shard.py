"""Sharding: consistent cube placement plus scatter-gather execution.

One process owning the whole hierarchical index is the scaling wall
RASED's "millions of users" pitch eventually hits: the GIL caps the
threaded server, and one device serves every page read.  This module
places the index's pages across N **shards**:

* :class:`ShardRouter` — rendezvous (highest-random-weight) hashing
  from a cube's identity to its owning shard.  The hash is a keyed
  BLAKE2b digest, **never** Python's builtin ``hash()`` (which varies
  per process under ``PYTHONHASHSEED``), so placement is deterministic
  across restarts and across the serving process pool.  Rendezvous
  hashing gives the classic consistent-placement property: growing or
  shrinking the shard set by one relocates only ~K/N of K cubes.
* :class:`ShardedPageStore` — the routed page store.  Where a page
  lives is decided here and nowhere else: cube pages go to the shard
  their key text hashes to, everything else (crawl cursor, WAL,
  warehouse, auxiliary indexes) stays on the primary store.
* :class:`ShardedIndex` — a plain
  :class:`~repro.core.hierarchy.HierarchicalIndex` over that routed
  store: one catalog, one quarantine set, one
  :class:`~repro.core.cache.CacheManager` in front of it and (when
  durable) one :class:`~repro.storage.wal.IngestWAL` around it, at any
  shard count.  It only adds ``shard_for``.
* :class:`ScatterGatherExecutor` — the query pipeline of
  :mod:`repro.core.executor` with one seam overridden: the planned
  keys are grouped by owning shard and each group runs the shared
  :func:`~repro.core.executor.local_gather`, shard by shard on the
  querying thread; the per-shard partial arrays are merged with
  :func:`~repro.types.cube.sum_arrays`, and the query's modeled disk
  time is the slowest live shard's.

**Correctness argument** (verified end-to-end by
``tests/test_shard_oracle.py``): an analysis answer is plan-invariant
— any exact cover of the query range yields the same totals — and
cube aggregation is integer addition, which is associative and exact.
Grouping the per-cube partial arrays by shard before the final
reduction therefore cannot change a single output byte, however
placement scattered the plan — and since the catalog and the cache
are the unsharded ones, the plan and every counter are the same too.

**Failure semantics** mirror the PR 4 quarantine contract: a shard
that dies mid-query (connection loss, injected fault, crashed worker)
drops its keys from the answer and flags ``partial=true`` — a
degraded lower bound, never a silently wrong total.  Partial answers
are never memoized (the executor's result-cache rule), so a healed
shard immediately serves full answers again.

Modeled latency follows the fan-out: each shard gather models its
misses as one batch on its own shard's store (at that store's queue
depth), and the shard devices serve concurrently, so the query waits
for the slowest — the maximum over live shards.  The gathers run one
after another on one thread all the same: the model is of the devices,
not of the threads.  Like the unsharded engine's, the number is
arithmetic over the query's own reads; no device clock is read.
"""

from __future__ import annotations

import hashlib
import threading
import time
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.types.temporal import Level, TemporalKey
from repro.types.cube import Selection, sum_arrays
from repro.core.deadline import check_deadline
from repro.types.dimensions import CubeSchema
from repro.core.executor import GatherPartial, QueryExecutor, local_gather
from repro.core.hierarchy import HierarchicalIndex
from repro.core.query import QueryStats
from repro.errors import ConfigError, DeadlineExceededError
from repro.obs import metric_key
from repro.obs.span import span as causal_span
from repro.storage.disk import DirectoryDisk, InMemoryDisk
from repro.storage.pages import DiskStats, PageStore

__all__ = [
    "ShardRouter",
    "ShardedPageStore",
    "ShardedIndex",
    "ScatterGatherExecutor",
    "shard_stores_for",
    "detect_shard_count",
]

_K_SUBQUERIES = metric_key("rased_shard_subqueries_total")
_K_DEAD = metric_key("rased_shard_dead_total")
_K_SCATTER_SECONDS = metric_key("rased_shard_scatter_seconds")


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
    (construct :class:`ShardedPageStore` directly).
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
        "construct ShardedPageStore with explicit shard stores"
    )


def detect_shard_count(store: PageStore) -> int | None:
    """The shard count an on-disk deployment was laid out with: its
    number of ``<root>-shard<i>`` siblings (see :func:`shard_stores_for`),
    else 1 once the root itself holds cubes.  ``None`` when the layout is
    still open: nothing written yet, or not a directory store."""
    if not isinstance(store, DirectoryDisk):
        return None
    siblings = store.root.parent.glob(f"{store.root.name}-shard[0-9]*")
    shards = sum(path.is_dir() for path in siblings)
    return shards or (1 if any(store.list_pages("cubes/")) else None)


class ShardedPageStore(PageStore):
    """The routed page store: where a page lives is decided here, once.

    A cube page lives on the shard the router places its key text on;
    everything else (the crawl cursor under ``meta/``, the ``wal/``
    journal, the ``warehouse/`` heap and its indexes) lives on the
    deployment's primary store.  ``stats`` is the merged accounting of
    every underlying store, so experiment deltas see all the I/O,
    wherever it landed.
    """

    def __init__(
        self,
        shard_stores: Sequence[PageStore],
        meta_store: PageStore,
        router: ShardRouter | None = None,
        prefix: str = "cubes",
    ) -> None:
        self.router = router if router is not None else ShardRouter(len(shard_stores))
        if len(shard_stores) != self.router.shards:
            raise ConfigError(
                f"router expects {self.router.shards} shards, "
                f"got {len(shard_stores)} stores"
            )
        self.shard_stores = list(shard_stores)
        self.meta_store = meta_store
        self.prefix = prefix
        self._cube_head = prefix + "/"

    # -- routing -------------------------------------------------------------

    def _store_for(self, page_id: str) -> PageStore:
        head = self._cube_head
        if page_id.startswith(head):
            # The text after the prefix is ``str(key)`` — the very
            # string ``ShardRouter.shard_for`` hashes.
            return self.shard_stores[self.router.route(page_id[len(head):])]
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

    @property
    def parallelism(self) -> int:  # type: ignore[override]
        return self.shard_stores[0].parallelism

    @parallelism.setter
    def parallelism(self, value: int) -> None:
        for store in self._all_stores():
            store.parallelism = value

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
    """A hierarchical index whose cube pages are placed across shards.

    Placement is the page store's business: this is a plain
    :class:`HierarchicalIndex` — ONE catalog, ONE quarantine set, every
    maintenance flow inherited — over a :class:`ShardedPageStore`
    (``store``, when given, is a wrapper around it, e.g. the ingest
    WAL's journaled view).  It adds only what the scatter needs to
    know: which shard a key lives on.
    """

    def __init__(
        self,
        schema: CubeSchema,
        routed: ShardedPageStore,
        store: PageStore | None = None,
        **options: Any,
    ) -> None:
        #: The routed view itself (``self.store`` may wrap it).
        self.routed = routed
        self.router = routed.router
        super().__init__(
            schema, routed if store is None else store, prefix=routed.prefix, **options
        )

    @property
    def shard_count(self) -> int:
        return self.router.shards

    def shard_for(self, key: TemporalKey) -> int:
        """The shard a cube lives on (pure placement, no I/O)."""
        return self.router.shard_for(key)

    def count_by_shard(self, keys: Iterable[TemporalKey]) -> list[int]:
        """How many of ``keys`` each shard owns."""
        counts = [0] * self.shard_count
        for key in keys:
            counts[self.router.shard_for(key)] += 1
        return counts

    def shard_status(self) -> list[dict[str, object]]:
        """Per-shard health: pages and quarantined cubes (for /health)."""
        pages = self.count_by_shard(
            key for level in Level for key in self.keys(level)
        )
        quarantined = self.count_by_shard(self.quarantined_keys())
        return [
            {"shard": i, "pages": pages[i], "quarantined_cubes": quarantined[i]}
            for i in range(self.shard_count)
        ]


class ScatterGatherExecutor(QueryExecutor):
    """Query execution over a :class:`ShardedIndex`.

    Windows, planning, percentage math, row shaping, memoization and
    quarantine-overlap degradation are all inherited from
    :class:`QueryExecutor`; only the :meth:`_gather` seam changes —
    the position-tagged keys are grouped by owning shard and each
    group is one :func:`~repro.core.executor.local_gather`, run shard
    by shard on the calling thread, the shard partials merged per
    window position with :func:`sum_arrays`.  A whole time series
    is therefore ONE fan-out: a 90-day daily chart costs one scatter,
    not 90.

    A shard gather that raises (a dying shard) degrades the answer:
    its keys are dropped and ``partial=true`` is set — the quarantine
    contract, never a wrong total.  :class:`DeadlineExceededError` is
    the exception: an expired request propagates (the client gets its
    504) instead of masquerading as a degraded answer.

    ``fault_hook`` is the shard-level injection point used by
    :func:`repro.testing.faults.shard_fault_hook`: it runs at each
    shard gather's entry with ``(shard_id, shard_store)`` and may raise
    (shard-kill) or charge a delay to the shard store's device clock
    (slow shard; a query's modeled time counts its reads, not delays).
    ``None`` — the default — costs nothing, keeping fault injection a
    strict no-op in production.
    """

    def __init__(
        self,
        index: ShardedIndex,
        fault_hook: Callable[[int, PageStore], None] | None = None,
        **options: Any,
    ) -> None:
        """``options`` are :class:`QueryExecutor`'s own, keyword for
        keyword (``cache``, ``optimizer``, ``result_cache``, ...)."""
        super().__init__(index, **options)
        self.sharded_index = index
        self.fault_hook = fault_hook

    def shard_status(self) -> list[dict[str, object]]:
        """Per-shard pages/quarantine/cache state (served on /health)."""
        status = self.sharded_index.shard_status()
        if self.cache is not None:
            cached = self.sharded_index.count_by_shard(self.cache.contents())
            for entry, count in zip(status, cached):
                entry["cached_cubes"] = count
        return status

    # -- the scattered gather ------------------------------------------------

    def _gather(
        self, items: list[tuple[int, TemporalKey]], selection: Selection
    ) -> GatherPartial:
        """One local gather per owning shard, merged by exact addition.

        Every shard reduces through the query's one compiled
        ``selection``.  The shard devices are modeled as serving
        concurrently, so the merged partial's modeled disk time is the
        slowest live shard's.
        """
        by_shard: dict[int, list[tuple[int, TemporalKey]]] = {}
        for item in items:
            by_shard.setdefault(
                self.sharded_index.shard_for(item[1]), []
            ).append(item)
        # Phase boundary: the fan-out is where the disk cost starts.
        check_deadline("phase1.fetch.disk")
        started = time.perf_counter()
        groups = sorted(by_shard.items())
        gathered = [
            self._shard_gather(shard, shard_items, selection)
            for shard, shard_items in groups
        ]
        merged = GatherPartial()
        stats = merged.stats
        per_position: dict[int, list[np.ndarray]] = {}
        dead_shards = 0
        for (_, shard_items), part in zip(groups, gathered):
            if part is None:
                # The shard died mid-query: drop its keys and degrade —
                # a lower bound, never a silently wrong total.
                dead_shards += 1
                stats.merge(
                    QueryStats(partial=True, quarantined_cubes=len(shard_items))
                )
                continue
            for position, array in part.arrays.items():
                per_position.setdefault(position, []).append(array)
            stats.merge(part.stats)
            merged.charged_seconds = max(merged.charged_seconds, part.charged_seconds)
        merge_started = time.perf_counter()
        elapsed = merge_started - started
        merged.arrays = {
            position: sum_arrays(parts) for position, parts in per_position.items()
        }
        stats.add_phase(
            "phase2.aggregate", time.perf_counter() - merge_started, count=0
        )
        incs: list[tuple[tuple, float]] = [(_K_SUBQUERIES, float(len(groups)))]
        if dead_shards:
            incs.append((_K_DEAD, float(dead_shards)))
        self.metrics.record_batch(incs, ((_K_SCATTER_SECONDS, elapsed),))
        return merged

    def _shard_gather(
        self,
        shard: int,
        items: list[tuple[int, TemporalKey]],
        selection: Selection,
    ) -> GatherPartial | None:
        """One shard's local gather; ``None`` when the shard is dead.

        Any failure but an expired deadline is caught *here*, after it
        has errored the ``shard.query`` span, so one dead shard cannot
        abandon the fan-out.
        """
        check_deadline("shard.query")
        try:
            with causal_span("shard.query") as span:
                if span is not None:
                    span.attributes["shard"] = shard
                    span.attributes["keys"] = len(items)
                store = self.sharded_index.routed.shard_stores[shard]
                if self.fault_hook is not None:
                    self.fault_hook(shard, store)
                return local_gather(
                    self.index, self.cache, items, selection, self.iosched, store
                )
        except DeadlineExceededError:
            raise
        except Exception:  # lint: allow[broad-except] dead-shard boundary: any shard failure (injected fault, lost worker, poisoned store) degrades to partial=true, never a wrong total
            return None
