"""The DBMS baseline: a scan-based row store with a buffer pool.

The paper's Fig. 10 compares RASED against a PostgreSQL realization of
the same analysis queries, with the DBMS buffer sized to RASED's 2 GB
cache.  PostgreSQL "constantly takes around 1000 seconds ... mainly
because it requires scanning the whole data since the query involves
multiple attributes in the Group By" — i.e. the multi-attribute
GROUP BY defeats any single-column index, so every query degenerates
to a full relation scan.

This module reproduces that execution model faithfully:

* the relation is the warehouse heap (same pages RASED dumps);
* reads go through an LRU :class:`BufferPool` of configurable size;
* :class:`RowStoreDatabase.execute` always scans every heap page,
  filters rows, and aggregates with a hash GROUP BY — no cube, no
  temporal pruning.

Response times therefore scale with the *relation* size and are flat
in the query window, while RASED's scale with the (tiny) number of
cubes — exactly the Fig. 10 shape.
"""

from __future__ import annotations

import time
from collections import OrderedDict

from repro.core.query import (
    AnalysisQuery,
    METRIC_PERCENTAGE,
    QueryResult,
    QueryStats,
)
from repro.core.percentages import NetworkSizeRegistry, to_percentages
from repro.errors import ConfigError
from repro.geo.zones import ZoneAtlas
from repro.collection.records import UpdateRecord
from repro.storage.pages import PageStore, PageStoreProxy
from repro.storage.warehouse import Warehouse

__all__ = ["BufferPool", "RowStoreDatabase"]


class BufferPool:
    """LRU page cache; hits skip the page store (and its latency)."""

    def __init__(self, store: PageStore, capacity_pages: int) -> None:
        if capacity_pages < 0:
            raise ConfigError("buffer pool capacity must be non-negative")
        self.store = store
        self.capacity = capacity_pages
        self._pages: OrderedDict[str, bytes] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def read(self, page_id: str) -> bytes:
        cached = self._pages.get(page_id)
        if cached is not None:
            self.hits += 1
            self._pages.move_to_end(page_id)
            return cached
        self.misses += 1
        data = self.store.read(page_id)
        if self.capacity > 0:
            self._pages[page_id] = data
            while len(self._pages) > self.capacity:
                self._pages.popitem(last=False)
        return data

    def clear(self) -> None:
        self._pages.clear()
        self.hits = 0
        self.misses = 0


class _PooledStore(PageStoreProxy):
    """The pool's store, its reads going through the BufferPool."""

    def __init__(self, pool: BufferPool) -> None:
        super().__init__(pool.store)
        self._pool = pool

    def read(self, page_id: str) -> bytes:
        return self._pool.read(page_id)


class RowStoreDatabase:
    """Scan-based SQL-style executor over the warehouse relation."""

    def __init__(
        self,
        store: PageStore,
        atlas: ZoneAtlas,
        buffer_pages: int = 256,
        heap_prefix: str = "warehouse/heap",
        network_sizes: NetworkSizeRegistry | None = None,
    ) -> None:
        self.pool = BufferPool(store, buffer_pages)
        self.heap = Warehouse(_PooledStore(self.pool), prefix=heap_prefix)
        self.atlas = atlas
        self.network_sizes = network_sizes
        # Precompute zone memberships for filter evaluation.
        self._continent_members: dict[str, frozenset[str]] = {
            z.name: frozenset(c.name for c in atlas.countries_of(z.name))
            for z in atlas.continents
        }
        self._state_names = frozenset(s.name for s in atlas.states)

    # -- filter evaluation ---------------------------------------------------

    def _expand_country_filter(
        self, countries: tuple[str, ...] | None
    ) -> tuple[frozenset[str] | None, tuple[str, ...]]:
        """Split a zone filter into a country set plus state names.

        Continent names expand to their member countries; state names
        need a point-in-state test per row and are returned separately.
        """
        if countries is None:
            return None, ()
        expanded: set[str] = set()
        states: list[str] = []
        for name in countries:
            if name in self._continent_members:
                expanded |= self._continent_members[name]
            elif name in self._state_names:
                states.append(name)
            else:
                expanded.add(name)
        return frozenset(expanded), tuple(states)

    def _row_matches(
        self,
        row: UpdateRecord,
        query: AnalysisQuery,
        country_set: frozenset[str] | None,
        state_names: tuple[str, ...],
    ) -> bool:
        if not query.start <= row.date <= query.end:
            return False
        if query.element_types is not None and row.element_type not in query.element_types:
            return False
        if query.road_types is not None and row.road_type not in query.road_types:
            return False
        if query.update_types is not None and row.update_type not in query.update_types:
            return False
        if country_set is None and not state_names:
            return True
        if country_set and row.country in country_set:
            return True
        for state in state_names:
            if self.atlas.zone(state).contains_point(row.point):
                return True
        return False

    # -- execution --------------------------------------------------------------

    def execute(self, query: AnalysisQuery) -> QueryResult:
        """Full scan + hash aggregation, PostgreSQL-style."""
        started = time.perf_counter()
        disk_before = self.pool.store.stats.snapshot()
        pool_misses_before = self.pool.misses
        country_set, state_names = self._expand_country_filter(query.countries)

        rows: dict[tuple, float] = {}
        for _, page_rows in self.heap.scan_pages():
            for row in page_rows:
                if not self._row_matches(row, query, country_set, state_names):
                    continue
                key = self._group_key(row, query)
                rows[key] = rows.get(key, 0) + 1

        sizes_as_of = None
        if query.metric == METRIC_PERCENTAGE:
            rows, sizes_as_of = to_percentages(self.network_sizes, query, rows)

        stats = QueryStats()
        stats.wall_seconds = time.perf_counter() - started
        disk_delta = self.pool.store.stats.delta(disk_before)
        stats.simulated_seconds = disk_delta.simulated_seconds + stats.wall_seconds
        stats.disk_reads = self.pool.misses - pool_misses_before
        stats.cache_hits = 0
        stats.cube_count = 0
        return QueryResult(query=query, rows=rows, stats=stats, sizes_as_of=sizes_as_of)

    def _group_key(self, row: UpdateRecord, query: AnalysisQuery) -> tuple:
        parts: list[object] = []
        for attribute in query.group_by:
            if attribute == "date":
                parts.append(self._truncate_date(row, query))
            elif attribute == "country":
                parts.append(row.country)
            else:
                parts.append(getattr(row, attribute))
        return tuple(parts)

    @staticmethod
    def _truncate_date(row: UpdateRecord, query: AnalysisQuery):
        from repro.types.temporal import series_period_start

        period_start = series_period_start(row.date, query.date_granularity)
        return max(period_start, query.start)
