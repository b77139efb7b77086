"""Query execution: one pipeline — windows → plan → gather → shape.

The executor realizes the paper's two-phase design (Section VII):

* **Phase 1 (disk-bound):** the level optimizer picks the cube set
  covering a date range with the fewest disk reads; cubes come from
  the cache when resident, from the page store otherwise.
* **Phase 2 (in-memory):** each cube is filtered and reduced along the
  non-grouped dimensions with numpy, and the partial arrays are summed
  across cubes into the final table.

**A query is a list of windows.**  Grouping by *Date* splits the range
into periods of the query's ``date_granularity``, one time-series
point each; any other query is the one-window case.  Every window is
planned against one cache snapshot, the planned keys — tagged with
their window's position — go through one seam,
:meth:`QueryExecutor._gather`, and the reduced array that comes back
per position is shaped into rows.

**One local gather** (:func:`local_gather`) does all cube work over an
``(index, cache)`` pair: cache lookup, page reads for the misses,
``aggregate_array`` per cube, one ``sum_arrays`` per window.  This
executor *is* one local gather over the whole index;
:class:`repro.core.shard.ScatterGatherExecutor` overrides only the
seam, running one local gather per shard and adding the exact int64
partials.  With an :class:`~repro.core.iosched.IOScheduler` wired the
misses are read as one overlapped, single-flighted batch; without one
they are read one at a time, in plan order.

Response-time accounting mirrors the reproduction's simulated disk:
``wall_seconds`` is real elapsed time, while ``simulated_seconds``
adds the modeled per-page disk latency the host machine didn't pay —
the quantity comparable to the paper's reported milliseconds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from datetime import date
from typing import Sequence

import numpy as np

from repro.core.cache import HIT_KEYS, MISS_KEYS, CacheManager
from repro.types.temporal import Level, TemporalKey, series_periods
from repro.types.cube import AnyCube, Selection, nonzero_columns, sum_arrays
from repro.core.deadline import check_deadline
from repro.core.hierarchy import HierarchicalIndex
from repro.core.iosched import IOScheduler
from repro.core.optimizer import LevelOptimizer, QueryPlan
from repro.core.percentages import NetworkSizeRegistry
from repro.core.query import (
    AnalysisQuery,
    METRIC_PERCENTAGE,
    QueryResult,
    QueryStats,
)
from repro.core.resultcache import ResultCache
from repro.errors import DEGRADABLE_READ_ERRORS, QueryError
from repro.obs import MetricsRegistry, QueryTrace, get_registry, metric_key
from repro.obs.span import Span, Tracer
from repro.obs.span import span as causal_span
from repro.storage.pages import PageStore

__all__ = ["QueryExecutor", "GatherPartial", "local_gather"]

#: One query window: the time-series period it reports under (``None``
#: for a query that does not group by date) and its inclusive range.
Window = tuple[date | None, date, date]

_K_QUERIES = metric_key("rased_queries_total")
_K_PARTIAL = metric_key("rased_queries_partial_total")
_K_QUARANTINED = metric_key("rased_query_quarantined_cubes_total")
_K_CUBES_CACHE = metric_key("rased_query_cubes_total", source="cache")
_K_CUBES_DISK = metric_key("rased_query_cubes_total", source="disk")
_K_MISSING_DAYS = metric_key("rased_query_missing_days_total")
_K_WALL = metric_key("rased_query_wall_seconds")
_K_SIMULATED = metric_key("rased_query_simulated_seconds")
_K_PHASE1 = metric_key("rased_query_phase_seconds", phase="phase1")
_K_PHASE2 = metric_key("rased_query_phase_seconds", phase="phase2")


@dataclass
class GatherPartial:
    """What one local gather contributes to a query.

    The unsharded engine produces exactly one per gather; the scatter
    engine one per shard, merged by exact int64 addition.
    """

    #: Window position -> array reduced over that window's cubes.
    arrays: dict[int, np.ndarray] = field(default_factory=dict)
    cache_hits: dict[Level, int] = field(default_factory=dict)
    disk_reads: dict[Level, int] = field(default_factory=dict)
    #: Cubes that could not be served (quarantined/vanished pages).
    dropped: int = 0
    #: Reads that piggybacked on another query's in-flight load.
    coalesced: int = 0
    #: Wall seconds in cache lookup / page reads / numpy reduction.
    lookup_seconds: float = 0.0
    read_seconds: float = 0.0
    aggregate_seconds: float = 0.0
    #: Modeled disk seconds this gather charged its store.
    charged_seconds: float = 0.0


def local_gather(
    index: HierarchicalIndex,
    cache: CacheManager | None,
    items: Sequence[tuple[int, TemporalKey]],
    selection: Selection,
    iosched: IOScheduler | None = None,
    store: PageStore | None = None,
) -> GatherPartial:
    """Fetch and reduce position-tagged cubes of one ``(index, cache)``.

    Three passes, each timed once: look every distinct key up in the
    cache, read the misses, aggregate per window position with the
    query's one compiled ``selection``.  A read
    that hits a corrupt/vanished/quarantined page drops that cube and
    the caller flags the answer partial.  ``store`` is the device the
    misses land on — the index's store unless the caller knows better
    (a scatter subquery names its own shard's store).
    """
    out = GatherPartial()
    if store is None:
        store = index.store
    charged_before = store.stats.simulated_seconds

    def load(key: TemporalKey) -> AnyCube | None:
        """One page read plus cache admission.

        Degradable failures return ``None`` rather than raising, so
        the scheduler's single-flight machinery shares the miss
        sentinel with coalesced followers instead of poisoning them.
        """
        try:
            cube = index.get(key)
        except DEGRADABLE_READ_ERRORS:
            return None
        if cache is not None:
            cache.admit(cube)
        return cube

    mark = time.perf_counter()
    cubes: dict[TemporalKey, AnyCube | None] = {}
    misses: list[TemporalKey] = []
    for key in dict.fromkeys(key for _, key in items):
        cube = cache.get(key) if cache is not None else None
        if cube is None:
            misses.append(key)
            continue
        cubes[key] = cube
        out.cache_hits[key.level] = out.cache_hits.get(key.level, 0) + 1
    now = time.perf_counter()
    out.lookup_seconds = now - mark
    mark = now

    if misses:
        if iosched is not None:
            # Phase boundary: the cache sweep was free; the miss batch
            # is where the disk cost starts.  Loads this call *led* are
            # then rebooked as one concurrent batch, so the virtual
            # clock charges the queue-depth makespan, not the sum.
            check_deadline("phase1.fetch.disk")
            batch = iosched.fetch_many(misses, load)
            store.rebook_overlapped_reads(batch.led)
            out.coalesced = batch.coalesced
            cubes.update(batch.values)
        else:
            for key in misses:
                # Every miss is one real page read, so the deadline is
                # re-checked per read.
                check_deadline("phase1.fetch.disk")
                cubes[key] = load(key)
        for key in misses:
            if cubes[key] is None:
                out.dropped += 1
            else:
                out.disk_reads[key.level] = out.disk_reads.get(key.level, 0) + 1
        now = time.perf_counter()
        out.read_seconds = now - mark
        mark = now

    check_deadline("phase2.aggregate")
    # Per-cube partial arrays are collected and reduced in one
    # vectorized pass per window (``sum_arrays``) instead of N
    # sequential ``+=`` passes over the output array.
    partials: dict[int, list[np.ndarray]] = {}
    for position, key in items:
        cube = cubes[key]
        if cube is not None:
            partials.setdefault(position, []).append(
                cube.aggregate_array(selection)[0]
            )
    out.arrays = {
        position: sum_arrays(arrays) for position, arrays in partials.items()
    }
    out.aggregate_seconds = time.perf_counter() - mark
    out.charged_seconds = store.stats.simulated_seconds - charged_before
    return out


class QueryExecutor:
    """Executes analysis queries against the hierarchical index."""

    def __init__(
        self,
        index: HierarchicalIndex,
        cache: CacheManager | None = None,
        optimizer: LevelOptimizer | None = None,
        network_sizes: NetworkSizeRegistry | None = None,
        metrics: MetricsRegistry | None = None,
        iosched: IOScheduler | None = None,
        result_cache: ResultCache | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.index = index
        self.cache = cache
        self.optimizer = optimizer or LevelOptimizer(index)
        self.network_sizes = network_sizes
        self.metrics = metrics if metrics is not None else get_registry()
        #: When set, a gather's cache misses are read as one overlapped
        #: batch on the scheduler's pool (single-flight deduplicated
        #: across queries); when ``None``, one at a time in plan order.
        self.iosched = iosched
        #: When set, whole results are memoized keyed by the (frozen)
        #: query and invalidated by the index epoch.
        self.result_cache = result_cache
        #: When set, every execution opens a causal span tree handed to
        #: the tracer's flight recorder.  Without one, executions still
        #: join an *ambient* trace (the HTTP server's) as a child span,
        #: and run span-free when there is neither.
        self.tracer = tracer

    # -- public API -----------------------------------------------------

    def execute(self, query: AnalysisQuery) -> QueryResult:
        """Run one analysis query (traced when a tracer is wired)."""
        tracer = self.tracer
        context = (
            tracer.trace("query.execute")
            if tracer is not None
            else causal_span("query.execute")
        )
        with context as qspan:
            result = self._execute(query)
            if qspan is not None:
                self._annotate_span(qspan, result.stats)
            return result

    def _annotate_span(self, qspan: Span, stats: QueryStats) -> None:
        """Mirror the finished phase totals and outcome onto the span."""
        if stats.trace is not None:
            stats.trace.flush_spans()
        attributes = qspan.attributes
        attributes["cubes"] = stats.cube_count
        attributes["cache_hits"] = stats.cache_hits
        attributes["disk_reads"] = stats.disk_reads
        if stats.coalesced_reads:
            attributes["coalesced_reads"] = stats.coalesced_reads
        if stats.trace is not None and "result_cache" in stats.trace.meta:
            attributes["result_cache"] = stats.trace.meta["result_cache"]
        if stats.partial:
            attributes["partial"] = True
            attributes["quarantined_cubes"] = stats.quarantined_cubes
            qspan.mark_partial()

    def _execute(self, query: AnalysisQuery) -> QueryResult:
        started = time.perf_counter()
        epoch = 0
        if self.result_cache is not None:
            memo_rows = self.result_cache.get(query)
            if memo_rows is not None:
                return self._memoized_result(query, memo_rows, started)
            # Sampled before planning: a maintenance write racing this
            # execution makes the stored entry stale, never wrong.
            epoch = self.result_cache.current_epoch()
        disk_before = self.index.store.stats.snapshot()
        stats = QueryStats()
        # The describe() call is deferred until the trace is rendered.
        stats.trace = QueryTrace(query.describe)

        windows: list[Window]
        if query.groups_by_date:
            windows = [
                (start, start, end)
                for start, end in series_periods(
                    query.start, query.end, query.date_granularity
                )
            ]
            stats.trace.meta["periods"] = len(windows)
        else:
            windows = [(None, query.start, query.end)]
        # An admit-on-miss cache changes under the query's own feet:
        # every window's misses are admitted (evicting LRU entries), so
        # planning all windows against the initial snapshot would treat
        # long-evicted cubes as free.  Run the pipeline one window at a
        # time there, re-snapshotting before each.  A static cache (the
        # paper's policy) cannot change mid-query, so all windows are
        # planned up front and gathered as ONE batch.
        one_at_a_time = (
            self.cache is not None
            and self.cache.admit_on_miss
            and self.cache.slots > 0
        )
        # Compiled once per query: every cube of every window (and of
        # every shard) reduces through the same tables.
        selection = Selection(
            self.index.schema, self._effective_filters(query), query.cube_group_by
        )
        rows: dict[tuple, float] = {}
        for batch in [[w] for w in windows] if one_at_a_time else [windows]:
            rows.update(self._run_windows(query, batch, selection, stats))

        if query.metric == METRIC_PERCENTAGE:
            pct_started = time.perf_counter()
            rows = self._to_percentages(query, rows)
            stats.trace.add(
                "phase2.percentage", time.perf_counter() - pct_started
            )

        self._flag_quarantine_overlap(query, stats)
        stats.wall_seconds = time.perf_counter() - started
        disk_delta = self.index.store.stats.delta(disk_before)
        stats.simulated_seconds = disk_delta.simulated_seconds + stats.wall_seconds
        self._record_query_metrics(stats)
        if self.result_cache is not None and not stats.partial:
            # A partial answer is a degraded lower bound; memoizing it
            # would keep serving the hole after the page heals.
            self.result_cache.put(query, rows, epoch)
        return QueryResult(query=query, rows=rows, stats=stats)

    def _flag_quarantine_overlap(self, query: AnalysisQuery, stats: QueryStats) -> None:
        """Mark answers overlapping quarantined cubes as partial.

        The fetch path only counts cubes that were *planned* and then
        failed; once a key is quarantined it leaves the catalog, so a
        repeat query would plan around the hole and silently answer a
        smaller total with ``partial=False``.  Any quarantined key whose
        span intersects the query range degrades the answer, whether or
        not this execution tried to read it.
        """
        overlap = 0
        for key in self.index.quarantined_keys():
            if key.start <= query.end and key.end >= query.start:
                overlap += 1
        if overlap:
            stats.partial = True
            stats.quarantined_cubes = max(stats.quarantined_cubes, overlap)

    def _memoized_result(
        self, query: AnalysisQuery, rows: dict, started: float
    ) -> QueryResult:
        """Shape a result-cache hit (already a private rows copy)."""
        stats = QueryStats()
        stats.trace = QueryTrace(query.describe)
        stats.trace.meta["result_cache"] = "hit"
        stats.wall_seconds = time.perf_counter() - started
        stats.simulated_seconds = stats.wall_seconds
        self._record_query_metrics(stats)
        return QueryResult(query=query, rows=rows, stats=stats)

    def _record_query_metrics(self, stats: QueryStats) -> None:
        trace = stats.trace
        trace.meta.update(
            cubes=stats.cube_count,
            cache_hits=stats.cache_hits,
            disk_reads=stats.disk_reads,
            missing_days=stats.missing_days,
            simulated_ms=round(stats.simulated_ms, 3),
        )
        if stats.coalesced_reads:
            trace.meta["coalesced_reads"] = stats.coalesced_reads
        if stats.partial:
            trace.meta["partial"] = True
            trace.meta["quarantined_cubes"] = stats.quarantined_cubes
        incs = [(_K_QUERIES, 1.0)]
        if stats.partial:
            incs.append((_K_PARTIAL, 1.0))
        if stats.quarantined_cubes:
            incs.append((_K_QUARANTINED, stats.quarantined_cubes))
        if stats.cache_hits:
            incs.append((_K_CUBES_CACHE, stats.cache_hits))
        if stats.disk_reads:
            incs.append((_K_CUBES_DISK, stats.disk_reads))
        if stats.missing_days:
            incs.append((_K_MISSING_DAYS, stats.missing_days))
        if self.cache is not None:
            # Per-level cache series, accounted here (not in the
            # cache's get()) so the hot path pays one batched flush.
            for level, count in stats.cache_hits_by_level.items():
                incs.append((HIT_KEYS[level], count))
            for level, count in stats.disk_reads_by_level.items():
                incs.append((MISS_KEYS[level], count))
        phase1 = trace.seconds("phase1.plan") + trace.seconds(
            "phase1.fetch.cache"
        ) + trace.seconds("phase1.fetch.disk")
        phase2 = trace.seconds("phase2.aggregate") + trace.seconds(
            "phase2.percentage"
        )
        self.metrics.record_batch(
            incs,
            (
                (_K_WALL, stats.wall_seconds),
                (_K_SIMULATED, stats.simulated_seconds),
                (_K_PHASE1, phase1),
                (_K_PHASE2, phase2),
            ),
        )

    def plan(self, query: AnalysisQuery) -> QueryPlan:
        """Expose the chosen plan (ablation experiments inspect this)."""
        cached = self.cache.contents() if self.cache else frozenset()
        return self.optimizer.plan(query.start, query.end, cached)

    # -- the pipeline: plan -> gather -> shape ---------------------------------

    def _run_windows(
        self,
        query: AnalysisQuery,
        windows: list[Window],
        selection: Selection,
        stats: QueryStats,
    ) -> dict[tuple, float]:
        """Plan ``windows`` against one cache snapshot, gather, shape rows."""
        plan_started = time.perf_counter()
        cached = self.cache.contents() if self.cache else frozenset()
        cached_starts = sorted(key.start for key in cached)
        items: list[tuple[int, TemporalKey]] = []
        for position, (_, start, end) in enumerate(windows):
            plan = self.optimizer.plan(start, end, cached, cached_starts)
            stats.cube_count += plan.cube_count
            stats.missing_days += len(plan.missing_days)
            items.extend((position, key) for key in plan.keys)
        stats.trace.add(
            "phase1.plan", time.perf_counter() - plan_started, len(windows)
        )
        # Phase boundary: a request whose deadline already expired must
        # not start paying for disk reads it cannot use.
        check_deadline("phase1.plan")
        if not items:
            return {}
        arrays = self._gather(items, selection, stats)
        rows: dict[tuple, float] = {}
        for position, (period, _, _) in enumerate(windows):
            accumulated = arrays.get(position)
            if accumulated is not None:
                rows.update(
                    self._rows_from_array(
                        query, accumulated, selection.labels, period
                    )
                )
        return rows

    def _gather(
        self,
        items: list[tuple[int, TemporalKey]],
        selection: Selection,
        stats: QueryStats,
    ) -> dict[int, np.ndarray]:
        """The seam: position-tagged keys in, one reduced array per
        window position out.  Here, one local gather over the index."""
        part = local_gather(self.index, self.cache, items, selection, self.iosched)
        self._merge(part, stats)
        return part.arrays

    @staticmethod
    def _merge(part: GatherPartial, stats: QueryStats) -> None:
        """Fold one gather's counters and phase times into the query's."""
        for counts, by_level in (
            (part.cache_hits, stats.cache_hits_by_level),
            (part.disk_reads, stats.disk_reads_by_level),
        ):
            for level, count in counts.items():
                by_level[level] = by_level.get(level, 0) + count
        hits = sum(part.cache_hits.values())
        reads = sum(part.disk_reads.values())
        stats.cache_hits += hits
        stats.disk_reads += reads
        stats.coalesced_reads += part.coalesced
        if part.dropped:
            stats.partial = True
            stats.quarantined_cubes += part.dropped
        trace = stats.trace
        if hits:
            trace.add("phase1.fetch.cache", part.lookup_seconds, hits)
        if reads or part.dropped:
            trace.add(
                "phase1.fetch.disk", part.read_seconds, reads + part.dropped
            )
        if hits or reads:
            trace.add("phase2.aggregate", part.aggregate_seconds, hits + reads)

    def _effective_filters(self, query: AnalysisQuery) -> dict:
        """Query filters adjusted for overlapping zones of interest.

        Cubes count each update once per zone it belongs to (country +
        continent + US state), so summing the whole country axis would
        double count.  When the query neither filters nor groups by
        country, restrict the axis to country-kind zones, which
        partition the world exactly once.
        """
        filters = query.cube_filters()
        if (
            filters.get("country") is None
            and "country" not in query.group_by
            and self.index.atlas is not None
        ):
            filters["country"] = tuple(
                z.name for z in self.index.atlas.countries
            )
        return filters

    # -- result shaping ------------------------------------------------------

    def _rows_from_array(
        self,
        query: AnalysisQuery,
        accumulated: np.ndarray,
        labels: list[list[str]],
        period: date | None,
    ) -> dict[tuple, float]:
        date_position = (
            query.group_by.index("date") if query.groups_by_date else None
        )
        if accumulated.ndim == 0:
            # Scalar result; zero points are kept — a day with no
            # updates is informative on a time-series chart.
            key = () if date_position is None else (period,)
            return {key: int(accumulated)}
        # Column-wise: only populated result cells cross the
        # numpy/Python boundary, and the date is one more column.
        columns, values = nonzero_columns(accumulated, labels)
        if date_position is not None:
            columns.insert(date_position, [period] * len(values))
        return dict(zip(zip(*columns), values))

    def _to_percentages(
        self, query: AnalysisQuery, rows: dict[tuple, float]
    ) -> dict[tuple, float]:
        if self.network_sizes is None:
            raise QueryError(
                "percentage queries need a NetworkSizeRegistry; "
                "construct the executor with network_sizes=..."
            )
        country_position = (
            query.group_by.index("country") if "country" in query.group_by else None
        )
        result: dict[tuple, float] = {}
        default_denominator = self.network_sizes.denominator(query.countries)
        for key, value in rows.items():
            if country_position is not None:
                denominator = self.network_sizes.size(str(key[country_position]))
                denominator = max(1, denominator)
            else:
                denominator = default_denominator
            result[key] = 100.0 * value / denominator
        return result
