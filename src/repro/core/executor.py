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
partials.  The misses are read through
:meth:`~repro.core.iosched.IOScheduler.fetch_many`, one at a time in
plan order on the querying thread, and modeled as one batch at the
store's queue depth.

Response-time accounting mirrors the reproduction's simulated disk:
``wall_seconds`` is real elapsed time, while ``simulated_seconds``
adds the modeled disk latency of the query's *own* reads — the
quantity comparable to the paper's reported milliseconds.  Every read
costs a constant ``read_latency``, so that is arithmetic over the miss
batch (:func:`~repro.storage.pages.modeled_read_seconds`), the slowest
shard's under scatter-gather; no device clock is read, so neighbours'
reads and the writer's writes never leak in.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from datetime import date
from typing import Sequence

import numpy as np

from repro.core.cache import HIT_KEYS, MISS_KEYS, CacheManager
from repro.types.temporal import TemporalKey, series_periods
from repro.types.cube import AnyCube, Selection, nonzero_columns, sum_arrays
from repro.core.deadline import check_deadline
from repro.core.hierarchy import HierarchicalIndex
from repro.core.iosched import IOScheduler
from repro.core.optimizer import LevelOptimizer, QueryPlan
from repro.core.percentages import NetworkSizeRegistry, to_percentages
from repro.core.query import (
    AnalysisQuery,
    METRIC_PERCENTAGE,
    QueryResult,
    QueryStats,
)
from repro.core.resultcache import ResultCache
from repro.errors import DEGRADABLE_READ_ERRORS
from repro.obs import MetricsRegistry, get_registry, metric_key
from repro.obs.span import Span, Tracer, record_span
from repro.obs.span import span as causal_span
from repro.storage.pages import PageStore, modeled_read_seconds

__all__ = ["QueryExecutor", "GatherPartial", "local_gather"]

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

#: Longest date series one query may ask for.  Every period is planned
#: before anything is read, so the length must be bounded; 10 000 is 27
#: years of daily points (all of OSM's history is ~8 000 days).
MAX_SERIES_PERIODS = 10_000


@dataclass
class GatherPartial:
    """What one local gather contributes to a query.

    The unsharded engine produces exactly one per gather; the scatter
    engine one per shard, merged by exact int64 addition.
    """

    #: Window position -> array reduced over that window's cubes.
    arrays: dict[int, np.ndarray] = field(default_factory=dict)
    #: This gather's share of the query's record (fetch counters and
    #: phase timings); the executor folds it in with ``QueryStats.merge``.
    stats: QueryStats = field(default_factory=QueryStats)
    #: Modeled disk seconds of this gather's own page reads.
    charged_seconds: float = 0.0


def local_gather(
    index: HierarchicalIndex,
    cache: CacheManager | None,
    items: Sequence[tuple[int, TemporalKey]],
    selection: Selection,
    iosched: IOScheduler,
    store: PageStore | None = None,
) -> GatherPartial:
    """Fetch and reduce position-tagged cubes of one ``(index, cache)``.

    Three passes, each timed once into the gather's own
    :class:`QueryStats`: look every distinct key up in the cache, read
    the misses, aggregate per window position with the query's one
    compiled ``selection``.  A read that hits a
    corrupt/vanished/quarantined page drops that cube and flags the
    record partial.  ``store`` is the device the misses land on — the
    index's store unless the caller knows better (a scatter subquery
    names its own shard's store); their modeled time is one batch at
    that device's queue depth, ``store.parallelism``.
    """
    out = GatherPartial()
    stats = out.stats
    if store is None:
        store = index.store

    def load(key: TemporalKey) -> AnyCube | None:
        """One page read; a degradable failure is ``None`` for its key
        rather than an exception that would abandon the whole batch."""
        try:
            return index.get(key)
        except DEGRADABLE_READ_ERRORS:
            return None

    mark = time.perf_counter()
    cubes: dict[TemporalKey, AnyCube | None] = {}
    misses: list[TemporalKey] = []
    hits_by_level = stats.cache_hits_by_level
    for key in dict.fromkeys(key for _, key in items):
        cube = cache.get(key) if cache is not None else None
        if cube is None:
            misses.append(key)
            continue
        cubes[key] = cube
        hits_by_level[key.level] = hits_by_level.get(key.level, 0) + 1
    stats.cache_hits = len(cubes)
    now = time.perf_counter()
    if stats.cache_hits:
        stats.add_phase("phase1.fetch.cache", now - mark, stats.cache_hits)
    mark = now

    if misses:
        cubes.update(iosched.fetch_many(misses, load))
        reads_by_level = stats.disk_reads_by_level
        for key in misses:
            if cubes[key] is not None:
                reads_by_level[key.level] = reads_by_level.get(key.level, 0) + 1
        stats.disk_reads = sum(reads_by_level.values())
        # A planned cube that could not be read is dropped from the
        # answer, and counted: a lower bound, honestly flagged.
        stats.quarantined_cubes = len(misses) - stats.disk_reads
        stats.partial = stats.quarantined_cubes > 0
        now = time.perf_counter()
        stats.add_phase("phase1.fetch.disk", now - mark, len(misses))
        mark = now
        out.charged_seconds = modeled_read_seconds(
            len(misses), store.read_latency, store.parallelism
        )

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
    served = stats.cache_hits + stats.disk_reads
    if served:
        stats.add_phase("phase2.aggregate", time.perf_counter() - mark, served)
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
        result_cache: ResultCache | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.index = index
        self.cache = cache
        self.optimizer = optimizer or LevelOptimizer(index)
        self.network_sizes = network_sizes
        self.metrics = metrics if metrics is not None else get_registry()
        #: Reads a gather's cache misses (and counts them).
        self.iosched = IOScheduler(self.metrics)
        #: When set, whole results are memoized keyed by the (frozen)
        #: query and invalidated by overlapping index writes.
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

    @staticmethod
    def _annotate_span(qspan: Span, stats: QueryStats) -> None:
        """The span view of the record: the outcome as attributes, and
        one already-measured child span per phase that ran (folded, not
        per invocation — a weekly series plans dozens of times)."""
        for phase, (seconds, count) in stats.phases.items():
            record_span(phase, seconds, count=count)
        attributes = qspan.attributes
        attributes["cubes"] = stats.cube_count
        attributes["cache_hits"] = stats.cache_hits
        attributes["disk_reads"] = stats.disk_reads
        if stats.memo_hit:
            attributes["result_cache"] = "hit"
        if stats.partial:
            attributes["partial"] = True
            attributes["quarantined_cubes"] = stats.quarantined_cubes
            qspan.mark_partial()

    def _execute(self, query: AnalysisQuery) -> QueryResult:
        started = time.perf_counter()
        stats = QueryStats()
        epoch = 0
        if self.result_cache is not None:
            entry = self.result_cache.get(query)
            if entry is not None:
                stats.memo_hit = True
                stats.wall_seconds = time.perf_counter() - started
                stats.simulated_seconds = stats.wall_seconds
                self._record_query_metrics(stats)
                # No rows of its own: the result reads the entry's.
                return QueryResult(query, stats=stats, memo=entry, sizes_as_of=entry.sizes_as_of)
            # Sampled before planning: a maintenance write racing this
            # execution makes the stored entry stale, never wrong.
            epoch = self.result_cache.epoch.value

        # A query is a list of windows (inclusive ranges): one per
        # period when it groups by date — each reported under its start
        # — else the whole range.
        if query.groups_by_date:
            windows = series_periods(
                query.start, query.end, query.date_granularity, MAX_SERIES_PERIODS
            )
        else:
            windows = [(query.start, query.end)]
        # Compiled once per query: every cube of every window (and of
        # every shard) reduces through the same tables.
        selection = Selection(
            self.index.schema,
            query.cube_filters(self.index.atlas),
            query.cube_group_by,
        )
        # The cube cache is static between maintenance runs (the paper's
        # preload policy), so one snapshot is right for every window and
        # the planned keys are gathered as ONE batch.
        plan_started = time.perf_counter()
        cached, cached_starts = self.cache.snapshot() if self.cache else (frozenset(), [])
        items: list[tuple[int, TemporalKey]] = []
        for position, (start, end) in enumerate(windows):
            plan = self.optimizer.plan(start, end, cached, cached_starts)
            stats.cube_count += plan.cube_count
            stats.missing_days += plan.missing_count
            items.extend((position, key) for key in plan.keys)
            # Phase boundary, per window: a request whose deadline
            # expired must neither plan the rest of a long series nor
            # start paying for disk reads it cannot use.
            check_deadline("phase1.plan")
        stats.add_phase(
            "phase1.plan", time.perf_counter() - plan_started, len(windows)
        )
        gathered = self._gather(items, selection) if items else GatherPartial()
        stats.merge(gathered.stats)
        rows: dict[tuple, float] = {}
        for position, (period, _) in enumerate(windows):
            accumulated = gathered.arrays.get(position)
            if accumulated is not None:
                rows.update(
                    self._rows_from_array(
                        query, accumulated, selection.labels, period
                    )
                )

        sizes_as_of = None
        if query.metric == METRIC_PERCENTAGE:
            pct_started = time.perf_counter()
            rows, sizes_as_of = to_percentages(self.network_sizes, query, rows)
            stats.add_phase("phase2.percentage", time.perf_counter() - pct_started)

        self._flag_quarantine_overlap(query, stats)
        stats.wall_seconds = time.perf_counter() - started
        stats.simulated_seconds = gathered.charged_seconds + stats.wall_seconds
        self._record_query_metrics(stats)
        memo = None
        if self.result_cache is not None and not stats.partial:
            # A partial answer is a degraded lower bound; memoizing it
            # would keep serving the hole after the page heals.
            memo = self.result_cache.put(query, rows, epoch, sizes_as_of)
        return QueryResult(query, rows, stats, memo, sizes_as_of)

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

    def _record_query_metrics(self, stats: QueryStats) -> None:
        """The metrics view of the record: one batched registry flush."""
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
        self.metrics.record_batch(
            incs,
            (
                (_K_WALL, stats.wall_seconds),
                (_K_SIMULATED, stats.simulated_seconds),
                (_K_PHASE1, stats.phase_seconds("phase1.")),
                (_K_PHASE2, stats.phase_seconds("phase2.")),
            ),
        )

    def plan(self, query: AnalysisQuery) -> QueryPlan:
        """Expose the chosen plan (ablation experiments inspect this)."""
        cached = self.cache.contents() if self.cache else frozenset()
        return self.optimizer.plan(query.start, query.end, cached)

    # -- the gather seam ---------------------------------------------------------

    def _gather(
        self, items: list[tuple[int, TemporalKey]], selection: Selection
    ) -> GatherPartial:
        """The seam: position-tagged keys in, the query's one partial out
        (a reduced array per window position, its fetch record and its
        modeled disk time).  Here, one local gather over the index."""
        return local_gather(self.index, self.cache, items, selection, self.iosched)

    # -- result shaping ------------------------------------------------------

    def _rows_from_array(
        self,
        query: AnalysisQuery,
        accumulated: np.ndarray,
        labels: list[list[str]],
        period: date,
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
