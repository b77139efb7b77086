"""Level optimization: choosing which cubes answer a date range.

A range query can be covered by many mixes of daily/weekly/monthly/
yearly cubes — the paper's Jan 1 - Feb 15 example admits a 46-daily
plan, a weeks-plus-days plan, and a month-plus-weeks-plus-days plan
(Section VII-B).  The optimizer's objective is the plan that reads the
**fewest cubes from disk**, given that some cubes are already cached;
ties break toward fewer cubes overall (less phase-2 aggregation work).

Because the temporal units form a strict hierarchy, every aligned unit
inside the range is contained in exactly one unit of the *canonical
maximal cover* (:func:`repro.types.temporal.cover_range`).  The search
is therefore an exact expand-or-keep recursion over that cover: each
unit is either read as one cube (cost 0 when cached, 1 on disk) or
expanded into its children, recursively.  Two prunings keep typical
plans near-constant time: a cached unit is always kept (nothing beats
0 disk reads with 1 cube), and a unit with no cached descendant is
kept whenever it exists (expansion could only add disk reads).

Days with no materialized cube (gaps in coverage) contribute zero to
query results: :attr:`QueryPlan.missing_count` counts them and
:attr:`QueryPlan.missing_days` lists them on demand.  Only the range's
part inside the index's span is searched (no cube lies outside it).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from datetime import date

from repro.types.temporal import Level, TemporalKey, cover_range, iter_days
from repro.core.deadline import check_deadline
from repro.core.hierarchy import HierarchicalIndex
from repro.errors import PlanError
from repro.obs import MetricsRegistry, get_registry, metric_key

__all__ = ["QueryPlan", "LevelOptimizer", "FlatPlanner"]

_K_PLANS = metric_key("rased_optimizer_plans_total")
_K_UNITS = metric_key("rased_optimizer_units_considered_total")
_K_EST_DISK = metric_key("rased_optimizer_estimated_disk_reads_total")
_K_PLANNED_CUBES = metric_key("rased_optimizer_planned_cubes_total")


@dataclass
class QueryPlan:
    """The cube set chosen to answer one date range."""

    start: date
    end: date
    keys: list[TemporalKey] = field(default_factory=list)
    cached_keys: frozenset[TemporalKey] = frozenset()

    @property
    def missing_days(self) -> list[date]:
        """Every day no planned cube covers, in order."""
        covered = {day for key in self.keys for day in iter_days(key.start, key.end)}
        return [day for day in iter_days(self.start, self.end) if day not in covered]

    @property
    def missing_count(self) -> int:
        """``len(missing_days)``, without listing them."""
        return (self.end - self.start).days + 1 - sum(key.day_count for key in self.keys)

    @property
    def disk_reads(self) -> int:
        return len(self.keys) - self.cache_hits

    @property
    def cache_hits(self) -> int:
        return sum(1 for key in self.keys if key in self.cached_keys)

    @property
    def cube_count(self) -> int:
        return len(self.keys)

    def levels_used(self) -> dict[Level, int]:
        used: dict[Level, int] = {}
        for key in self.keys:
            used[key.level] = used.get(key.level, 0) + 1
        return used


class LevelOptimizer:
    """Cache-aware minimal-disk-read planner over the index hierarchy."""

    def __init__(
        self,
        index: HierarchicalIndex,
        levels: tuple[Level, ...] | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.index = index
        #: Levels the planner may use; defaults to all the index keeps.
        self.levels = tuple(levels) if levels is not None else self.index.levels
        if Level.DAY not in self.levels:
            raise PlanError("the planner needs at least the daily level")
        self.metrics = metrics if metrics is not None else get_registry()

    def plan(
        self,
        start: date,
        end: date,
        cached: frozenset[TemporalKey] | None = None,
        cached_starts: list[date] | None = None,
    ) -> QueryPlan:
        """Compute the optimal plan for ``[start, end]`` (inclusive).

        ``cached_starts`` (the sorted start dates of ``cached``) may be
        supplied by callers issuing many plans against one cache
        snapshot — e.g. the executor planning a series' windows —
        to avoid re-sorting per call.
        """
        if end < start:
            raise PlanError(f"range end {end} precedes start {start}")
        cached = cached if cached is not None else frozenset()
        if cached_starts is None:
            cached_starts = sorted(key.start for key in cached)
        span_start, span_end = self.index.span() or (date.max, date.min)
        low, high = max(start, span_start), min(end, span_end)

        keys: list[TemporalKey] = []
        considered = [0]  # expand-or-keep nodes visited (shared mutable)
        for unit in cover_range(low, high) if low <= high else ():
            # One window can span millennia of uncovered years; the
            # request's deadline must be able to stop it in between.
            check_deadline("phase1.plan")
            keys.extend(self._best(unit, cached, cached_starts, considered)[1])
        plan = QueryPlan(start=start, end=end, keys=keys, cached_keys=cached)
        incs = [
            (_K_PLANS, 1.0),
            (_K_UNITS, considered[0]),
            (_K_PLANNED_CUBES, plan.cube_count),
        ]
        if plan.disk_reads:
            incs.append((_K_EST_DISK, plan.disk_reads))
        self.metrics.record_batch(incs)
        return plan

    @staticmethod
    def _has_cached_within(
        cached_starts: list[date], span_start: date, span_end: date
    ) -> bool:
        """Any cached cube whose span *starts* inside [start, end]?

        Cached keys nested in the span necessarily start inside it;
        keys merely containing the span start outside (except when they
        share the span's start date — a harmless false positive that
        only costs one extra recursion level).
        """
        position = bisect_left(cached_starts, span_start)
        return position < len(cached_starts) and cached_starts[position] <= span_end

    def _best(
        self,
        key: TemporalKey,
        cached: frozenset[TemporalKey],
        cached_starts: list[date],
        considered: list[int],
    ) -> tuple[tuple[int, int], list[TemporalKey]]:
        """Minimal (disk reads, cube count) cover of ``key``'s span.

        Returns the cost pair and the chosen keys in chronological
        order (days no cube covers are left out).  ``considered``
        accumulates how many candidate units the search examined
        (plan-size metric).
        """
        considered[0] += 1
        usable = key.level in self.levels and self.index.has(key)
        if usable and key in cached:
            # Nothing beats a cached single cube: 0 disk reads, 1 cube.
            return (0, 1), [key]
        if key.level is Level.DAY:
            return ((1, 1), [key]) if usable else ((0, 0), [])
        if usable and not self._has_cached_within(
            cached_starts, key.start, key.end
        ):
            # No cached descendant: expanding could only add disk reads.
            return (1, 1), [key]

        child_cost = (0, 0)
        child_keys: list[TemporalKey] = []
        for child in key.children():
            cost, keys = self._best(child, cached, cached_starts, considered)
            child_cost = (child_cost[0] + cost[0], child_cost[1] + cost[1])
            child_keys.extend(keys)
        if usable and (1, 1) <= child_cost:
            return (1, 1), [key]
        return child_cost, child_keys


class FlatPlanner(LevelOptimizer):
    """RASED-F: the no-hierarchy baseline — always daily cubes.

    Used by the Fig. 9 experiment; equivalent to a one-level flat index
    with neither caching nor level optimization.
    """

    def __init__(self, index: HierarchicalIndex) -> None:
        super().__init__(index, levels=(Level.DAY,))

    def plan(
        self,
        start: date,
        end: date,
        cached: frozenset[TemporalKey] | None = None,
        cached_starts: list[date] | None = None,
    ) -> QueryPlan:
        # Ignores the cache by construction.
        return super().plan(start, end, cached=frozenset(), cached_starts=[])
