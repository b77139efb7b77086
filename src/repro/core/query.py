"""Analysis query model: the paper's SQL signature as a dataclass.

Every RASED analysis query is an aggregation over the UpdateList with
optional filters and group-bys on *ElementType*, *Date*, *Country*,
*RoadType*, and *UpdateType* (paper, Section IV-A):

.. code-block:: sql

    SELECT <group attrs>, COUNT(*)
    FROM UpdateList U
    WHERE U.ElementType IN ... AND U.Date BETWEEN d1 AND d2
      AND U.Country IN ... AND U.RoadType IN ... AND U.UpdateType IN ...
    GROUP BY <group attrs>

:class:`AnalysisQuery` captures exactly that, plus the paper's
``Percentage(*)`` variant (results as a share of the country's road
network size) and a time granularity for date group-bys (daily,
weekly, monthly, or yearly series).  :class:`QueryResult` is the
tabular answer with per-query execution statistics attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
from typing import TYPE_CHECKING

from repro.types.temporal import Level
from repro.errors import QueryError

if TYPE_CHECKING:
    from repro.core.resultcache import MemoEntry
    from repro.geo.zones import ZoneAtlas

__all__ = ["AnalysisQuery", "QueryResult", "QueryStats", "GROUPABLE_ATTRIBUTES"]

#: Attributes usable in filters and GROUP BY, in canonical order.
GROUPABLE_ATTRIBUTES = ("element_type", "date", "country", "road_type", "update_type")

METRIC_COUNT = "count"
METRIC_PERCENTAGE = "percentage"


@dataclass(frozen=True)
class AnalysisQuery:
    """One analysis query over the UpdateList."""

    start: date
    end: date
    element_types: tuple[str, ...] | None = None
    countries: tuple[str, ...] | None = None
    road_types: tuple[str, ...] | None = None
    update_types: tuple[str, ...] | None = None
    group_by: tuple[str, ...] = ()
    metric: str = METRIC_COUNT
    #: Granularity of the ``date`` group-by axis.
    date_granularity: Level = Level.DAY

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise QueryError(f"query end {self.end} precedes start {self.start}")
        if self.end.year >= date.max.year:
            # Range tiling steps to the day after a period's end, which
            # does not exist past the calendar's last year.
            raise QueryError(
                f"query end {self.end} is out of range: dates must "
                f"precede year {date.max.year}"
            )
        for attribute in self.group_by:
            if attribute not in GROUPABLE_ATTRIBUTES:
                raise QueryError(
                    f"cannot group by {attribute!r}; "
                    f"expected one of {GROUPABLE_ATTRIBUTES}"
                )
        if len(set(self.group_by)) != len(self.group_by):
            raise QueryError(f"duplicate group-by attribute in {self.group_by}")
        if self.metric not in (METRIC_COUNT, METRIC_PERCENTAGE):
            raise QueryError(f"unknown metric {self.metric!r}")
        for name, values in (
            ("element_types", self.element_types),
            ("countries", self.countries),
            ("road_types", self.road_types),
            ("update_types", self.update_types),
        ):
            if values is not None and len(values) == 0:
                raise QueryError(f"{name} filter is empty (would match nothing)")

    # -- executor views ----------------------------------------------------

    @property
    def cube_group_by(self) -> tuple[str, ...]:
        """Group-by attributes that live inside a cube (all but date)."""
        return tuple(a for a in self.group_by if a != "date")

    @property
    def groups_by_date(self) -> bool:
        return "date" in self.group_by

    def cube_filters(
        self, atlas: "ZoneAtlas | None"
    ) -> dict[str, tuple[str, ...] | None]:
        """Filters in the cube's axis vocabulary, adjusted for
        overlapping zones of interest.

        Cubes count each update once per zone it belongs to (country +
        continent + US state), so summing the whole country axis would
        double count.  When the query neither filters nor groups by
        country, the axis is restricted to ``atlas``'s country-kind
        zones, which partition the world exactly once (without an
        atlas, cubes hold only the stored country and nothing
        overlaps).
        """
        filters = {
            "element_type": self.element_types,
            "country": self.countries,
            "road_type": self.road_types,
            "update_type": self.update_types,
        }
        if (
            self.countries is None
            and "country" not in self.group_by
            and atlas is not None
        ):
            filters["country"] = tuple(zone.name for zone in atlas.countries)
        return filters

    def describe(self) -> str:
        """A one-line human description (used by the dashboard log)."""
        parts = [f"{self.start}..{self.end}"]
        if self.countries:
            parts.append(f"countries={','.join(self.countries)}")
        if self.element_types:
            parts.append(f"elements={','.join(self.element_types)}")
        if self.road_types:
            parts.append(f"roads={','.join(self.road_types)}")
        if self.update_types:
            parts.append(f"updates={','.join(self.update_types)}")
        if self.group_by:
            parts.append(f"group_by={','.join(self.group_by)}")
        parts.append(self.metric)
        return " ".join(parts)


@dataclass
class QueryStats:
    """The one record of a query's execution (the paper's measurements).

    The executor fills one per query, folding in (:meth:`merge`) the
    one each gather fills — one per shard under scatter-gather.  The
    ``query.execute`` span, the query metrics, an API response's
    ``stats`` and the CLI's ``--trace`` table are views derived from it.
    """

    cube_count: int = 0
    cache_hits: int = 0
    disk_reads: int = 0
    missing_days: int = 0
    #: ``True`` when at least one planned cube could not be served
    #: (corrupt/vanished page, quarantined mid-query): the totals are a
    #: lower bound, honestly flagged rather than silently wrong.
    partial: bool = False
    #: How many planned cubes were dropped from the answer.
    quarantined_cubes: int = 0
    #: Per-temporal-level fetch accounting (Level -> cube count); the
    #: executor flushes these into the metrics registry once per query.
    cache_hits_by_level: dict[Level, int] = field(default_factory=dict)
    disk_reads_by_level: dict[Level, int] = field(default_factory=dict)
    #: Virtual disk latency charged + measured in-memory compute time.
    simulated_seconds: float = 0.0
    wall_seconds: float = 0.0
    #: The answer came from the result memo: nothing below ran.
    memo_hit: bool = False
    #: Where the wall time went: phase -> accumulated ``(seconds,
    #: count)``, present only for phases that ran.  ``phase1.plan``
    #: (count = windows), ``phase1.fetch.cache`` / ``phase1.fetch.disk``
    #: (count = cubes, by where each came from), ``phase2.aggregate``
    #: (count = cubes reduced) and ``phase2.percentage`` mean the same
    #: in every engine; under scatter-gather the fetch and aggregate
    #: seconds are sums over concurrent shard gathers and may exceed the
    #: fan-out's wall time (``rased_shard_scatter_seconds``).
    phases: dict[str, tuple[float, int]] = field(default_factory=dict)

    @property
    def simulated_ms(self) -> float:
        return self.simulated_seconds * 1000.0

    def add_phase(self, phase: str, seconds: float, count: int = 1) -> None:
        """Fold one timing into a phase."""
        had_seconds, had_count = self.phases.get(phase, (0.0, 0))
        self.phases[phase] = (had_seconds + seconds, had_count + count)

    def phase_seconds(self, prefix: str) -> float:
        """Seconds in every phase whose name starts with ``prefix``."""
        return sum(
            seconds
            for phase, (seconds, _) in self.phases.items()
            if phase.startswith(prefix)
        )

    def merge(self, other: "QueryStats") -> None:
        """Fold another record's work into this one, exactly: counters
        and phases add, ``partial`` sticks; the two clocks and
        ``memo_hit`` describe a whole query and stay the receiver's."""
        self.cube_count += other.cube_count
        self.cache_hits += other.cache_hits
        self.disk_reads += other.disk_reads
        self.missing_days += other.missing_days
        self.partial = self.partial or other.partial
        self.quarantined_cubes += other.quarantined_cubes
        for mine, theirs in (
            (self.cache_hits_by_level, other.cache_hits_by_level),
            (self.disk_reads_by_level, other.disk_reads_by_level),
        ):
            for level, count in theirs.items():
                mine[level] = mine.get(level, 0) + count
        for phase, (seconds, count) in other.phases.items():
            self.add_phase(phase, seconds, count)

    def phase_rows(self) -> list[dict[str, object]]:
        """The phases as JSON-ready rows (``stats.phases`` on the wire)."""
        return [
            {"phase": phase, "ms": seconds * 1000.0, "count": count}
            for phase, (seconds, count) in self.phases.items()
        ]


class QueryResult:
    """The tabular answer to an analysis query.

    ``rows`` maps a tuple of group values — ordered as
    ``query.group_by``, with date cells being the period's start date —
    to the metric value (an int count, or a float percentage).

    ``memo`` is the result-cache entry holding this same answer — the
    one a hit was read from, or a miss was just stored as — or ``None``
    when nothing was memoized.  A hit is built without rows and reads
    the entry's in place; :attr:`rows` copies them on first use.
    """

    __slots__ = ("query", "stats", "memo", "_rows", "_own")

    def __init__(
        self,
        query: AnalysisQuery,
        rows: dict[tuple, float] | None = None,
        stats: QueryStats | None = None,
        memo: MemoEntry | None = None,
    ) -> None:
        self.query = query
        self.stats = stats if stats is not None else QueryStats()
        self.memo = memo
        #: False while ``_rows`` is the memo entry's dict, read in place.
        self._own = rows is not None or memo is None
        self._rows: dict[tuple, float] = (
            rows if rows is not None else memo.rows if memo is not None else {}
        )

    @property
    def rows(self) -> dict[tuple, float]:
        """This result's own, mutable rows.

        Whoever holds them may edit them (the live overlay does), so
        handing them out also lets go of ``memo``: the result no longer
        vouches for the entry's answer, or its encoded bytes.
        """
        if not self._own:
            self._rows = dict(self._rows)
            self._own = True
        self.memo = None
        return self._rows

    @property
    def total(self) -> float:
        return sum(self._rows.values())

    def sorted_rows(
        self, by_value: bool = True, descending: bool = True
    ) -> list[tuple[tuple, float]]:
        """Read-only: sorts the rows where they are, copying nothing."""
        items = self._rows.items()
        if by_value:
            return sorted(items, key=lambda item: item[1], reverse=descending)
        return sorted(items, key=lambda item: str(item[0]))
