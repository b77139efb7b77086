"""Temporal units and range decomposition for the hierarchical index.

RASED's index has four levels — daily, weekly, monthly, yearly — with a
dummy root (paper, Fig. 6).  Each monthly cube aggregates "four weekly
and zero to three daily statistics" (Section VI-A), which pins down the
week convention: weeks are *month-aligned*, i.e. week ``i`` of a month
covers days ``7*i+1 .. 7*i+7`` for ``i in 0..3``, and the month's days
29-31 (when present) hang directly off the monthly node.  This gives
every cube exactly one parent, so rollups are exact sums:

* year  = sum of its 12 months
* month = sum of its 4 weeks + its 0-3 leftover days
* week  = sum of its 7 days

(The paper's worked Jan-Feb example uses calendar Sunday-weeks instead;
the two conventions disagree only on which 10-cube plan the optimizer
picks for that example — see EXPERIMENTS.md.)

The central types are :class:`Level` and :class:`TemporalKey`; the
central algorithms are :func:`cover_range` (canonical maximal-unit
decomposition of a date range) and :func:`completed_units` (which
parent cubes close at the end of a given day, driving index
maintenance).
"""

from __future__ import annotations

import calendar as _stdcal
import enum
from dataclasses import dataclass, field
from datetime import date, timedelta
from functools import lru_cache
from typing import Iterator

from repro.errors import CalendarError

__all__ = [
    "Level",
    "TemporalKey",
    "day_key",
    "week_key",
    "week_key_for",
    "month_key",
    "year_key",
    "cover_range",
    "completed_units",
    "iter_days",
    "keys_in_range",
    "series_periods",
    "series_period_start",
]

_WEEK_STARTS = (1, 8, 15, 22)
_DAYS_PER_WEEK = 7
_WEEKS_PER_MONTH = 4


class Level(enum.IntEnum):
    """Index levels ordered from finest (DAY) to coarsest (YEAR)."""

    DAY = 0
    WEEK = 1
    MONTH = 2
    YEAR = 3

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True, order=True)
class TemporalKey:
    """Identifies one cube in the hierarchical temporal index.

    Fields are interpreted per level:

    * ``YEAR``:  ``year`` set; ``month = ordinal = 0``
    * ``MONTH``: ``year, month`` set; ``ordinal = 0``
    * ``WEEK``:  ``year, month`` set; ``ordinal`` is the week index 0-3
    * ``DAY``:   ``year, month`` set; ``ordinal`` is the day of month

    The dataclass ordering (level, year, month, ordinal) is arbitrary
    but total; use :attr:`start` for chronological sorting.  The span
    and the hash are computed once, when the key is built, and take no
    part in equality, order or ``repr``.  The hash is the same in every
    process (``Level`` is an ``IntEnum`` and hashes as its int), so
    copies and pickles may carry the stored fields as they are.
    """

    level: Level
    year: int
    month: int = 0
    ordinal: int = 0
    #: First day covered by this cube (inclusive).
    start: date = field(init=False, compare=False, repr=False)
    #: Last day covered by this cube (inclusive).
    end: date = field(init=False, compare=False, repr=False)
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        year, month, ordinal = self.year, self.month, self.ordinal
        if self.level is Level.YEAR:
            if month or ordinal:
                raise CalendarError(f"year key must not set month/ordinal: {self}")
            start, end = date(year, 1, 1), date(year, 12, 31)
        elif self.level is Level.MONTH:
            _check_month(year, month)
            if ordinal:
                raise CalendarError(f"month key must not set ordinal: {self}")
            start, end = date(year, month, 1), date(year, month, _days_in_month(year, month))
        elif self.level is Level.WEEK:
            _check_month(year, month)
            if not 0 <= ordinal < _WEEKS_PER_MONTH:
                raise CalendarError(f"week ordinal out of range 0-3: {self}")
            start = date(year, month, _WEEK_STARTS[ordinal])
            end = date(year, month, _WEEK_STARTS[ordinal] + _DAYS_PER_WEEK - 1)
        elif self.level is Level.DAY:
            _check_month(year, month)
            days = _stdcal.monthrange(year, month)[1]
            if not 1 <= ordinal <= days:
                raise CalendarError(f"day ordinal out of range 1-{days}: {self}")
            start = end = date(year, month, ordinal)
        else:  # pragma: no cover - enum is closed
            raise CalendarError(f"unknown level {self.level!r}")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        object.__setattr__(self, "_hash", hash((self.level, year, month, ordinal)))

    def __hash__(self) -> int:
        return self._hash

    # -- span ----------------------------------------------------------

    @property
    def day_count(self) -> int:
        """Number of days covered (1, 7, 28-31, or 365/366)."""
        return (self.end - self.start).days + 1

    # -- hierarchy navigation ------------------------------------------

    def parent(self) -> "TemporalKey | None":
        """The enclosing cube one level up, or ``None`` for a year.

        Days 1-28 parent to their month-aligned week; days 29-31 parent
        directly to the month ("zero to three daily statistics" under
        each monthly node).
        """
        if self.level is Level.YEAR:
            return None
        if self.level is Level.MONTH:
            return year_key(self.year)
        if self.level is Level.WEEK:
            return month_key(self.year, self.month)
        if self.ordinal <= _WEEKS_PER_MONTH * _DAYS_PER_WEEK:
            return week_key(self.year, self.month, (self.ordinal - 1) // _DAYS_PER_WEEK)
        return month_key(self.year, self.month)

    def children(self) -> list["TemporalKey"]:
        """Direct children in the hierarchy, in chronological order."""
        if self.level is Level.YEAR:
            return [month_key(self.year, m) for m in range(1, 13)]
        if self.level is Level.MONTH:
            weeks: list[TemporalKey] = [
                week_key(self.year, self.month, i) for i in range(_WEEKS_PER_MONTH)
            ]
            leftover = [
                day_key(date(self.year, self.month, d))
                for d in range(29, _days_in_month(self.year, self.month) + 1)
            ]
            return weeks + leftover
        if self.level is Level.WEEK:
            first = _WEEK_STARTS[self.ordinal]
            return [
                day_key(date(self.year, self.month, first + i))
                for i in range(_DAYS_PER_WEEK)
            ]
        return []

    def __str__(self) -> str:
        if self.level is Level.YEAR:
            return f"Y{self.year}"
        if self.level is Level.MONTH:
            return f"M{self.year}-{self.month:02d}"
        if self.level is Level.WEEK:
            return f"W{self.year}-{self.month:02d}.{self.ordinal}"
        return f"D{self.year}-{self.month:02d}-{self.ordinal:02d}"


def _check_month(year: int, month: int) -> None:
    if not 1 <= month <= 12:
        raise CalendarError(f"month out of range 1-12: {month} (year {year})")


def _days_in_month(year: int, month: int) -> int:
    return _stdcal.monthrange(year, month)[1]


# -- key constructors ---------------------------------------------------


# Keys are immutable and constructed in hot planner loops (the level
# optimizer visits every day of a 16-year range), so the constructors
# are memoized — repeated queries share one key object per unit.


@lru_cache(maxsize=65536)
def day_key(d: date) -> TemporalKey:
    """The day-level key covering date ``d``."""
    return TemporalKey(Level.DAY, d.year, d.month, d.day)


@lru_cache(maxsize=16384)
def week_key(year: int, month: int, index: int) -> TemporalKey:
    """Week ``index`` (0-3) of ``year``/``month``."""
    return TemporalKey(Level.WEEK, year, month, index)


def week_key_for(d: date) -> TemporalKey | None:
    """The week containing date ``d``, or ``None`` for days 29-31."""
    if d.day > _WEEKS_PER_MONTH * _DAYS_PER_WEEK:
        return None
    return week_key(d.year, d.month, (d.day - 1) // _DAYS_PER_WEEK)


@lru_cache(maxsize=4096)
def month_key(year: int, month: int) -> TemporalKey:
    return TemporalKey(Level.MONTH, year, month)


@lru_cache(maxsize=512)
def year_key(year: int) -> TemporalKey:
    return TemporalKey(Level.YEAR, year)


# -- range utilities ----------------------------------------------------


def iter_days(start: date, end: date) -> Iterator[date]:
    """Yield each date from ``start`` to ``end`` inclusive."""
    if end < start:
        raise CalendarError(f"range end {end} precedes start {start}")
    d = start
    one = timedelta(days=1)
    while d <= end:
        yield d
        d += one


def cover_range(start: date, end: date) -> list[TemporalKey]:
    """Decompose ``[start, end]`` into maximal aligned temporal units.

    Greedy, left to right: at each position take the coarsest unit that
    starts there and ends within the range.  Because the hierarchy is
    strictly nested this cover is disjoint, exact, and uses the minimum
    number of cubes among covers restricted to aligned units.
    """
    if end < start:
        raise CalendarError(f"range end {end} precedes start {start}")
    keys: list[TemporalKey] = []
    d = start
    while d <= end:
        key = _largest_unit_at(d, end)
        keys.append(key)
        d = key.end + timedelta(days=1)
    return keys


def _largest_unit_at(d: date, end: date) -> TemporalKey:
    if d.month == 1 and d.day == 1:
        yk = year_key(d.year)
        if yk.end <= end:
            return yk
    if d.day == 1:
        mk = month_key(d.year, d.month)
        if mk.end <= end:
            return mk
    if d.day in _WEEK_STARTS:
        wk = week_key_for(d)
        assert wk is not None
        if wk.end <= end:
            return wk
    return day_key(d)


def completed_units(d: date) -> list[TemporalKey]:
    """Parent cubes whose span ends exactly on day ``d``.

    Drives index maintenance (paper, Section VI-A): after ingesting the
    daily cube for ``d``, the index builds — in order — the weekly cube
    if ``d`` ends a week, the monthly cube if it ends a month, and the
    yearly cube if it ends a year.
    """
    done: list[TemporalKey] = []
    wk = week_key_for(d)
    if wk is not None and wk.end == d:
        done.append(wk)
    mk = month_key(d.year, d.month)
    if mk.end == d:
        done.append(mk)
        if d.month == 12:
            done.append(year_key(d.year))
    return done


def series_periods(
    start: date, end: date, level: Level, limit: int | None = None
) -> list[tuple[date, date]]:
    """Tile ``[start, end]`` completely into periods of ``level``.

    Used for ``GROUP BY Date`` time series: every day of the range
    belongs to exactly one period.  For WEEK granularity the month's
    leftover days 29-31 form their own short period (they belong to no
    month-aligned week); all periods are clipped to the range.  A
    range of more than ``limit`` periods is rejected as soon as the
    tiling passes it, not after.
    """
    if end < start:
        raise CalendarError(f"range end {end} precedes start {start}")
    periods: list[tuple[date, date]] = []
    d = start
    while d <= end:
        if limit is not None and len(periods) >= limit:
            raise CalendarError(
                f"{start}..{end} is a series of more than {limit} "
                f"{level.label} periods; narrow the range or coarsen "
                "the date granularity"
            )
        period_start = series_period_start(d, level)
        period_end = _series_period_end(period_start, level)
        periods.append((max(period_start, start), min(period_end, end)))
        d = period_end + timedelta(days=1)
    return periods


def series_period_start(d: date, level: Level) -> date:
    """The start of the ``level`` period containing day ``d``."""
    if level is Level.DAY:
        return d
    if level is Level.WEEK:
        if d.day > _WEEKS_PER_MONTH * _DAYS_PER_WEEK:
            return d.replace(day=29)
        return d.replace(day=_WEEK_STARTS[(d.day - 1) // _DAYS_PER_WEEK])
    if level is Level.MONTH:
        return d.replace(day=1)
    return date(d.year, 1, 1)


def _series_period_end(period_start: date, level: Level) -> date:
    if level is Level.DAY:
        return period_start
    if level is Level.WEEK:
        if period_start.day > _WEEKS_PER_MONTH * _DAYS_PER_WEEK:
            return month_key(period_start.year, period_start.month).end
        return period_start + timedelta(days=_DAYS_PER_WEEK - 1)
    if level is Level.MONTH:
        return month_key(period_start.year, period_start.month).end
    return date(period_start.year, 12, 31)


def keys_in_range(start: date, end: date, level: Level) -> list[TemporalKey]:
    """All keys of ``level`` whose span intersects ``[start, end]``."""
    if end < start:
        raise CalendarError(f"range end {end} precedes start {start}")
    keys: list[TemporalKey] = []
    if level is Level.DAY:
        return [day_key(d) for d in iter_days(start, end)]
    if level is Level.YEAR:
        return [year_key(y) for y in range(start.year, end.year + 1)]
    for year in range(start.year, end.year + 1):
        for month in range(1, 13):
            mk = month_key(year, month)
            if mk.end < start or mk.start > end:
                continue
            if level is Level.MONTH:
                keys.append(mk)
            else:
                for i in range(_WEEKS_PER_MONTH):
                    wk = week_key(year, month, i)
                    if wk.end >= start and wk.start <= end:
                        keys.append(wk)
    return keys
