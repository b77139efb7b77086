"""Tests for the temporal hierarchy: keys, covers, maintenance triggers."""

from __future__ import annotations

import dataclasses
from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.types.temporal import (
    Level,
    TemporalKey,
    completed_units,
    cover_range,
    day_key,
    iter_days,
    keys_in_range,
    month_key,
    series_period_start,
    series_periods,
    week_key,
    week_key_for,
    year_key,
)
from repro.errors import CalendarError

DATES = st.dates(min_value=date(2004, 1, 1), max_value=date(2030, 12, 31))


class TestTemporalKeyValidation:
    def test_year_key_rejects_month(self):
        with pytest.raises(CalendarError):
            TemporalKey(Level.YEAR, 2021, month=3)

    def test_month_key_rejects_ordinal(self):
        with pytest.raises(CalendarError):
            TemporalKey(Level.MONTH, 2021, 3, ordinal=1)

    def test_month_out_of_range(self):
        with pytest.raises(CalendarError):
            month_key(2021, 13)

    def test_week_ordinal_out_of_range(self):
        with pytest.raises(CalendarError):
            week_key(2021, 3, 4)

    def test_day_ordinal_out_of_range(self):
        with pytest.raises(CalendarError):
            TemporalKey(Level.DAY, 2021, 2, 29)  # 2021 not a leap year

    def test_leap_day_accepted(self):
        key = TemporalKey(Level.DAY, 2020, 2, 29)
        assert key.start == date(2020, 2, 29)


class TestSpans:
    def test_year_span(self):
        key = year_key(2021)
        assert key.start == date(2021, 1, 1)
        assert key.end == date(2021, 12, 31)
        assert key.day_count == 365

    def test_leap_year_span(self):
        assert year_key(2020).day_count == 366

    def test_month_span(self):
        key = month_key(2021, 2)
        assert key.day_count == 28
        assert key.end == date(2021, 2, 28)

    def test_week_spans_are_month_aligned(self):
        # Week 0 of any month covers days 1-7.
        key = week_key(2022, 1, 0)
        assert key.start == date(2022, 1, 1)
        assert key.end == date(2022, 1, 7)

    def test_last_week_ends_day_28(self):
        key = week_key(2022, 1, 3)
        assert key.start == date(2022, 1, 22)
        assert key.end == date(2022, 1, 28)

    def test_day_span(self):
        key = day_key(date(2021, 7, 4))
        assert key.start == key.end == date(2021, 7, 4)
        assert key.day_count == 1

    def test_str_representations(self):
        assert str(year_key(2021)) == "Y2021"
        assert str(month_key(2021, 3)) == "M2021-03"
        assert str(week_key(2021, 3, 2)) == "W2021-03.2"
        assert str(day_key(date(2021, 3, 5))) == "D2021-03-05"


class TestHierarchyNavigation:
    def test_day_parent_is_week_for_days_1_to_28(self):
        assert day_key(date(2021, 3, 14)).parent() == week_key(2021, 3, 1)

    def test_day_29_parents_to_month(self):
        assert day_key(date(2021, 3, 29)).parent() == month_key(2021, 3)

    def test_week_parent_is_month(self):
        assert week_key(2021, 3, 2).parent() == month_key(2021, 3)

    def test_month_parent_is_year(self):
        assert month_key(2021, 3).parent() == year_key(2021)

    def test_year_has_no_parent(self):
        assert year_key(2021).parent() is None

    def test_year_children_are_12_months(self):
        children = year_key(2021).children()
        assert len(children) == 12
        assert children[0] == month_key(2021, 1)
        assert children[-1] == month_key(2021, 12)

    def test_month_children_are_4_weeks_plus_leftovers(self):
        children = month_key(2021, 1).children()  # 31 days
        weeks = [c for c in children if c.level is Level.WEEK]
        days = [c for c in children if c.level is Level.DAY]
        assert len(weeks) == 4
        assert [d.ordinal for d in days] == [29, 30, 31]

    def test_february_non_leap_has_no_leftover_days(self):
        children = month_key(2021, 2).children()
        assert all(c.level is Level.WEEK for c in children)

    def test_february_leap_has_one_leftover_day(self):
        days = [c for c in month_key(2020, 2).children() if c.level is Level.DAY]
        assert [d.ordinal for d in days] == [29]

    def test_week_children_are_7_days(self):
        children = week_key(2021, 3, 1).children()
        assert len(children) == 7
        assert children[0] == day_key(date(2021, 3, 8))
        assert children[-1] == day_key(date(2021, 3, 14))

    def test_week_key_for_day_29_is_none(self):
        assert week_key_for(date(2021, 3, 29)) is None

    def test_descend_to_days_matches_day_count(self):
        key = month_key(2021, 6)
        days = [
            leaf
            for child in key.children()  # weeks, then days 29+
            for leaf in (child.children() or [child])
        ]
        assert len(days) == key.day_count

    @given(DATES)
    def test_parent_always_covers_child(self, d):
        key = day_key(d)
        while (parent := key.parent()) is not None:
            assert parent.start <= key.start and key.end <= parent.end
            assert parent.start <= d <= parent.end
            key = parent

    @given(DATES)
    def test_children_partition_parent(self, d):
        """Every non-day key's children tile its span exactly."""
        key = day_key(d).parent()
        while key is not None:
            children = key.children()
            days = []
            for child in children:
                days.extend(iter_days(child.start, child.end))
            assert sorted(days) == list(iter_days(key.start, key.end))
            key = key.parent()


class TestCoverRange:
    def test_paper_example_window(self):
        """Jan 1 - Feb 15, 2022: month + 2 weeks + day = 4 aligned units."""
        keys = cover_range(date(2022, 1, 1), date(2022, 2, 15))
        assert [str(k) for k in keys] == [
            "M2022-01",
            "W2022-02.0",
            "W2022-02.1",
            "D2022-02-15",
        ]

    def test_single_day(self):
        assert cover_range(date(2021, 5, 17), date(2021, 5, 17)) == [
            day_key(date(2021, 5, 17))
        ]

    def test_full_year_is_one_unit(self):
        assert cover_range(date(2021, 1, 1), date(2021, 12, 31)) == [year_key(2021)]

    def test_rejects_inverted_range(self):
        with pytest.raises(CalendarError):
            cover_range(date(2021, 2, 1), date(2021, 1, 1))

    def test_mid_week_start_uses_days(self):
        keys = cover_range(date(2021, 3, 3), date(2021, 3, 7))
        assert all(k.level is Level.DAY for k in keys)
        assert len(keys) == 5

    @given(st.tuples(DATES, DATES).map(sorted))
    @settings(max_examples=60)
    def test_cover_is_exact_disjoint_partition(self, bounds):
        start, end = bounds
        keys = cover_range(start, end)
        covered = []
        for key in keys:
            covered.extend(iter_days(key.start, key.end))
        assert covered == list(iter_days(start, end))

    @given(st.tuples(DATES, DATES).map(sorted))
    @settings(max_examples=60)
    def test_cover_units_are_maximal(self, bounds):
        """No two adjacent same-parent sibling groups are left unmerged:
        the greedy cover never uses more keys than days."""
        start, end = bounds
        keys = cover_range(start, end)
        assert len(keys) <= (end - start).days + 1
        # Keys are sorted and non-overlapping.
        for left, right in zip(keys, keys[1:]):
            assert left.end < right.start


class TestCompletedUnits:
    def test_midweek_day_completes_nothing(self):
        assert completed_units(date(2021, 3, 3)) == []

    def test_day_7_completes_first_week(self):
        assert completed_units(date(2021, 3, 7)) == [week_key(2021, 3, 0)]

    def test_month_end_without_week(self):
        # March 31 ends the month but not a week (day 31 has no week).
        assert completed_units(date(2021, 3, 31)) == [month_key(2021, 3)]

    def test_feb_28_completes_week_and_month(self):
        assert completed_units(date(2021, 2, 28)) == [
            week_key(2021, 2, 3),
            month_key(2021, 2),
        ]

    def test_year_end_completes_month_and_year(self):
        assert completed_units(date(2021, 12, 31)) == [
            month_key(2021, 12),
            year_key(2021),
        ]

    @given(DATES)
    def test_completed_units_end_on_that_day(self, d):
        for key in completed_units(d):
            assert key.end == d


class TestSeriesPeriods:
    def test_day_periods_are_every_day(self):
        periods = series_periods(date(2021, 3, 1), date(2021, 3, 5), Level.DAY)
        assert len(periods) == 5
        assert all(a == b for a, b in periods)

    def test_week_periods_cover_leftover_days(self):
        periods = series_periods(date(2021, 1, 1), date(2021, 1, 31), Level.WEEK)
        # 4 weeks + the 29-31 leftover period.
        assert len(periods) == 5
        assert periods[-1] == (date(2021, 1, 29), date(2021, 1, 31))

    def test_periods_are_clipped_to_range(self):
        periods = series_periods(date(2021, 1, 5), date(2021, 1, 10), Level.WEEK)
        assert periods == [
            (date(2021, 1, 5), date(2021, 1, 7)),
            (date(2021, 1, 8), date(2021, 1, 10)),
        ]

    def test_month_periods(self):
        periods = series_periods(date(2021, 1, 15), date(2021, 3, 15), Level.MONTH)
        assert [p[0] for p in periods] == [
            date(2021, 1, 15),
            date(2021, 2, 1),
            date(2021, 3, 1),
        ]

    def test_year_periods(self):
        periods = series_periods(date(2020, 6, 1), date(2022, 2, 1), Level.YEAR)
        assert len(periods) == 3

    @given(st.tuples(DATES, DATES).map(sorted), st.sampled_from(list(Level)))
    @settings(max_examples=60)
    def test_periods_tile_range_completely(self, bounds, level):
        start, end = bounds
        periods = series_periods(start, end, level)
        days = []
        for period_start, period_end in periods:
            days.extend(iter_days(period_start, period_end))
        assert days == list(iter_days(start, end))

    @given(DATES, st.sampled_from(list(Level)))
    def test_period_start_is_idempotent(self, d, level):
        first = series_period_start(d, level)
        assert series_period_start(first, level) == first
        assert first <= d


class TestKeysInRange:
    def test_day_level(self):
        keys = keys_in_range(date(2021, 3, 30), date(2021, 4, 2), Level.DAY)
        assert len(keys) == 4

    def test_month_level_intersecting(self):
        keys = keys_in_range(date(2021, 1, 15), date(2021, 3, 2), Level.MONTH)
        assert keys == [month_key(2021, 1), month_key(2021, 2), month_key(2021, 3)]

    def test_year_level(self):
        keys = keys_in_range(date(2020, 6, 1), date(2021, 6, 1), Level.YEAR)
        assert keys == [year_key(2020), year_key(2021)]

    def test_week_level_excludes_nonintersecting(self):
        keys = keys_in_range(date(2021, 1, 1), date(2021, 1, 7), Level.WEEK)
        assert keys == [week_key(2021, 1, 0)]

    def test_rejects_inverted(self):
        with pytest.raises(CalendarError):
            keys_in_range(date(2021, 2, 1), date(2021, 1, 1), Level.DAY)


class TestIterDays:
    def test_inclusive_bounds(self):
        days = list(iter_days(date(2021, 1, 30), date(2021, 2, 2)))
        assert days[0] == date(2021, 1, 30)
        assert days[-1] == date(2021, 2, 2)
        assert len(days) == 4

    def test_single_day(self):
        assert list(iter_days(date(2021, 1, 1), date(2021, 1, 1))) == [date(2021, 1, 1)]

    def test_rejects_inverted(self):
        with pytest.raises(CalendarError):
            list(iter_days(date(2021, 1, 2), date(2021, 1, 1)))


class TestKeyIdentity:
    """A key stores its span and hash once, when built; copies,
    pickles and ``dataclasses.replace`` keep them consistent."""

    KEYS = (
        day_key(date(2021, 2, 28)),
        week_key(2021, 2, 3),
        month_key(2020, 2),
        year_key(2021),
    )

    def test_a_key_pickled_under_another_hash_seed_finds_its_equal(self):
        import os
        import pickle
        import subprocess
        import sys
        from pathlib import Path

        source = (
            "import pickle, sys\n"
            "from datetime import date\n"
            "from repro.types.temporal import day_key, month_key, week_key, year_key\n"
            "keys = [day_key(date(2021, 2, 28)), week_key(2021, 2, 3),\n"
            "        month_key(2020, 2), year_key(2021)]\n"
            "sys.stdout.buffer.write(pickle.dumps(keys))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        for seed in ("1", "4242"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            loaded = pickle.loads(
                subprocess.run(
                    [sys.executable, "-c", source], env=env, capture_output=True, check=True
                ).stdout
            )
            here = {key: position for position, key in enumerate(self.KEYS)}
            for position, key in enumerate(loaded):
                assert here[key] == position
                assert hash(key) == hash(self.KEYS[position])
                assert (key.start, key.end) == (self.KEYS[position].start, self.KEYS[position].end)

    def test_replace_and_copy_keep_span_and_hash_consistent(self):
        import copy

        for key in self.KEYS:
            for clone in (copy.copy(key), copy.deepcopy(key)):
                assert clone == key and hash(clone) == hash(key)
                assert (clone.start, clone.end) == (key.start, key.end)
        moved = dataclasses.replace(day_key(date(2021, 2, 28)), month=3, ordinal=31)
        assert moved == day_key(date(2021, 3, 31))
        assert hash(moved) == hash(day_key(date(2021, 3, 31)))
        assert (moved.start, moved.end) == (date(2021, 3, 31), date(2021, 3, 31))
        week = dataclasses.replace(week_key(2021, 2, 3), ordinal=1)
        assert (week.start, week.end) == (date(2021, 2, 8), date(2021, 2, 14))
        assert {week: 1}[week_key(2021, 2, 1)] == 1

    def test_span_fields_take_no_part_in_equality_order_or_repr(self):
        key = month_key(2021, 2)
        assert repr(key) == "TemporalKey(level=<Level.MONTH: 2>, year=2021, month=2, ordinal=0)"
        assert sorted([year_key(2020), day_key(date(2021, 1, 1))])[0] == day_key(date(2021, 1, 1))
        with pytest.raises(dataclasses.FrozenInstanceError):
            key.start = date(2000, 1, 1)  # type: ignore[misc]
