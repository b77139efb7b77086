"""Property tests: the planner's recursion is exactly optimal.

The level optimizer claims minimal (disk reads, cube count) over all
covers by aligned temporal units.  These tests verify that claim
against an independent brute-force dynamic program over day positions
— the straightforward-but-slow formulation — on randomized small
ranges, cache states, and index hole patterns.
"""

from __future__ import annotations

import random
from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.types.temporal import (
    Level,
    day_key,
    month_key,
    week_key_for,
    year_key,
)
from repro.core.hierarchy import HierarchicalIndex
from repro.core.optimizer import LevelOptimizer
from repro.collection.records import UpdateList, UpdateRecord
from repro.storage.disk import InMemoryDisk

_WEEK_STARTS = (1, 8, 15, 22)


def _dp_reference_cost(index, start, end, cached):
    """Brute-force DP over day positions: optimal (disk, cubes)."""
    total_days = (end - start).days + 1
    infinity = (1 << 30, 1 << 30)
    best = [infinity] * (total_days + 1)
    best[0] = (0, 0)
    for position in range(total_days):
        if best[position] == infinity:
            continue
        day = start + timedelta(days=position)
        candidates = [day_key(day)]
        if day.day in _WEEK_STARTS:
            week = week_key_for(day)
            if week is not None and week.end <= end:
                candidates.append(week)
        if day.day == 1 and month_key(day.year, day.month).end <= end:
            candidates.append(month_key(day.year, day.month))
        if day.day == 1 and day.month == 1 and year_key(day.year).end <= end:
            candidates.append(year_key(day.year))
        advanced = False
        for unit in candidates:
            if not index.has(unit):
                continue
            advanced = True
            landing = position + unit.day_count
            cost = (
                best[position][0] + (0 if unit in cached else 1),
                best[position][1] + 1,
            )
            if cost < best[landing]:
                best[landing] = cost
        if not advanced:
            # Missing day: skip at zero cost.
            if best[position] < best[position + 1]:
                best[position + 1] = best[position]
    return best[total_days]


def _updates(day):
    return UpdateList(
        [
            UpdateRecord(
                element_type="way",
                date=day,
                country="germany",
                latitude=50.0,
                longitude=10.0,
                road_type="residential",
                update_type="geometry",
                changeset_id=1,
            )
        ]
    )


@pytest.fixture(scope="module")
def dense_index(tiny_schema):
    """Six fully ingested months (2021-01-01 .. 2021-06-30)."""
    disk = InMemoryDisk(read_latency=0, write_latency=0)
    index = HierarchicalIndex(tiny_schema, disk)
    day = date(2021, 1, 1)
    while day <= date(2021, 6, 30):
        index.ingest_day(day, _updates(day))
        day += timedelta(days=1)
    return index


RANGE_DAYS = st.integers(min_value=0, max_value=180)


class TestOptimalityDense:
    @given(offset=st.integers(0, 150), span=st.integers(0, 60), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_matches_dp_with_random_cache(self, dense_index, offset, span, data):
        start = date(2021, 1, 1) + timedelta(days=offset)
        end = min(start + timedelta(days=span), date(2021, 6, 30))
        # Random cache: sample keys of all levels within the index.
        pool = (
            dense_index.keys(Level.DAY)
            + dense_index.keys(Level.WEEK)
            + dense_index.keys(Level.MONTH)
        )
        cached = frozenset(
            data.draw(
                st.lists(st.sampled_from(pool), max_size=20, unique=True)
            )
        )
        plan = LevelOptimizer(dense_index).plan(start, end, cached)
        reference = _dp_reference_cost(dense_index, start, end, cached)
        assert (plan.disk_reads, plan.cube_count) == reference

    @given(offset=st.integers(0, 150), span=st.integers(0, 60))
    @settings(max_examples=30, deadline=None)
    def test_plan_covers_exactly_once(self, dense_index, offset, span):
        start = date(2021, 1, 1) + timedelta(days=offset)
        end = min(start + timedelta(days=span), date(2021, 6, 30))
        plan = LevelOptimizer(dense_index).plan(start, end)
        covered = []
        for key in plan.keys:
            day = key.start
            while day <= key.end:
                covered.append(day)
                day += timedelta(days=1)
        expected = []
        day = start
        while day <= end:
            expected.append(day)
            day += timedelta(days=1)
        assert covered == expected
        assert plan.missing_days == []


class TestOptimalityWithHoles:
    @pytest.fixture(scope="class")
    def holey_index(self, tiny_schema):
        """Ingest Jan-Mar 2021 but skip every 5th day (no rollups for
        incomplete units beyond what ingest_day builds)."""
        disk = InMemoryDisk(read_latency=0, write_latency=0)
        index = HierarchicalIndex(tiny_schema, disk)
        day = date(2021, 1, 1)
        position = 0
        while day <= date(2021, 3, 31):
            if position % 5 != 4:
                index.ingest_day(day, _updates(day))
            day += timedelta(days=1)
            position += 1
        return index

    @given(offset=st.integers(0, 80), span=st.integers(0, 40), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_dp_despite_missing_days(self, holey_index, offset, span, data):
        start = date(2021, 1, 1) + timedelta(days=offset)
        end = min(start + timedelta(days=span), date(2021, 3, 31))
        pool = holey_index.keys(Level.DAY) + holey_index.keys(Level.WEEK)
        cached = frozenset(
            data.draw(st.lists(st.sampled_from(pool), max_size=10, unique=True))
        )
        plan = LevelOptimizer(holey_index).plan(start, end, cached)
        reference = _dp_reference_cost(holey_index, start, end, cached)
        assert (plan.disk_reads, plan.cube_count) == reference

    @given(offset=st.integers(0, 80), span=st.integers(0, 40))
    @settings(max_examples=30, deadline=None)
    def test_missing_days_are_exactly_the_holes(self, holey_index, offset, span):
        start = date(2021, 1, 1) + timedelta(days=offset)
        end = min(start + timedelta(days=span), date(2021, 3, 31))
        plan = LevelOptimizer(holey_index).plan(start, end)
        covered_days = set()
        for key in plan.keys:
            day = key.start
            while day <= key.end:
                covered_days.add(day)
                day += timedelta(days=1)
        all_days = {
            start + timedelta(days=i) for i in range((end - start).days + 1)
        }
        # Covered days + missing days partition the range exactly.
        assert covered_days | set(plan.missing_days) == all_days
        assert covered_days & set(plan.missing_days) == set()
        # A day can only be missing if it has no daily cube (a hole
        # may still be *covered* by an existing weekly/monthly rollup).
        for day in plan.missing_days:
            assert not holey_index.has(day_key(day))


class TestSeededSweep:
    """500 seeded (range, cache-state) cells against the DP oracle.

    The hypothesis suites above shrink well but explore ~150 examples;
    this sweep is the exhaustive complement — ten cells per seed, every
    cell replayable by its printed seed number, half of them over an
    index with Bernoulli holes.  Each cell checks both claims at once:
    cost-optimality against :func:`_dp_reference_cost` and an
    exactly-once day-level cover (no gap, no overlap, missing days
    partition the remainder).
    """

    pytestmark = pytest.mark.slow

    _LAST_DAY = date(2021, 6, 30)

    @pytest.fixture(scope="class")
    def sparse_index(self, tiny_schema):
        """Jan-Jun 2021 with each day present with probability 0.8."""
        rng = random.Random(99)
        disk = InMemoryDisk(read_latency=0, write_latency=0)
        index = HierarchicalIndex(tiny_schema, disk)
        day = date(2021, 1, 1)
        while day <= self._LAST_DAY:
            if rng.random() < 0.8:
                index.ingest_day(day, _updates(day))
            day += timedelta(days=1)
        return index

    def _check_cell(self, index, rng):
        offset = rng.randrange(0, 170)
        span = rng.randrange(0, 75)
        start = date(2021, 1, 1) + timedelta(days=offset)
        end = min(start + timedelta(days=span), self._LAST_DAY)
        pool = (
            index.keys(Level.DAY)
            + index.keys(Level.WEEK)
            + index.keys(Level.MONTH)
        )
        cached = frozenset(rng.sample(pool, rng.randrange(0, 25)))

        plan = LevelOptimizer(index).plan(start, end, cached)

        assert (plan.disk_reads, plan.cube_count) == _dp_reference_cost(
            index, start, end, cached
        )
        covered = []
        for key in plan.keys:
            day = key.start
            while day <= key.end:
                covered.append(day)
                day += timedelta(days=1)
        assert covered == sorted(covered), "plan keys out of order"
        assert len(covered) == len(set(covered)), "a day covered twice"
        all_days = {
            start + timedelta(days=i) for i in range((end - start).days + 1)
        }
        assert set(covered) | set(plan.missing_days) == all_days
        assert set(covered) & set(plan.missing_days) == set()

    @pytest.mark.parametrize("seed", range(25))
    def test_dense_cells(self, dense_index, seed):
        rng = random.Random(seed)
        for _ in range(10):
            self._check_cell(dense_index, rng)

    @pytest.mark.parametrize("seed", range(25))
    def test_sparse_cells(self, sparse_index, seed):
        rng = random.Random(1000 + seed)
        for _ in range(10):
            self._check_cell(sparse_index, rng)
