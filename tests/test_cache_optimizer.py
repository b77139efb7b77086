"""Tests for the recency cache and the level optimizer — including the
paper's worked examples from Sections VII-A and VII-B."""

from __future__ import annotations

from datetime import date, timedelta

import pytest

from repro.core.cache import CacheManager, CacheRatios
from repro.types.temporal import Level, day_key, month_key, week_key, year_key
from repro.core.hierarchy import HierarchicalIndex
from repro.core.optimizer import FlatPlanner, LevelOptimizer
from repro.errors import ConfigError, PlanError
from repro.collection.records import UpdateList, UpdateRecord
from repro.storage.disk import InMemoryDisk


def updates_for(day: date, n: int = 1) -> UpdateList:
    return UpdateList(
        UpdateRecord(
            element_type="way",
            date=day,
            country="germany",
            latitude=50.0,
            longitude=10.0,
            road_type="residential",
            update_type="geometry",
            changeset_id=i + 1,
        )
        for i in range(n)
    )


@pytest.fixture(scope="module")
def year_index(tiny_schema):
    """A full-year index (2021-01-01 .. 2022-02-28) for planning tests."""
    disk = InMemoryDisk(read_latency=0.0, write_latency=0.0)
    index = HierarchicalIndex(tiny_schema, disk)
    day = date(2021, 1, 1)
    while day <= date(2022, 2, 28):
        index.ingest_day(day, updates_for(day))
        day += timedelta(days=1)
    return index


class TestCacheRatios:
    def test_defaults_are_paper_values(self):
        ratios = CacheRatios()
        assert (ratios.alpha, ratios.beta, ratios.gamma, ratios.theta) == (
            0.4,
            0.35,
            0.2,
            0.05,
        )

    def test_ratios_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            CacheRatios(0.5, 0.5, 0.5, 0.5)

    def test_negative_ratio_rejected(self):
        with pytest.raises(ConfigError):
            CacheRatios(-0.1, 0.5, 0.5, 0.1)

    def test_slot_allotment_sums_to_total(self):
        allotment = CacheRatios().slots_per_level(100)
        assert sum(allotment.values()) == 100
        assert allotment[Level.DAY] == 40
        assert allotment[Level.WEEK] == 35
        assert allotment[Level.MONTH] == 20
        assert allotment[Level.YEAR] == 5

    def test_remainder_goes_to_daily(self):
        allotment = CacheRatios().slots_per_level(7)
        assert sum(allotment.values()) == 7


class TestCachePreload:
    def test_preload_picks_most_recent_per_level(self, year_index):
        cache = CacheManager(year_index, slots=20)
        cache.preload()
        contents = cache.contents()
        # The newest daily cube must be cached.
        assert day_key(date(2022, 2, 28)) in contents
        # The newest yearly cube must be cached (theta > 0 => 1 slot).
        assert year_key(2021) in contents

    def test_preload_respects_allotments(self, year_index):
        cache = CacheManager(year_index, slots=20)
        loaded = cache.preload()
        assert loaded == cache.cached_count <= 20
        by_level = {}
        for key in cache.contents():
            by_level[key.level] = by_level.get(key.level, 0) + 1
        allotment = cache.ratios.slots_per_level(20)
        for level, count in by_level.items():
            assert count <= allotment[level]

    def test_zero_slots_cache_is_empty(self, year_index):
        cache = CacheManager(year_index, slots=0)
        assert cache.preload() == 0
        assert cache.get(day_key(date(2022, 2, 28))) is None

    def test_hit_and_miss_counters(self, year_index):
        cache = CacheManager(year_index, slots=10)
        cache.preload()
        assert cache.get(day_key(date(2022, 2, 28))) is not None
        assert cache.get(day_key(date(2021, 6, 15))) is None
        assert cache.hits == 1
        assert cache.misses == 1

    def test_negative_slots_rejected(self, year_index):
        with pytest.raises(ConfigError):
            CacheManager(year_index, slots=-1)

    def test_admit_disabled_by_default(self, year_index):
        """The cache is the paper's static preload: a miss — the cache's
        own or a whole query's — admits nothing."""
        from repro.core.executor import QueryExecutor
        from repro.core.query import AnalysisQuery

        cache = CacheManager(year_index, slots=10)
        cache.preload()
        before = cache.contents()
        missed = date(2021, 6, 15)
        assert cache.get(day_key(missed)) is None
        assert cache.get(day_key(date(2022, 2, 28))) is not None
        result = QueryExecutor(year_index, cache=cache).execute(
            AnalysisQuery(start=missed, end=missed)
        )
        assert result.stats.disk_reads == 1
        assert cache.contents() == before

    def test_refresh_key_reloads(self, year_index):
        cache = CacheManager(year_index, slots=5)
        cache.preload()
        key = day_key(date(2022, 2, 28))
        assert key in cache.contents()
        cache.refresh_key(key)  # must not raise; reloads from the index
        assert cache.get(key) is not None

    def test_daily_heavy_ratios_cache_more_days(self, year_index):
        daily_heavy = CacheManager(
            year_index, slots=20, ratios=CacheRatios(1.0, 0.0, 0.0, 0.0)
        )
        daily_heavy.preload()
        assert all(k.level is Level.DAY for k in daily_heavy.contents())
        assert daily_heavy.cached_count == 20

    def test_cached_bytes_tracks_resident_cubes(self, year_index):
        """``cached_bytes`` is what the resident cubes occupy, through
        preload, refresh and clear."""

        def resident_bytes(cache):
            return sum(year_index.get(key).nbytes for key in cache.contents())

        cache = CacheManager(year_index, slots=8)
        cache.preload()
        assert cache.cached_bytes == resident_bytes(cache) > 0
        cache.refresh_key(day_key(date(2022, 2, 28)))
        assert cache.cached_count == 8
        assert cache.cached_bytes == resident_bytes(cache)
        cache.clear()
        assert cache.cached_bytes == 0


class TestLevelOptimizer:
    def test_paper_example_without_cache(self, year_index):
        """Jan 1 - Feb 15, 2022: with month-aligned weeks, the optimum
        is 1 monthly + 2 weekly + 1 daily = 4 cubes (the paper's Sunday
        weeks give 10; see EXPERIMENTS.md on the week convention)."""
        optimizer = LevelOptimizer(year_index)
        plan = optimizer.plan(date(2022, 1, 1), date(2022, 2, 15))
        assert [str(k) for k in plan.keys] == [
            "M2022-01",
            "W2022-02.0",
            "W2022-02.1",
            "D2022-02-15",
        ]
        assert plan.disk_reads == 4

    def test_cache_changes_the_chosen_plan(self, year_index):
        """The paper's Section VII-B point: with all daily cubes of the
        window cached and no coarser cubes cached, the all-daily plan
        wins (zero disk) over the 4-cube mixed plan."""
        optimizer = LevelOptimizer(year_index)
        window = [
            day_key(date(2022, 1, 1) + timedelta(days=i)) for i in range(46)
        ]
        cached = frozenset(window)
        plan = optimizer.plan(date(2022, 1, 1), date(2022, 2, 15), cached)
        assert plan.disk_reads == 0
        assert plan.cube_count == 46
        assert all(k.level is Level.DAY for k in plan.keys)

    def test_partial_cache_mixes_levels(self, year_index):
        optimizer = LevelOptimizer(year_index)
        cached = frozenset({month_key(2022, 1)})
        plan = optimizer.plan(date(2022, 1, 1), date(2022, 2, 15), cached)
        assert month_key(2022, 1) in plan.keys
        assert plan.cache_hits == 1
        assert plan.disk_reads == 3

    def test_full_year_plan_is_one_cube(self, year_index):
        optimizer = LevelOptimizer(year_index)
        plan = optimizer.plan(date(2021, 1, 1), date(2021, 12, 31))
        assert plan.keys == [year_key(2021)]

    def test_single_day_plan(self, year_index):
        optimizer = LevelOptimizer(year_index)
        plan = optimizer.plan(date(2021, 6, 15), date(2021, 6, 15))
        assert plan.keys == [day_key(date(2021, 6, 15))]

    def test_plan_covers_range_exactly(self, year_index):
        optimizer = LevelOptimizer(year_index)
        start, end = date(2021, 3, 10), date(2021, 8, 20)
        plan = optimizer.plan(start, end)
        covered_days = []
        for key in plan.keys:
            d = key.start
            while d <= key.end:
                covered_days.append(d)
                d += timedelta(days=1)
        expected = []
        d = start
        while d <= end:
            expected.append(d)
            d += timedelta(days=1)
        assert covered_days == expected

    def test_plan_is_minimal_vs_canonical_cover(self, year_index):
        from repro.types.temporal import cover_range

        optimizer = LevelOptimizer(year_index)
        start, end = date(2021, 2, 3), date(2021, 11, 19)
        plan = optimizer.plan(start, end)
        assert plan.cube_count <= len(cover_range(start, end))

    def test_inverted_range_rejected(self, year_index):
        with pytest.raises(PlanError):
            LevelOptimizer(year_index).plan(date(2021, 2, 1), date(2021, 1, 1))

    def test_missing_coverage_recorded(self, year_index):
        optimizer = LevelOptimizer(year_index)
        plan = optimizer.plan(date(2022, 2, 25), date(2022, 3, 5))
        assert plan.missing_days == [
            date(2022, 3, 1) + timedelta(days=i) for i in range(5)
        ]

    def test_levels_used_summary(self, year_index):
        optimizer = LevelOptimizer(year_index)
        plan = optimizer.plan(date(2022, 1, 1), date(2022, 2, 15))
        used = plan.levels_used()
        assert used[Level.MONTH] == 1
        assert used[Level.WEEK] == 2
        assert used[Level.DAY] == 1

    def test_restricted_levels(self, year_index):
        optimizer = LevelOptimizer(year_index, levels=(Level.DAY, Level.WEEK))
        plan = optimizer.plan(date(2021, 1, 1), date(2021, 12, 31))
        assert all(k.level in (Level.DAY, Level.WEEK) for k in plan.keys)

    def test_planner_requires_day_level(self, year_index):
        with pytest.raises(PlanError):
            LevelOptimizer(year_index, levels=(Level.WEEK,))


class TestFlatPlanner:
    def test_always_daily(self, year_index):
        planner = FlatPlanner(year_index)
        plan = planner.plan(date(2021, 1, 1), date(2021, 12, 31))
        assert plan.cube_count == 365
        assert all(k.level is Level.DAY for k in plan.keys)

    def test_ignores_cache(self, year_index):
        planner = FlatPlanner(year_index)
        cached = frozenset({day_key(date(2021, 1, 1))})
        plan = planner.plan(date(2021, 1, 1), date(2021, 1, 10), cached)
        assert plan.disk_reads == 10
