"""Tests for the query model and the cube-backed executor, validated by
brute-force recounting of the simulator's ground-truth rows."""

from __future__ import annotations

import time
from collections import Counter
from datetime import date

import pytest

from repro.types.temporal import Level, series_period_start
from repro.core.query import AnalysisQuery, QueryResult, QueryStats
from repro.errors import QueryError
from tests.conftest import INGESTED_END, INGESTED_START


def brute_force(system, query):
    """Recount the ground truth rows with plain Python."""
    rows = Counter()
    for day, truth in system.truth_by_day.items():
        if not query.start <= day <= query.end:
            continue
        for record in truth:
            if (
                query.element_types is not None
                and record.element_type not in query.element_types
            ):
                continue
            if query.road_types is not None and record.road_type not in query.road_types:
                continue
            if (
                query.update_types is not None
                and record.update_type not in query.update_types
            ):
                continue
            zones = [
                z.name for z in system.atlas.zones_for_point(record.point)
            ]
            if query.countries is not None:
                zones = [z for z in zones if z in query.countries]
                if not zones:
                    continue
            key_zones = zones if "country" in query.group_by else [None]
            for zone in key_zones:
                parts = []
                for attribute in query.group_by:
                    if attribute == "date":
                        parts.append(
                            max(
                                series_period_start(record.date, query.date_granularity),
                                query.start,
                            )
                        )
                    elif attribute == "country":
                        parts.append(zone)
                    elif attribute == "road_type":
                        # Mirror the schema's catch-all folding.
                        schema = system.schema
                        value = record.road_type
                        if value not in schema.road_type:
                            value = "other"
                        parts.append(value)
                    else:
                        parts.append(getattr(record, attribute))
                rows[tuple(parts)] += 1
    return dict(rows)


class TestQueryModel:
    def test_inverted_range_rejected(self):
        with pytest.raises(QueryError):
            AnalysisQuery(start=date(2021, 2, 1), end=date(2021, 1, 1))

    def test_unknown_group_by_rejected(self):
        with pytest.raises(QueryError):
            AnalysisQuery(
                start=date(2021, 1, 1), end=date(2021, 1, 2), group_by=("color",)
            )

    def test_duplicate_group_by_rejected(self):
        with pytest.raises(QueryError):
            AnalysisQuery(
                start=date(2021, 1, 1),
                end=date(2021, 1, 2),
                group_by=("country", "country"),
            )

    def test_unknown_metric_rejected(self):
        with pytest.raises(QueryError):
            AnalysisQuery(
                start=date(2021, 1, 1), end=date(2021, 1, 2), metric="median"
            )

    def test_empty_filter_rejected(self):
        with pytest.raises(QueryError):
            AnalysisQuery(
                start=date(2021, 1, 1), end=date(2021, 1, 2), countries=()
            )

    def test_cube_group_by_excludes_date(self):
        query = AnalysisQuery(
            start=date(2021, 1, 1),
            end=date(2021, 1, 2),
            group_by=("country", "date", "element_type"),
        )
        assert query.cube_group_by == ("country", "element_type")
        assert query.groups_by_date

    def test_describe_mentions_filters(self):
        query = AnalysisQuery(
            start=date(2021, 1, 1),
            end=date(2021, 1, 2),
            countries=("germany",),
            group_by=("country",),
        )
        text = query.describe()
        assert "germany" in text
        assert "2021-01-01" in text

    def test_result_table_shape(self):
        query = AnalysisQuery(
            start=date(2021, 1, 1), end=date(2021, 1, 2), group_by=("country",)
        )
        result = QueryResult(
            query=query, rows={("germany",): 5, ("qatar",): 2}, stats=QueryStats()
        )
        assert result.sorted_rows()[0] == (("germany",), 5)
        assert result.total == 7

    def test_sorted_rows_by_key(self):
        query = AnalysisQuery(
            start=date(2021, 1, 1), end=date(2021, 1, 2), group_by=("country",)
        )
        result = QueryResult(query=query, rows={("b",): 1, ("a",): 2})
        assert [k for k, _ in result.sorted_rows(by_value=False)] == [("a",), ("b",)]


class TestExecutorEquivalence:
    """Cube answers must equal brute-force recounts of the truth rows."""

    @pytest.mark.parametrize(
        "query_kwargs",
        [
            dict(),
            dict(group_by=("element_type",)),
            dict(group_by=("country", "element_type")),
            dict(group_by=("road_type", "update_type")),
            dict(countries=("germany", "qatar"), group_by=("country",)),
            dict(element_types=("way",), group_by=("update_type",)),
            dict(
                countries=("europe",),
                group_by=("country", "element_type"),
            ),
            dict(road_types=("residential",), group_by=("element_type",)),
        ],
        ids=[
            "total",
            "by-element",
            "by-country-element",
            "by-road-update",
            "country-filtered",
            "element-filtered",
            "continent-zone",
            "road-filtered",
        ],
    )
    def test_matches_brute_force(self, rebuilt_system, query_kwargs):
        query = AnalysisQuery(
            start=INGESTED_START, end=INGESTED_END, **query_kwargs
        )
        result = rebuilt_system.dashboard.analysis(query)
        expected = brute_force(rebuilt_system, query)
        assert result.rows == expected

    def test_partial_window_matches(self, rebuilt_system):
        query = AnalysisQuery(
            start=date(2021, 1, 10),
            end=date(2021, 2, 13),
            group_by=("element_type",),
        )
        assert rebuilt_system.dashboard.analysis(query).rows == brute_force(
            rebuilt_system, query
        )

    @pytest.mark.parametrize("granularity", [Level.DAY, Level.WEEK, Level.MONTH])
    def test_time_series_matches(self, rebuilt_system, granularity):
        query = AnalysisQuery(
            start=date(2021, 1, 5),
            end=date(2021, 2, 20),
            countries=("germany", "france"),
            group_by=("country", "date"),
            date_granularity=granularity,
        )
        result = rebuilt_system.dashboard.analysis(query)
        expected = brute_force(rebuilt_system, query)
        assert result.rows == expected

    def test_coarse_vs_rebuilt_update_types(self, ingested_system, rebuilt_system):
        """Without the monthly rebuild, metadata counts sit in geometry."""
        query = AnalysisQuery(
            start=INGESTED_START,
            end=INGESTED_END,
            group_by=("update_type",),
        )
        coarse = ingested_system.dashboard.analysis(query).rows
        full = rebuilt_system.dashboard.analysis(query).rows
        assert ("metadata",) not in coarse
        assert full.get(("metadata",), 0) > 0


class TestExecutorMechanics:
    def test_cache_hits_reported(self, ingested_system):
        ingested_system.warm_cache()
        query = AnalysisQuery(start=date(2021, 2, 27), end=date(2021, 2, 28))
        result = ingested_system.dashboard.analysis(query)
        assert result.stats.cache_hits == 2
        assert result.stats.disk_reads == 0

    def test_disk_reads_reported_for_cold_window(self, ingested_system):
        query = AnalysisQuery(start=date(2021, 1, 3), end=date(2021, 1, 5))
        result = ingested_system.dashboard.analysis(query)
        assert result.stats.disk_reads + result.stats.cache_hits == result.stats.cube_count

    def test_simulated_time_includes_disk_latency(self, ingested_system):
        query = AnalysisQuery(start=date(2021, 1, 3), end=date(2021, 1, 6))
        result = ingested_system.dashboard.analysis(query)
        if result.stats.disk_reads:
            assert result.stats.simulated_seconds > result.stats.wall_seconds

    def test_missing_days_counted(self, ingested_system):
        query = AnalysisQuery(start=date(2021, 2, 25), end=date(2021, 3, 5))
        result = ingested_system.dashboard.analysis(query)
        assert result.stats.missing_days == 5

    def test_plan_exposed(self, ingested_system):
        query = AnalysisQuery(start=date(2021, 1, 1), end=date(2021, 1, 31))
        plan = ingested_system.executor.plan(query)
        assert plan.cube_count >= 1

    def test_zero_day_series_kept(self, rebuilt_system):
        """A day with no matching updates still appears in a pure date
        series as a zero point."""
        query = AnalysisQuery(
            start=date(2021, 1, 1),
            end=date(2021, 1, 7),
            countries=("oceania_010",),  # a cold, rarely edited zone
            group_by=("date",),
        )
        result = rebuilt_system.dashboard.analysis(query)
        assert len(result.rows) == 7


class TestPercentages:
    def test_percentage_uses_network_size(self, rebuilt_system):
        query = AnalysisQuery(
            start=INGESTED_START,
            end=INGESTED_END,
            countries=("germany",),
            group_by=("country",),
            metric="percentage",
        )
        counts = rebuilt_system.dashboard.analysis(
            AnalysisQuery(
                start=INGESTED_START,
                end=INGESTED_END,
                countries=("germany",),
                group_by=("country",),
            )
        )
        pct = rebuilt_system.dashboard.analysis(query)
        assert pct.sizes_as_of == INGESTED_END
        size = rebuilt_system.network_sizes.as_of(INGESTED_END).size("germany")
        expected = 100.0 * counts.rows[("germany",)] / size
        assert pct.rows[("germany",)] == pytest.approx(expected)

    def test_percentage_without_country_group_uses_filter_denominator(
        self, rebuilt_system
    ):
        query = AnalysisQuery(
            start=INGESTED_START,
            end=INGESTED_END,
            countries=("germany", "france"),
            metric="percentage",
        )
        result = rebuilt_system.dashboard.analysis(query)
        record = rebuilt_system.network_sizes.as_of(INGESTED_END)
        denominator = record.denominator(("germany", "france"))
        counts = rebuilt_system.dashboard.analysis(
            AnalysisQuery(
                start=INGESTED_START,
                end=INGESTED_END,
                countries=("germany", "france"),
            )
        )
        assert result.rows[()] == pytest.approx(
            100.0 * counts.rows[()] / denominator
        )

    def test_percentage_requires_registry(self, ingested_system):
        from repro.core.executor import QueryExecutor

        bare = QueryExecutor(ingested_system.index, cache=None)
        with pytest.raises(QueryError):
            bare.execute(
                AnalysisQuery(
                    start=INGESTED_START,
                    end=INGESTED_END,
                    metric="percentage",
                )
            )


class TestNetworkSizeRegistry:
    def test_continent_is_sum_of_countries(self, rebuilt_system):
        registry = rebuilt_system.network_sizes.as_of(INGESTED_END)
        atlas = rebuilt_system.atlas
        total = sum(
            registry.size(c.name) for c in atlas.countries_of("europe")
        )
        assert registry.size("europe") == total

    def test_state_is_even_share(self, rebuilt_system):
        registry = rebuilt_system.network_sizes.as_of(INGESTED_END)
        usa = registry.size("united_states")
        assert registry.size("minnesota") == max(1, usa // 50)

    def test_unknown_zone_raises(self, rebuilt_system):
        with pytest.raises(QueryError):
            rebuilt_system.network_sizes.as_of(INGESTED_END).size("atlantis")

    def test_world_denominator_skips_zones_of_interest(self, rebuilt_system):
        registry = rebuilt_system.network_sizes.as_of(INGESTED_END)
        world = registry.denominator(None)
        countries_total = sum(
            registry.size(c.name) for c in rebuilt_system.atlas.countries
        )
        assert world == countries_total

    def test_tsv_roundtrip(self, atlas):
        """A record written to a store loads back, every rollup re-derived
        the same way from its country sizes alone."""
        from repro.core.percentages import NetworkSizeRegistry
        from repro.osm.snapshot import encode_sizes, sizes_page_id
        from repro.storage.disk import InMemoryDisk

        registry = NetworkSizeRegistry(atlas, {date.min: {"germany": 123, "qatar": 7}})
        store = InMemoryDisk(0, 0)
        store.write(sizes_page_id(INGESTED_END), encode_sizes({"germany": 123, "qatar": 7}))
        restored = NetworkSizeRegistry(atlas)
        restored.load(store)
        assert restored.dates == [INGESTED_END]
        record = restored.as_of(INGESTED_END)
        assert record.size("germany") == 123
        assert record.size("europe") == registry.as_of(INGESTED_END).size("europe")
        with pytest.raises(QueryError):
            restored.as_of(INGESTED_START)


class TestWindowAdditivity:
    """Splitting a window into adjacent halves must sum to the whole —
    the algebraic property rollup correctness hangs on."""

    from hypothesis import given as _given, settings as _settings
    from hypothesis import strategies as _st

    @_given(
        split=_st.integers(min_value=0, max_value=57),
        group=_st.sampled_from(
            [(), ("element_type",), ("country", "update_type")]
        ),
    )
    @_settings(max_examples=20, deadline=None)
    def test_adjacent_windows_sum_to_whole(self, rebuilt_system, split, group):
        from datetime import timedelta

        boundary = INGESTED_START + timedelta(days=split)
        whole = rebuilt_system.dashboard.analysis(
            AnalysisQuery(start=INGESTED_START, end=INGESTED_END, group_by=group)
        ).rows
        left = rebuilt_system.dashboard.analysis(
            AnalysisQuery(start=INGESTED_START, end=boundary, group_by=group)
        ).rows
        right_start = boundary + timedelta(days=1)
        right = {}
        if right_start <= INGESTED_END:
            right = rebuilt_system.dashboard.analysis(
                AnalysisQuery(start=right_start, end=INGESTED_END, group_by=group)
            ).rows
        combined = dict(left)
        for key, value in right.items():
            combined[key] = combined.get(key, 0) + value
        combined = {k: v for k, v in combined.items() if v}
        assert combined == {k: v for k, v in whole.items() if v}

    def test_single_days_sum_to_week(self, rebuilt_system):
        from datetime import timedelta

        week_start = date(2021, 1, 8)
        week_total = rebuilt_system.dashboard.analysis(
            AnalysisQuery(start=week_start, end=week_start + timedelta(days=6))
        ).rows[()]
        day_sum = sum(
            rebuilt_system.dashboard.analysis(
                AnalysisQuery(
                    start=week_start + timedelta(days=i),
                    end=week_start + timedelta(days=i),
                )
            ).rows[()]
            for i in range(7)
        )
        assert week_total == day_sum

    def test_month_query_equals_its_one_point_series(self, rebuilt_system):
        """The window-list identity: a query over one calendar month is
        the one-window case of the monthly series over that month."""
        executor = rebuilt_system.executor
        start, end = date(2021, 2, 1), INGESTED_END
        for group in ((), ("country",), ("element_type", "update_type")):
            whole = executor.execute(
                AnalysisQuery(start=start, end=end, group_by=group)
            )
            series = executor.execute(
                AnalysisQuery(
                    start=start,
                    end=end,
                    group_by=("date",) + group,
                    date_granularity=Level.MONTH,
                )
            )
            assert whole.rows
            assert series.rows == {
                (start,) + key: value for key, value in whole.rows.items()
            }
            assert series.stats.cube_count == whole.stats.cube_count


class TestTimeSeriesCacheSnapshot:
    """The cube cache is the paper's static preload: a query never
    changes it, so every period of a series is planned against the one
    snapshot taken when the query starts."""

    @pytest.fixture(scope="class")
    def year_index(self):
        from tests.test_iosched import make_small_index

        index, disk = make_small_index(days=365)
        return index, disk

    def _series_executor(self, index, slots=31):
        from repro.core.cache import CacheManager, CacheRatios
        from repro.core.executor import QueryExecutor
        from repro.core.optimizer import LevelOptimizer

        cache = CacheManager(
            index, slots=slots, ratios=CacheRatios(1.0, 0.0, 0.0, 0.0)
        )
        cache.preload()  # the 31 December dailies
        index.store.reset_stats()
        return QueryExecutor(
            index, cache=cache, optimizer=LevelOptimizer(index)
        )

    def test_monthly_series_misses_leave_the_cache_as_preloaded(self, year_index):
        index, _ = year_index
        executor = self._series_executor(index)
        preloaded = executor.cache.contents()
        query = AnalysisQuery(
            start=date(2021, 1, 1),
            end=date(2021, 12, 31),
            group_by=("date",),
            date_granularity=Level.MONTH,
        )
        for _ in range(2):
            result = executor.execute(query)
            # Jan..Nov are one monthly read each, every time: a miss
            # admits nothing.  December is its 31 resident dailies.
            assert result.stats.disk_reads == 11
            assert result.stats.cache_hits == 31
            assert result.stats.phases["phase1.plan"][1] == 12
            assert executor.cache.contents() == preloaded

        from repro.core.executor import QueryExecutor

        bare = QueryExecutor(index).execute(query)
        assert result.rows == bare.rows

    def test_warm_cache_series_stays_on_cache(self, year_index):
        """Fig. 7's warm-cache workload: a fully resident daily series
        touches disk zero times, repeatably."""
        index, _ = year_index
        executor = self._series_executor(index)
        query = AnalysisQuery(
            start=date(2021, 12, 1),
            end=date(2021, 12, 31),
            group_by=("date",),
            date_granularity=Level.DAY,
        )
        for _ in range(2):
            result = executor.execute(query)
            assert result.stats.disk_reads == 0
            assert result.stats.cache_hits == 31
            assert len(result.rows) == 31


class TestSeriesBounds:
    """A date series is planned window by window before anything is
    read: that loop honours the request's deadline, and its length is
    bounded by a constant."""

    @pytest.fixture(scope="class")
    def executor(self):
        from repro.core.executor import QueryExecutor
        from tests.test_iosched import make_small_index

        index, _ = make_small_index(days=10)
        return QueryExecutor(index)

    @staticmethod
    def _daily(start, end):
        return AnalysisQuery(start=start, end=end, group_by=("date",))

    def test_all_of_osm_history_by_day_is_under_the_cap(self, executor):
        from repro.core.executor import MAX_SERIES_PERIODS

        query = self._daily(date(2004, 8, 1), date(2026, 7, 31))
        result = executor.execute(query)
        periods = result.stats.phases["phase1.plan"][1]
        assert 8_000 < periods <= MAX_SERIES_PERIODS
        assert sum(result.rows.values()) == 30  # the ten ingested days

    def test_series_past_the_cap_is_rejected_before_planning(
        self, executor, monkeypatch
    ):
        from repro.errors import CalendarError

        planned = []
        monkeypatch.setattr(
            executor.optimizer, "plan", lambda *a, **k: planned.append(a)
        )
        started = time.perf_counter()
        for query in (
            self._daily(date(1, 1, 1), date(9998, 12, 31)),
            self._daily(date(2000, 1, 1), date(2027, 5, 19)),  # cap + 1
            AnalysisQuery(
                start=date(1, 1, 1),
                end=date(9998, 12, 31),
                group_by=("date",),
                date_granularity=Level.WEEK,
            ),
        ):
            with pytest.raises(CalendarError, match="more than 10000"):
                executor.execute(query)
        assert time.perf_counter() - started < 0.5
        assert planned == []

    def test_the_calendars_last_year_is_out_of_range(self):
        from repro.errors import QueryError

        for end in (date(9999, 1, 1), date.max):
            with pytest.raises(QueryError, match="out of range"):
                AnalysisQuery(start=date(2021, 1, 1), end=end)

    def test_expired_deadline_stops_planning_at_the_next_window(
        self, executor, monkeypatch
    ):
        from repro.core.deadline import Deadline, deadline_scope
        from repro.errors import DeadlineExceededError

        plan = executor.optimizer.plan
        planned = []

        def counting_plan(*args, **kwargs):
            planned.append(args[0])
            return plan(*args, **kwargs)

        monkeypatch.setattr(executor.optimizer, "plan", counting_plan)
        now = [0.0]
        expired = Deadline(0.05, clock=lambda: now[0])
        now[0] = 1.0
        with deadline_scope(expired):
            with pytest.raises(DeadlineExceededError, match="phase1.plan"):
                executor.execute(self._daily(date(2000, 1, 1), date(2020, 1, 1)))
        assert len(planned) == 1

    def test_real_deadline_on_a_long_series_is_honoured_promptly(self, executor):
        from repro.core.deadline import Deadline, deadline_scope
        from repro.errors import DeadlineExceededError, RasedError

        # 7 306 windows take far longer to plan than 2 ms.
        started = time.perf_counter()
        with deadline_scope(Deadline(0.002)):
            with pytest.raises(DeadlineExceededError):
                executor.execute(self._daily(date(2000, 1, 1), date(2020, 1, 1)))
        assert time.perf_counter() - started < 0.5
        # The thousand-year series that used to answer its 50 ms
        # deadline after 4.2 s.
        started = time.perf_counter()
        with deadline_scope(Deadline(0.05)):
            with pytest.raises(RasedError):
                executor.execute(self._daily(date(1500, 1, 1), date(2500, 1, 1)))
        assert time.perf_counter() - started < 0.5


class TestSelectionCompiledOncePerQuery:
    """The hot path's call budget, as a count: a query's filters and
    group-by are resolved and compiled ONCE — not once per cube, per
    window or per shard — and every cube reduces through that one
    :class:`~repro.types.cube.Selection`."""

    @pytest.fixture(scope="class")
    def year_updates(self):
        import random
        from datetime import timedelta

        from repro.synth.scale import scaled_day_updates
        from repro.types.dimensions import default_schema

        schema = default_schema(["united_states", "germany", "qatar"], road_types=4)
        rng = random.Random(7)
        updates = {}
        day = date(2021, 1, 1)
        while day <= date(2021, 12, 31):
            updates[day] = scaled_day_updates(day, rng, schema, 6)
            day += timedelta(days=1)
        return schema, updates

    def _executor(self, year_updates, shards):
        from repro.core.cache import CacheManager
        from repro.core.executor import QueryExecutor
        from repro.core.hierarchy import HierarchicalIndex
        from repro.core.optimizer import LevelOptimizer
        from repro.core.shard import (
            ScatterGatherExecutor,
            ShardedIndex,
            ShardedPageStore,
            shard_stores_for,
        )
        from repro.storage.disk import InMemoryDisk

        schema, updates = year_updates
        disk = InMemoryDisk(read_latency=0.0, write_latency=0.0)
        if shards == 1:
            index = HierarchicalIndex(schema, disk)
            engine = QueryExecutor
        else:
            index = ShardedIndex(
                schema,
                ShardedPageStore(shard_stores_for(disk, shards), disk),
            )
            engine = ScatterGatherExecutor
        index.bulk_load(updates)
        cache = CacheManager(index, slots=16)  # static: never admits
        cache.preload()
        return engine(index, cache=cache, optimizer=LevelOptimizer(index))

    @pytest.mark.parametrize("shards", [1, 4])
    def test_one_compile_per_query(self, year_updates, shards, monkeypatch):
        import repro.types.cube as cube_module

        executor = self._executor(year_updates, shards)
        calls = []
        resolve = cube_module._resolve_selection
        monkeypatch.setattr(
            cube_module,
            "_resolve_selection",
            lambda *args: calls.append(args) or resolve(*args),
        )
        reduced = []
        for cls in (cube_module.SparseCube, cube_module.DataCube):
            original = cls.aggregate_array
            monkeypatch.setattr(
                cls,
                "aggregate_array",
                lambda self, selection, _original=original: reduced.append(selection)
                or _original(self, selection),
            )
        queries = [
            # 52 weekly windows over a static cache: one gather, one compile.
            AnalysisQuery(
                start=date(2021, 1, 1),
                end=date(2021, 12, 30),
                group_by=("date", "country"),
                date_granularity=Level.WEEK,
                update_types=("create",),
            ),
            AnalysisQuery(
                start=date(2021, 2, 3),
                end=date(2021, 6, 20),
                group_by=("road_type", "element_type"),
                countries=("germany", "qatar"),
            ),
        ]
        for query in queries:
            calls.clear()
            reduced.clear()
            result = executor.execute(query)
            assert len(calls) == 1, f"{len(calls)} compiles for {query}"
            assert result.stats.cube_count == len(reduced) > 15
            assert len({id(selection) for selection in reduced}) == 1
            if shards > 1:
                owners = {executor.index.shard_for(k) for k in executor.plan(query).keys}
                assert len(owners) > 1  # the one selection crossed shards

    def test_series_rows_match_per_window_queries(self, year_updates):
        """The column-wise row shaping puts the date where group_by says."""
        from datetime import timedelta

        executor = self._executor(year_updates, 1)
        series = executor.execute(
            AnalysisQuery(
                start=date(2021, 3, 1),
                end=date(2021, 3, 21),
                group_by=("country", "date", "element_type"),
                date_granularity=Level.WEEK,
            )
        )
        expected = {}
        for week_start in (date(2021, 3, 1), date(2021, 3, 8), date(2021, 3, 15)):
            week = executor.execute(
                AnalysisQuery(
                    start=week_start,
                    end=week_start + timedelta(days=6),
                    group_by=("country", "element_type"),
                )
            )
            for (country, element), value in week.rows.items():
                expected[(country, week_start, element)] = value
        assert series.rows == expected and expected
