"""Tests for windowed, epoch-versioned result memoization: standalone,
and wired through a full system (ingest, live polls, WAL rollback)."""

from __future__ import annotations

from datetime import date, timedelta

import pytest

from repro.core.executor import QueryExecutor
from repro.core.hierarchy import page_id_for
from repro.core.query import AnalysisQuery, QueryResult
from repro.core.resultcache import _WINDOW_LOG, EpochCounter, ResultCache
from repro.errors import ConfigError
from repro.obs import MetricsRegistry, Tracer
from repro.storage.disk import InMemoryDisk
from repro.synth.simulator import SimulationConfig
from repro.system import RasedSystem, SystemConfig
from tests.support import CrashPoint
from repro.types.temporal import Level, day_key, month_key
from tests.test_tracing import _ListSink


def _query(day: int = 1) -> AnalysisQuery:
    return AnalysisQuery(
        start=date(2021, 7, 1), end=date(2021, 7, day), group_by=("country",)
    )


class TestResultCacheUnit:
    def test_hit_returns_a_private_copy(self):
        epoch = EpochCounter()
        cache = ResultCache(4, epoch, metrics=MetricsRegistry())
        rows = {("germany",): 3}
        cache.put(_query(), rows, epoch.value)
        rows[("germany",)] = 99  # caller keeps mutating its dict
        entry = cache.get(_query())
        assert entry.rows == {("germany",): 3}
        first = QueryResult(_query(), memo=entry)  # what a hit hands its caller
        first.rows[("germany",)] = -1  # one client's overlay...
        assert cache.get(_query()).rows == {("germany",): 3}  # ...leaks nowhere
        # ...and rows handed out for editing no longer vouch for the
        # entry's encoded bytes.
        assert first.memo is None

    def test_epoch_bump_invalidates(self):
        epoch = EpochCounter()
        registry = MetricsRegistry()
        cache = ResultCache(4, epoch, metrics=registry)
        cache.put(_query(), {("a",): 1}, epoch.value)
        assert cache.get(_query()) is not None
        epoch.bump()
        assert cache.get(_query()) is None
        assert cache.cached_count == 0  # stale entry was dropped
        assert registry.value("rased_resultcache_invalidations_total") == 1

    def test_put_from_a_stale_epoch_is_discarded(self):
        epoch = EpochCounter()
        cache = ResultCache(4, epoch, metrics=MetricsRegistry())
        planned_at = epoch.value
        epoch.bump()  # maintenance write lands mid-execution
        cache.put(_query(), {("a",): 1}, planned_at)
        assert cache.cached_count == 0

    def test_a_disjoint_write_keeps_the_entry(self):
        epoch = EpochCounter()
        registry = MetricsRegistry()
        cache = ResultCache(4, epoch, metrics=registry)
        stored = cache.put(_query(5), {("a",): 1}, epoch.value)
        epoch.bump(date(2021, 6, 1), date(2021, 6, 30))  # the month before
        epoch.bump(date(2021, 7, 6), date(2021, 7, 12))  # the days after
        assert cache.get(_query(5)) is stored
        assert stored.epoch == epoch.value == 2  # re-stamped...
        assert cache.get(_query(5)) is stored  # ...so the next is a plain hit
        assert registry.value("rased_resultcache_kept_total") == 1
        assert registry.value("rased_resultcache_hits_total") == 2
        assert registry.value("rased_resultcache_invalidations_total") == 0

    @pytest.mark.parametrize(
        "window",
        [
            (date(2021, 6, 20), date(2021, 7, 1)),  # touches the first day
            (date(2021, 7, 5), date(2021, 7, 11)),  # touches the last day
            (date(2021, 7, 2), date(2021, 7, 2)),  # inside
            (date(2021, 1, 1), date(2021, 12, 31)),  # around
        ],
    )
    def test_an_overlapping_write_drops_the_entry(self, window):
        epoch = EpochCounter()
        registry = MetricsRegistry()
        cache = ResultCache(4, epoch, metrics=registry)
        cache.put(_query(5), {("a",): 1}, epoch.value)
        epoch.bump(date(2022, 1, 1), date(2022, 1, 1))
        epoch.bump(*window)
        epoch.bump(date(2020, 1, 1), date(2020, 1, 1))
        assert cache.get(_query(5)) is None
        assert cache.cached_count == 0
        assert registry.value("rased_resultcache_invalidations_total") == 1
        assert registry.value("rased_resultcache_kept_total") == 0

    def test_put_straddling_only_disjoint_writes_stores(self):
        epoch = EpochCounter()
        cache = ResultCache(4, epoch, metrics=MetricsRegistry())
        planned_at = epoch.value
        epoch.bump(date(2022, 1, 1), date(2022, 12, 31))
        stored = cache.put(_query(5), {("a",): 1}, planned_at)
        assert stored is not None and stored.epoch == epoch.value
        planned_at = epoch.value
        epoch.bump(date(2021, 7, 5), date(2021, 7, 5))
        assert cache.put(_query(5), {("a",): 2}, planned_at) is None
        assert cache.get(_query(5)) is None  # and the older answer is gone too

    def test_an_entry_older_than_the_log_is_stale(self):
        epoch = EpochCounter()
        cache = ResultCache(4, epoch, metrics=MetricsRegistry())
        kept = cache.put(_query(1), {("a",): 1}, epoch.value)
        aged = cache.put(_query(2), {("b",): 2}, epoch.value)
        far = (date(2030, 1, 1), date(2030, 1, 1))
        for _ in range(_WINDOW_LOG):
            epoch.bump(*far)
        assert cache.get(_query(1)) is kept  # the log still reaches back
        epoch.bump(*far)
        assert cache.get(_query(1)) is kept  # checked since its re-stamp
        assert aged.epoch == 0
        assert cache.get(_query(2)) is None  # fell off: cannot be checked

    def test_the_get_span_names_the_outcome(self):
        epoch = EpochCounter()
        cache = ResultCache(4, epoch, metrics=MetricsRegistry())
        sink = _ListSink()
        with Tracer(recorder=sink).trace("root"):
            cache.get(_query())
            cache.put(_query(), {("a",): 1}, epoch.value)
            cache.get(_query())
            epoch.bump(date(2022, 1, 1), date(2022, 1, 1))
            cache.get(_query())
            epoch.bump()
            cache.get(_query())
        [trace] = sink.traces
        outcomes = [
            s.attributes["outcome"]
            for s in trace.spans
            if s.name == "core.resultcache.get"
        ]
        assert outcomes == ["miss", "hit", "kept", "stale"]

    def test_lru_eviction_beyond_slots(self):
        epoch = EpochCounter()
        registry = MetricsRegistry()
        cache = ResultCache(2, epoch, metrics=registry)
        cache.put(_query(1), {("a",): 1}, epoch.value)
        cache.put(_query(2), {("b",): 2}, epoch.value)
        assert cache.get(_query(1)) is not None  # 1 is now most-recent
        cache.put(_query(3), {("c",): 3}, epoch.value)
        assert cache.get(_query(2)) is None  # 2 was the LRU victim
        assert cache.get(_query(1)) is not None
        assert cache.get(_query(3)) is not None
        assert registry.value("rased_resultcache_evictions_total") == 1

    def test_rejects_zero_slots(self):
        with pytest.raises(ConfigError):
            ResultCache(0, EpochCounter())


@pytest.fixture(scope="module")
def memo_system(atlas):
    """A small deployment with memoization ON (3 ingested July days)."""
    system = RasedSystem.create(
        atlas=atlas,
        store=InMemoryDisk(read_latency=0.0005, write_latency=0.0005),
        config=SystemConfig(
            road_types=8,
            cache_slots=8,
            result_cache_slots=32,
            simulation=SimulationConfig(
                seed=23, mapper_count=20, base_sessions_per_day=6, nodes_per_country=8
            ),
        ),
    )
    for day in (1, 2, 3):
        system.publish_day(date(2021, 7, day), hourly=True)
    system.pipeline.run_daily()
    yield system
    system.close()


class TestSystemMemoization:
    def test_repeat_query_is_served_from_the_memo(self, memo_system):
        query = _query(3)
        first = memo_system.dashboard.analysis(query)
        second = memo_system.dashboard.analysis(query)
        assert second.rows == first.rows
        assert second.stats.memo_hit
        assert second.stats.cube_count == 0  # no plan, no fetch
        assert not first.stats.memo_hit
        assert memo_system.metrics.value("rased_resultcache_hits_total") >= 1

    def test_ingesting_a_new_day_invalidates(self, memo_system):
        query = AnalysisQuery(start=date(2021, 7, 1), end=date(2021, 7, 31))
        before = memo_system.dashboard.analysis(query)
        assert memo_system.dashboard.analysis(query).stats.memo_hit
        memo_system.publish_day(date(2021, 7, 4))
        memo_system.pipeline.run_daily()  # index.put bumps July's windows
        after = memo_system.dashboard.analysis(query)
        assert not after.stats.memo_hit
        assert after.total > before.total  # day 4's updates are visible

    def test_live_poll_keeps_the_memo(self, memo_system):
        """Overlays never enter the memo, so a poll invalidates nothing:
        the memoized cube answer stays a hit and the overlay on top of
        it shows the hours just polled."""
        query = AnalysisQuery(start=date(2021, 7, 1), end=date(2021, 7, 31))
        before = memo_system.dashboard.analysis_live(query)
        assert memo_system.dashboard.analysis_live(query).stats.memo_hit
        memo_system.publisher.publish_partial_day(date(2021, 7, 5), through_hour=6)
        assert memo_system.poll_live() > 0
        live = memo_system.dashboard.analysis_live(query)
        assert live.stats.memo_hit
        assert live.total > before.total  # the polled hours are in it
        expected = QueryExecutor(memo_system.index).execute(query)
        assert memo_system.live_monitor.overlay(query, expected) == 1
        assert live.rows == expected.rows

    def test_live_overlay_never_poisons_the_memo(self, memo_system):
        """analysis_live mutates its result rows; the memo must not see it."""
        query = AnalysisQuery(start=date(2021, 7, 1), end=date(2021, 7, 31))
        live_one = memo_system.dashboard.analysis_live(query)
        live_two = memo_system.dashboard.analysis_live(query)
        plain = memo_system.dashboard.analysis(query)
        assert live_one.total == live_two.total  # overlay applied once each
        assert plain.total < live_one.total  # overlay stayed out of the memo


# -- windowed validity, differentially ----------------------------------------

HISTORY = (date(2021, 12, 24), date(2021, 12, 27))
#: Durable batches: the second crosses both a month end and a year end.
BATCHES = [
    (date(2021, 12, 28), date(2021, 12, 30)),
    (date(2021, 12, 31), date(2022, 1, 2)),
    (date(2022, 1, 3), date(2022, 1, 4)),
]
#: Before, straddling, inside and after the batches' days.
WINDOWS = [
    (date(2021, 12, 1), date(2021, 12, 25)),
    (date(2021, 12, 26), date(2021, 12, 29)),
    (date(2021, 12, 28), date(2021, 12, 30)),
    (date(2021, 12, 30), date(2022, 1, 3)),
    (date(2022, 1, 1), date(2022, 1, 2)),
    (date(2021, 12, 1), date(2022, 1, 31)),
    (date(2022, 1, 10), date(2022, 2, 28)),
]


def _differential_queries() -> list[AnalysisQuery]:
    """Per window: a count and a percentage table, and a date series at
    every granularity."""
    queries = []
    for start, end in WINDOWS:
        queries.append(AnalysisQuery(start=start, end=end, group_by=("country",)))
        queries.append(
            AnalysisQuery(
                start=start,
                end=end,
                countries=("germany", "qatar", "united_states"),
                group_by=("country",),
                metric="percentage",
            )
        )
        queries.extend(
            AnalysisQuery(
                start=start,
                end=end,
                group_by=("date", "element_type"),
                date_granularity=granularity,
            )
            for granularity in Level
        )
    return queries


def _publish(system: RasedSystem, first: date, last: date) -> None:
    day = first
    while day <= last:
        system.publish_day(day)
        day += timedelta(days=1)


def _windowed_system(atlas, shards: int = 1) -> RasedSystem:
    """Four December days ingested durably, memo on, cube cache warm."""
    system = RasedSystem.create(
        atlas=atlas,
        store=InMemoryDisk(read_latency=0.0, write_latency=0.0),
        config=SystemConfig(
            road_types=8,
            cache_slots=16,
            shards=shards,
            durable_ingest=True,
            result_cache_slots=256,
            simulation=SimulationConfig(
                seed=29, mapper_count=6, base_sessions_per_day=3, nodes_per_country=2
            ),
        ),
    )
    _publish(system, *HISTORY)
    system.pipeline.run_daily()
    system.warm_cache()  # month and year cubes resident: ingest refreshes them
    return system


def _overlaps(query: AnalysisQuery, keys) -> bool:
    return any(k.start <= query.end and k.end >= query.start for k in keys)


class TestWindowedValidity:
    @pytest.mark.parametrize("shards", [1, 4])
    def test_every_memoized_answer_equals_a_memo_off_execution(self, atlas, shards):
        system = _windowed_system(atlas, shards)
        reference = QueryExecutor(system.index, network_sizes=system.network_sizes)
        queries = _differential_queries()
        kept = 0
        try:
            for first, last in BATCHES:
                for query in queries:  # memoize every answer
                    system.dashboard.analysis(query)
                _publish(system, first, last)
                report = system.pipeline.run_daily()
                assert report.days_processed == (last - first).days + 1
                for query in queries:
                    memo = system.dashboard.analysis(query)
                    reference_result = reference.execute(query)
                    assert memo.rows == reference_result.rows, query
                    assert memo.sizes_as_of == reference_result.sizes_as_of, query
                    # Exactly the answers no written cube overlaps survive,
                    # and of the percentages those ending before every
                    # size record the batch wrote.
                    survived = not _overlaps(query, report.cubes_written) and not (
                        query.metric == "percentage"
                        and any(day <= query.end for day in report.sizes_recorded)
                    )
                    assert memo.stats.memo_hit == survived, query
                    kept += survived
        finally:
            if system.iosched is not None:
                system.iosched.shutdown()
        # At least 2021's first two windows survive the 2022 batch.
        assert kept >= 2 * (2 + len(Level))
        assert system.metrics.value("rased_resultcache_kept_total") == kept

    @staticmethod
    def _straddle(system: RasedSystem, query: AnalysisQuery, day: date) -> QueryResult:
        """Execute ``query`` with ``day``'s ingest landing after its
        epoch sample and before its plan."""
        system.publish_day(day)
        optimizer = system.executor.optimizer

        def ingest_then_plan(*args, **kwargs):
            del optimizer.plan  # once
            system.pipeline.run_daily()
            return optimizer.plan(*args, **kwargs)

        optimizer.plan = ingest_then_plan
        return system.dashboard.analysis(query)

    def test_an_execution_straddling_an_overlapping_write_stores_nothing(self, atlas):
        system = _windowed_system(atlas)
        query = AnalysisQuery(start=HISTORY[0], end=date(2021, 12, 31))
        result = self._straddle(system, query, date(2021, 12, 28))
        assert result.memo is None and not result.stats.memo_hit
        assert system.result_cache.cached_count == 0
        assert not system.dashboard.analysis(query).stats.memo_hit

    def test_an_execution_straddling_a_disjoint_write_stores(self, atlas):
        system = _windowed_system(atlas)
        query = AnalysisQuery(start=HISTORY[0], end=date(2021, 12, 31))
        _publish(system, date(2021, 12, 28), date(2021, 12, 31))
        system.pipeline.run_daily()
        result = self._straddle(system, query, date(2022, 1, 1))
        assert result.memo is not None
        hit = system.dashboard.analysis(query)
        assert hit.stats.memo_hit and hit.memo is result.memo
        assert hit.rows == QueryExecutor(system.index).execute(query).rows

    def test_a_query_racing_a_cached_cube_refresh_is_not_kept(self, atlas, tmp_path):
        """Between a cube's rewrite (and its bump) and the cube cache's
        refresh of it, a query reads the replaced cube from the cache;
        the refresh bumps the key's window again, so that answer does
        not outlive the refresh."""
        system = _windowed_system(atlas)
        query = AnalysisQuery(
            start=HISTORY[0], end=HISTORY[1], group_by=("update_type",)
        )
        cache = system.cache
        assert HISTORY[0] in {key.start for key in cache.contents()}

        def query_then_refresh(key):
            del cache.refresh_key  # once, before the first refresh
            assert not system.dashboard.analysis(query).stats.memo_hit
            return cache.refresh_key(key)

        cache.refresh_key = query_then_refresh
        history = tmp_path / "history.osm"
        system.publisher.write_history_dump(history)
        system.pipeline.run_monthly(history, [month_key(2021, 12)])
        served = system.dashboard.analysis(query)
        assert not served.stats.memo_hit  # the racing answer was dropped
        assert served.rows == QueryExecutor(system.index).execute(query).rows

    def test_a_quarantine_invalidates_only_its_window(self, atlas):
        system = _windowed_system(atlas)
        system.cache.clear()  # every read goes to the store
        victim = date(2021, 12, 25)
        around = AnalysisQuery(start=HISTORY[0], end=HISTORY[1])
        after = AnalysisQuery(start=victim + timedelta(days=1), end=HISTORY[1])
        for query in (around, after):
            system.dashboard.analysis(query)
        system.index.store.delete(page_id_for(day_key(victim)))
        assert system.dashboard.analysis(AnalysisQuery(start=victim, end=victim)).stats.partial
        degraded = system.dashboard.analysis(around)
        assert not degraded.stats.memo_hit and degraded.stats.partial
        assert system.dashboard.analysis(after).stats.memo_hit

    def test_a_wal_rollback_invalidates_every_entry(self, atlas):
        system = _windowed_system(atlas)
        queries = [q for q in _differential_queries() if q.end < date(2022, 1, 1)]
        for query in queries:
            system.dashboard.analysis(query)
        assert system.result_cache.cached_count == len(queries)
        store = system.store
        real_write = store.write

        def dying(page_id, data):
            if page_id.startswith("warehouse/"):
                raise CrashPoint("warehouse.append", page_id)
            real_write(page_id, data)

        store.write = dying
        system.publish_day(date(2022, 1, 5))  # disjoint from every query
        with pytest.raises(CrashPoint):
            system.pipeline.run_daily()
        del store.write
        report = system.pipeline.recover()
        assert report is not None and report.rolled_back
        invalidated = system.metrics.value("rased_resultcache_invalidations_total")
        for query in queries:
            assert not system.dashboard.analysis(query).stats.memo_hit
        assert (
            system.metrics.value("rased_resultcache_invalidations_total")
            - invalidated
            == len(queries)
        )
