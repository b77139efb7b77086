"""Tests for epoch-versioned result memoization, standalone and wired
through a full system (ingest + live-poll invalidation)."""

from __future__ import annotations

from datetime import date

import pytest

from repro.core.query import AnalysisQuery, QueryResult
from repro.core.resultcache import EpochCounter, ResultCache
from repro.errors import ConfigError
from repro.obs import MetricsRegistry
from repro.storage.disk import InMemoryDisk
from repro.synth.simulator import SimulationConfig
from repro.system import RasedSystem, SystemConfig


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
    return system


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
        memo_system.pipeline.run_daily()  # index.put bumps the epoch
        after = memo_system.dashboard.analysis(query)
        assert not after.stats.memo_hit
        assert after.total > before.total  # day 4's updates are visible

    def test_live_poll_invalidates(self, memo_system):
        query = AnalysisQuery(start=date(2021, 7, 1), end=date(2021, 7, 31))
        memo_system.dashboard.analysis(query)
        assert memo_system.dashboard.analysis(query).stats.memo_hit
        memo_system.publish_partial_day(date(2021, 7, 5), through_hour=6)
        memo_system.poll_live()  # absorbing overlays bumps the epoch
        fresh = memo_system.dashboard.analysis(query)
        assert not fresh.stats.memo_hit

    def test_live_overlay_never_poisons_the_memo(self, memo_system):
        """analysis_live mutates its result rows; the memo must not see it."""
        query = AnalysisQuery(start=date(2021, 7, 1), end=date(2021, 7, 31))
        live_one = memo_system.dashboard.analysis_live(query)
        live_two = memo_system.dashboard.analysis_live(query)
        plain = memo_system.dashboard.analysis(query)
        assert live_one.total == live_two.total  # overlay applied once each
        assert plain.total < live_one.total  # overlay stayed out of the memo
