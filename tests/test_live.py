"""Tests for the live (hourly) monitoring overlay."""

from __future__ import annotations

import threading
from datetime import date, datetime, timezone

import pytest

from repro.types.temporal import Level
from repro.types.dimensions import default_schema
from repro.core.executor import QueryExecutor
from repro.core.hierarchy import HierarchicalIndex
from repro.core.query import AnalysisQuery, QueryResult
from repro.collection.geocode import Geocoder
from repro.core.live import LiveMonitor
from repro.synth.publisher import split_change_by_hour
from repro.osm.changesets import ChangesetStore
from repro.osm.replication import ReplicationFeed
from repro.storage.disk import InMemoryDisk
from repro.synth.simulator import EditSimulator, SimulationConfig
from tests.support.synth import simulate_range


@pytest.fixture(scope="module")
def live_setup(atlas, tmp_path_factory):
    """Two full days ingested daily + a third day available only hourly."""
    root = tmp_path_factory.mktemp("live")
    schema = default_schema(atlas.zone_names(), road_types=8)
    sim = EditSimulator(
        atlas=atlas,
        config=SimulationConfig(
            seed=31, mapper_count=20, base_sessions_per_day=6, nodes_per_country=8
        ),
    )
    day_feed = ReplicationFeed(root / "replication", "day")
    hour_feed = ReplicationFeed(root / "replication", "hour")
    changesets = ChangesetStore(root / "changesets")
    disk = InMemoryDisk(read_latency=0, write_latency=0)
    index = HierarchicalIndex(schema, disk, atlas=atlas)

    truth = {}
    for output in simulate_range(sim, date(2021, 5, 1), date(2021, 5, 3)):
        for changeset in output.changesets:
            changesets.add(changeset)
        changesets.flush()
        truth[output.day] = output.truth
        stamp = datetime.combine(output.day, datetime.min.time(), tzinfo=timezone.utc)
        # Hourly feed gets every day; the daily feed lags one day:
        # May 3 exists only as hourly diffs ("today").
        for _, hourly_change in split_change_by_hour(output.change):
            hour_feed.publish(hourly_change, stamp)
        if output.day < date(2021, 5, 3):
            day_feed.publish(output.change, stamp)

    # Ingest the daily feed (May 1-2) into the index.
    from repro.collection.daily import DailyCrawler

    crawler = DailyCrawler(day_feed, changesets, Geocoder(atlas))
    for result in crawler.crawl_new():
        index.ingest_day(result.day, result.updates)

    monitor = LiveMonitor(
        hour_feed, changesets, Geocoder(atlas), schema, atlas=atlas
    )
    monitor.poll()
    # Days already ingested by the daily pipeline are dropped from the
    # overlay; only "today" (May 3) remains live.
    for ingested in (date(2021, 5, 1), date(2021, 5, 2)):
        monitor.discard_day(ingested)
    executor = QueryExecutor(index)
    return index, executor, monitor, truth


class TestSplitByHour:
    def test_split_covers_all_updates(self, atlas):
        sim = EditSimulator(
            atlas=atlas,
            config=SimulationConfig(
                seed=8, mapper_count=10, base_sessions_per_day=5, nodes_per_country=6
            ),
        )
        output = sim.simulate_day(date(2021, 6, 1))
        pieces = split_change_by_hour(output.change)
        assert sum(len(change) for _, change in pieces) == len(output.change)
        hours = [hour for hour, _ in pieces]
        assert hours == sorted(hours)
        for hour, change in pieces:
            for _, element in change.actions():
                assert element.timestamp.hour == hour


class TestLiveMonitor:
    def test_poll_consumes_all_hours(self, live_setup):
        _, _, monitor, _ = live_setup
        assert monitor.hours_processed > 0
        assert monitor.poll() == 0  # idempotent until new data arrives

    def test_partial_day_is_today_only(self, live_setup):
        _, _, monitor, _ = live_setup
        assert monitor.partial_days() == [date(2021, 5, 3)]

    def test_partial_cube_counts_match_truth(self, live_setup):
        _, _, monitor, truth = live_setup
        today = date(2021, 5, 3)
        query = AnalysisQuery(start=today, end=today)
        overlaid = QueryResult(query=query)
        assert monitor.overlay(query, overlaid) == 1
        # Zone expansion counts each update 2-3 times in the cube; the
        # overlay keeps the country-kind zones, which count it once.
        assert overlaid.total == len(truth[today])

    def test_overlay_extends_window_to_today(self, live_setup):
        index, executor, monitor, truth = live_setup
        query = AnalysisQuery(
            start=date(2021, 5, 1),
            end=date(2021, 5, 3),
            group_by=("element_type",),
        )
        stale = executor.execute(query)
        stale_total = stale.total
        live = executor.execute(query)
        applied = monitor.overlay(query, live)
        assert applied == 1
        expected_today = len(truth[date(2021, 5, 3)])
        assert live.total == stale_total + expected_today

    def test_overlay_matches_daily_ingestion_exactly(self, live_setup, atlas):
        """The hourly overlay for a day equals what daily ingestion of
        the same day would produce — same after-images, same counts."""
        index, executor, monitor, truth = live_setup
        query = AnalysisQuery(
            start=date(2021, 5, 3),
            end=date(2021, 5, 3),
            group_by=("country", "element_type", "update_type"),
        )
        live = executor.execute(query)
        monitor.overlay(query, live)

        # Reference: ingest May 3's truth into a scratch index, with
        # update types coarsened exactly as the (hourly or daily)
        # crawler reports them: metadata folds into geometry.
        import dataclasses

        from repro.collection.records import UpdateList

        coarsened = UpdateList(
            dataclasses.replace(record, update_type="geometry")
            if record.update_type == "metadata"
            else record
            for record in truth[date(2021, 5, 3)]
        )
        scratch_disk = InMemoryDisk(read_latency=0, write_latency=0)
        scratch = HierarchicalIndex(index.schema, scratch_disk, atlas=atlas)
        scratch.ingest_day(date(2021, 5, 3), coarsened)
        reference = QueryExecutor(scratch).execute(query)
        assert live.rows == reference.rows

    def test_overlay_respects_filters(self, live_setup):
        _, executor, monitor, truth = live_setup
        query = AnalysisQuery(
            start=date(2021, 5, 3),
            end=date(2021, 5, 3),
            element_types=("way",),
        )
        result = executor.execute(query)
        monitor.overlay(query, result)
        way_truth = sum(
            1 for r in truth[date(2021, 5, 3)] if r.element_type == "way"
        )
        assert result.total == way_truth

    def test_overlay_outside_window_is_noop(self, live_setup):
        _, executor, monitor, _ = live_setup
        query = AnalysisQuery(start=date(2021, 5, 1), end=date(2021, 5, 2))
        result = executor.execute(query)
        before = dict(result.rows)
        assert monitor.overlay(query, result) == 0
        assert result.rows == before

    def test_overlay_skips_percentage_queries(self, live_setup):
        _, executor, monitor, _ = live_setup
        query = AnalysisQuery(
            start=date(2021, 5, 3),
            end=date(2021, 5, 3),
            metric="percentage",
            countries=("germany",),
        )
        result_rows = {(): 1.0}

        class _Fake:
            rows = result_rows

        assert monitor.overlay(query, _Fake()) == 0

    def test_overlay_date_series(self, live_setup):
        _, executor, monitor, truth = live_setup
        query = AnalysisQuery(
            start=date(2021, 5, 1),
            end=date(2021, 5, 3),
            group_by=("date",),
            date_granularity=Level.DAY,
        )
        result = executor.execute(query)
        monitor.overlay(query, result)
        assert result.rows[(date(2021, 5, 3),)] == len(truth[date(2021, 5, 3)])

    def test_discard_day(self, live_setup):
        _, _, monitor, _ = live_setup
        # Non-destructive check on a copy-like day that doesn't exist.
        assert monitor.discard_day(date(2020, 1, 1)) is False

    def test_readers_never_wait_behind_a_poll(self, live_setup):
        # A poll holds _poll_lock across its feed reads; readers take only _lock.
        _, executor, monitor, _ = live_setup
        query = AnalysisQuery(start=date(2021, 5, 1), end=date(2021, 5, 3))
        result = executor.execute(query)
        readers = (monitor.partial_days, lambda: monitor.overlay(query, result),
                   lambda: monitor.discard_day(date(2020, 1, 1)))
        with monitor._poll_lock:
            for reader in readers:
                worker = threading.Thread(target=reader, daemon=True)
                worker.start()
                worker.join(timeout=5)
                assert not worker.is_alive()
