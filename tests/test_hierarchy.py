"""Tests for the hierarchical cube index: ingestion, rollups, I/O costs,
the monthly rebuild, and restart recovery."""

from __future__ import annotations

from datetime import date, timedelta

import pytest

from repro.types.temporal import (
    Level,
    day_key,
    month_key,
    week_key,
    year_key,
)
from repro.types.cube import RESOLUTION_COARSE, RESOLUTION_FULL
from repro.core.hierarchy import HierarchicalIndex, page_id_for, parse_page_key
from repro.errors import CubeNotFoundError, IndexError_
from repro.collection.records import UpdateList, UpdateRecord
from repro.storage.disk import InMemoryDisk


def updates_for(day: date, n: int = 3, country: str = "germany") -> UpdateList:
    return UpdateList(
        UpdateRecord(
            element_type="way",
            date=day,
            country=country,
            latitude=50.0,
            longitude=10.0,
            road_type="residential",
            update_type="geometry",
            changeset_id=i + 1,
        )
        for i in range(n)
    )


@pytest.fixture()
def disk():
    return InMemoryDisk(read_latency=0.0, write_latency=0.0)


@pytest.fixture()
def index(tiny_schema, disk):
    return HierarchicalIndex(tiny_schema, disk)


class TestPageIds:
    @pytest.mark.parametrize(
        "key",
        [
            day_key(date(2021, 3, 5)),
            week_key(2021, 3, 2),
            month_key(2021, 3),
            year_key(2021),
        ],
    )
    def test_page_id_roundtrip(self, key):
        assert parse_page_key(page_id_for(key)) == key

    def test_bad_prefix_rejected(self):
        with pytest.raises(IndexError_):
            parse_page_key("other/D2021-03-05")

    def test_garbage_key_rejected(self):
        with pytest.raises(IndexError_):
            parse_page_key("cubes/X2021")


class TestBasicAccess:
    def test_put_get_roundtrip(self, index):
        cube = index.build_day_cube(date(2021, 3, 5), updates_for(date(2021, 3, 5)))
        index.put(cube)
        assert index.get(cube.key) == cube

    def test_get_missing_raises(self, index):
        with pytest.raises(CubeNotFoundError):
            index.get(day_key(date(2021, 1, 1)))

    def test_has(self, index):
        key = day_key(date(2021, 3, 5))
        assert not index.has(key)
        index.put(index.build_day_cube(key.start, updates_for(key.start)))
        assert index.has(key)

    def test_put_unmaintained_level_rejected(self, tiny_schema, disk):
        flat = HierarchicalIndex(tiny_schema, disk, levels=(Level.DAY,))
        from repro.types.cube import SparseCube

        weekly = SparseCube(schema=tiny_schema, key=week_key(2021, 3, 0))
        with pytest.raises(IndexError_):
            flat.put(weekly)

    def test_index_requires_day_level(self, tiny_schema, disk):
        with pytest.raises(IndexError_):
            HierarchicalIndex(tiny_schema, disk, levels=(Level.WEEK,))

    def test_coverage(self, index):
        assert index.coverage() is None
        index.ingest_day(date(2021, 3, 2), updates_for(date(2021, 3, 2)))
        index.ingest_day(date(2021, 3, 5), updates_for(date(2021, 3, 5)))
        assert index.coverage() == (date(2021, 3, 2), date(2021, 3, 5))


class TestDailyIngestion:
    def test_daily_cube_is_coarse(self, index):
        written = index.ingest_day(date(2021, 3, 3), updates_for(date(2021, 3, 3)))
        assert written == [day_key(date(2021, 3, 3))]
        assert index.get(written[0]).resolution == RESOLUTION_COARSE

    def test_midweek_day_writes_only_daily(self, index):
        written = index.ingest_day(date(2021, 3, 3), updates_for(date(2021, 3, 3)))
        assert len(written) == 1

    def test_week_end_builds_weekly_rollup(self, index):
        for offset in range(7):
            day = date(2021, 3, 1) + timedelta(days=offset)
            written = index.ingest_day(day, updates_for(day, n=2))
        assert written[-1] == week_key(2021, 3, 0)
        weekly = index.get(week_key(2021, 3, 0))
        assert weekly.total == 7 * 2

    def test_month_end_builds_month_rollup(self, index):
        day = date(2021, 2, 1)
        while day <= date(2021, 2, 28):
            written = index.ingest_day(day, updates_for(day, n=1))
            day += timedelta(days=1)
        assert month_key(2021, 2) in written
        assert index.get(month_key(2021, 2)).total == 28

    def test_year_end_builds_year_rollup(self, index):
        # Ingest only December then the year boundary: missing months
        # contribute zero rather than failing.
        day = date(2021, 12, 1)
        while day <= date(2021, 12, 31):
            written = index.ingest_day(day, updates_for(day, n=1))
            day += timedelta(days=1)
        assert year_key(2021) in written
        assert index.get(year_key(2021)).total == 31

    def test_rollup_sums_equal_children(self, index):
        day = date(2021, 2, 1)
        while day <= date(2021, 2, 28):
            index.ingest_day(day, updates_for(day, n=day.day % 3 + 1))
            day += timedelta(days=1)
        month_total = index.get(month_key(2021, 2)).total
        weekly_total = sum(
            index.get(week_key(2021, 2, i)).total for i in range(4)
        )
        daily_total = sum(
            index.get(day_key(date(2021, 2, d))).total for d in range(1, 29)
        )
        assert month_total == weekly_total == daily_total


class TestMaintenanceIO:
    """The paper's Section VI-A I/O accounting.

    "Normally, we would need only one I/O for daily cubes.  If it is
    the end of the week/month/year, we would need up to 8, 6, and 13
    I/Os, respectively."
    """

    def test_plain_day_costs_one_io(self, index, disk):
        index.ingest_day(date(2021, 3, 1), updates_for(date(2021, 3, 1)))
        disk.reset_stats()
        index.ingest_day(date(2021, 3, 2), updates_for(date(2021, 3, 2)))
        assert disk.stats.total_ios == 1
        assert disk.stats.writes == 1

    def test_week_end_costs_eight_ios(self, index, disk):
        for offset in range(6):
            day = date(2021, 3, 1) + timedelta(days=offset)
            index.ingest_day(day, updates_for(day))
        disk.reset_stats()
        index.ingest_day(date(2021, 3, 7), updates_for(date(2021, 3, 7)))
        # 1 daily write + 6 sibling reads + 1 weekly write = 8 I/Os.
        assert disk.stats.total_ios == 8
        assert disk.stats.reads == 6

    def test_month_end_io_bounded(self, index, disk):
        day = date(2021, 2, 1)
        while day < date(2021, 2, 28):
            index.ingest_day(day, updates_for(day))
            day += timedelta(days=1)
        disk.reset_stats()
        index.ingest_day(date(2021, 2, 28), updates_for(date(2021, 2, 28)))
        # Week-end (8) plus monthly: read 3 other weeks + write month.
        assert disk.stats.reads == 6 + 3
        assert disk.stats.writes == 3

    def test_year_end_io_bounded(self, index, disk):
        day = date(2021, 12, 1)
        while day < date(2021, 12, 31):
            index.ingest_day(day, updates_for(day))
            day += timedelta(days=1)
        disk.reset_stats()
        index.ingest_day(date(2021, 12, 31), updates_for(date(2021, 12, 31)))
        # Daily write + month rollup (4 week reads + 2 leftover-day
        # reads + write) + year rollup (11 month reads + write).
        assert disk.stats.writes == 3  # daily + monthly + yearly
        assert disk.stats.reads <= 17


class TestMonthlyRebuild:
    def _filled_month(self, index):
        day = date(2021, 2, 1)
        while day <= date(2021, 2, 28):
            index.ingest_day(day, updates_for(day, n=1))
            day += timedelta(days=1)

    def test_rebuild_upgrades_resolution(self, index):
        self._filled_month(index)
        assert index.get(month_key(2021, 2)).resolution == RESOLUTION_COARSE
        by_day = {
            date(2021, 2, d): updates_for(date(2021, 2, d), n=1)
            for d in range(1, 29)
        }
        index.rebuild_month(month_key(2021, 2), by_day)
        assert index.get(month_key(2021, 2)).resolution == RESOLUTION_FULL
        assert index.get(day_key(date(2021, 2, 10))).resolution == RESOLUTION_FULL

    def test_rebuild_replaces_counts(self, index):
        self._filled_month(index)
        by_day = {
            date(2021, 2, d): updates_for(date(2021, 2, d), n=2)
            for d in range(1, 29)
        }
        index.rebuild_month(month_key(2021, 2), by_day)
        assert index.get(month_key(2021, 2)).total == 56

    def test_rebuild_fills_missing_days_with_empty_cubes(self, index):
        self._filled_month(index)
        index.rebuild_month(month_key(2021, 2), {})
        assert index.get(month_key(2021, 2)).total == 0
        assert index.get(day_key(date(2021, 2, 15))).total == 0

    def test_rebuild_updates_year_cube_when_present(self, index):
        day = date(2021, 12, 1)
        while day <= date(2021, 12, 31):
            index.ingest_day(day, updates_for(day, n=1))
            day += timedelta(days=1)
        assert index.get(year_key(2021)).total == 31
        by_day = {
            date(2021, 12, d): updates_for(date(2021, 12, d), n=3)
            for d in range(1, 32)
        }
        index.rebuild_month(month_key(2021, 12), by_day)
        assert index.get(year_key(2021)).total == 93

    def test_rebuild_requires_month_key(self, index):
        with pytest.raises(IndexError_):
            index.rebuild_month(week_key(2021, 2, 0), {})


class TestTruncatedHierarchies:
    def test_flat_index_never_builds_rollups(self, tiny_schema, disk):
        flat = HierarchicalIndex(tiny_schema, disk, levels=(Level.DAY,))
        for offset in range(7):
            day = date(2021, 3, 1) + timedelta(days=offset)
            flat.ingest_day(day, updates_for(day))
        assert flat.pages_per_level() == {Level.DAY: 7}

    def test_two_level_index_builds_weeks_only(self, tiny_schema, disk):
        two = HierarchicalIndex(
            tiny_schema, disk, levels=(Level.DAY, Level.WEEK)
        )
        day = date(2021, 2, 1)
        while day <= date(2021, 2, 28):
            two.ingest_day(day, updates_for(day))
            day += timedelta(days=1)
        pages = two.pages_per_level()
        assert pages[Level.DAY] == 28
        assert pages[Level.WEEK] == 4
        assert Level.MONTH not in pages


class TestPersistence:
    def test_catalog_survives_restart(self, tiny_schema, disk):
        index = HierarchicalIndex(tiny_schema, disk)
        for offset in range(7):
            day = date(2021, 3, 1) + timedelta(days=offset)
            index.ingest_day(day, updates_for(day))
        reopened = HierarchicalIndex(tiny_schema, disk)
        assert reopened.has(week_key(2021, 3, 0))
        assert reopened.get(day_key(date(2021, 3, 4))).total == 3
        assert reopened.coverage() == (date(2021, 3, 1), date(2021, 3, 7))

    def test_storage_accounting(self, tiny_schema, disk):
        from repro.storage.serializer import cube_page_size

        index = HierarchicalIndex(tiny_schema, disk)
        index.ingest_day(date(2021, 3, 1), updates_for(date(2021, 3, 1)))
        assert index.total_pages() == 1
        # One sparse v3 page, far below the raw page's fixed size.
        assert disk.stats.bytes_written == disk.stored_bytes
        assert disk.stored_bytes < cube_page_size(tiny_schema) / 4

    def test_bulk_load_equivalent_to_daily_ingest(self, tiny_schema):
        disk_a = InMemoryDisk(read_latency=0, write_latency=0)
        disk_b = InMemoryDisk(read_latency=0, write_latency=0)
        a = HierarchicalIndex(tiny_schema, disk_a)
        b = HierarchicalIndex(tiny_schema, disk_b)
        by_day = {}
        day = date(2021, 2, 1)
        while day <= date(2021, 2, 28):
            by_day[day] = updates_for(day, n=day.day % 2 + 1)
            a.ingest_day(day, by_day[day])
            day += timedelta(days=1)
        b.bulk_load(by_day, resolution=RESOLUTION_COARSE)
        assert a.get(month_key(2021, 2)).total == b.get(month_key(2021, 2)).total
        assert a.pages_per_level() == b.pages_per_level()
