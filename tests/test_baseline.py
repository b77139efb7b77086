"""Tests for the DBMS baseline, SQL rendering, and the Fig. 9 variants."""

from __future__ import annotations

from datetime import date

import pytest

from repro.baseline.flat import make_rased, make_rased_f, make_rased_o
from repro.baseline.rowstore import BufferPool, RowStoreDatabase
from repro.baseline.sqlgen import to_sql
from repro.types.temporal import Level
from repro.core.query import AnalysisQuery
from repro.errors import ConfigError
from repro.storage.disk import InMemoryDisk
from tests.conftest import INGESTED_END, INGESTED_START


@pytest.fixture(scope="module")
def rowstore(ingested_system):
    """A row-store database over the ingested system's warehouse heap."""
    return RowStoreDatabase(
        ingested_system.store,
        ingested_system.atlas,
        buffer_pages=8,
        network_sizes=ingested_system.network_sizes,
    )


class TestBufferPool:
    def test_hit_avoids_disk_read(self):
        disk = InMemoryDisk(read_latency=0.001)
        disk.write("p", b"data")
        pool = BufferPool(disk, capacity_pages=4)
        pool.read("p")
        reads_after_miss = disk.stats.reads
        pool.read("p")
        assert disk.stats.reads == reads_after_miss  # served from pool
        assert pool.hits == 1
        assert pool.misses == 1

    def test_lru_eviction(self):
        disk = InMemoryDisk(read_latency=0)
        for name in "abc":
            disk.write(name, name.encode())
        pool = BufferPool(disk, capacity_pages=2)
        pool.read("a")
        pool.read("b")
        pool.read("c")  # evicts a
        disk.reset_stats()
        pool.read("a")
        assert disk.stats.reads == 1

    def test_zero_capacity_never_caches(self):
        disk = InMemoryDisk(read_latency=0)
        disk.write("p", b"x")
        pool = BufferPool(disk, capacity_pages=0)
        pool.read("p")
        pool.read("p")
        assert pool.misses == 2

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigError):
            BufferPool(InMemoryDisk(), capacity_pages=-1)

    def test_clear(self):
        disk = InMemoryDisk(read_latency=0)
        disk.write("p", b"x")
        pool = BufferPool(disk, capacity_pages=2)
        pool.read("p")
        pool.clear()
        pool.read("p")
        assert pool.misses == 1


class TestRowStoreEquivalence:
    """The scan-based executor must agree with the cube executor on
    country-level queries (zone overlap aside)."""

    @pytest.mark.parametrize(
        "query_kwargs",
        [
            dict(group_by=("element_type",)),
            dict(group_by=("country", "element_type"), countries=("germany", "france")),
            dict(group_by=("update_type",), element_types=("way",)),
            dict(group_by=("road_type",), countries=("india",)),
            dict(),
        ],
        ids=["by-element", "two-countries", "way-updates", "india-roads", "total"],
    )
    def test_matches_cube_executor(self, ingested_system, rowstore, query_kwargs):
        query = AnalysisQuery(start=INGESTED_START, end=INGESTED_END, **query_kwargs)
        cube_rows = ingested_system.dashboard.analysis(query).rows
        scan_rows = rowstore.execute(query).rows
        if "road_type" in query.group_by:
            # The heap stores raw highway values; fold them like the cube.
            schema = ingested_system.schema
            folded: dict = {}
            position = query.group_by.index("road_type")
            for key, value in scan_rows.items():
                parts = list(key)
                if parts[position] not in schema.road_type:
                    parts[position] = "other"
                folded[tuple(parts)] = folded.get(tuple(parts), 0) + value
            scan_rows = folded
        assert scan_rows == cube_rows

    def test_date_window_filter(self, ingested_system, rowstore):
        query = AnalysisQuery(
            start=date(2021, 1, 10), end=date(2021, 1, 20), group_by=("element_type",)
        )
        assert (
            rowstore.execute(query).rows
            == ingested_system.dashboard.analysis(query).rows
        )

    def test_continent_filter_expands_to_countries(self, ingested_system, rowstore):
        query = AnalysisQuery(
            start=INGESTED_START,
            end=INGESTED_END,
            countries=("oceania",),
        )
        scan = rowstore.execute(query).rows[()]
        cube = ingested_system.dashboard.analysis(
            AnalysisQuery(start=INGESTED_START, end=INGESTED_END, countries=("oceania",))
        ).rows[()]
        assert scan == cube

    def test_state_filter_uses_point_in_state(self, ingested_system, rowstore):
        query = AnalysisQuery(
            start=INGESTED_START,
            end=INGESTED_END,
            countries=("minnesota",),
        )
        scan = rowstore.execute(query).rows.get((), 0)
        cube = ingested_system.dashboard.analysis(query).rows.get((), 0)
        assert scan == cube

    def test_time_series_grouping(self, ingested_system, rowstore):
        query = AnalysisQuery(
            start=date(2021, 1, 1),
            end=date(2021, 1, 31),
            countries=("germany",),
            group_by=("date",),
            date_granularity=Level.WEEK,
        )
        scan = rowstore.execute(query).rows
        cube = ingested_system.dashboard.analysis(query).rows
        # The cube keeps zero periods in pure date series; drop them.
        assert {k: v for k, v in cube.items() if v} == scan

    def test_percentage_metric(self, ingested_system, rowstore):
        query = AnalysisQuery(
            start=INGESTED_START,
            end=INGESTED_END,
            countries=("germany",),
            group_by=("country",),
            metric="percentage",
        )
        assert rowstore.execute(query).rows == pytest.approx(
            ingested_system.dashboard.analysis(query).rows
        )


class TestRowStoreCosts:
    def test_always_scans_every_heap_page(self, ingested_system, rowstore):
        heap_pages = rowstore.heap.page_count
        short = AnalysisQuery(start=date(2021, 2, 27), end=date(2021, 2, 28))
        long = AnalysisQuery(start=INGESTED_START, end=INGESTED_END)
        rowstore.pool.clear()
        stats_short = rowstore.execute(short).stats
        rowstore.pool.clear()
        stats_long = rowstore.execute(long).stats
        assert stats_short.disk_reads == heap_pages
        assert stats_long.disk_reads == heap_pages

    def test_rased_is_orders_faster_on_simulated_time(
        self, ingested_system, rowstore
    ):
        query = AnalysisQuery(start=date(2021, 2, 26), end=date(2021, 2, 28))
        rowstore.pool.clear()
        scan_stats = rowstore.execute(query).stats
        ingested_system.warm_cache()
        cube_stats = ingested_system.dashboard.analysis(query).stats
        assert cube_stats.simulated_seconds < scan_stats.simulated_seconds


class TestSqlGen:
    def test_example_1_country_analysis(self):
        """Paper Example 1: Fig. 2/3's query."""
        query = AnalysisQuery(
            start=date(2021, 1, 1),
            end=date(2021, 12, 31),
            update_types=("create", "geometry"),
            group_by=("country", "element_type"),
        )
        sql = to_sql(query)
        assert "SELECT U.Country, U.ElementType, COUNT(*)" in sql
        assert "U.Date BETWEEN 2021-01-01 AND 2021-12-31" in sql
        assert "U.UpdateType IN [New, Update]" in sql
        assert "GROUP BY U.Country, U.ElementType" in sql

    def test_example_2_road_type_analysis(self):
        query = AnalysisQuery(
            start=date(2018, 1, 1),
            end=date(2021, 12, 31),
            countries=("united_states",),
            update_types=("create", "geometry"),
            group_by=("road_type", "element_type"),
        )
        sql = to_sql(query)
        assert "SELECT U.RoadType, U.ElementType, COUNT(*)" in sql
        assert "U.Country = UnitedStates" in sql

    def test_example_3_percentage_time_series(self):
        query = AnalysisQuery(
            start=date(2020, 1, 1),
            end=date(2021, 12, 31),
            countries=("germany", "singapore", "qatar"),
            group_by=("country", "date"),
            metric="percentage",
        )
        sql = to_sql(query)
        assert "Percentage(*)" in sql
        assert "U.Country IN [Germany, Singapore, Qatar]" in sql
        assert "GROUP BY U.Country, U.Date" in sql

    def test_no_group_by_renders_plain_count(self):
        query = AnalysisQuery(start=date(2021, 1, 1), end=date(2021, 1, 2))
        sql = to_sql(query)
        assert sql.startswith("SELECT COUNT(*)")
        assert "GROUP BY" not in sql


class TestSystemVariants:
    """Fig. 9's ordering: RASED <= RASED-O <= RASED-F on disk reads."""

    def test_variant_disk_read_ordering(self, ingested_system):
        query = AnalysisQuery(
            start=INGESTED_START,
            end=INGESTED_END,
            countries=("germany",),
        )
        flat = make_rased_f(ingested_system.index)
        opt = make_rased_o(ingested_system.index)
        full = make_rased(ingested_system.index, cache_slots=16)
        ingested_system.store.reset_stats()

        flat_stats = flat.execute(query).stats
        opt_stats = opt.execute(query).stats
        full_stats = full.execute(query).stats
        assert full_stats.disk_reads <= opt_stats.disk_reads <= flat_stats.disk_reads
        assert flat_stats.disk_reads == 59  # one per day

    def test_variants_agree_on_answers(self, ingested_system):
        query = AnalysisQuery(
            start=INGESTED_START,
            end=INGESTED_END,
            group_by=("country", "element_type"),
        )
        flat_rows = make_rased_f(ingested_system.index).execute(query).rows
        opt_rows = make_rased_o(ingested_system.index).execute(query).rows
        full_rows = make_rased(ingested_system.index, cache_slots=16).execute(query).rows
        assert flat_rows == opt_rows == full_rows

    def test_full_variant_simulated_time_is_best(self, ingested_system):
        query = AnalysisQuery(start=INGESTED_START, end=INGESTED_END)
        flat = make_rased_f(ingested_system.index).execute(query).stats
        full = make_rased(ingested_system.index, cache_slots=16).execute(query).stats
        assert full.simulated_seconds < flat.simulated_seconds
