"""Tests for the warehouse heap and its hash/spatial indexes."""

from __future__ import annotations

from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.geo.geometry import BBox
from repro.collection.records import UpdateRecord
from repro.storage.disk import InMemoryDisk
from repro.storage.hash_index import HashIndex
from repro.storage.spatial_index import GridSpatialIndex
from repro.storage.warehouse import ROWS_PER_PAGE, RowPointer, Warehouse


def make_record(i: int, country: str = "germany") -> UpdateRecord:
    return UpdateRecord(
        element_type=("node", "way", "relation")[i % 3],
        date=date(2021, 1, 1 + (i % 28)),
        country=country,
        latitude=10.0 + (i % 50) * 0.5,
        longitude=-20.0 + (i % 80) * 0.5,
        road_type=("residential", "service", "primary")[i % 3],
        update_type=("create", "delete", "geometry", "metadata")[i % 4],
        changeset_id=1000 + i // 3,
    )


@pytest.fixture()
def disk():
    return InMemoryDisk(read_latency=0.0, write_latency=0.0)


class _ObservedDisk(InMemoryDisk):
    """Calls ``observe`` right after every page write lands — the
    points inside a flush where a concurrent reader can be scheduled."""

    def __init__(self) -> None:
        super().__init__(read_latency=0.0, write_latency=0.0)
        self.observe = None

    def write(self, page_id: str, data: bytes) -> None:
        super().write(page_id, data)
        if self.observe is not None:
            self.observe()


class TestWarehouse:
    def test_append_and_fetch(self, disk):
        warehouse = Warehouse(disk)
        pointers = warehouse.append([make_record(i) for i in range(5)])
        assert len(pointers) == 5
        assert warehouse.fetch(pointers[3]) == make_record(3)

    def test_row_count(self, disk):
        warehouse = Warehouse(disk)
        warehouse.append([make_record(i) for i in range(7)])
        assert warehouse.row_count == 7

    def test_rows_span_pages(self, disk):
        warehouse = Warehouse(disk)
        n = ROWS_PER_PAGE + 10
        pointers = warehouse.append([make_record(i) for i in range(n)])
        assert warehouse.page_count == 2
        assert pointers[-1] == RowPointer(page=1, slot=9)
        assert warehouse.fetch(pointers[-1]) == make_record(n - 1)

    def test_scan_returns_all_rows_in_order(self, disk):
        warehouse = Warehouse(disk)
        records = [make_record(i) for i in range(ROWS_PER_PAGE + 3)]
        warehouse.append(records)
        assert list(warehouse.scan()) == records

    def test_fetch_many_batches_page_reads(self, disk):
        warehouse = Warehouse(disk)
        records = [make_record(i) for i in range(20)]
        pointers = warehouse.append(records)
        disk.reset_stats()
        fetched = warehouse.fetch_many([pointers[3], pointers[15], pointers[7]])
        assert fetched == [records[3], records[15], records[7]]
        assert disk.stats.reads == 1  # all rows on one page

    def test_fetch_out_of_range_raises(self, disk):
        warehouse = Warehouse(disk)
        warehouse.append([make_record(0)])
        with pytest.raises(StorageError):
            warehouse.fetch(RowPointer(page=9, slot=0))
        with pytest.raises(StorageError):
            warehouse.fetch(RowPointer(page=0, slot=500))

    def test_recovery_after_restart(self, disk):
        warehouse = Warehouse(disk)
        records = [make_record(i) for i in range(ROWS_PER_PAGE + 5)]
        pointers = warehouse.append(records)
        reopened = Warehouse(disk)
        assert reopened.row_count == len(records)
        assert reopened.fetch(pointers[-1]) == records[-1]
        more = reopened.append([make_record(999)])
        assert reopened.fetch(more[0]) == make_record(999)

    def test_unicode_country_roundtrip(self, disk):
        warehouse = Warehouse(disk)
        record = make_record(1, country="cote_divoire")
        pointer = warehouse.append([record])[0]
        assert warehouse.fetch(pointer).country == "cote_divoire"

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30)
    def test_row_pack_unpack_roundtrip(self, i):
        from repro.storage.warehouse import _pack_row, _unpack_row

        record = make_record(i)
        assert _unpack_row(_pack_row(record), 0) == record


class TestHashIndex:
    def test_insert_lookup(self, disk):
        index = HashIndex(disk, bucket_count=8)
        index.insert(42, RowPointer(0, 1))
        index.insert(42, RowPointer(0, 2))
        index.insert(50, RowPointer(1, 0))  # same bucket as 42 (mod 8)
        index.flush()
        assert sorted(index.lookup(42)) == [RowPointer(0, 1), RowPointer(0, 2)]
        assert index.lookup(50) == [RowPointer(1, 0)]

    def test_lookup_missing_is_empty(self, disk):
        index = HashIndex(disk)
        assert index.lookup(7) == []
        assert 7 not in index

    def test_pending_entries_visible_before_flush(self, disk):
        index = HashIndex(disk)
        index.insert(9, RowPointer(3, 3))
        assert index.lookup(9) == [RowPointer(3, 3)]

    def test_no_reader_sees_an_entry_twice_during_flush(self):
        """A lookup landing between two bucket writes must not find a
        fresh entry both on its page and still pending."""
        disk = _ObservedDisk()
        index = HashIndex(disk, bucket_count=4)
        index.insert(1, RowPointer(0, 0))
        index.insert(2, RowPointer(0, 1))  # another bucket: two writes
        seen = []
        disk.observe = lambda: seen.append((index.lookup(1), index.lookup(2)))
        assert index.flush() == 2
        assert len(seen) == 2
        assert all(len(found) <= 1 for pair in seen for found in pair), seen
        assert seen[-1] == ([RowPointer(0, 0)], [RowPointer(0, 1)])
        index.insert(1, RowPointer(0, 2))
        assert index.discard_pending() == 1  # a fresh buffer after the flush

    def test_flush_merges_with_existing_bucket(self, disk):
        index = HashIndex(disk, bucket_count=4)
        index.insert(1, RowPointer(0, 0))
        index.flush()
        index.insert(5, RowPointer(0, 1))  # bucket 1 again
        index.flush()
        assert index.lookup(1) == [RowPointer(0, 0)]
        assert index.lookup(5) == [RowPointer(0, 1)]

    def test_persistence_across_instances(self, disk):
        index = HashIndex(disk)
        index.insert(77, RowPointer(2, 2))
        index.flush()
        assert HashIndex(disk).lookup(77) == [RowPointer(2, 2)]

    def test_negative_key_rejected(self, disk):
        index = HashIndex(disk)
        with pytest.raises(StorageError):
            index.insert(-1, RowPointer(0, 0))

    def test_lookup_reads_one_bucket_page(self, disk):
        index = HashIndex(disk, bucket_count=16)
        for key in range(64):
            index.insert(key, RowPointer(0, key))
        index.flush()
        disk.reset_stats()
        index.lookup(5)
        assert disk.stats.reads == 1

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=10_000),
            st.integers(min_value=0, max_value=100),
            max_size=40,
        )
    )
    @settings(max_examples=20)
    def test_every_inserted_key_found(self, mapping):
        disk = InMemoryDisk(read_latency=0.0, write_latency=0.0)
        index = HashIndex(disk, bucket_count=7)
        for key, slot in mapping.items():
            index.insert(key, RowPointer(0, slot))
        index.flush()
        for key, slot in mapping.items():
            assert RowPointer(0, slot) in index.lookup(key)


class TestGridSpatialIndex:
    def test_query_finds_inserted_points(self, disk):
        index = GridSpatialIndex(disk)
        index.insert(10.0, 20.0, RowPointer(0, 0))
        index.insert(11.0, 21.0, RowPointer(0, 1))
        index.insert(50.0, 120.0, RowPointer(0, 2))
        index.flush()
        box = BBox(min_lon=19.0, min_lat=9.0, max_lon=22.0, max_lat=12.0)
        assert sorted(index.query(box)) == [RowPointer(0, 0), RowPointer(0, 1)]

    def test_boundary_cells_filter_exactly(self, disk):
        index = GridSpatialIndex(disk, cols=4, rows=4)
        index.insert(0.0, 0.0, RowPointer(0, 0))
        index.insert(0.0, 40.0, RowPointer(0, 1))  # same giant cell
        index.flush()
        box = BBox(min_lon=-1.0, min_lat=-1.0, max_lon=1.0, max_lat=1.0)
        assert index.query(box) == [RowPointer(0, 0)]

    def test_limit_stops_early(self, disk):
        index = GridSpatialIndex(disk)
        for i in range(50):
            index.insert(10.0 + i * 0.01, 20.0, RowPointer(0, i))
        index.flush()
        box = BBox(min_lon=19.0, min_lat=9.0, max_lon=21.0, max_lat=12.0)
        assert len(index.query(box, limit=7)) == 7

    def test_limit_zero_finds_nothing_and_reads_nothing(self, disk):
        index = GridSpatialIndex(disk)
        index.insert(10.0, 20.0, RowPointer(0, 0))
        index.flush()
        index.insert(10.5, 20.5, RowPointer(0, 1))  # pending
        disk.reset_stats()
        box = BBox(min_lon=19.0, min_lat=9.0, max_lon=21.0, max_lat=12.0)
        assert index.query(box, limit=0) == []
        assert disk.stats.reads == 0
        assert len(index.query(box, limit=1)) == 1

    def test_out_of_range_coordinate_files_under_the_edge_cell(self, disk):
        """``_cell_of`` clamps both edges: a stray lands in the cell a
        query over that edge visits, not in a negative-numbered one."""
        index = GridSpatialIndex(disk)
        index.insert(-95.0, -200.0, RowPointer(0, 0))  # below both ranges
        index.insert(-89.0, -179.0, RowPointer(0, 1))  # the real corner
        index.flush()
        assert list(disk.list_pages("warehouse/grid/")) == [
            "warehouse/grid/000_000"
        ]
        over_the_edge = BBox(
            min_lon=-210.0, min_lat=-100.0, max_lon=-170.0, max_lat=-80.0
        )
        assert sorted(index.query(over_the_edge)) == [
            RowPointer(0, 0), RowPointer(0, 1)
        ]
        # The exact filter still applies, and the stray breaks nothing.
        world = BBox(min_lon=-180, min_lat=-90, max_lon=180, max_lat=90)
        assert index.query(world) == [RowPointer(0, 1)]

    def test_no_reader_sees_a_point_twice_during_flush(self):
        disk = _ObservedDisk()
        index = GridSpatialIndex(disk)
        index.insert(10.0, 20.0, RowPointer(0, 0))
        index.insert(50.0, 120.0, RowPointer(0, 1))  # another cell: two writes
        world = BBox(min_lon=-180, min_lat=-90, max_lon=180, max_lat=90)
        seen = []
        disk.observe = lambda: seen.append(sorted(index.query(world)))
        assert index.flush() == 2
        assert len(seen) == 2
        assert all(len(set(found)) == len(found) for found in seen), seen
        assert seen[-1] == [RowPointer(0, 0), RowPointer(0, 1)]
        index.insert(10.0, 20.0, RowPointer(0, 2))
        assert index.discard_pending() == 1  # a fresh buffer after the flush

    def test_pending_points_visible_before_flush(self, disk):
        index = GridSpatialIndex(disk)
        index.insert(5.0, 5.0, RowPointer(1, 1))
        box = BBox(min_lon=4.0, min_lat=4.0, max_lon=6.0, max_lat=6.0)
        assert index.query(box) == [RowPointer(1, 1)]

    def test_empty_region(self, disk):
        index = GridSpatialIndex(disk)
        index.insert(5.0, 5.0, RowPointer(1, 1))
        index.flush()
        box = BBox(min_lon=100.0, min_lat=50.0, max_lon=110.0, max_lat=60.0)
        assert index.query(box) == []

    def test_persistence(self, disk):
        index = GridSpatialIndex(disk)
        index.insert(5.0, 5.0, RowPointer(1, 1))
        index.flush()
        box = BBox(min_lon=4.0, min_lat=4.0, max_lon=6.0, max_lat=6.0)
        assert GridSpatialIndex(disk).query(box) == [RowPointer(1, 1)]
        assert len(list(disk.list_pages(index.prefix + "/"))) == 1

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-89.9, max_value=89.9),
                st.floats(min_value=-179.9, max_value=179.9),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=20)
    def test_world_query_returns_everything(self, points):
        disk = InMemoryDisk(read_latency=0.0, write_latency=0.0)
        index = GridSpatialIndex(disk)
        for slot, (lat, lon) in enumerate(points):
            index.insert(lat, lon, RowPointer(0, slot))
        index.flush()
        world = BBox(min_lon=-180, min_lat=-90, max_lon=180, max_lat=90)
        assert len(index.query(world)) == len(points)
