"""Tests for the warehouse heap and its hash/spatial indexes."""

from __future__ import annotations

import json
import random
import struct
from dataclasses import replace
from datetime import date, timedelta

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, StorageError
from repro.geo.geometry import BBox
from repro.collection.records import UpdateList, UpdateRecord
from repro.storage.disk import InMemoryDisk
from repro.storage.hash_index import HashIndex
from repro.storage.spatial_index import GridSpatialIndex
from repro.storage.warehouse import ROW_SIZE, ROWS_PER_PAGE, RowPointer, Warehouse


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
    """Calls ``observe`` right after every page write, append and delete
    lands — the points inside a flush or a fold where a concurrent reader
    can be scheduled."""

    def __init__(self) -> None:
        super().__init__(read_latency=0.0, write_latency=0.0)
        self.observe = None

    def write(self, page_id: str, data: bytes) -> None:
        super().write(page_id, data)
        if self.observe is not None:
            self.observe()

    def append(self, page_id: str, data: bytes, at: int) -> None:
        super().append(page_id, data, at)
        if self.observe is not None:
            self.observe()

    def delete(self, page_id: str) -> None:
        super().delete(page_id)
        if self.observe is not None:
            self.observe()


WORLD = BBox(min_lon=-180, min_lat=-90, max_lon=180, max_lat=90)


class _Kit:
    """An index over its own heap: ``insert(i)`` appends heap row ``i`` and
    indexes it (visible from the next ``flush``)."""

    def __init__(self, disk):
        self.warehouse = Warehouse(disk)
        self.index = self.make(self.warehouse)

    def insert(self, i: int) -> None:
        rows = self.warehouse.append([self.record(i)])
        assert rows.first == i
        self.index.insert_many(rows)

    @classmethod
    def index_pages(cls, disk) -> dict[str, bytes]:
        """The base pages in ``disk`` (no watermark), by id."""
        return {
            page_id: disk.read(page_id)
            for page_id in disk.list_pages(cls.prefix + "/")
            if not page_id.endswith("/folded")
        }


class _HashKit(_Kit):
    """Row ``i`` of changeset ``i % 6`` under a 4-bucket hash index; ``keys``
    is everything a reader can ask it."""

    prefix = "warehouse/hash"
    keys = list(range(6))

    def make(self, warehouse):
        self.ask = lambda key: self.index.lookup(key)
        return HashIndex(warehouse, bucket_count=4)

    @staticmethod
    def record(i: int) -> UpdateRecord:
        return replace(make_record(i), changeset_id=i % 6)

    @staticmethod
    def parent_layout(count: int) -> dict[str, bytes]:
        """The bucket pages the one-level index held after ``count``
        inserts: packed entries in insertion order, nothing else."""
        pages: dict[str, bytes] = {}
        for i in range(count):
            page_id = f"warehouse/hash/{i % 6 % 4:05d}"
            entry = struct.pack("<QII", i % 6, *divmod(i, ROWS_PER_PAGE))
            pages[page_id] = pages.get(page_id, b"") + entry
        return pages


_RNG = random.Random(7)
_POINTS = [(_RNG.uniform(-89, 89), _RNG.uniform(-179, 179)) for _ in range(200)]
_CELL_BOXES = [WORLD] + [
    BBox(min_lon=lon, min_lat=lat, max_lon=lon + 90, max_lat=lat + 90)
    for lon in (-180, -90, 0, 90)
    for lat in (-90, 0)
]


class _GridKit(_Kit):
    """The same over a 4 x 2 grid, asked cell by cell and for the world."""

    prefix = "warehouse/grid"
    points = _POINTS
    keys = _CELL_BOXES

    def make(self, warehouse):
        self.ask = lambda box: self.index.query(box)
        return GridSpatialIndex(warehouse, cols=4, rows=2)

    @classmethod
    def record(cls, i: int) -> UpdateRecord:
        lat, lon = cls.points[i]
        return replace(make_record(i), latitude=lat, longitude=lon)

    @classmethod
    def parent_layout(cls, count: int) -> dict[str, bytes]:
        pages: dict[str, bytes] = {}
        for i, (lat, lon) in enumerate(cls.points[:count]):
            page_id = f"warehouse/grid/{int((lon + 180) / 90):03d}_{int((lat + 90) / 90):03d}"
            entry = struct.pack("<ddII", lat, lon, *divmod(i, ROWS_PER_PAGE))
            pages[page_id] = pages.get(page_id, b"") + entry
        return pages


@pytest.mark.parametrize("Kit", [_HashKit, _GridKit])
class TestTwoLevelIndex:
    """What both warehouse indexes get from ``storage.buckets``."""

    @staticmethod
    def _observed(disk, kit, step):
        """Run ``step`` asking every key after every write, append and
        delete: each answer is the pre- or the post-step pointer list —
        no row twice, none lost that an earlier observation saw."""
        before = [kit.ask(key) for key in kit.keys]
        seen = []
        disk.observe = lambda: seen.append([kit.ask(key) for key in kit.keys])
        try:
            step()
        finally:
            disk.observe = None
        after = [kit.ask(key) for key in kit.keys]
        assert seen, "the step touched no page"
        for position, (pre, post) in enumerate(zip(before, after)):
            answers = [snapshot[position] for snapshot in seen]
            assert all(len(set(found)) == len(found) for found in answers)
            assert all(found in (pre, post) for found in answers), (pre, post, answers)
            visible = [found == post for found in answers]
            assert visible == sorted(visible), "a batch seen once was lost again"
        return before, after

    def test_exactly_once_at_every_store_operation_of_flush_and_fold(self, Kit):
        disk = _ObservedDisk()
        kit = Kit(disk)
        inserted = 0
        for then_fold in (False, True, False, False, True):
            before = [kit.ask(key) for key in kit.keys]

            def insert_30() -> None:
                nonlocal inserted
                for _ in range(30):
                    kit.insert(inserted)
                    inserted += 1

            # The rows land in the heap, invisible to the index until the flush.
            pre, post = self._observed(disk, kit, insert_30)
            assert pre == post == before
            writes = disk.stats.writes
            kit.index.flush()
            assert disk.stats.writes == writes  # a flush writes nothing
            flushed = [kit.ask(key) for key in kit.keys]
            assert flushed != before
            if then_fold:
                folded, end = kit.index.buckets.extent
                assert folded < end
                pre, post = self._observed(disk, kit, kit.index.buckets.fold)
                assert pre == post == flushed
                assert kit.index.buckets.extent == (end, end)
        # Folded, the base pages hold what the one-level index wrote.
        assert Kit.index_pages(disk) == Kit.parent_layout(inserted)

    def test_a_root_of_base_pages_only_opens_and_answers_the_same(self, Kit):
        """A root whose base pages have no watermark (the one-level
        index's, or one whose indexes predate the watermark) reads every
        row as tail too: each answer keeps one copy of each row."""
        old_disk = InMemoryDisk(read_latency=0.0, write_latency=0.0)
        for page_id, data in Kit.parent_layout(90).items():
            old_disk.write(page_id, data)
        Warehouse(old_disk).append([Kit.record(i) for i in range(90)])
        old = Kit(old_disk)
        assert old.index.buckets.extent == (0, 90)
        new_disk = InMemoryDisk(read_latency=0.0, write_latency=0.0)
        new = Kit(new_disk)
        for i in range(90):
            new.insert(i)
            if i % 30 == 29:
                new.index.flush()
        # Same rows in the same order: base, then the tail.
        assert [new.ask(key) for key in Kit.keys] == [old.ask(key) for key in Kit.keys]
        assert any(old.ask(key) for key in Kit.keys)
        # The old root grows by the same rows and leaves its pages alone.
        for kit in (old, new):
            for i in range(90, 100):
                kit.insert(i)
            kit.index.flush()
        for page_id, data in Kit.parent_layout(90).items():
            assert old_disk.read(page_id) == data
        assert [new.ask(key) for key in Kit.keys] == [old.ask(key) for key in Kit.keys]
        reopened = Kit(old_disk)
        assert [reopened.ask(key) for key in Kit.keys] == [old.ask(key) for key in Kit.keys]
        # Its first fold appends the rows its base pages held once more.
        for kit in (old, new):
            kit.index.buckets.fold()
        assert [new.ask(key) for key in Kit.keys] == [old.ask(key) for key in Kit.keys]

    def test_a_flush_writes_no_page_whatever_it_touches(self, Kit):
        disk = InMemoryDisk(read_latency=0.0, write_latency=0.0)
        kit = Kit(disk)
        for i in range(60):
            kit.insert(i)
        disk.reset_stats()
        kit.index.flush()
        assert disk.stats.total_ios == 0
        assert not list(disk.list_pages(Kit.prefix + "/"))
        assert all(kit.ask(key) == Kit(disk).ask(key) for key in Kit.keys)

    def test_reload_drops_unpublished_rows_and_rereads_the_watermark(self, Kit):
        disk = InMemoryDisk(read_latency=0.0, write_latency=0.0)
        kit = Kit(disk)
        for i in range(40):
            kit.insert(i)
        kit.index.flush()
        kit.index.buckets.fold()
        flushed = [kit.ask(key) for key in Kit.keys]
        kit.insert(40)
        # What a WAL rollback does behind the index's back: the new row
        # and the watermark go.
        disk.write(kit.warehouse._page_id(0), disk.read(kit.warehouse._page_id(0))[: 40 * ROW_SIZE])
        disk.delete(kit.index.buckets.watermark_page)
        kit.warehouse.resync()
        kit.index.buckets.reload()
        assert kit.index.buckets.extent == (0, 40)
        assert [kit.ask(key) for key in Kit.keys] == flushed
        kit.insert(40)  # the rolled-back row again, under its old number
        kit.index.flush()
        assert [kit.ask(key) for key in Kit.keys] != flushed

    def test_a_read_straddling_a_fold_reads_each_row_once(self, Kit):
        """A fold between a reader's tail read and its base read leaves
        the reader rows in both: it keeps one copy, in row order."""

        class StraddledDisk(InMemoryDisk):
            straddle = None

            def read(self, page_id: str) -> bytes:
                if self.straddle is not None and page_id.startswith(Kit.prefix + "/"):
                    step, self.straddle = self.straddle, None
                    step()
                return super().read(page_id)

        disk = StraddledDisk(read_latency=0.0, write_latency=0.0)
        kit = Kit(disk)
        for i in range(60):
            kit.insert(i)
        kit.index.flush()
        fresh = iter(range(60, 200))

        def fold_then_add_a_day():
            kit.index.buckets.fold()
            for _ in range(10):
                kit.insert(next(fresh))
            kit.index.flush()

        for key in Kit.keys:
            before = kit.ask(key)
            disk.straddle = fold_then_add_a_day
            assert kit.ask(key) == before
            assert disk.straddle is None, "no base page read"

    def test_a_torn_watermark_page_is_refused(self, Kit):
        disk = InMemoryDisk(read_latency=0.0, write_latency=0.0)
        kit = Kit(disk)
        for i in range(40):
            kit.insert(i)
        kit.index.flush()
        kit.index.buckets.fold()
        page_id = kit.index.buckets.watermark_page
        disk.write(page_id, disk.read(page_id)[:5])
        with pytest.raises(StorageError, match="torn watermark"):
            Kit(disk)

    def test_a_base_page_cut_mid_entry_reads_its_whole_entries(self, Kit):
        """A fold's append in flight (or a torn one recovery has yet to
        cut): readers see the whole entries; a fold will not append after
        the partial one."""
        disk = InMemoryDisk(read_latency=0.0, write_latency=0.0)
        kit = Kit(disk)
        for i in range(40):
            kit.insert(i)
        kit.index.flush()
        kit.index.buckets.fold()
        answers = [kit.ask(key) for key in Kit.keys]
        bases = list(Kit.index_pages(disk))
        for page_id in bases:
            disk.append(page_id, b"\x01\x02\x03", len(disk.read(page_id)))
        assert [kit.ask(key) for key in Kit.keys] == answers
        assert [Kit(disk).ask(key) for key in Kit.keys] == answers
        for i in range(40, 80):
            kit.insert(i)
        kit.index.flush()
        with pytest.raises(StorageError, match="append at byte"):
            kit.index.buckets.fold()

    def test_a_missing_or_short_tail_page_is_a_storage_error(self, Kit):
        disk = InMemoryDisk(read_latency=0.0, write_latency=0.0)
        kit = Kit(disk)
        for i in range(40):
            kit.insert(i)
        kit.index.flush()
        page_id = kit.warehouse._page_id(0)
        disk.write(page_id, disk.read(page_id)[: 30 * ROW_SIZE])
        with pytest.raises(StorageError, match="ends before row 40"):
            [kit.ask(key) for key in Kit.keys]
        with pytest.raises(StorageError, match="ends before row 40"):
            kit.index.buckets.fold()
        disk.delete(page_id)
        with pytest.raises(StorageError, match="no such page"):
            [kit.ask(key) for key in Kit.keys]


class TestWarehouse:
    def test_append_and_fetch(self, disk):
        warehouse = Warehouse(disk)
        pointers = warehouse.append([make_record(i) for i in range(5)])
        assert len(pointers) == 5
        assert warehouse.fetch_many([pointers[3]])[0] == make_record(3)

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
        assert warehouse.fetch_many([pointers[-1]])[0] == make_record(n - 1)

    def test_scan_returns_all_rows_in_order(self, disk):
        warehouse = Warehouse(disk)
        records = [make_record(i) for i in range(ROWS_PER_PAGE + 3)]
        warehouse.append(records)
        assert [r for _, rows in warehouse.scan_pages() for r in rows] == records

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
            warehouse.fetch_many([RowPointer(page=9, slot=0)])[0]
        with pytest.raises(StorageError):
            warehouse.fetch_many([RowPointer(page=0, slot=500)])[0]

    def test_recovery_after_restart(self, disk):
        warehouse = Warehouse(disk)
        records = [make_record(i) for i in range(ROWS_PER_PAGE + 5)]
        pointers = warehouse.append(records)
        reopened = Warehouse(disk)
        assert reopened.row_count == len(records)
        assert reopened.fetch_many([pointers[-1]])[0] == records[-1]
        more = reopened.append([make_record(999)])
        assert reopened.fetch_many([more[0]])[0] == make_record(999)

    def test_unicode_country_roundtrip(self, disk):
        warehouse = Warehouse(disk)
        record = make_record(1, country="cote_divoire")
        pointer = warehouse.append([record])[0]
        assert warehouse.fetch_many([pointer])[0].country == "cote_divoire"

    def test_a_name_is_cut_on_a_character_boundary(self, disk):
        """32 bytes hold 31 ASCII characters, not the two-byte ``ż``
        after them: the stored value drops it whole, and every read of
        the row decodes."""
        warehouse = Warehouse(disk)
        long_name = "a" * 31 + "ż"
        record = UpdateRecord(**{**vars(make_record(1)), "country": long_name, "road_type": long_name})
        pointers = warehouse.append([make_record(0), record, make_record(2)])
        stored = warehouse.fetch_many([pointers[1]])[0]
        assert (stored.country, stored.road_type) == ("a" * 31, "a" * 31)
        assert [r.changeset_id for _, rows in warehouse.scan_pages() for r in rows] == [1000, 1000, 1000]
        assert warehouse.append([make_record(0, country="ż" * 20)])[0] == RowPointer(0, 3)
        assert warehouse.fetch_many([RowPointer(0, 3)])[0].country == "ż" * 16

    def test_append_returns_the_rows_pointers(self, disk):
        warehouse = Warehouse(disk)
        warehouse.append([make_record(i) for i in range(ROWS_PER_PAGE - 2)])
        pointers = warehouse.append([make_record(i) for i in range(5)])
        assert len(pointers) == 5
        assert [pointers[i] for i in range(5)] == [
            RowPointer(0, ROWS_PER_PAGE - 2), RowPointer(0, ROWS_PER_PAGE - 1),
            RowPointer(1, 0), RowPointer(1, 1), RowPointer(1, 2),
        ]
        assert pointers[-1] == RowPointer(1, 2)
        with pytest.raises(IndexError):
            pointers[5]

    def test_a_sliding_row_range_reads_only_its_new_rows(self, disk):
        warehouse = Warehouse(disk)
        warehouse.append([make_record(i) for i in range(2 * ROWS_PER_PAGE + 100)])
        changesets = [row.changeset_id for _, rows in warehouse.scan_pages() for row in rows]
        assert warehouse.rows(0, 1124)["changeset"].tolist() == changesets
        disk.reset_stats()
        assert warehouse.rows(600, 1100)["changeset"].tolist() == changesets[600:1100]
        assert warehouse.rows(700, 700).size == 0
        assert disk.stats.reads == 0  # inside the rows read last
        warehouse.append([make_record(i) for i in range(1124, 1200)])
        changesets += [make_record(i).changeset_id for i in range(1124, 1200)]
        assert warehouse.rows(600, 1200)["changeset"].tolist() == changesets[600:]
        assert disk.stats.reads == 1  # the last page, for rows 1124-1199
        disk.reset_stats()
        assert warehouse.rows(0, 10)["changeset"].tolist() == changesets[:10]
        assert disk.stats.reads == 1  # before the kept rows: read again

    def test_a_resync_forgets_the_rows_read(self, disk):
        """What a rollback and a re-ingest of other rows leave behind."""
        warehouse = Warehouse(disk)
        warehouse.append([make_record(i) for i in range(10)])
        assert warehouse.rows(0, 10)["changeset"].tolist() == [1000 + i // 3 for i in range(10)]
        other = InMemoryDisk(read_latency=0.0, write_latency=0.0)
        Warehouse(other).append([replace(make_record(i), changeset_id=7) for i in range(10)])
        for page_id in other.list_pages(""):
            disk.write(page_id, other.read(page_id))
        warehouse.resync()
        assert warehouse.rows(0, 10)["changeset"].tolist() == [7] * 10

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30)
    def test_row_pack_unpack_roundtrip(self, i):
        warehouse = Warehouse(InMemoryDisk(read_latency=0.0, write_latency=0.0))
        record = make_record(i)
        assert warehouse.fetch_many(warehouse.append(UpdateList([record])))[0] == record


def _parent_stored(value: str) -> str:
    """What a row of the older 96-byte layout decoded ``value`` to: its
    UTF-8 cut to 32 bytes on a character boundary, NUL-padded, then
    stripped of trailing NULs."""
    cut = value.encode("utf-8")[:32].decode("utf-8", "ignore").encode("utf-8")
    (padded,) = struct.unpack("32s", struct.pack("32s", cut))
    return padded.rstrip(b"\x00").decode("utf-8")


def _values_of(disk) -> bytes:
    return disk.read("warehouse/values") if "warehouse/values" in disk else b""


class TestValueDictionary:
    """A row stores its country and road type as codes into the values
    page, which grows by appends before the rows that use them."""

    @given(st.lists(st.tuples(st.text(max_size=40), st.text(max_size=40)), min_size=1, max_size=6))
    @example([("", "")])
    @example([("a" * 31 + "ż", "ż" * 20), ("€" * 11, "abc\x00"), ("日本", "a" * 33)])
    @settings(max_examples=60, deadline=None)
    def test_any_value_decodes_as_the_padded_layout_did(self, pairs):
        disk = InMemoryDisk(read_latency=0.0, write_latency=0.0)
        warehouse = Warehouse(disk)
        records = [
            replace(make_record(i), country=country, road_type=road_type)
            for i, (country, road_type) in enumerate(pairs)
        ]
        pointers = warehouse.append(records)
        expected = [
            replace(r, country=_parent_stored(r.country), road_type=_parent_stored(r.road_type)).to_tsv()
            for r in records
        ]
        for reader in (warehouse, Warehouse(disk)):
            assert [r.to_tsv() for r in reader.fetch_many(pointers)] == expected
            assert [r.to_tsv() for _, rows in reader.scan_pages() for r in rows] == expected
        assert len(disk.read("warehouse/heap/00000000")) == ROW_SIZE * len(records)

    def test_each_distinct_value_is_stored_once(self, disk):
        warehouse = Warehouse(disk)
        warehouse.append([make_record(i) for i in range(30)])
        page = _values_of(disk)
        warehouse.append([make_record(i, country="france") for i in range(30)])
        assert _values_of(disk)[: len(page)] == page
        assert len(_values_of(disk)) == len(page) + 1 + len("france")
        warehouse.append([make_record(i) for i in range(30)])
        assert len(_values_of(disk)) == len(page) + 1 + len("france")

    def test_a_second_opener_decodes_rows_with_values_new_since_it_opened(self, disk):
        writer = Warehouse(disk)
        writer.append([make_record(i) for i in range(5)])
        reader = Warehouse(disk)
        newer = [make_record(i, country="côte_d'ivoire") for i in range(5, 9)]
        pointers = writer.append(newer)
        disk.reset_stats()
        assert reader.fetch_many(pointers) == newer
        assert disk.stats.reads == 2  # the heap page, then the values page once
        assert reader.fetch_many(pointers) == newer
        assert disk.stats.reads == 3

    def test_a_code_past_the_values_page_is_a_storage_error(self, disk):
        warehouse = Warehouse(disk)
        pointer = warehouse.append([make_record(0)])[0]
        data = bytearray(disk.read("warehouse/heap/00000000"))
        data[2:4] = (999).to_bytes(2, "little")  # the country code
        disk.write("warehouse/heap/00000000", bytes(data))
        with pytest.raises(StorageError, match="past 'warehouse/values'"):
            Warehouse(disk).fetch_many([pointer])

    def test_a_rolled_back_batch_leaves_the_values_as_they_were(self, disk):
        from repro.storage.wal import IngestWAL

        wal = IngestWAL(disk)
        warehouse = Warehouse(wal.store)
        for batch in ([make_record(i) for i in range(5)], [make_record(9, country="peru")]):
            wal.begin()
            warehouse.append(batch)
            wal.commit()
        page, values = _values_of(disk), list(warehouse._values)
        heap = disk.read("warehouse/heap/00000000")

        day = [make_record(20 + i, country=c) for i, c in enumerate(("chile", "peru", "fiji"))]
        wal.begin()
        warehouse.append(day)  # then the process dies before commit
        assert warehouse._values == values + ["chile", "fiji"]
        assert wal.recover().rolled_back
        warehouse.resync()
        assert (_values_of(disk), warehouse._values) == (page, values)
        assert disk.read("warehouse/heap/00000000") == heap

        wal.begin()
        warehouse.append(day)
        wal.commit()
        uninterrupted = InMemoryDisk(read_latency=0.0, write_latency=0.0)
        again = Warehouse(uninterrupted)
        for batch in ([make_record(i) for i in range(5)], [make_record(9, country="peru")], day):
            again.append(batch)
        assert _values_of(disk) == _values_of(uninterrupted)
        assert disk.read("warehouse/heap/00000000") == uninterrupted.read("warehouse/heap/00000000")

    def test_a_torn_values_tail_is_skipped_by_a_reader_and_refused_after_recovery(self, disk):
        warehouse = Warehouse(disk)
        records = [make_record(i) for i in range(4)]
        pointers = warehouse.append(records)
        whole = _values_of(disk)
        disk.append("warehouse/values", b"\x06fra", len(whole))  # an append in flight
        reader = Warehouse(disk, recovered=False)
        assert reader.fetch_many(pointers) == records
        assert reader._values == warehouse._values
        with pytest.raises(StorageError, match="torn values page"):
            Warehouse(disk)
        # A values page cut inside its magic header is torn the same way.
        disk.write("warehouse/values", whole[:3])
        with pytest.raises(StorageError, match="torn values page"):
            Warehouse(disk)

    def test_more_values_than_a_code_holds_is_refused_before_any_write(self, disk):
        warehouse = Warehouse(disk)
        warehouse.append([make_record(0)])  # germany, residential
        # With service and primary, exactly 65 535 values: the last code.
        names = [f"zone{i}" for i in range(0xFFFF - 4)]
        warehouse.append([make_record(i, country=name) for i, name in enumerate(names)])
        assert len(warehouse._values) == 0xFFFF
        before = {page: disk.read(page) for page in disk.list_pages()}
        with pytest.raises(StorageError, match="at most 65535"):
            warehouse.append([make_record(0, country="one_more")])
        assert {page: disk.read(page) for page in disk.list_pages()} == before
        assert warehouse.row_count == 1 + len(names) and len(warehouse._values) == 0xFFFF
        assert Warehouse(disk).fetch_many([RowPointer(0, 1)])[0].country == "zone0"

    def test_a_heap_of_the_older_96_byte_layout_is_refused(self, disk):
        """A root written before the values page existed holds heap pages
        and no values page: opening it names the old layout and asks for a
        re-ingest rather than misreading its rows."""
        old_row = struct.pack(
            "<BBxxi d d Q 32s 32s", 0, 2, date(2021, 1, 5).toordinal(), 52.5, 13.4, 1000,
            b"germany", b"residential",
        )
        disk.write("warehouse/heap/00000000", old_row * 3)
        with pytest.raises(ConfigError, match="96-byte row layout.*re-ingest"):
            Warehouse(disk)


def _hash_index(disk, keys=(), bucket_count: int = 256, flush: bool = True) -> HashIndex:
    """A hash index over a heap whose ``i``-th row has changeset ``keys[i]``."""
    warehouse = Warehouse(disk)
    index = HashIndex(warehouse, bucket_count=bucket_count)
    _add_rows(index, warehouse, [replace(make_record(0), changeset_id=key) for key in keys], flush)
    return index


def _grid_index(disk, points=(), flush: bool = True, **shape) -> GridSpatialIndex:
    """A grid index over a heap whose ``i``-th row is at ``points[i]``
    (lat, lon)."""
    warehouse = Warehouse(disk)
    index = GridSpatialIndex(warehouse, **shape)
    records = [replace(make_record(0), latitude=lat, longitude=lon) for lat, lon in points]
    _add_rows(index, warehouse, records, flush)
    return index


def _add_rows(index, warehouse: Warehouse, records: list[UpdateRecord], flush: bool = True) -> None:
    if records:
        index.insert_many(warehouse.append(records))
    if flush:
        index.flush()


class TestHashIndex:
    def test_insert_lookup(self, disk):
        index = _hash_index(disk, [42, 42, 50], bucket_count=8)  # 50: 42's bucket
        assert index.lookup(42) == [RowPointer(0, 0), RowPointer(0, 1)]
        assert index.lookup(50) == [RowPointer(0, 2)]

    def test_lookup_missing_is_empty(self, disk):
        index = _hash_index(disk)
        assert index.lookup(7) == []
        assert 7 not in index

    def test_unflushed_entries_are_invisible(self, disk):
        index = _hash_index(disk, [9], flush=False)
        assert index.lookup(9) == [] and 9 not in index
        index.flush()
        assert index.lookup(9) == [RowPointer(0, 0)]

    def test_no_reader_sees_an_entry_twice_during_flush(self):
        """A lookup landing after any write of the fold behind a flush
        finds each entry once."""
        disk = _ObservedDisk()
        index = _hash_index(disk, [1, 2], bucket_count=4)  # two buckets: two fold appends
        seen = []
        disk.observe = lambda: seen.append((index.lookup(1), index.lookup(2)))
        assert index.buckets.fold() == 2
        # Two bucket appends, then the watermark write.
        assert seen == [([RowPointer(0, 0)], [RowPointer(0, 1)])] * 3
        assert index.buckets.extent == (2, 2)

    def test_flush_merges_with_existing_bucket(self, disk):
        index = _hash_index(disk, [1], bucket_count=4)
        index.buckets.fold()
        _add_rows(index, index.buckets.warehouse, [replace(make_record(0), changeset_id=5)])
        assert index.lookup(1) == [RowPointer(0, 0)]  # bucket 1 again
        assert index.lookup(5) == [RowPointer(0, 1)]

    def test_persistence_across_instances(self, disk):
        index = _hash_index(disk, [77])
        assert HashIndex(Warehouse(disk)).lookup(77) == [RowPointer(0, 0)]
        index.buckets.fold()
        assert HashIndex(Warehouse(disk)).lookup(77) == [RowPointer(0, 0)]

    def test_negative_key_rejected(self, disk):
        """A key is a heap row's changeset id: the heap refuses a negative
        one before writing anything."""
        with pytest.raises(StorageError, match="non-negative"):
            _hash_index(disk, [3, -1])
        assert not list(disk.list_pages(""))

    def test_lookup_reads_one_bucket_page(self, disk):
        index = _hash_index(disk, range(64), bucket_count=16)
        index.buckets.fold()
        disk.reset_stats()
        assert index.lookup(5) == [RowPointer(0, 5)]
        assert disk.stats.reads == 1
        # An unfolded tail is one more read per heap page it spans.
        _add_rows(index, index.buckets.warehouse, [make_record(0)] * ROWS_PER_PAGE)
        disk.reset_stats()
        index.lookup(5)
        assert disk.stats.reads == 1 + 2

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=10_000),
            st.integers(min_value=1, max_value=3),
            max_size=40,
        )
    )
    @settings(max_examples=20)
    def test_every_inserted_key_found(self, mapping):
        disk = InMemoryDisk(read_latency=0.0, write_latency=0.0)
        keys = [key for key, copies in mapping.items() for _ in range(copies)]
        index = _hash_index(disk, keys, bucket_count=7)
        for _ in range(2):  # the tail, then the base pages
            for key in mapping:
                rows = [row for row, stored in enumerate(keys) if stored == key]
                assert index.lookup(key) == [RowPointer(0, row) for row in rows]
            index.buckets.fold()


class TestGridSpatialIndex:
    def test_query_finds_inserted_points(self, disk):
        index = _grid_index(disk, [(10.0, 20.0), (11.0, 21.0), (50.0, 120.0)])
        box = BBox(min_lon=19.0, min_lat=9.0, max_lon=22.0, max_lat=12.0)
        assert sorted(index.query(box)) == [RowPointer(0, 0), RowPointer(0, 1)]

    def test_boundary_cells_filter_exactly(self, disk):
        index = _grid_index(disk, [(0.0, 0.0), (0.0, 40.0)], cols=4, rows=4)  # one giant cell
        box = BBox(min_lon=-1.0, min_lat=-1.0, max_lon=1.0, max_lat=1.0)
        for _ in range(2):
            assert index.query(box) == [RowPointer(0, 0)]
            index.buckets.fold()

    def test_limit_stops_early(self, disk):
        index = _grid_index(disk, [(10.0 + i * 0.01, 20.0) for i in range(50)])
        box = BBox(min_lon=19.0, min_lat=9.0, max_lon=21.0, max_lat=12.0)
        assert index.query(box, limit=7) == [RowPointer(0, i) for i in range(7)]

    def test_limit_zero_finds_nothing_and_reads_nothing(self, disk):
        index = _grid_index(disk, [(10.0, 20.0)])
        _add_rows(index, index.buckets.warehouse, [make_record(1)], flush=False)  # pending
        disk.reset_stats()
        box = BBox(min_lon=19.0, min_lat=9.0, max_lon=21.0, max_lat=12.0)
        assert index.query(box, limit=0) == []
        assert disk.stats.reads == 0
        assert len(index.query(box, limit=1)) == 1

    def test_out_of_range_coordinate_files_under_the_edge_cell(self, disk):
        """``_cells`` clamps both edges: a stray lands in the cell a
        query over that edge visits, not in a negative-numbered one."""
        # Below both ranges, then the real corner.
        index = _grid_index(disk, [(-95.0, -200.0), (-89.0, -179.0)])
        over_the_edge = BBox(
            min_lon=-210.0, min_lat=-100.0, max_lon=-170.0, max_lat=-80.0
        )
        for _ in range(2):
            assert sorted(index.query(over_the_edge)) == [
                RowPointer(0, 0), RowPointer(0, 1)
            ]
            # The exact filter still applies, and the stray breaks nothing.
            assert index.query(WORLD) == [RowPointer(0, 1)]
            index.buckets.fold()
        assert list(_GridKit.index_pages(disk)) == ["warehouse/grid/000_000"]

    def test_no_reader_sees_a_point_twice_during_flush(self):
        disk = _ObservedDisk()
        index = _grid_index(disk, [(10.0, 20.0), (50.0, 120.0)])  # two cells: two fold appends
        seen = []
        disk.observe = lambda: seen.append(index.query(WORLD))
        assert index.buckets.fold() == 2
        # Two cell appends, then the watermark write.
        assert seen == [[RowPointer(0, 0), RowPointer(0, 1)]] * 3

    def test_unflushed_points_are_invisible(self, disk):
        index = _grid_index(disk, [(5.0, 5.0)], flush=False)
        box = BBox(min_lon=4.0, min_lat=4.0, max_lon=6.0, max_lat=6.0)
        assert index.query(box) == []
        index.flush()
        assert index.query(box) == [RowPointer(0, 0)]

    def test_empty_region(self, disk):
        index = _grid_index(disk, [(5.0, 5.0)])
        box = BBox(min_lon=100.0, min_lat=50.0, max_lon=110.0, max_lat=60.0)
        assert index.query(box) == []

    def test_persistence(self, disk):
        index = _grid_index(disk, [(5.0, 5.0)])
        box = BBox(min_lon=4.0, min_lat=4.0, max_lon=6.0, max_lat=6.0)
        assert GridSpatialIndex(Warehouse(disk)).query(box) == [RowPointer(0, 0)]
        index.buckets.fold()
        assert GridSpatialIndex(Warehouse(disk)).query(box) == [RowPointer(0, 0)]
        # One cell page and the watermark.
        assert len(list(disk.list_pages(index.prefix + "/"))) == 2

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
        index = _grid_index(disk, points)
        assert len(index.query(WORLD)) == len(points)
        index.buckets.fold()
        assert len(index.query(WORLD)) == len(points)


class _FamilyBytes(InMemoryDisk):
    """Counts bytes written or appended to pages under ``prefixes`` and to
    the undo pages that journal them."""

    prefixes: tuple[str, ...] = ("warehouse/hash/", "warehouse/grid/")
    counted = 0

    def _count(self, page_id: str, data: bytes) -> None:
        if page_id.startswith("wal/undo/"):
            page_id = json.loads(data.partition(b"\n")[0])["page_id"]
        if page_id.startswith(self.prefixes):
            self.counted += len(data)

    def write(self, page_id: str, data: bytes) -> None:
        super().write(page_id, data)
        self._count(page_id, data)

    def append(self, page_id: str, data: bytes, at: int) -> None:
        super().append(page_id, data, at)
        self._count(page_id, data)


def _durable_system(atlas, disk):
    from repro.synth.simulator import SimulationConfig
    from repro.system import RasedSystem, SystemConfig

    return RasedSystem.create(
        atlas=atlas,
        store=disk,
        config=SystemConfig(
            road_types=8,
            cache_slots=8,
            durable_ingest=True,
            simulation=SimulationConfig(
                seed=5, mapper_count=20, base_sessions_per_day=6, nodes_per_country=4
            ),
        ),
    )


class TestIndexWritesAreFlatInHistory:
    """A day writes nothing into the two indexes (the heap holds their
    entries), and a month end's fold, which appends to the base pages,
    writes and reads per entry what the first did, not more with each
    month already folded."""

    def test_index_bytes_per_update_last_tenth_vs_first_tenth(self, atlas):
        disk = _FamilyBytes(read_latency=0.0, write_latency=0.0)
        system = _durable_system(atlas, disk)
        days = [date(2021, 3, 1) + timedelta(days=i) for i in range(60)]
        per_day: list[tuple[int, int]] = []  # (index bytes, updates), fold days left out
        for day in days:
            system.publish_day(day)
            before = disk.counted
            report = system.pipeline.run_daily()
            assert report.days_processed == 1 and report.updates_indexed > 0
            if (day + timedelta(days=1)).month == day.month:
                per_day.append((disk.counted - before, report.updates_indexed))
        assert len(per_day) == 59  # Mar 31 folds
        tenth = len(days) // 10

        def bytes_per_update(sample: list[tuple[int, int]]) -> float:
            return sum(b for b, _ in sample) / sum(u for _, u in sample)

        first, last = bytes_per_update(per_day[:tenth]), bytes_per_update(per_day[-tenth:])
        assert first == last == 0, (first, last)

    @pytest.fixture(scope="class")
    def folds(self, atlas) -> dict[date, tuple[int, int, int]]:
        """Each month end of Mar-May 2021: the bytes both indexes' folds
        wrote (pages and undo) and read, and the entries they folded."""
        disk = _FamilyBytes(read_latency=0.0, write_latency=0.0)
        system = _durable_system(atlas, disk)
        folds: list[tuple[date, int, int, int]] = []
        for index in (system.hash_index, system.spatial_index):
            buckets = index.buckets

            def fold(buckets=buckets, real=buckets.fold) -> int:
                folded, end = buckets.extent
                entries = end - folded
                written, read = disk.counted, disk.stats.bytes_read
                folded = real()
                folds.append(
                    (day, disk.counted - written, disk.stats.bytes_read - read, entries)
                )
                return folded

            buckets.fold = fold
        day = date(2021, 3, 1)
        while day <= date(2021, 5, 31):
            system.publish_day(day)
            system.pipeline.run_daily()
            day += timedelta(days=1)
        system.close()
        # Whatever committing the month end deletes is charged to neither.
        return {
            end: tuple(sum(fold[i] for fold in folds if fold[0] == end) for i in (1, 2, 3))
            for end in sorted({fold[0] for fold in folds})
        }

    def test_each_month_end_fold_writes_per_entry_what_the_first_did(self, folds):
        assert list(folds) == [date(2021, 3, 31), date(2021, 4, 30), date(2021, 5, 31)]
        per_entry = [written / entries for written, _, entries in folds.values()]
        # Every entry's bytes, once appended to its base page, plus a
        # truncate record per base page appended to and the watermark.
        assert all(ratio <= 1.1 for ratio in (k / per_entry[0] for k in per_entry)), per_entry
        assert all(20 < value < 27 for value in per_entry), per_entry

    def test_each_month_end_fold_reads_per_entry_what_the_first_did(self, folds):
        """A fold reads the heap rows it folds, not the base pages it
        appends to: those hold every month folded before."""
        # Both indexes fold the same rows, and the heap pages they span are
        # read once, whole: the rows' own bytes plus at most a page at
        # either end (the first row was read to date the tail).
        for _, read, entries in folds.values():
            rows = entries // 2
            assert (rows - 1) * ROW_SIZE <= read <= (rows + 2 * ROWS_PER_PAGE) * ROW_SIZE


class TestHeapWritesAreFlatInFill:
    """A day's heap bytes, pages plus undo, are its rows' own bytes plus a
    record or two of fixed size, whatever the tail page held already
    (rewriting the tail whole, with its pre-image, cost up to two pages)."""

    def test_a_day_writes_its_rows_and_a_length_record(self):
        from repro.storage.wal import IngestWAL

        disk = _FamilyBytes(read_latency=0.0, write_latency=0.0)
        disk.prefixes = ("warehouse/heap/",)
        wal = IngestWAL(disk)
        warehouse = Warehouse(wal.store)
        rng = random.Random(3)
        extras, fills = [], set()
        for day in range(40):
            rows = [make_record(rng.randrange(1000)) for _ in range(rng.randrange(1, 300))]
            fills.add(warehouse.row_count % ROWS_PER_PAGE)
            before = disk.counted
            wal.begin()
            warehouse.append(rows)
            wal.commit()
            extras.append(disk.counted - before - ROW_SIZE * len(rows))
        assert len(fills) > 30  # the tail held many different fills
        # A truncate record (~60 B) for the tail, and on a day that opens
        # a page a "was absent" record (~80 B) for it.
        assert all(0 < extra < 160 for extra in extras), extras
        assert max(extras) - min(extras) < 100, extras
