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


def _pointer(i: int) -> RowPointer:
    return RowPointer(i // 7, i % 7)


class _HashKit:
    """Entry ``i`` of a 4-bucket hash index over 6 keys; ``keys`` is
    everything a reader can ask it."""

    keys = list(range(6))

    def __init__(self, disk):
        self.index = HashIndex(disk, bucket_count=4)
        self.ask = self.index.lookup

    def insert(self, i: int) -> None:
        self.index.insert(i % 6, _pointer(i))

    @staticmethod
    def parent_layout(count: int) -> dict[str, bytes]:
        """The bucket pages the one-level index held after ``count``
        inserts: packed entries in insertion order, nothing else."""
        pages: dict[str, bytes] = {}
        for i in range(count):
            page_id = f"warehouse/hash/{i % 6 % 4:05d}"
            pages[page_id] = pages.get(page_id, b"") + struct.pack(
                "<QII", i % 6, i // 7, i % 7
            )
        return pages


_RNG = random.Random(7)
_POINTS = [(_RNG.uniform(-89, 89), _RNG.uniform(-179, 179)) for _ in range(200)]
_CELL_BOXES = [WORLD] + [
    BBox(min_lon=lon, min_lat=lat, max_lon=lon + 90, max_lat=lat + 90)
    for lon in (-180, -90, 0, 90)
    for lat in (-90, 0)
]


class _GridKit:
    """The same over a 4 x 2 grid, asked cell by cell and for the world."""

    points = _POINTS
    keys = _CELL_BOXES

    def __init__(self, disk):
        self.index = GridSpatialIndex(disk, cols=4, rows=2)
        self.ask = self.index.query

    def insert(self, i: int) -> None:
        self.index.insert(*self.points[i], _pointer(i))

    @classmethod
    def parent_layout(cls, count: int) -> dict[str, bytes]:
        pages: dict[str, bytes] = {}
        for i, (lat, lon) in enumerate(cls.points[:count]):
            page_id = f"warehouse/grid/{int((lon + 180) / 90):03d}_{int((lat + 90) / 90):03d}"
            pages[page_id] = pages.get(page_id, b"") + struct.pack(
                "<ddII", lat, lon, i // 7, i % 7
            )
        return pages


def _corrupt_segment(data: bytes, how: str) -> bytes:
    """One flushed segment page (>= 2 buckets), broken one way."""
    header, spans = struct.Struct("<4sII"), struct.Struct("<III")
    magic, size, count = header.unpack_from(data)
    assert magic == b"RSEG" and count >= 2
    second = header.size + spans.size
    bucket, first, entries = spans.unpack_from(data, second)
    if how == "bad magic":
        return b"XSEG" + data[4:]
    if how == "wrong entry size":
        return header.pack(magic, size + 4, count) + data[header.size :]
    if how == "overlapping directory":
        return data[:second] + spans.pack(bucket, first - 1, entries) + data[second + spans.size :]
    if how == "unsorted directory":
        return data[:second] + spans.pack(0, first, entries) + data[second + spans.size :]
    if how == "short directory":
        return data[: second + 5]
    if how == "no header":
        return data[:7]
    assert how == "short entries"
    return data[:-3]


@pytest.mark.parametrize("Kit", [_HashKit, _GridKit])
class TestTwoLevelIndex:
    """What both warehouse indexes get from ``storage.segments``."""

    @staticmethod
    def _observed(disk, kit, step):
        """Run ``step`` asking every key after every write and delete:
        each answer is the pre- or the post-step pointer list — no row
        twice, none lost that an earlier observation saw."""
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
            for _ in range(30):
                kit.insert(inserted)
                inserted += 1
            # The buffer is the writer's own until the flush.
            assert [kit.ask(key) for key in kit.keys] == before
            _, flushed = self._observed(disk, kit, kit.index.flush)
            assert flushed != before
            if then_fold:
                assert len(kit.index.buckets.segments) > 0
                pre, post = self._observed(disk, kit, kit.index.buckets.fold)
                assert pre == post == flushed
                assert len(kit.index.buckets.segments) == 0
        # Folded, the store holds what the one-level index wrote.
        assert {
            page_id: disk.read(page_id) for page_id in disk.list_pages("")
        } == Kit.parent_layout(inserted)

    def test_a_root_of_base_pages_only_opens_and_answers_the_same(self, Kit):
        old_disk = InMemoryDisk(read_latency=0.0, write_latency=0.0)
        for page_id, data in Kit.parent_layout(90).items():
            old_disk.write(page_id, data)
        old = Kit(old_disk)
        assert len(old.index.buckets.segments) == 0
        new_disk = InMemoryDisk(read_latency=0.0, write_latency=0.0)
        new = Kit(new_disk)
        for i in range(90):
            new.insert(i)
            if i % 30 == 29:
                new.index.flush()
        assert len(new.index.buckets.segments) == 3
        # Same rows in the same order: base, then segments oldest first.
        assert [new.ask(key) for key in Kit.keys] == [old.ask(key) for key in Kit.keys]
        assert any(old.ask(key) for key in Kit.keys)
        # The old root grows its first segment and leaves its pages alone.
        for kit in (old, new):
            for i in range(90, 100):
                kit.insert(i)
            assert kit.index.flush() == 1
        assert list(old_disk.list_pages(old.index.prefix + "/seg/")) == [
            old.index.prefix + "/seg/00000000"
        ]
        for page_id, data in Kit.parent_layout(90).items():
            assert old_disk.read(page_id) == data
        assert [new.ask(key) for key in Kit.keys] == [old.ask(key) for key in Kit.keys]
        reopened = Kit(old_disk)
        assert [reopened.ask(key) for key in Kit.keys] == [old.ask(key) for key in Kit.keys]

    def test_a_flush_writes_one_page_whatever_it_touches(self, Kit):
        disk = InMemoryDisk(read_latency=0.0, write_latency=0.0)
        kit = Kit(disk)
        for i in range(60):
            kit.insert(i)
        assert kit.index.flush() == 1
        assert disk.stats.writes == 1
        assert kit.index.flush() == 0  # nothing buffered, nothing written
        assert list(disk.list_pages("")) == [kit.index.prefix + "/seg/00000000"]

    def test_discard_pending_drops_the_buffer_and_relists_segments(self, Kit):
        disk = InMemoryDisk(read_latency=0.0, write_latency=0.0)
        kit = Kit(disk)
        kit.insert(0)
        kit.index.flush()
        flushed = [kit.ask(key) for key in Kit.keys]
        kit.insert(1)
        kit.insert(2)
        # What a WAL rollback does behind the index's back.
        disk.delete(kit.index.prefix + "/seg/00000000")
        assert kit.index.buckets.discard_pending() == 2
        assert len(kit.index.buckets.segments) == 0
        assert not any(kit.ask(key) for key in Kit.keys)
        kit.insert(0)
        kit.index.flush()  # under the number the rolled-back batch had
        assert list(disk.list_pages("")) == [kit.index.prefix + "/seg/00000000"]
        assert [kit.ask(key) for key in Kit.keys] == flushed

    def test_a_read_straddling_a_fold_and_the_next_flush_starts_over(self, Kit):
        """The next flush reuses the folded segment's number: a reader
        that listed the old one must not cut the new page by the old
        directory."""

        class StraddledDisk(InMemoryDisk):
            straddle = None

            def read(self, page_id: str) -> bytes:
                if self.straddle is not None and "/seg/" in page_id:
                    step, self.straddle = self.straddle, None
                    step()
                return super().read(page_id)

        disk = StraddledDisk(read_latency=0.0, write_latency=0.0)
        kit = Kit(disk)
        for i in range(60):
            kit.insert(i)
        kit.index.flush()

        fresh = iter(range(60, 200))

        def fold_then_flush_a_smaller_batch():
            kit.index.buckets.fold()
            for _ in range(10):
                kit.insert(next(fresh))
            kit.index.flush()

        for key in Kit.keys:
            disk.straddle = fold_then_flush_a_smaller_batch
            found = kit.ask(key)
            disk.straddle = None
            assert found == kit.ask(key)
            assert len(set(found)) == len(found)

    @pytest.mark.parametrize(
        "how",
        [
            "bad magic",
            "wrong entry size",
            "overlapping directory",
            "unsorted directory",
            "short directory",
            "no header",
            "short entries",
        ],
    )
    def test_a_broken_segment_page_is_refused(self, Kit, how):
        disk = InMemoryDisk(read_latency=0.0, write_latency=0.0)
        kit = Kit(disk)
        for i in range(40):
            kit.insert(i)
        kit.index.flush()
        page_id = kit.index.prefix + "/seg/00000000"
        disk.write(page_id, _corrupt_segment(disk.read(page_id), how))
        with pytest.raises(StorageError):
            Kit(disk)
        with pytest.raises(StorageError):
            kit.index.buckets.discard_pending()

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
        bases = list(disk.list_pages(kit.index.prefix + "/"))
        for page_id in bases:
            disk.append(page_id, b"\x01\x02\x03", len(disk.read(page_id)))
        assert [kit.ask(key) for key in Kit.keys] == answers
        assert [Kit(disk).ask(key) for key in Kit.keys] == answers
        for i in range(40, 80):
            kit.insert(i)
        kit.index.flush()
        with pytest.raises(StorageError, match="append at byte"):
            kit.index.buckets.fold()

    def test_a_segment_that_shrank_under_its_directory_reads_as_torn(self, Kit):
        disk = InMemoryDisk(read_latency=0.0, write_latency=0.0)
        kit = Kit(disk)
        for i in range(40):
            kit.insert(i)
        kit.index.flush()
        page_id = kit.index.prefix + "/seg/00000000"
        disk.write(page_id, disk.read(page_id)[:-3])
        with pytest.raises(StorageError, match="torn"):
            [kit.ask(key) for key in Kit.keys]
        with pytest.raises(StorageError, match="torn"):
            kit.index.buckets.fold()
        disk.delete(page_id)
        with pytest.raises(StorageError, match="missing"):
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

    def test_unflushed_entries_are_invisible(self, disk):
        index = HashIndex(disk)
        index.insert(9, RowPointer(3, 3))
        assert index.lookup(9) == [] and 9 not in index
        index.flush()
        assert index.lookup(9) == [RowPointer(3, 3)]

    def test_no_reader_sees_an_entry_twice_during_flush(self):
        """A lookup landing after any write or delete of a flush and of
        the fold behind it finds each entry once or not yet."""
        disk = _ObservedDisk()
        index = HashIndex(disk, bucket_count=4)
        index.insert(1, RowPointer(0, 0))
        index.insert(2, RowPointer(0, 1))  # another bucket: two fold writes
        seen = []
        disk.observe = lambda: seen.append((index.lookup(1), index.lookup(2)))
        assert index.flush() == 1
        assert index.buckets.fold() == 2
        # After the segment write, not yet published: the pre-batch
        # answer.  Then two bucket writes and the segment delete.
        assert seen == [([], [])] + [([RowPointer(0, 0)], [RowPointer(0, 1)])] * 3
        index.insert(1, RowPointer(0, 2))
        assert index.buckets.discard_pending() == 1  # a fresh buffer after the flush

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
        index.buckets.fold()
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
        index.insert(50.0, 120.0, RowPointer(0, 1))  # another cell: two fold writes
        seen = []
        disk.observe = lambda: seen.append(index.query(WORLD))
        assert index.flush() == 1
        assert index.buckets.fold() == 2
        # After the segment write, not yet published: the pre-batch
        # answer.  Then two cell writes and the segment delete.
        assert seen == [[]] + [[RowPointer(0, 0), RowPointer(0, 1)]] * 3
        index.insert(10.0, 20.0, RowPointer(0, 2))
        assert index.buckets.discard_pending() == 1  # a fresh buffer after the flush

    def test_unflushed_points_are_invisible(self, disk):
        index = GridSpatialIndex(disk)
        index.insert(5.0, 5.0, RowPointer(1, 1))
        box = BBox(min_lon=4.0, min_lat=4.0, max_lon=6.0, max_lat=6.0)
        assert index.query(box) == []
        index.flush()
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
    """What a day writes into the two indexes — segment page plus its
    pre-image — follows the day's updates, not the days already stored
    (rewriting every touched bucket page whole grew with each of them);
    so does a month end's fold, which appends to the base pages."""

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
        assert 0.9 <= last / first <= 1.1, (first, last)
        # 16 + 24 bytes of entries, a directory line per touched bucket,
        # two headers and two "was absent" pre-images.
        assert 40 < last < 80, last

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
                size = buckets._entry.size
                entries = sum(
                    (end - start) // size for _, spans in buckets.segments
                    for start, end in spans.values()
                )
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
        # truncate record per base page appended to and a retire record
        # per segment (its pages go at commit, with no pre-image).
        assert all(ratio <= 1.1 for ratio in (k / per_entry[0] for k in per_entry)), per_entry
        assert all(20 < value < 27 for value in per_entry), per_entry

    def test_each_month_end_fold_reads_per_entry_what_the_first_did(self, folds):
        """A fold reads the segments it folds, not the base pages it
        appends to: those hold every month folded before."""
        per_entry = [read / entries for _, read, entries in folds.values()]
        assert all(ratio <= 1.1 for ratio in (k / per_entry[0] for k in per_entry)), per_entry


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
