"""Unit tests for the ingestion write-ahead log.

These pin the WAL's protocol invariants directly at the page level —
the crash *matrix* (whole-system kills at every injection point) lives
in ``test_crash_recovery.py``; here each mechanism is exercised in
isolation: pre-image capture, the atomic commit point, rollback,
torn-undo skipping, orphan collection, and batch numbering.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import StorageError
from repro.storage.disk import InMemoryDisk
from repro.storage.wal import IngestWAL, WalRecovery


def _disk() -> InMemoryDisk:
    return InMemoryDisk(read_latency=0, write_latency=0)


def _snapshot(disk: InMemoryDisk) -> dict[str, bytes]:
    """Every non-WAL page, by id."""
    return {
        page_id: disk.read(page_id)
        for page_id in disk.list_pages("")
        if not page_id.startswith("wal/")
    }


class TestBatchLifecycle:
    def test_begin_writes_intent(self):
        disk = _disk()
        wal = IngestWAL(disk)
        batch = wal.begin({"kind": "daily", "day": "2021-01-01"})
        payload = json.loads(disk.read("wal/intent").decode("utf-8"))
        assert payload["batch"] == batch
        assert payload["meta"]["day"] == "2021-01-01"

    def test_commit_deletes_intent_and_checkpoints(self):
        disk = _disk()
        wal = IngestWAL(disk)
        wal.begin()
        wal.store.write("cubes/D2021-01-01", b"cube")
        wal.commit({"kind": "daily"})
        assert "wal/intent" not in disk
        assert list(disk.list_pages("wal/undo/")) == []
        assert json.loads(disk.read("wal/checkpoint"))["batch"] == 1
        assert wal.begin() == 2  # the batch is closed: the next one opens

    def test_double_begin_rejected(self):
        wal = IngestWAL(_disk())
        wal.begin()
        with pytest.raises(StorageError, match="already active"):
            wal.begin()

    def test_commit_without_begin_rejected(self):
        with pytest.raises(StorageError, match="no active"):
            IngestWAL(_disk()).commit()

    def test_begin_over_leftover_intent_rejected(self):
        """A new process must recover before it can start a batch."""
        disk = _disk()
        IngestWAL(disk).begin()
        with pytest.raises(StorageError, match="recover"):
            IngestWAL(disk).begin()

    def test_batch_numbers_survive_restart(self):
        disk = _disk()
        wal = IngestWAL(disk)
        wal.begin()
        wal.commit()
        wal.begin()
        wal.commit()
        assert IngestWAL(disk).begin() == 3


class TestJournaling:
    def test_first_touch_only(self):
        """Two writes to one page capture exactly one pre-image."""
        disk = _disk()
        wal = IngestWAL(disk)
        disk.write("cubes/D2021-01-01", b"before")
        wal.begin()
        wal.store.write("cubes/D2021-01-01", b"v1")
        wal.store.write("cubes/D2021-01-01", b"v2")
        assert len(list(disk.list_pages("wal/undo/"))) == 1

    def test_wal_pages_never_journaled(self):
        disk = _disk()
        wal = IngestWAL(disk)
        wal.begin()
        wal.store.write("wal/oddball", b"x")
        undo = [
            page_id
            for page_id in disk.list_pages("wal/undo/")
        ]
        assert undo == []

    def test_passthrough_outside_batch(self):
        """No undo traffic without an open batch (the no-op guarantee)."""
        disk = _disk()
        wal = IngestWAL(disk)
        wal.store.write("cubes/D2021-01-01", b"x")
        wal.store.delete("cubes/D2021-01-01")
        assert list(disk.list_pages("wal/")) == []


class TestRecovery:
    def test_clean_store_is_a_noop(self):
        report = IngestWAL(_disk()).recover()
        assert report == WalRecovery()

    def test_rollback_restores_overwrites_deletes_and_creates(self):
        disk = _disk()
        disk.write("cubes/D2021-01-01", b"old-cube")
        disk.write("meta/daily_cursor", b"41")
        wal = IngestWAL(disk)
        before = _snapshot(disk)

        wal.begin({"kind": "daily"})
        wal.store.write("cubes/D2021-01-01", b"new-cube")   # overwrite
        wal.store.delete("meta/daily_cursor")               # delete
        wal.store.write("warehouse/heap/000042", b"rows")   # create
        # ...crash here: no commit.  A fresh process recovers.
        report = IngestWAL(disk).recover()
        assert report.rolled_back
        assert report.batch_meta == {"kind": "daily"}
        assert report.pages_restored == 3
        assert _snapshot(disk) == before
        assert list(disk.list_pages("wal/")) == []

    def test_recover_is_idempotent(self):
        disk = _disk()
        wal = IngestWAL(disk)
        wal.begin()
        wal.store.write("cubes/D2021-01-01", b"x")
        fresh = IngestWAL(disk)
        assert fresh.recover().rolled_back
        again = fresh.recover()
        assert not again.rolled_back and again.pages_restored == 0

    def test_torn_intent_means_nothing_to_restore(self):
        """Garbage in the intent page = the batch died during begin();
        recovery clears it without touching data pages."""
        disk = _disk()
        disk.write("cubes/D2021-01-01", b"cube")
        disk.write("wal/intent", b"\x00garbage\xff")
        report = IngestWAL(disk).recover()
        assert report.rolled_back
        assert report.pages_restored == 0
        assert disk.read("cubes/D2021-01-01") == b"cube"
        assert "wal/intent" not in disk

    def test_torn_undo_page_is_skipped_not_restored(self):
        """A corrupt pre-image is never written back: write-ahead
        ordering means its data page was provably untouched."""
        disk = _disk()
        disk.write("cubes/D2021-01-01", b"original")
        wal = IngestWAL(disk)
        wal.begin()
        wal.store.write("cubes/D2021-01-01", b"overwritten")
        undo_id = next(iter(disk.list_pages("wal/undo/")))
        disk.write(undo_id, disk.read(undo_id)[:-4])  # tear the payload
        report = IngestWAL(disk).recover()
        assert report.pages_skipped == 1
        assert report.pages_restored == 0
        # The torn pre-image was NOT restored over the page...
        assert disk.read("cubes/D2021-01-01") == b"overwritten"
        # ...and the torn undo page itself is gone.
        assert list(disk.list_pages("wal/")) == []

    def test_orphan_undo_pages_collected(self):
        """Undo left by a crash between commit-point and GC is garbage."""
        disk = _disk()
        wal = IngestWAL(disk)
        wal.begin()
        wal.store.write("cubes/D2021-01-01", b"x")
        disk.delete("wal/intent")  # simulate crash right after commit point
        report = IngestWAL(disk).recover()
        assert not report.rolled_back
        assert report.orphans_collected == 1
        assert disk.read("cubes/D2021-01-01") == b"x"

    def test_crash_during_recovery_is_recoverable(self):
        """Recovery is restartable: a second pass after a partial first
        pass still converges to the pre-batch state."""
        disk = _disk()
        disk.write("cubes/D2021-01-01", b"a")
        disk.write("cubes/D2021-01-02", b"b")
        wal = IngestWAL(disk)
        before = _snapshot(disk)
        wal.begin()
        wal.store.write("cubes/D2021-01-01", b"A")
        wal.store.write("cubes/D2021-01-02", b"B")
        # First recovery pass restores one page then "crashes": emulate
        # by hand-rolling what _restore_batch would have half-done.
        fresh = IngestWAL(disk)
        undo_ids = sorted(disk.list_pages("wal/undo/"), reverse=True)
        parsed = fresh._parse_undo(disk.read(undo_ids[0]))
        assert parsed is not None
        page_id, payload = parsed
        disk.write(page_id, payload)
        disk.delete(undo_ids[0])
        # The process dies; a third process runs full recovery.
        assert IngestWAL(disk).recover().rolled_back
        assert _snapshot(disk) == before


class TestTruncateRecords:
    """An append journals a truncate record — the page's length, no bytes —
    and a rollback cuts the page back to it."""

    HEAP = "warehouse/heap/00000003"

    def _appended(self, tail: bytes = b"r" * 960):
        """A heap tail of ``tail``, then a batch that appended to it."""
        disk = _disk()
        disk.write(self.HEAP, tail)
        before = _snapshot(disk)
        wal = IngestWAL(disk)
        wal.begin()
        wal.store.append(self.HEAP, b"n" * 192, len(tail))
        return disk, wal, before

    def test_an_append_journals_a_length_whatever_the_page_holds(self):
        sizes = []
        for tail in (b"", b"r" * 96, b"r" * 40_000):
            disk, wal, _ = self._appended(tail)
            wal.store.append(self.HEAP, b"m" * 96, len(tail) + 192)  # journaled already
            (undo_id,) = disk.list_pages("wal/undo/")
            record = disk.read(undo_id)
            header = json.loads(record.partition(b"\n")[0])
            assert header == {"page_id": self.HEAP, "truncate": len(tail)}
            sizes.append(len(record))
        assert max(sizes) - min(sizes) <= 4  # the length's digits, not the page

    @pytest.mark.parametrize("landed", [0, 1, 95, 96, 192])
    def test_a_rollback_cuts_a_whole_or_partial_append_off(self, landed):
        disk, wal, before = self._appended()
        disk._pages[self.HEAP] = disk._pages[self.HEAP][: 960 + landed]
        report = IngestWAL(disk).recover()
        assert (report.rolled_back, report.pages_restored) == (True, 1)
        assert _snapshot(disk) == before

    def test_an_append_that_creates_a_page_is_undone_by_deleting_it(self):
        disk = _disk()
        wal = IngestWAL(disk)
        wal.begin()
        wal.store.append(self.HEAP, b"n" * 96, 0)
        wal.store.append(self.HEAP, b"m" * 96, 96)
        (undo_id,) = disk.list_pages("wal/undo/")
        assert json.loads(disk.read(undo_id).partition(b"\n")[0])["existed"] is False
        IngestWAL(disk).recover()
        assert _snapshot(disk) == {}

    @pytest.mark.parametrize("then", ["write", "delete"])
    def test_a_page_appended_then_rewritten_journals_its_first_bytes(self, then):
        disk, wal, before = self._appended()
        if then == "write":
            wal.store.write(self.HEAP, b"w" * 10)
        else:
            wal.store.delete(self.HEAP)
        wal.store.write(self.HEAP, b"v" * 20)
        wal.store.append(self.HEAP, b"a" * 5, 20)
        undo = [disk.read(page) for page in disk.list_pages("wal/undo/")]
        assert len(undo) == 2
        assert undo[1].partition(b"\n")[2] == before[self.HEAP]
        IngestWAL(disk).recover()
        assert _snapshot(disk) == before

    def test_a_torn_upgrade_record_leaves_the_truncate_to_undo_the_append(self):
        """The pre-image journaled before a whole write tore: the write
        never happened, and the truncate record alone restores the page."""
        disk, wal, before = self._appended()
        wal.store.write(self.HEAP, b"w" * 10)
        upgrade = sorted(disk.list_pages("wal/undo/"))[-1]
        disk.write(self.HEAP, before[self.HEAP] + b"n" * 192)  # the write never landed
        disk.write(upgrade, disk.read(upgrade)[:-7])
        report = IngestWAL(disk).recover()
        assert (report.pages_restored, report.pages_skipped) == (1, 1)
        assert _snapshot(disk) == before

    def test_a_torn_truncate_record_is_skipped(self):
        disk = _disk()
        disk.write(self.HEAP, b"r" * 96)
        wal = IngestWAL(disk)
        wal.begin()
        wal.journal(self.HEAP, 96)
        (undo_id,) = disk.list_pages("wal/undo/")
        record = disk.read(undo_id)
        assert IngestWAL._parse_undo(record) == (self.HEAP, 96)
        for torn in (record[:-1], record[:-2], record[:10], record + b"x"):
            assert IngestWAL._parse_undo(torn) is None

    def test_a_page_written_first_keeps_its_pre_image(self):
        disk = _disk()
        disk.write(self.HEAP, b"r" * 96)
        before = _snapshot(disk)
        wal = IngestWAL(disk)
        wal.begin()
        wal.store.write(self.HEAP, b"w" * 48)
        wal.store.append(self.HEAP, b"n" * 96, 48)
        assert len(list(disk.list_pages("wal/undo/"))) == 1
        IngestWAL(disk).recover()
        assert _snapshot(disk) == before


class TestCheckpoint:
    def test_missing_checkpoint_reads_none(self):
        disk = _disk()
        assert "wal/checkpoint" not in disk
        assert IngestWAL(disk).begin() == 1

    def test_checkpoint_carries_commit_meta(self):
        disk = _disk()
        wal = IngestWAL(disk)
        wal.begin()
        wal.commit({"kind": "monthly", "month": "M2021-01"})
        checkpoint = json.loads(disk.read("wal/checkpoint"))
        assert checkpoint["meta"] == {"kind": "monthly", "month": "M2021-01"}

    def test_unparseable_checkpoint_reads_none(self):
        disk = _disk()
        disk.write("wal/checkpoint", b"not json")
        assert IngestWAL(disk).begin() == 1  # numbered as if there were none
