"""The writer lease: one writer per root, and only it recovers.

Every write call (``run_daily``, ``run_monthly``, ``recover``) holds
the root's lease for its whole length; every opener tries it without
waiting and rolls back a half-done batch only when the lease is free,
that is, when no writer is alive to own the batch.  On a
:class:`DirectoryDisk` the lease is a ``flock`` beside the page
directory; on any other store, a lock on the store object.  Both are
exercised here, within one process: two ``flock`` descriptors on one
file conflict exactly as two processes' would.
"""

from __future__ import annotations

import errno
import json
import os
import urllib.error
import urllib.request
from datetime import date, timedelta
from pathlib import Path

import pytest

from repro import cli
from repro.core.query import AnalysisQuery
from repro.dashboard.server import DashboardServer
from repro.errors import ConfigError, StorageError
from repro.storage.disk import DirectoryDisk, InMemoryDisk
from repro.storage.warehouse import RowPointer, Warehouse
from repro.synth.simulator import SimulationConfig
from repro.system import RasedSystem, SystemConfig
from tests.support import CrashPoint, FaultPlan, FaultyPageStore
from repro.types.temporal import month_key

#: ``durable_ingest`` spelled out, as the benchmark harness spells it.
CONFIG = SystemConfig.serving(
    durable_ingest=True,
    road_types=8,
    simulation=SimulationConfig(
        seed=17, mapper_count=6, base_sessions_per_day=2, nodes_per_country=2
    ),
)

WINDOW = (date(2021, 1, 1), date(2021, 1, 6))


def _publish(system: RasedSystem, start: date, end: date) -> None:
    day = start
    while day <= end:
        system.publish_day(day)
        day += timedelta(days=1)


def _pages(store) -> dict[str, bytes]:
    """Every page but the WAL's own bookkeeping."""
    return {
        page_id: store.read(page_id)
        for page_id in store.list_pages("")
        if not page_id.startswith("wal/")
    }


def _during_first_batch(system: RasedSystem, action) -> list:
    """Run ``action()`` once, inside ``system``'s first ingest batch
    (cubes and rows written, cursor and commit still to come)."""
    done: list = []
    ingest = system.pipeline.ingest_daily_result

    def hooked(result, report):
        ingest(result, report)
        if not done:
            done.append(action())

    system.pipeline.ingest_daily_result = hooked
    return done


def _system(atlas, feed_root: Path, store) -> RasedSystem:
    return RasedSystem.create(root=feed_root, atlas=atlas, store=store, config=CONFIG)


@pytest.fixture(scope="module")
def feed_root(atlas, tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("lease-feed")
    _publish(_system(atlas, root, InMemoryDisk(0, 0)), *WINDOW)
    return root


@pytest.fixture(scope="module")
def uninterrupted(atlas, feed_root) -> dict[str, bytes]:
    disk = InMemoryDisk(0, 0)
    _system(atlas, feed_root, disk).pipeline.run_daily()
    return _pages(disk)


def _opener(kind: str, atlas, feed_root: Path, tmp_path: Path, store=None):
    """A new opener of one root: a fresh ``DirectoryDisk`` over the same
    directory (as another process would), or the same in-memory store."""
    if kind == "directory":
        store = DirectoryDisk(tmp_path / "pages", read_latency=0, write_latency=0)
    return _system(atlas, feed_root, store)


class TestOpenDuringABatch:
    def test_an_opener_during_a_live_batch_leaves_it_alone(self, tmp_path):
        """The lost-day case, through ``cli._open_system``: A ingests 1-10
        Jan, then runs 11-14 Jan; B opens the root during the 11 Jan
        batch.  A commits, and the root equals one nobody interrupted."""
        interrupted, untouched = tmp_path / "a", tmp_path / "u"

        def open_root(root: Path) -> RasedSystem:
            return cli._open_system(str(root), CONFIG)

        publisher = open_root(interrupted)
        untouched.mkdir()
        (untouched / "feeds").symlink_to(interrupted / "feeds")

        _publish(publisher, date(2021, 1, 1), date(2021, 1, 10))
        for root in (interrupted, untouched):
            assert open_root(root).pipeline.run_daily().days_processed == 10
        _publish(publisher, date(2021, 1, 11), date(2021, 1, 14))

        writer = open_root(interrupted)
        opened = _during_first_batch(writer, lambda: open_root(interrupted))
        assert writer.pipeline.run_daily().days_processed == 4
        assert opened[0].recovered is None  # the lease was held: hands off
        assert open_root(untouched).pipeline.run_daily().days_processed == 4

        stores = [DirectoryDisk(root / "pages") for root in (interrupted, untouched)]
        assert _pages(stores[0]) == _pages(stores[1])
        january = AnalysisQuery(start=date(2021, 1, 1), end=date(2021, 1, 31))
        totals = [
            open_root(root).dashboard.analysis(january) for root in (interrupted, untouched)
        ]
        assert totals[0].total == totals[1].total > 0
        assert not totals[0].stats.partial

    @pytest.mark.parametrize("kind", ["directory", "memory"])
    def test_a_second_writer_is_refused_naming_the_holder(
        self, atlas, feed_root, uninterrupted, tmp_path, kind
    ):
        shared = InMemoryDisk(0, 0)
        writer = _opener(kind, atlas, feed_root, tmp_path, shared)
        second = _opener(kind, atlas, feed_root, tmp_path, shared)

        def refused() -> str:
            for call in (second.pipeline.run_daily, second.pipeline.recover):
                with pytest.raises(ConfigError, match=f"pid {os.getpid()}"):
                    call()
            return "refused"

        hooked = _during_first_batch(writer, refused)
        writer.pipeline.run_daily()
        assert hooked == ["refused"]
        # Released on return.  The second writer sees the first one's
        # commits and finds nothing left to do.
        assert second.pipeline.run_daily().days_processed == 0
        assert _pages(second.store) == uninterrupted
        if kind == "directory":
            lock = tmp_path / "pages.lock"
            assert lock.read_text() == str(os.getpid())
            assert not any("lock" in page for page in writer.store.list_pages(""))

    def test_a_rebuild_is_one_batch_under_the_lease(
        self, atlas, feed_root, tmp_path
    ):
        writer = _opener("directory", atlas, feed_root, tmp_path)
        writer.pipeline.run_daily()
        history = tmp_path / "history.osm"
        publisher = _system(atlas, tmp_path / "republish", InMemoryDisk(0, 0))
        _publish(publisher, *WINDOW)
        publisher.publisher.write_history_dump(history)

        rebuild = writer.index.rebuild_month
        seen = []

        def watched(month, by_day):
            other = _opener("directory", atlas, feed_root, tmp_path)
            seen.append((writer.wal.intent_page in writer.store, other.recovered))
            return rebuild(month, by_day)

        writer.index.rebuild_month = watched
        assert writer.pipeline.run_monthly(history, [month_key(2021, 1)]).cubes_written
        assert seen == [(True, None)]
        assert writer.wal.intent_page not in writer.store


class TestAfterACrash:
    @pytest.mark.parametrize("point", ["warehouse.write", "index.put"])
    def test_a_reopen_recovers_a_torn_batch_and_resumes(
        self, atlas, feed_root, uninterrupted, point
    ):
        """A torn write (the heap tail included) unwinds the call and
        frees the lease, so the next opener constructs, rolls back, and
        the writer after it finishes the window."""
        disk = InMemoryDisk(0, 0)
        faulty = FaultyPageStore(disk, FaultPlan.single(point, kind="torn", after=3))
        crashed = _system(atlas, feed_root, faulty)
        with pytest.raises(CrashPoint):
            crashed.pipeline.run_daily()
        if point == "warehouse.write":  # the heap's tail page is torn
            with pytest.raises(StorageError, match="torn heap page"):
                Warehouse(disk)

        faulty.plan = None
        reopened = _system(atlas, feed_root, faulty)
        assert reopened.recovered is not None and reopened.recovered.rolled_back
        assert reopened.metrics.value("rased_ingest_batches_rolled_back_total") == 1
        reopened.pipeline.run_daily()
        assert _pages(disk) == uninterrupted

    @pytest.mark.parametrize("kind", ["directory", "memory"])
    def test_a_reader_opened_mid_batch_recovers_once_it_writes(
        self, atlas, feed_root, uninterrupted, tmp_path, kind
    ):
        """B opens during A's batch and leaves it alone; A then dies.
        B's next write call takes the free lease, rolls A's batch back,
        resynchronizes, and ingests the window exactly once."""
        shared = InMemoryDisk(0, 0)
        writer = _opener(kind, atlas, feed_root, tmp_path, shared)
        opened = _during_first_batch(
            writer, lambda: _opener(kind, atlas, feed_root, tmp_path, shared)
        )

        def dying() -> None:
            raise CrashPoint("cursor", writer.pipeline.CURSOR_PAGE)

        writer.pipeline._save_cursor = dying
        with pytest.raises(CrashPoint):
            writer.pipeline.run_daily()

        reader = opened[0]
        assert reader.recovered is None
        assert reader.pipeline.run_daily().days_processed == 6
        assert reader.metrics.value("rased_ingest_batches_rolled_back_total") == 1
        assert _pages(reader.store) == uninterrupted


class TestAReadOnlyRoot:
    @pytest.mark.parametrize("code", [errno.EROFS, errno.EACCES])
    def test_an_opener_that_cannot_open_the_lease_file_reads_and_never_writes(
        self, atlas, feed_root, uninterrupted, tmp_path, monkeypatch, code
    ):
        """The lease file of a read-only mount cannot be opened for
        writing (as root in a sandbox, a chmod would not stop the open,
        so the open itself is made to fail): the opener comes up as a
        reader that leaves a dead writer's batch alone and refuses to
        ingest, saying why."""
        writer = _opener("directory", atlas, feed_root, tmp_path)

        def dying() -> None:
            raise CrashPoint("cursor", writer.pipeline.CURSOR_PAGE)

        writer.pipeline._save_cursor = dying
        with pytest.raises(CrashPoint):
            writer.pipeline.run_daily()
        store = DirectoryDisk(tmp_path / "pages")
        left = {page_id: store.read(page_id) for page_id in store.list_pages("")}
        assert writer.wal.intent_page in left

        real_open = os.open

        def refusing(path, *args, **kwargs):
            if Path(path) == store.lock_path:
                raise OSError(code, os.strerror(code), str(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(os, "open", refusing)
        reader = _opener("directory", atlas, feed_root, tmp_path)
        assert reader.recovered is None
        for call in (reader.pipeline.run_daily, reader.pipeline.recover):
            with pytest.raises(ConfigError, match="this root is read-only"):
                call()
        assert {page_id: store.read(page_id) for page_id in store.list_pages("")} == left

        monkeypatch.undo()
        writable = _opener("directory", atlas, feed_root, tmp_path)
        assert writable.recovered is not None and writable.recovered.rolled_back
        assert writable.pipeline.run_daily().days_processed == 6
        assert _pages(writable.store) == uninterrupted


def _get(server, path: str) -> tuple[int, object]:
    try:
        with urllib.request.urlopen(server.url + path) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestAnAppendInFlight:
    """A ``DirectoryDisk`` append is not atomic, so an opener without the
    lease, or a reader thread beside the writer, can meet a heap or bucket
    page that ends part-way through a record.  Each reads the page's whole
    records and leaves the rest to the writer's recovery."""

    def test_a_lease_less_opener_and_a_samples_query_read_whole_records(
        self, atlas, feed_root, tmp_path
    ):
        writer = _opener("directory", atlas, feed_root, tmp_path)
        writer.pipeline.run_daily()
        with writer.wal.lease():  # base pages, as a month end leaves them
            for index in (writer.hash_index, writer.spatial_index):
                assert index.buckets.fold() > 0
        first = writer.warehouse.fetch_many([RowPointer(0, 0)])[0]
        zone = f"/samples?zone={first.country}&n=10000"
        changeset = f"/changeset/{first.changeset_id}"
        with DashboardServer(writer.dashboard) as server:
            whole = {path: _get(server, path) for path in (zone, changeset)}
        assert whole[zone][0] == whole[changeset][0] == 200
        rows = writer.warehouse.row_count

        store = DirectoryDisk(tmp_path / "pages")
        cut = [sorted(store.list_pages("warehouse/heap/"))[-1]]
        # Every base page: a watermark is written whole, never appended.
        cut += [
            p for p in store.list_pages("warehouse/")
            if p.count("/") == 2 and "heap" not in p and not p.endswith("/folded")
        ]
        assert len(cut) > 2
        for page_id in cut:  # every base page and the heap tail
            with open(store._path(page_id), "ab") as handle:
                handle.write(b"\xee" * 7)  # the start of an append

        with writer.wal.lease():  # the appending writer is alive
            reader = _opener("directory", atlas, feed_root, tmp_path)
            assert reader.recovered is None
            assert reader.warehouse.row_count == rows
            for system in (reader, writer):  # another process; a reader thread
                with DashboardServer(system.dashboard) as server:
                    assert {path: _get(server, path) for path in whole} == whole
        # A lease holder recovers before it reads: left like this, the
        # heap tail is a fault.
        with pytest.raises(StorageError, match="torn heap page"):
            Warehouse(store)


class TestALongLivedOpener:
    """An opener keeps the watermark and heap extent it read at open.  A
    sibling's month-end fold since then moves rows into base pages the
    opener reads too; it meets them twice and keeps one copy.  (That it
    does not see the sibling's newer rows is staleness, ROADMAP item 2A.)"""

    def test_its_drill_down_answers_after_a_siblings_month_end_fold(self, tmp_path):
        """ROADMAP item 2's repro: A ingests 1-14 Jan, B opens, C ingests
        15 Jan - 3 Feb across the month end; B's ``POST /analysis/samples``
        still answers, with rows a fresh opener holds, each once."""
        from collections import Counter

        from repro.dashboard.server import run_analysis_request

        root = tmp_path / "root"

        def open_root() -> RasedSystem:
            return cli._open_system(str(root), CONFIG)

        a = open_root()
        _publish(a, date(2021, 1, 1), date(2021, 1, 14))
        assert a.pipeline.run_daily().days_processed == 14
        b = open_root()
        _publish(a, date(2021, 1, 15), date(2021, 2, 3))
        c = open_root()
        assert c.pipeline.run_daily().days_processed == 20
        assert c.spatial_index.buckets.extent[0] > b.spatial_index.buckets.extent[1]

        body = json.dumps({"start": "2021-01-01", "end": "2021-02-28", "n": 10_000}).encode()
        status, payload = run_analysis_request(b.dashboard, "samples", body)
        assert status == 200, payload
        stale = [tuple(row) for row in json.loads(payload)["samples"]]
        status, payload = run_analysis_request(open_root().dashboard, "samples", body)
        assert status == 200, payload
        fresh = [tuple(row) for row in json.loads(payload)["samples"]]
        assert stale and Counter(stale) <= Counter(fresh)
