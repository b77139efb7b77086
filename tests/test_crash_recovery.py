"""The crash matrix: kill ingestion everywhere, recover, compare bits.

The strongest claim the WAL makes is *exactly-once* ingestion across a
process kill at any moment.  This suite earns that claim the blunt
way: run a durable deployment over a fault-injecting store, crash it
at every named injection point of the ingest path × many seeds (the
seed picks which occurrence of the point dies), restart a fresh
process over the surviving pages, recover, finish ingestion — and
require the final store to be **bit-identical** (every non-WAL page)
to an uninterrupted run of the same deployment.

No cube counted twice, no warehouse row lost, no index entry skewed —
or the byte comparison fails.

The same claim holds at ``shards > 1``: the one journal sits over the
routed store, so a write torn on *any* shard's device rolls back with
the rest of its batch (:class:`TestShardedCrash`).

The warehouse indexes write nothing on a plain day (their entries are
heap rows) and fold the month's rows into their bucket pages when the
month closes; a second window over a month end kills the fold at its
first, a middle and its last bucket append and at each watermark write
(``test_index_crash_*``, ``test_a_lease_less_opener_*``).
"""

from __future__ import annotations

import itertools
from datetime import date, timedelta

import pytest

from repro.geo.geometry import BBox
from repro.storage.disk import DirectoryDisk, InMemoryDisk
from repro.storage.hash_index import HashIndex
from repro.storage.spatial_index import GridSpatialIndex
from repro.storage.warehouse import ROW_SIZE, RowPointer, Warehouse
from repro.synth.simulator import SimulationConfig
from repro.system import RasedSystem, SystemConfig
from tests.support import CrashPoint, FaultPlan, FaultyPageStore, classify_page_op

pytestmark = pytest.mark.slow

#: The ingest window: Jan 1-6 2021 crosses the week boundary on Sunday
#: Jan 3, so the matrix exercises roll-up writes too.
WINDOW_START = date(2021, 1, 1)
WINDOW_END = date(2021, 1, 6)

#: Every injection point the daily ingest path writes through.
MATRIX_POINTS = (
    "wal.append",
    "wal.undo",
    "warehouse.write",
    "warehouse.index",
    "index.put",
    "rollup",
    "cursor",
    "checkpoint",
)

SEEDS = range(10)


def _make_system(atlas, root, store, shards=1) -> RasedSystem:
    return RasedSystem.create(
        root=root,
        atlas=atlas,
        store=store,
        config=SystemConfig(
            road_types=8,
            cache_slots=8,
            shards=shards,
            durable_ingest=True,
            simulation=SimulationConfig(
                seed=17,
                mapper_count=6,
                base_sessions_per_day=2,
                nodes_per_country=2,
            ),
        ),
    )


def _publish_window(atlas, root, start=WINDOW_START, end=WINDOW_END) -> None:
    """Publish the window's diffs + changesets with a throwaway system.

    The publisher and the crawler are deliberately *different* system
    instances, as in a real deployment, where the simulator is not the
    dashboard process.
    """
    publisher = _make_system(
        atlas, root, InMemoryDisk(read_latency=0, write_latency=0)
    )
    day = start
    while day <= end:
        publisher.publish_day(day)
        day += timedelta(days=1)


def _snapshot(disk: InMemoryDisk) -> dict[str, bytes]:
    """Every durable page except the WAL's own bookkeeping (batch
    numbering legitimately differs once crashes enter the history)."""
    return {
        page_id: disk.read(page_id)
        for page_id in disk.list_pages("")
        if not page_id.startswith("wal/")
    }


@pytest.fixture(scope="module")
def uninterrupted(atlas, tmp_path_factory) -> dict[str, bytes]:
    """The golden run: same deployment, no faults, never killed."""
    root = tmp_path_factory.mktemp("golden-feed")
    _publish_window(atlas, root)
    disk = InMemoryDisk(read_latency=0, write_latency=0)
    system = _make_system(atlas, root, disk)
    system.pipeline.run_daily()
    return _snapshot(disk)


class TestCrashMatrix:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("point", MATRIX_POINTS)
    def test_kill_recover_resume_is_bit_identical(
        self, atlas, tmp_path, uninterrupted, point, seed
    ):
        _publish_window(atlas, tmp_path)
        disk = InMemoryDisk(read_latency=0, write_latency=0)
        plan = FaultPlan.single(point, kind="crash", seed=seed, after=seed)
        faulty = FaultyPageStore(disk, plan)
        system = _make_system(atlas, tmp_path, faulty)
        crashed = False
        try:
            system.pipeline.run_daily()
        except CrashPoint:
            crashed = True
        # A fired crash spec must actually have killed the run.
        assert crashed == bool(plan.fired)

        # "Restart": a fresh process over the same store and feed root.
        # Its construction runs WAL recovery (the crash freed the writer
        # lease) before any component scans the store; recover() is then
        # idempotent here, as every write call's recovery on entry is.
        faulty.plan = None
        reopened = _make_system(atlas, tmp_path, faulty)
        reopened.pipeline.recover()
        reopened.pipeline.run_daily()

        assert _snapshot(disk) == uninterrupted

    def test_crash_after_commit_point_loses_nothing(
        self, atlas, tmp_path, uninterrupted
    ):
        """Dying right *after* the intent delete (commit point) must
        keep the batch: recovery collects leftovers, never rolls back."""
        _publish_window(atlas, tmp_path)
        disk = InMemoryDisk(read_latency=0, write_latency=0)
        plan = FaultPlan.single("checkpoint", kind="crash", when="after")
        faulty = FaultyPageStore(disk, plan)
        system = _make_system(atlas, tmp_path, faulty)
        with pytest.raises(CrashPoint):
            system.pipeline.run_daily()

        faulty.plan = None
        reopened = _make_system(atlas, tmp_path, faulty)
        report = reopened.pipeline.recover()
        assert report is not None and not report.rolled_back
        reopened.pipeline.run_daily()
        assert _snapshot(disk) == uninterrupted

    def test_double_crash_still_converges(self, atlas, tmp_path, uninterrupted):
        """Crash, restart, crash again at a different point, restart:
        recovery must be restartable, not merely callable once."""
        _publish_window(atlas, tmp_path)
        disk = InMemoryDisk(read_latency=0, write_latency=0)
        faulty = FaultyPageStore(
            disk, FaultPlan.single("index.put", kind="crash", after=3)
        )
        system = _make_system(atlas, tmp_path, faulty)
        with pytest.raises(CrashPoint):
            system.pipeline.run_daily()

        faulty.plan = FaultPlan.single("warehouse.write", kind="crash", after=2)
        second = _make_system(atlas, tmp_path, faulty)
        second.pipeline.recover()
        with pytest.raises(CrashPoint):
            second.pipeline.run_daily()

        faulty.plan = None
        third = _make_system(atlas, tmp_path, faulty)
        third.pipeline.recover()
        third.pipeline.run_daily()
        assert _snapshot(disk) == uninterrupted

    @pytest.mark.parametrize("seed", range(5))
    def test_torn_write_mid_batch_recovers(
        self, atlas, tmp_path, uninterrupted, seed
    ):
        """A power-loss torn page (partial write then kill) rolls back
        like any other crash — the pre-image journal restores it."""
        _publish_window(atlas, tmp_path)
        disk = InMemoryDisk(read_latency=0, write_latency=0)
        plan = FaultPlan.single(
            "store.write", kind="torn", seed=seed, after=20 + 5 * seed
        )
        faulty = FaultyPageStore(disk, plan)
        system = _make_system(atlas, tmp_path, faulty)
        crashed = False
        try:
            system.pipeline.run_daily()
        except CrashPoint:
            crashed = True
        assert crashed == bool(plan.fired)

        faulty.plan = None
        reopened = _make_system(atlas, tmp_path, faulty)
        reopened.pipeline.recover()
        reopened.pipeline.run_daily()
        assert _snapshot(disk) == uninterrupted


    @pytest.mark.parametrize("seed", range(5))
    def test_torn_heap_tail_append_recovers(self, atlas, tmp_path, uninterrupted, seed):
        """The heap grows by appends: one that lands part of its rows
        (mid-row included) is cut back by its truncate record."""
        _publish_window(atlas, tmp_path)
        disk = InMemoryDisk(read_latency=0, write_latency=0)
        plan = FaultPlan.single("warehouse.write", kind="torn", seed=seed, after=seed)
        faulty = FaultyPageStore(disk, plan)
        system = _make_system(atlas, tmp_path, faulty)
        with pytest.raises(CrashPoint):
            system.pipeline.run_daily()
        assert [fired.op for fired in plan.fired] == ["append"]

        faulty.plan = None
        reopened = _make_system(atlas, tmp_path, faulty)
        assert reopened.recovered is not None and reopened.recovered.rolled_back
        reopened.pipeline.run_daily()
        assert _snapshot(disk) == uninterrupted


# -- sharded and crash-safe ---------------------------------------------------

SHARDS = 3


def _directory_system(atlas, feed_root, deployment, shards) -> RasedSystem:
    """A (re)opened on-disk deployment: ``pages/`` plus its shard dirs."""
    disk = DirectoryDisk(deployment / "pages", read_latency=0, write_latency=0)
    return _make_system(atlas, feed_root, disk, shards=shards)


def _deployment_pages(system: RasedSystem) -> dict[str, bytes]:
    """Every non-WAL page of a deployment, whichever device holds it."""
    pages: dict[str, bytes] = {}
    for store in [system.store, *system.shard_stores]:
        for page_id in store.list_pages(""):
            if not page_id.startswith("wal/"):
                assert page_id not in pages, f"{page_id} is on two devices"
                pages[page_id] = store.read(page_id)
    return pages


def _tear_write(store, ordinal: int) -> None:
    """Arm ``store``: its ``ordinal``-th write lands half its bytes,
    then the process dies."""
    real_write = store.write
    seen = itertools.count()

    def write(page_id: str, data: bytes) -> None:
        if next(seen) == ordinal:
            real_write(page_id, data[: len(data) // 2])
            raise CrashPoint("store.write", page_id)
        real_write(page_id, data)

    store.write = write


class TestShardedCrash:
    @pytest.fixture(scope="class")
    def feed_root(self, atlas, tmp_path_factory):
        root = tmp_path_factory.mktemp("sharded-feed")
        _publish_window(atlas, root)
        return root

    @pytest.fixture(scope="class")
    def golden(self, atlas, feed_root, tmp_path_factory) -> dict[str, bytes]:
        """The uninterrupted runs: sharded and unsharded hold the same
        pages, byte for byte — only *where* differs."""
        runs = []
        for shards in (SHARDS, 1):
            system = _directory_system(
                atlas, feed_root, tmp_path_factory.mktemp(f"golden-{shards}"), shards
            )
            system.pipeline.run_daily()
            runs.append(_deployment_pages(system))
        sharded, unsharded = runs
        assert sharded == unsharded
        assert any(page_id.startswith("cubes/") for page_id in sharded)
        return sharded

    @pytest.mark.parametrize("shard", range(SHARDS))
    def test_torn_write_on_any_shard_store_recovers(
        self, atlas, feed_root, tmp_path, golden, shard
    ):
        """Tear every write this shard's device sees in the window, one
        run per write ordinal; each run recovers to the golden pages."""
        for ordinal in itertools.count():
            deployment = tmp_path / f"write-{ordinal}"
            system = _directory_system(atlas, feed_root, deployment, SHARDS)
            _tear_write(system.shard_stores[shard], ordinal)
            try:
                system.pipeline.run_daily()
            except CrashPoint as crash:
                assert crash.page_id.startswith("cubes/")
            else:
                # Past this device's last write: nothing tore.
                assert _deployment_pages(system) == golden
                break
            # "Restart": fresh stores over the same directories.
            reopened = _directory_system(atlas, feed_root, deployment, SHARDS)
            reopened.pipeline.recover()
            reopened.pipeline.run_daily()
            assert _deployment_pages(reopened) == golden
        assert ordinal > 0, f"shard {shard} saw no write in the window"


# -- the warehouse indexes: the month end's fold -------------------------------

#: Jan 31 closes its month: that day's batch folds the three days' rows
#: into each index's bucket pages, then writes its watermark.
FOLD_DAYS = [date(2021, 1, 29) + timedelta(days=i) for i in range(5)]
MONTH_END = date(2021, 1, 31)

WORLD = BBox(min_lon=-180, min_lat=-90, max_lon=180, max_lat=90)

#: (operation, page-id prefix, matching operations let through first; -1
#: for all but the last).  The hash index folds first, then the grid.
INDEX_CRASHES = [
    pytest.param("append", "warehouse/hash/0", 0, id="first-base-append"),
    pytest.param("append", "warehouse/hash/0", 1, id="between-two-hash-bucket-writes"),
    pytest.param("append", "warehouse/grid/0", 1, id="between-two-grid-cell-writes"),
    pytest.param("append", "warehouse/grid/0", -1, id="last-base-append"),
    pytest.param("write", "warehouse/hash/folded", 0, id="hash-watermark-write"),
    pytest.param("write", "warehouse/grid/folded", 0, id="grid-watermark-write"),
]


def _crash_before(store, op: str, prefix: str, after: int) -> None:
    """Arm ``store``: the process dies before its ``after``-th ``op``
    (counted from 0) on a page under ``prefix``."""
    real = getattr(store, op)
    seen = itertools.count()

    def dying(page_id: str, *data: bytes) -> None:
        if page_id.startswith(prefix) and next(seen) == after:
            assert "warehouse.index" in classify_page_op(op, page_id)
            raise CrashPoint("warehouse.index", page_id)
        real(page_id, *data)

    setattr(store, op, dying)


def _tear_append(store, prefix: str, after: int) -> None:
    """Arm ``store``: its ``after``-th append (from 0) to a page under
    ``prefix`` lands a strict prefix that ends mid-record, then the
    process dies."""
    real = store.append
    seen = itertools.count()

    def tearing(page_id: str, data: bytes, at: int) -> None:
        if page_id.startswith(prefix) and next(seen) == after:
            real(page_id, data[: len(data) // 2 + 1], at)
            raise CrashPoint("torn append", page_id)
        real(page_id, data, at)

    store.append = tearing


def _index_pages(pages) -> dict[str, bytes]:
    prefixes = ("warehouse/hash/", "warehouse/grid/")
    return {p: data for p, data in pages.items() if p.startswith(prefixes)}


def _assert_indexes_match_the_heap(system: RasedSystem) -> None:
    """Both indexes' extents equal a fresh open's, and every key answers
    with exactly the rows a scan of the heap holds for it."""
    fresh = Warehouse(system.warehouse.store)
    assert system.hash_index.buckets.extent == HashIndex(fresh).buckets.extent
    assert system.spatial_index.buckets.extent == GridSpatialIndex(fresh).buckets.extent
    _assert_answers_match_the_heap(system)


def _assert_answers_match_the_heap(system: RasedSystem) -> None:
    by_changeset: dict[int, list[RowPointer]] = {}
    everything: list[RowPointer] = []
    for page, rows in system.warehouse.scan_pages():
        for slot, row in enumerate(rows):
            by_changeset.setdefault(row.changeset_id, []).append(RowPointer(page, slot))
            everything.append(RowPointer(page, slot))
    for changeset_id, pointers in by_changeset.items():
        assert system.hash_index.lookup(changeset_id) == pointers
    assert sorted(system.spatial_index.query(WORLD)) == everything


class TestIndexCrash:
    @pytest.fixture(scope="class")
    def feed_root(self, atlas, tmp_path_factory):
        root = tmp_path_factory.mktemp("month-end-feed")
        _publish_window(atlas, root, FOLD_DAYS[0], FOLD_DAYS[-1])
        return root

    @pytest.fixture(scope="class")
    def golden(self, atlas, feed_root) -> list[dict[str, bytes]]:
        """The uninterrupted run's pages before the first batch and as
        each batch's commit returns (its checkpoint write)."""

        class CommitRecorder(InMemoryDisk):
            def write(self, page_id: str, data: bytes) -> None:
                super().write(page_id, data)
                if page_id == "wal/checkpoint":
                    states.append(_snapshot(self))

        disk = CommitRecorder(read_latency=0, write_latency=0)
        system = _make_system(atlas, feed_root, disk)
        states = [_snapshot(disk)]
        system.pipeline.run_daily()
        assert len(states) == len(FOLD_DAYS) + 1
        # Only the month end writes index pages: bucket pages and both
        # watermarks.
        month_end = FOLD_DAYS.index(MONTH_END) + 1
        assert not _index_pages(states[month_end - 1])
        watermarks = {"warehouse/hash/folded", "warehouse/grid/folded"}
        assert watermarks < set(_index_pages(states[month_end]))
        assert _index_pages(states[month_end]) == _index_pages(states[-1])
        return states

    @pytest.mark.parametrize("shards", [1, SHARDS])
    @pytest.mark.parametrize(("op", "prefix", "after"), INDEX_CRASHES)
    def test_index_crash_recovers_the_pre_batch_pages_and_one_copy_of_each_row(
        self, atlas, feed_root, tmp_path, golden, op, prefix, after, shards
    ):
        month_end = FOLD_DAYS.index(MONTH_END)
        if after == -1:  # the month end's last append under ``prefix``
            before, folded = _index_pages(golden[month_end]), _index_pages(golden[month_end + 1])
            after = sum(
                1 for p, data in folded.items() if p.startswith(prefix) and before.get(p) != data
            ) - 1
        system = _directory_system(atlas, feed_root, tmp_path, shards)
        _crash_before(system.store, op, prefix, after)
        with pytest.raises(CrashPoint):
            system.pipeline.run_daily()
        report = system.pipeline.recover()
        assert report.rolled_back
        assert date.fromisoformat(report.batch_meta["day"]) == MONTH_END
        assert _deployment_pages(system) == golden[month_end]
        _assert_indexes_match_the_heap(system)

        # The same process carries on; so would a restarted one.
        vars(system.store).pop(op)
        reopened = _directory_system(atlas, feed_root, tmp_path, shards)
        assert reopened.hash_index.buckets.extent == system.hash_index.buckets.extent
        system.pipeline.run_daily()
        assert _deployment_pages(system) == golden[-1]
        _assert_indexes_match_the_heap(system)

    @pytest.mark.parametrize("shards", [1, SHARDS])
    @pytest.mark.parametrize(
        ("prefix", "after"),
        [
            pytest.param("warehouse/heap/", 0, id="heap-tail-first-day"),
            pytest.param("warehouse/heap/", 2, id="heap-tail-month-end"),
            pytest.param("warehouse/values", 0, id="values-page-first-day"),
            pytest.param("warehouse/values", 1, id="values-page-a-later-day"),
            pytest.param("warehouse/hash/0", 0, id="fold-first-hash-base"),
            pytest.param("warehouse/grid/0", 3, id="fold-a-grid-base"),
        ],
    )
    def test_a_torn_append_recovers_the_pre_batch_pages(
        self, atlas, feed_root, tmp_path, golden, prefix, after, shards
    ):
        """A file append that stopped mid-record — at the heap tail, at the
        values page, or at a fold's base page — rolls back to the
        byte-identical pre-batch pages, and the day then ingests as if
        nothing happened."""
        system = _directory_system(atlas, feed_root, tmp_path, shards)
        _tear_append(system.store, prefix, after)
        with pytest.raises(CrashPoint) as crash:
            system.pipeline.run_daily()
        torn = system.store.read(crash.value.page_id)
        if "values" not in prefix:  # a values entry has no fixed size
            assert len(torn) % (ROW_SIZE if "heap" in prefix else 8)
        vars(system.store).pop("append")

        reopened = _directory_system(atlas, feed_root, tmp_path, shards)
        report = reopened.recovered
        assert report is not None and report.rolled_back
        crashed_day = FOLD_DAYS.index(date.fromisoformat(report.batch_meta["day"]))
        folds = prefix.startswith(("warehouse/hash/", "warehouse/grid/"))
        assert not folds or FOLD_DAYS[crashed_day] == date(2021, 1, 31)
        assert _deployment_pages(reopened) == golden[crashed_day]
        _assert_indexes_match_the_heap(reopened)
        reopened.pipeline.run_daily()
        assert _deployment_pages(reopened) == golden[-1]
        _assert_indexes_match_the_heap(reopened)

    def test_a_lease_less_opener_between_the_last_base_append_and_the_watermark_reads_each_row_once(
        self, atlas, feed_root, tmp_path
    ):
        """An opener that reads the grid's watermark after the fold's last
        base append but before its write meets the month's rows twice, in
        the base pages and in the tail; its answers keep one copy of each."""
        system = _directory_system(atlas, feed_root, tmp_path, 1)
        _crash_before(system.store, "write", "warehouse/grid/folded", 0)
        with pytest.raises(CrashPoint):
            system.pipeline.run_daily()
        vars(system.store).pop("write")
        with system.wal.lease():
            reader = _directory_system(atlas, feed_root, tmp_path, 1)
            assert reader.recovered is None
            grid = reader.spatial_index
            folded, end = grid.buckets.extent
            stored = sum(len(grid.buckets.base(b)) for b in range(grid.cols * grid.rows))
            assert stored + end - folded > end  # the copies are there to drop
            _assert_answers_match_the_heap(reader)
        report = system.pipeline.recover()
        assert report.rolled_back and report.batch_meta["day"] == MONTH_END.isoformat()
