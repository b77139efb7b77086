"""Differential test: both warehouse indexes against a scan of the heap.

About seventy days are ingested in memory, crossing the Jan 31 and
Mar 31 month ends and a feed gap (25 Feb - 2 Mar) that swallows the
Feb 28 one.  After every day, every changeset id's
``HashIndex.lookup`` equals a brute-force filter of
``Warehouse.scan_pages()`` in row order, and ``GridSpatialIndex.query``
over a fixed battery of boxes equals the same filter visited cell by
cell in row-major order, rows in row order within a cell — with and
without a ``limit``.  A lease-less opener made between a fold's last
base append and its watermark write answers the same way, each row
once.
"""

from __future__ import annotations

from datetime import date, timedelta

import pytest

from repro.geo.geometry import BBox
from repro.storage.disk import InMemoryDisk
from repro.storage.hash_index import HashIndex
from repro.storage.spatial_index import GridSpatialIndex
from repro.storage.warehouse import RowPointer, Warehouse
from repro.synth.simulator import SimulationConfig
from repro.system import RasedSystem, SystemConfig

pytestmark = pytest.mark.slow

FIRST, LAST = date(2021, 1, 20), date(2021, 3, 31)
GAP = (date(2021, 2, 25), date(2021, 3, 2))
DAYS = [
    FIRST + timedelta(days=i)
    for i in range((LAST - FIRST).days + 1)
    if not GAP[0] <= FIRST + timedelta(days=i) <= GAP[1]
]
#: The days after which both indexes' tails are empty: the two month
#: ends, and the first day after the gap (its tail opened in February).
FOLDED = {date(2021, 1, 31), date(2021, 3, 3), date(2021, 3, 31)}

BOXES = [
    BBox(min_lon=-180, min_lat=-90, max_lon=180, max_lat=90),
    BBox(min_lon=-10, min_lat=35, max_lon=30, max_lat=60),
    BBox(min_lon=5.5, min_lat=47.2, max_lon=15.1, max_lat=55.1),
    BBox(min_lon=-125, min_lat=24, max_lon=-66, max_lat=50),
    BBox(min_lon=100, min_lat=-45, max_lon=180, max_lat=10),
    BBox(min_lon=0, min_lat=0, max_lon=0.5, max_lat=0.5),
]
LIMITS = (None, 1, 7, 100)


class _WatchedDisk(InMemoryDisk):
    """Calls ``before_watermark()`` just before each index watermark write."""

    before_watermark = None

    def write(self, page_id: str, data: bytes) -> None:
        if self.before_watermark is not None and page_id.endswith("/folded"):
            self.before_watermark(page_id)
        super().write(page_id, data)


def _assert_answers_equal_a_heap_scan(
    warehouse: Warehouse, hash_index: HashIndex, grid: GridSpatialIndex
) -> None:
    rows = [
        (RowPointer(page, slot), row)
        for page, records in warehouse.scan_pages()
        for slot, row in enumerate(records)
    ]
    assert len(rows) == warehouse.row_count
    by_changeset: dict[int, list[RowPointer]] = {}
    for pointer, row in rows:
        by_changeset.setdefault(row.changeset_id, []).append(pointer)
    for changeset_id, pointers in by_changeset.items():
        assert hash_index.lookup(changeset_id) == pointers, changeset_id

    def cell(row) -> tuple[int, int]:
        """(grid row, grid column): the order ``query`` visits cells in."""
        col = (row.longitude + 180.0) / (360.0 / grid.cols)
        line = (row.latitude + 90.0) / (180.0 / grid.rows)
        return int(min(max(line, 0), grid.rows - 1)), int(min(max(col, 0), grid.cols - 1))

    for box in BOXES:
        inside = sorted(
            (cell(row), pointer)
            for pointer, row in rows
            if box.min_lon <= row.longitude <= box.max_lon
            and box.min_lat <= row.latitude <= box.max_lat
        )
        expected = [pointer for _, pointer in inside]
        for limit in LIMITS:
            assert grid.query(box, limit) == expected[:limit], (box, limit)


@pytest.fixture(scope="module")
def system(atlas):
    disk = _WatchedDisk(read_latency=0.0, write_latency=0.0)
    deployment = RasedSystem.create(
        atlas=atlas,
        store=disk,
        config=SystemConfig(
            road_types=8,
            cache_slots=8,
            simulation=SimulationConfig(
                seed=29, mapper_count=6, base_sessions_per_day=2, nodes_per_country=2
            ),
        ),
    )
    yield deployment
    deployment.close()


def test_both_indexes_answer_like_a_heap_scan_after_every_day(system):
    disk = system.store
    openers: list[str] = []

    def open_a_reader(page_id: str) -> None:
        """Between the fold's last base append and its watermark write."""
        reader = Warehouse(disk, recovered=False)
        hash_index, grid = HashIndex(reader), GridSpatialIndex(reader)
        index = hash_index if page_id.startswith(hash_index.prefix) else grid
        folded, end = index.buckets.extent
        assert folded < end == reader.row_count  # the watermark is stale
        _assert_answers_equal_a_heap_scan(reader, hash_index, grid)
        openers.append(page_id)

    disk.before_watermark = open_a_reader
    for day in DAYS:
        system.publish_day(day)
        assert system.pipeline.run_daily().days_processed == 1
        for index in (system.hash_index, system.spatial_index):
            folded, end = index.buckets.extent
            assert end == system.warehouse.row_count
            assert (folded == end) == (day in FOLDED), (day, folded, end)
        _assert_answers_equal_a_heap_scan(
            system.warehouse, system.hash_index, system.spatial_index
        )
    # Each fold opened a reader at each index's watermark write.
    assert openers == ["warehouse/hash/folded", "warehouse/grid/folded"] * len(FOLDED)
