"""A grid spatial index on ⟨Latitude, Longitude⟩ over the page store.

RASED's warehouse carries "a spatial index on ⟨Latitude, Longitude⟩,
which is needed to retrieve the sample updates located in a certain
spatial region" (paper, Section VI-B).  Sample-update queries ask for
the first N (default 100) updates inside a region, so the index
optimizes for *partial* range scans: stop as soon as enough pointers
are found.

The structure is a uniform grid over the world: an occupied cell's
packed (lat, lon, page, slot) entries live in its base page plus the
batch segments that name it (:attr:`GridSpatialIndex.buckets`, a
:mod:`repro.storage.segments` store).  Cells are visited in row-major
order within the query box; entries in boundary cells are filtered
exactly by coordinate.
"""

from __future__ import annotations

import struct
from typing import Iterable

from repro.errors import ConfigError
from repro.geo.geometry import BBox
from repro.storage.pages import PageStore
from repro.storage.segments import SegmentedBuckets
from repro.storage.warehouse import RowPointer

__all__ = ["GridSpatialIndex"]

_ENTRY = struct.Struct("<ddII")


class GridSpatialIndex:
    """Uniform-grid point index supporting bounded region sampling."""

    def __init__(
        self,
        store: PageStore,
        prefix: str = "warehouse/grid",
        cols: int = 72,
        rows: int = 36,
    ) -> None:
        if cols < 1 or rows < 1:
            raise ConfigError("grid dimensions must be positive")
        self.prefix = prefix
        self.cols = cols
        self.rows = rows
        self._cell_w = 360.0 / cols
        self._cell_h = 180.0 / rows
        #: Bucket number of cell (col, row) is ``col * rows + row``.
        self.buckets = SegmentedBuckets(
            store,
            prefix,
            _ENTRY,
            lambda bucket: "{:03d}_{:03d}".format(*divmod(bucket, rows)),
        )

    def _cell_of(self, lat: float, lon: float) -> tuple[int, int]:
        # Clamped at both edges: an out-of-range coordinate files under
        # the edge cell, where a query reaching that edge looks.
        col = min(max(int((lon + 180.0) / self._cell_w), 0), self.cols - 1)
        row = min(max(int((lat + 90.0) / self._cell_h), 0), self.rows - 1)
        return col, row

    # -- write path ---------------------------------------------------------

    def insert(self, lat: float, lon: float, pointer: RowPointer) -> None:
        col, row = self._cell_of(lat, lon)
        self.buckets.add(col * self.rows + row, lat, lon, pointer.page, pointer.slot)

    def insert_many(
        self, entries: Iterable[tuple[float, float, RowPointer]]
    ) -> None:
        for lat, lon, pointer in entries:
            self.insert(lat, lon, pointer)

    def flush(self) -> int:
        """Publish buffered entries as one segment; returns pages written."""
        return self.buckets.flush()

    # -- read path -------------------------------------------------------------

    def query(self, box: BBox, limit: int | None = None) -> list[RowPointer]:
        """Row pointers of points inside ``box``, up to ``limit``.

        Cells are visited in deterministic row-major order and the scan
        stops early once ``limit`` pointers are collected, so a sample
        query over a dense region touches few cell pages.
        """
        # Keyed by pointer: a fold under way can show an entry twice.
        found: dict[RowPointer, None] = {}
        if limit is not None and limit <= 0:
            return []
        col_lo, row_lo = self._cell_of(box.min_lat, box.min_lon)
        col_hi, row_hi = self._cell_of(box.max_lat, box.max_lon)
        for row in range(row_lo, row_hi + 1):
            for col in range(col_lo, col_hi + 1):
                for lat, lon, page, slot in self.buckets.entries(col * self.rows + row):
                    # Compared raw, not through a (range-validating)
                    # ``Point``: a stray stored in an edge cell must not
                    # fail every query that visits the cell.
                    if (
                        box.min_lon <= lon <= box.max_lon
                        and box.min_lat <= lat <= box.max_lat
                    ):
                        found[RowPointer(page=page, slot=slot)] = None
                        if limit is not None and len(found) >= limit:
                            return list(found)
        return list(found)
