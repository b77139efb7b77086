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

import numpy as np
import numpy.typing as npt

from repro.errors import ConfigError
from repro.geo.geometry import BBox
from repro.storage.pages import PageStore
from repro.storage.segments import SegmentedBuckets
from repro.storage.warehouse import RowPointer, RowRange

__all__ = ["GridSpatialIndex"]

_ENTRY = struct.Struct("<ddII")
_ENTRY_ARRAY = np.dtype([("lat", "<f8"), ("lon", "<f8"), ("page", "<u4"), ("slot", "<u4")])


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

    def _cells(self, lats: npt.ArrayLike, lons: npt.ArrayLike) -> tuple[np.ndarray, np.ndarray]:
        """The (col, row) cell of every point.  Clamped at both edges: an
        out-of-range coordinate files under the edge cell, where a query
        reaching that edge looks."""
        col = np.clip((np.asarray(lons, dtype=np.float64) + 180.0) / self._cell_w, 0, self.cols - 1)
        row = np.clip((np.asarray(lats, dtype=np.float64) + 90.0) / self._cell_h, 0, self.rows - 1)
        return col.astype(np.int64), row.astype(np.int64)

    # -- write path ---------------------------------------------------------

    def insert(self, lat: float, lon: float, pointer: RowPointer) -> None:
        self._add([lat], [lon], [pointer.page], [pointer.slot])

    def insert_many(self, lats: npt.ArrayLike, lons: npt.ArrayLike, rows: RowRange) -> None:
        """:meth:`insert` of the ``i``-th point at the ``i``-th row of ``rows``."""
        self._add(lats, lons, *rows.pages_and_slots())

    def _add(
        self, lats: npt.ArrayLike, lons: npt.ArrayLike, pages: npt.ArrayLike, slots: npt.ArrayLike
    ) -> None:
        col, row = self._cells(lats, lons)
        entries = np.empty(len(col), dtype=_ENTRY_ARRAY)
        entries["lat"], entries["lon"], entries["page"], entries["slot"] = lats, lons, pages, slots
        self.buckets.add_many(col * self.rows + row, entries)

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
        col_lo, row_lo = map(int, self._cells(box.min_lat, box.min_lon))
        col_hi, row_hi = map(int, self._cells(box.max_lat, box.max_lon))
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
