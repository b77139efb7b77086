"""A grid spatial index on ⟨Latitude, Longitude⟩ over the page store.

RASED's warehouse carries "a spatial index on ⟨Latitude, Longitude⟩,
which is needed to retrieve the sample updates located in a certain
spatial region" (paper, Section VI-B).  Sample-update queries ask for
the first N (default 100) updates inside a region, so the index
optimizes for *partial* range scans: stop as soon as enough pointers
are found.

The structure is a uniform grid over the world: an occupied cell's
packed (lat, lon, page, slot) entries are its base page plus the heap
rows in the cell that no month-end fold has reached yet
(:attr:`GridSpatialIndex.buckets`, a :mod:`repro.storage.buckets`
store).  Cells are visited in row-major order within the query box;
entries in boundary cells are filtered exactly by coordinate.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from repro.errors import ConfigError
from repro.geo.geometry import BBox
from repro.storage.buckets import FoldedBuckets, pointers
from repro.storage.warehouse import RowPointer, RowRange, Warehouse

__all__ = ["GridSpatialIndex"]

_ENTRY = np.dtype([("lat", "<f8"), ("lon", "<f8"), ("page", "<u4"), ("slot", "<u4")])


class GridSpatialIndex:
    """Uniform-grid point index supporting bounded region sampling."""

    def __init__(
        self,
        warehouse: Warehouse,
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
        self.buckets = FoldedBuckets(
            warehouse,
            prefix,
            _ENTRY,
            lambda bucket: "{:03d}_{:03d}".format(*divmod(bucket, rows)),
            self._entries,
        )

    def _cells(self, lats: npt.ArrayLike, lons: npt.ArrayLike) -> tuple[np.ndarray, np.ndarray]:
        """The (col, row) cell of every point.  Clamped at both edges: an
        out-of-range coordinate files under the edge cell, where a query
        reaching that edge looks."""
        col = np.clip((np.asarray(lons, dtype=np.float64) + 180.0) / self._cell_w, 0, self.cols - 1)
        row = np.clip((np.asarray(lats, dtype=np.float64) + 90.0) / self._cell_h, 0, self.rows - 1)
        return col.astype(np.int64), row.astype(np.int64)

    def _bucket(self, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
        col, row = self._cells(lats, lons)
        return col * self.rows + row

    def _entries(self, rows: np.ndarray, first: int) -> tuple[np.ndarray, np.ndarray]:
        entries = np.empty(len(rows), dtype=_ENTRY)
        entries["lat"], entries["lon"] = rows["latitude"], rows["longitude"]
        entries["page"], entries["slot"] = RowRange(first, len(rows)).pages_and_slots()
        return self._bucket(rows["latitude"], rows["longitude"]), entries

    # -- write path ---------------------------------------------------------

    def insert_many(self, rows: RowRange) -> None:
        """Index the heap rows ``rows`` under their points."""
        self.buckets.add(rows)

    def flush(self) -> None:
        """Make the rows indexed since the last flush visible (no write)."""
        self.buckets.publish()

    # -- read path -------------------------------------------------------------

    def query(self, box: BBox, limit: int | None = None) -> list[RowPointer]:
        """Row pointers of points inside ``box``, up to ``limit``.

        Cells are visited in deterministic row-major order, each cell's
        rows in row order (base page, then heap tail), and the scan stops
        early once ``limit`` pointers are collected, so a sample query
        over a dense region touches few cell pages.
        """
        if limit is not None and limit <= 0:
            return []
        first, tail = self.buckets.tail()
        inside = np.flatnonzero(_within(box, tail["latitude"], tail["longitude"]))
        cells = self._bucket(tail["latitude"][inside], tail["longitude"][inside])
        order = np.argsort(cells, kind="stable")
        ranked, numbers = cells[order], inside[order] + first
        # Keyed by pointer: a fold under way can show a row twice.
        found: dict[RowPointer, None] = {}
        col_lo, row_lo = map(int, self._cells(box.min_lat, box.min_lon))
        col_hi, row_hi = map(int, self._cells(box.max_lat, box.max_lon))
        for row in range(row_lo, row_hi + 1):
            for col in range(col_lo, col_hi + 1):
                bucket = col * self.rows + row
                base = self.buckets.base(bucket)
                lo, hi = np.searchsorted(ranked, [bucket, bucket + 1])
                for pointer in pointers(
                    base[_within(box, base["lat"], base["lon"])], numbers[lo:hi]
                ):
                    found[pointer] = None
                    if limit is not None and len(found) >= limit:
                        return list(found)
        return list(found)


def _within(box: BBox, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """Which points lie inside ``box``, compared raw, not through a
    (range-validating) ``Point``: a stray stored in an edge cell must not
    fail every query that visits the cell."""
    return (
        (box.min_lon <= lons) & (lons <= box.max_lon)
        & (box.min_lat <= lats) & (lats <= box.max_lat)
    )
