"""A grid spatial index on ⟨Latitude, Longitude⟩ over the page store.

RASED's warehouse carries "a spatial index on ⟨Latitude, Longitude⟩,
which is needed to retrieve the sample updates located in a certain
spatial region" (paper, Section VI-B).  Sample-update queries ask for
the first N (default 100) updates inside a region, so the index
optimizes for *partial* range scans: stop as soon as enough pointers
are found.

The structure is a uniform grid over the world: each occupied cell is
one page of packed (lat, lon, page, slot) entries.  Cells are visited
in row-major order within the query box; entries in boundary cells are
filtered exactly by coordinate.
"""

from __future__ import annotations

import struct
from collections import defaultdict
from typing import Iterable

from repro.errors import ConfigError, PageNotFoundError, StorageError
from repro.geo.geometry import BBox
from repro.storage.pages import PageStore
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
        self.store = store
        self.prefix = prefix
        self.cols = cols
        self.rows = rows
        self._cell_w = 360.0 / cols
        self._cell_h = 180.0 / rows
        self._pending: dict[tuple[int, int], list[tuple[float, float, RowPointer]]] = (
            defaultdict(list)
        )

    def _cell_of(self, lat: float, lon: float) -> tuple[int, int]:
        # Clamped at both edges: an out-of-range coordinate files under
        # the edge cell, where a query reaching that edge looks.
        col = min(max(int((lon + 180.0) / self._cell_w), 0), self.cols - 1)
        row = min(max(int((lat + 90.0) / self._cell_h), 0), self.rows - 1)
        return col, row

    def _cell_id(self, cell: tuple[int, int]) -> str:
        return f"{self.prefix}/{cell[0]:03d}_{cell[1]:03d}"

    # -- write path ---------------------------------------------------------

    def insert(self, lat: float, lon: float, pointer: RowPointer) -> None:
        self._pending[self._cell_of(lat, lon)].append((lat, lon, pointer))

    def insert_many(
        self, entries: Iterable[tuple[float, float, RowPointer]]
    ) -> None:
        for lat, lon, pointer in entries:
            self.insert(lat, lon, pointer)

    def flush(self) -> int:
        """Merge buffered entries into cell pages; returns pages written."""
        # Taken out before the first write: a concurrent ``query`` adds
        # ``_pending`` to what it reads from the page, so an entry left
        # there after its cell was written would be returned twice.
        pending, self._pending = self._pending, defaultdict(list)
        written = 0
        for cell, entries in sorted(pending.items()):
            existing = self._read_cell(cell)
            existing.extend(entries)
            payload = b"".join(
                _ENTRY.pack(lat, lon, pointer.page, pointer.slot)
                for lat, lon, pointer in existing
            )
            self.store.write(self._cell_id(cell), payload)
            written += 1
        return written

    def discard_pending(self) -> int:
        """Drop buffered, unflushed entries (WAL rollback of a batch
        whose cell pages were restored from undo).  Returns how many
        entries were discarded."""
        dropped = sum(len(entries) for entries in self._pending.values())
        self._pending.clear()
        return dropped

    def _read_cell(self, cell: tuple[int, int]) -> list[tuple[float, float, RowPointer]]:
        try:
            data = self.store.read(self._cell_id(cell))
        except PageNotFoundError:
            return []
        if len(data) % _ENTRY.size:
            raise StorageError(f"torn grid cell {cell}")
        entries: list[tuple[float, float, RowPointer]] = []
        for offset in range(0, len(data), _ENTRY.size):
            lat, lon, page, slot = _ENTRY.unpack_from(data, offset)
            entries.append((lat, lon, RowPointer(page=page, slot=slot)))
        return entries

    # -- read path -------------------------------------------------------------

    def query(self, box: BBox, limit: int | None = None) -> list[RowPointer]:
        """Row pointers of points inside ``box``, up to ``limit``.

        Cells are visited in deterministic row-major order and the scan
        stops early once ``limit`` pointers are collected, so a sample
        query over a dense region touches few cell pages.
        """
        found: list[RowPointer] = []
        if limit is not None and limit <= 0:
            return found
        col_lo, row_lo = self._cell_of(box.min_lat, box.min_lon)
        col_hi, row_hi = self._cell_of(box.max_lat, box.max_lon)
        for row in range(row_lo, row_hi + 1):
            for col in range(col_lo, col_hi + 1):
                cell = (col, row)
                entries = self._read_cell(cell)
                entries.extend(self._pending.get(cell, []))
                for lat, lon, pointer in entries:
                    # Compared raw, not through a (range-validating)
                    # ``Point``: a stray stored in an edge cell must not
                    # fail every query that visits the cell.
                    if (
                        box.min_lon <= lon <= box.max_lon
                        and box.min_lat <= lat <= box.max_lat
                    ):
                        found.append(pointer)
                        if limit is not None and len(found) >= limit:
                            return found
        return found
