"""The update warehouse: the raw UpdateList in heap-file pages.

Besides the cube index, RASED dumps the whole UpdateList into "a
standard database table" (paper, Section VI-B) to answer sample-update
queries — it is also the relation the PostgreSQL-style baseline scans
in the Fig. 10 experiment.

Rows are packed into fixed-size binary records (so every heap page
holds the same number of rows) and appended to numbered heap pages on
the page store.  A :class:`RowPointer` (page number, slot) addresses a
row; the hash and spatial indexes store row pointers, never rows.

Record layout (little-endian, 96 bytes):

====== ===== ===========================
offset size  field
====== ===== ===========================
0      1     element type code
1      1     update type code
2      2     (padding)
4      4     date as proleptic ordinal
8      8     latitude  (f64)
16     8     longitude (f64)
24     8     changeset id (u64)
32     32    country (utf-8, NUL-padded)
64     32    road type (utf-8, NUL-padded)
====== ===== ===========================
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from datetime import date as date_type
from typing import Iterable, Iterator

import numpy as np

from repro.types.dimensions import ELEMENT_TYPES, UPDATE_TYPES
from repro.errors import StorageError
from repro.collection.records import UpdateList, UpdateRecord
from repro.obs import MetricsRegistry, get_registry, metric_key
from repro.storage.pages import PageStore

__all__ = ["Warehouse", "RowPointer", "RowRange", "ROWS_PER_PAGE"]

_K_ROWS_APPENDED = metric_key("rased_warehouse_rows_appended_total")
_K_ROWS_FETCHED = metric_key("rased_warehouse_rows_fetched_total")
_K_SCANS = metric_key("rased_warehouse_scans_total")

_ROW = struct.Struct("<BBxxi d d Q 32s 32s")
ROW_SIZE = _ROW.size
#: The same layout as a numpy record (the third field is the padding),
#: to pack many rows in one pass.
_ROW_ARRAY = np.dtype([
    ("element", "u1"), ("update", "u1"), ("", "V2"), ("ordinal", "<i4"), ("latitude", "<f8"),
    ("longitude", "<f8"), ("changeset", "<u8"), ("country", "S32"), ("road_type", "S32"),
])
#: Rows per heap page; 512 rows ≈ 48 KB pages.
ROWS_PER_PAGE = 512

_ELEMENT_CODE = {name: i for i, name in enumerate(ELEMENT_TYPES)}
_UPDATE_CODE = {name: i for i, name in enumerate(UPDATE_TYPES)}


@dataclass(frozen=True, order=True)
class RowPointer:
    """Physical address of one warehouse row."""

    page: int
    slot: int


@dataclass(frozen=True)
class RowRange:
    """The pointers of ``count`` consecutive heap rows from row number
    ``first`` (row ``r`` is slot ``r % ROWS_PER_PAGE`` of page
    ``r // ROWS_PER_PAGE``): what one :meth:`Warehouse.append` returns."""

    first: int
    count: int

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index: int) -> RowPointer:
        page, slot = divmod(self.first + range(self.count)[index], ROWS_PER_PAGE)
        return RowPointer(page=page, slot=slot)

    def pages_and_slots(self) -> tuple[np.ndarray, np.ndarray]:
        """Every row's page and slot, as two arrays."""
        rows = np.arange(self.first, self.first + self.count, dtype=np.int64)
        return rows // ROWS_PER_PAGE, rows % ROWS_PER_PAGE


def _utf8(values: list[str], size: int) -> list[bytes]:
    """Each value's UTF-8 bytes, cut to ``size`` on a character boundary
    (each distinct value encoded once)."""
    table = {
        value: value.encode("utf-8")[:size].decode("utf-8", "ignore").encode("utf-8")
        for value in dict.fromkeys(values)
    }
    return [table[value] for value in values]


def _pack_rows(updates: UpdateList) -> bytes:
    """The heap bytes of ``updates``, row after row, in one array pass."""
    element, day, country, lat, lon, road_type, update, changeset = updates.columns
    rows = np.zeros(len(updates), dtype=_ROW_ARRAY)
    rows["element"] = [_ELEMENT_CODE[name] for name in element]
    rows["update"] = [_UPDATE_CODE[name] for name in update]
    rows["ordinal"] = [value.toordinal() for value in day]
    rows["latitude"], rows["longitude"], rows["changeset"] = lat, lon, changeset
    rows["country"], rows["road_type"] = _utf8(country, 32), _utf8(road_type, 32)
    return rows.tobytes()


def _unpack_row(data: bytes, offset: int) -> UpdateRecord:
    (
        element_code,
        update_code,
        ordinal,
        latitude,
        longitude,
        changeset_id,
        country,
        road_type,
    ) = _ROW.unpack_from(data, offset)
    return UpdateRecord(
        element_type=ELEMENT_TYPES[element_code],
        date=date_type.fromordinal(ordinal),
        country=country.rstrip(b"\x00").decode("utf-8"),
        latitude=latitude,
        longitude=longitude,
        road_type=road_type.rstrip(b"\x00").decode("utf-8"),
        update_type=UPDATE_TYPES[update_code],
        changeset_id=changeset_id,
    )


class Warehouse:
    """An append-only heap of UpdateList rows over a page store.

    A page may end in part of a row: a live writer's append in flight,
    which every read here leaves out — or, if the store was ``recovered``
    under the writer lease just before, a torn heap page, refused."""

    def __init__(
        self,
        store: PageStore,
        prefix: str = "warehouse/heap",
        metrics: MetricsRegistry | None = None,
        recovered: bool = True,
    ) -> None:
        self.store = store
        self.prefix = prefix
        self.metrics = metrics if metrics is not None else get_registry()
        self.resync(recovered)
        # Rediscovering the heap extent after a restart shouldn't
        # pollute experiment I/O accounting.
        self.store.reset_stats()

    def _page_id(self, page: int) -> str:
        return f"{self.prefix}/{page:08d}"

    def resync(self, recovered: bool = True) -> None:
        """Re-derive the row count from the pages actually on disk.

        Needed when something outside the warehouse rewrites heap pages
        under it — WAL rollback of a crashed ingest batch — leaving the
        in-memory count pointing past the real heap.  Unlike
        construction-time recovery this charges its reads: a running
        system's rollback is real I/O.
        """
        pages = list(self.store.list_pages(self.prefix + "/"))
        self._rows = 0
        if pages:
            length = len(self.store.read(pages[-1]))
            if length % ROW_SIZE and recovered:
                raise StorageError(f"torn heap page {pages[-1]!r}")
            self._rows = (len(pages) - 1) * ROWS_PER_PAGE + length // ROW_SIZE

    # -- write path ---------------------------------------------------------

    def append(self, updates: UpdateList | Iterable[UpdateRecord]) -> RowRange:
        """Append rows, returning their pointers in order: each page's
        share is one store append at the end of its last whole row."""
        rows = updates if isinstance(updates, UpdateList) else UpdateList(updates)
        data = _pack_rows(rows)
        appended = RowRange(self._rows, len(rows))
        while data:
            page, fill = divmod(self._rows, ROWS_PER_PAGE)
            take = min(ROWS_PER_PAGE - fill, len(data) // ROW_SIZE)
            self.store.append(self._page_id(page), data[: take * ROW_SIZE], fill * ROW_SIZE)
            data = data[take * ROW_SIZE :]
            self._rows += take
        if appended.count:
            self.metrics.inc_key(_K_ROWS_APPENDED, appended.count)
        return appended

    # -- read path ------------------------------------------------------------

    @property
    def row_count(self) -> int:
        return self._rows

    @property
    def page_count(self) -> int:
        return -(-self._rows // ROWS_PER_PAGE)

    def fetch_many(self, pointers: Iterable[RowPointer]) -> list[UpdateRecord]:
        """Batch fetch, reading each touched page once."""
        by_page: dict[int, list[tuple[int, RowPointer]]] = {}
        ordered = list(pointers)
        for index, pointer in enumerate(ordered):
            by_page.setdefault(pointer.page, []).append((index, pointer))
        results: list[UpdateRecord | None] = [None] * len(ordered)
        for page, entries in sorted(by_page.items()):
            data = self.store.read(self._page_id(page))
            for index, pointer in entries:
                if (pointer.slot + 1) * ROW_SIZE > len(data):
                    raise StorageError(f"row pointer {pointer} beyond page extent")
                results[index] = _unpack_row(data, pointer.slot * ROW_SIZE)
        if ordered:
            self.metrics.inc_key(_K_ROWS_FETCHED, len(ordered))
        return results  # type: ignore[return-value]

    def scan_pages(self) -> Iterator[tuple[int, list[UpdateRecord]]]:
        """Full scan, page by page (the baseline's access path)."""
        self.metrics.inc_key(_K_SCANS)
        for page in range(self.page_count):
            data = self.store.read(self._page_id(page))
            whole = len(data) - len(data) % ROW_SIZE
            yield page, [_unpack_row(data, offset) for offset in range(0, whole, ROW_SIZE)]
