"""The update warehouse: the raw UpdateList in heap-file pages.

Besides the cube index, RASED dumps the whole UpdateList into "a
standard database table" (paper, Section VI-B) to answer sample-update
queries — it is also the relation the PostgreSQL-style baseline scans
in the Fig. 10 experiment.

Rows are packed into fixed-size binary records (so every heap page
holds the same number of rows) and appended to numbered heap pages on
the page store.  A :class:`RowPointer` (page number, slot) addresses a
row; the hash and spatial indexes store row pointers, never rows.

Record layout (little-endian, no padding, 34 bytes):

====== ===== ===========================
offset size  field
====== ===== ===========================
0      1     element type code
1      1     update type code
2      2     country (value code, u16)
4      2     road type (value code, u16)
6      4     date as proleptic ordinal
10     8     latitude  (f64)
18     8     longitude (f64)
26     8     changeset id (u64)
====== ===== ===========================

A value code is the value's position in the **values page** (beside
the heap, ``warehouse/values``): a magic header, then each distinct
country and road type once, in first-use order, as a one-byte length
and its UTF-8 bytes.  Like the heap it only grows by appends, and a
batch appends its new values before the rows that use them.  A value
keeps at most 32 UTF-8 bytes, cut on a character boundary, and no
trailing NUL.
"""

from __future__ import annotations

import posixpath
import struct
from dataclasses import dataclass
from datetime import date as date_type
from typing import Any, Iterable, Iterator

import numpy as np

from repro.types.dimensions import ELEMENT_TYPES, UPDATE_TYPES
from repro.errors import ConfigError, StorageError
from repro.collection.records import UpdateList, UpdateRecord
from repro.obs import MetricsRegistry, get_registry, metric_key
from repro.storage.pages import PageStore

__all__ = ["Warehouse", "RowPointer", "RowRange", "ROWS_PER_PAGE", "ROW_SIZE"]

_K_ROWS_APPENDED = metric_key("rased_warehouse_rows_appended_total")
_K_ROWS_FETCHED = metric_key("rased_warehouse_rows_fetched_total")
_K_SCANS = metric_key("rased_warehouse_scans_total")

_ROW = struct.Struct("<BBHHiddQ")
ROW_SIZE = _ROW.size
#: The same layout as a numpy record, to pack many rows in one pass.
_ROW_ARRAY = np.dtype([
    ("element", "u1"), ("update", "u1"), ("country", "<u2"), ("road_type", "<u2"),
    ("ordinal", "<i4"), ("latitude", "<f8"), ("longitude", "<f8"), ("changeset", "<u8"),
])
#: Rows per heap page; 512 rows ≈ 17 KB pages.
ROWS_PER_PAGE = 512

#: The most UTF-8 bytes a stored country or road type keeps.
VALUE_BYTES = 32
#: Distinct values a u16 code can name.
MAX_VALUES = 0xFFFF
_VALUES_MAGIC = b"RASEDVL1"

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


def _cut(value: str) -> str:
    """``value`` as a row stores it: its UTF-8 cut to ``VALUE_BYTES`` on a
    character boundary, trailing NULs dropped."""
    return value.encode("utf-8")[:VALUE_BYTES].decode("utf-8", "ignore").rstrip("\x00")


def _decode_values(data: bytes, page_id: str, recovered: bool) -> tuple[list[str], int]:
    """The values of a values page, and the length of its whole entries.

    A partial entry at the end is an append in flight, left out — or, on
    a store ``recovered`` just before, a torn page, refused."""
    head = data[: len(_VALUES_MAGIC)]
    if head != _VALUES_MAGIC[: len(head)]:
        raise StorageError(f"not a values page: {page_id!r}")
    values: list[str] = []
    offset = len(_VALUES_MAGIC) if len(data) >= len(_VALUES_MAGIC) else 0
    while 0 < offset < len(data) and offset + data[offset] < len(data):
        end = offset + 1 + data[offset]
        try:
            values.append(data[offset + 1 : end].decode("utf-8"))
        except UnicodeDecodeError:
            raise StorageError(f"corrupt values page {page_id!r}") from None
        offset = end
    if offset != len(data) and recovered:
        raise StorageError(f"torn values page {page_id!r}")
    return values, offset


class Warehouse:
    """An append-only heap of UpdateList rows over a page store.

    A page may end in part of a row or value: a live writer's append in
    flight, which every read here leaves out — or, if the store was
    ``recovered`` under the writer lease just before, a torn page,
    refused."""

    def __init__(
        self,
        store: PageStore,
        prefix: str = "warehouse/heap",
        metrics: MetricsRegistry | None = None,
        recovered: bool = True,
    ) -> None:
        self.store = store
        self.prefix = prefix
        self.values_page = posixpath.join(posixpath.dirname(prefix), "values")
        self.metrics = metrics if metrics is not None else get_registry()
        self._resyncs = 0
        self.resync(recovered)
        # Rediscovering the heap extent after a restart shouldn't
        # pollute experiment I/O accounting.
        self.store.reset_stats()

    def _page_id(self, page: int) -> str:
        return f"{self.prefix}/{page:08d}"

    def resync(self, recovered: bool = True) -> None:
        """Re-derive the row count and the values from the pages actually
        on disk.

        Needed when something outside the warehouse rewrites heap pages
        under it — WAL rollback of a crashed ingest batch — leaving the
        in-memory count pointing past the real heap.  Unlike
        construction-time recovery this charges its reads: a running
        system's rollback is real I/O.
        """
        self._resyncs += 1
        #: ``(resyncs, first row, bytes)``: the rows :meth:`rows` read last.
        self._kept = (self._resyncs, 0, b"")
        pages = list(self.store.list_pages(self.prefix + "/"))
        if pages and self.values_page not in self.store:
            raise ConfigError(
                f"this root's warehouse heap ({pages[0]!r}) has the older 96-byte "
                f"row layout, with no {self.values_page!r} page; re-ingest its feed "
                "into a new root"
            )
        self._load_values(recovered)
        self._rows = 0
        if pages:
            length = len(self.store.read(pages[-1]))
            if length % ROW_SIZE and recovered:
                raise StorageError(f"torn heap page {pages[-1]!r}")
            self._rows = (len(pages) - 1) * ROWS_PER_PAGE + length // ROW_SIZE

    def _load_values(self, recovered: bool) -> None:
        data = self.store.read(self.values_page) if self.values_page in self.store else b""
        self._values, self._values_end = _decode_values(data, self.values_page, recovered)
        self._codes = {value: code for code, value in enumerate(self._values)}

    # -- write path ---------------------------------------------------------

    def append(self, updates: UpdateList | Iterable[UpdateRecord]) -> RowRange:
        """Append rows, returning their pointers in order: the values new
        to the warehouse are one append to the values page, then each heap
        page's share is one store append at the end of its last whole row."""
        rows = updates if isinstance(updates, UpdateList) else UpdateList(updates)
        data = self._pack_rows(rows)
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

    def _pack_rows(self, updates: UpdateList) -> bytes:
        """The heap bytes of ``updates``, row after row, in one array pass."""
        element, day, country, lat, lon, road_type, update, changeset = updates.columns
        if changeset and min(changeset) < 0:
            raise StorageError(f"changeset ids must be non-negative, got {min(changeset)}")
        rows = np.zeros(len(updates), dtype=_ROW_ARRAY)
        rows["element"] = [_ELEMENT_CODE[name] for name in element]
        rows["update"] = [_UPDATE_CODE[name] for name in update]
        rows["ordinal"] = [value.toordinal() for value in day]
        rows["latitude"], rows["longitude"], rows["changeset"] = lat, lon, changeset
        rows["country"], rows["road_type"] = self._intern(country, road_type)
        return rows.tobytes()

    def _intern(self, *columns: list[str]) -> list[list[int]]:
        """Each column's value codes.  Values not yet stored are appended
        to the values page first, in one append (each distinct value is
        cut once)."""
        stored = {value: _cut(value) for column in columns for value in dict.fromkeys(column)}
        new = [value for value in dict.fromkeys(stored.values()) if value not in self._codes]
        if new:
            if len(self._values) + len(new) > MAX_VALUES:
                raise StorageError(
                    f"{len(self._values) + len(new)} distinct countries and road "
                    f"types; a value code holds at most {MAX_VALUES}"
                )
            encoded = [value.encode("utf-8") for value in new]
            data = b"".join(bytes((len(value),)) + value for value in encoded)
            if not self._values_end:
                data = _VALUES_MAGIC + data
            self.store.append(self.values_page, data, self._values_end)
            self._values_end += len(data)
            for value in new:
                self._codes[value] = len(self._values)
                self._values.append(value)
        codes = {value: self._codes[cut] for value, cut in stored.items()}
        return [[codes[value] for value in column] for column in columns]

    # -- read path ------------------------------------------------------------

    @property
    def row_count(self) -> int:
        return self._rows

    @property
    def page_count(self) -> int:
        return -(-self._rows // ROWS_PER_PAGE)

    def _records(self, rows: list[tuple[Any, ...]]) -> list[UpdateRecord]:
        """Unpacked rows as records.  A code past the values in memory
        (another writer's new value) re-reads the values page once."""
        try:
            return self._decode(rows)
        except IndexError:
            self._load_values(recovered=False)
        try:
            return self._decode(rows)
        except IndexError:
            raise StorageError(f"a row names a value past {self.values_page!r}") from None

    def _decode(self, rows: list[tuple[Any, ...]]) -> list[UpdateRecord]:
        values = self._values
        return [
            UpdateRecord(
                element_type=ELEMENT_TYPES[element],
                date=date_type.fromordinal(ordinal),
                country=values[country],
                latitude=latitude,
                longitude=longitude,
                road_type=values[road_type],
                update_type=UPDATE_TYPES[update],
                changeset_id=changeset,
            )
            for element, update, country, road_type, ordinal, latitude, longitude, changeset in rows
        ]

    def fetch_many(self, pointers: Iterable[RowPointer]) -> list[UpdateRecord]:
        """Batch fetch, reading each touched page once."""
        by_page: dict[int, list[tuple[int, RowPointer]]] = {}
        ordered = list(pointers)
        for index, pointer in enumerate(ordered):
            by_page.setdefault(pointer.page, []).append((index, pointer))
        unpacked: list[tuple[Any, ...]] = [()] * len(ordered)
        for page, entries in sorted(by_page.items()):
            data = self.store.read(self._page_id(page))
            for index, pointer in entries:
                if (pointer.slot + 1) * ROW_SIZE > len(data):
                    raise StorageError(f"row pointer {pointer} beyond page extent")
                unpacked[index] = _ROW.unpack_from(data, pointer.slot * ROW_SIZE)
        if ordered:
            self.metrics.inc_key(_K_ROWS_FETCHED, len(ordered))
        return self._records(unpacked)

    def rows(self, first: int, end: int) -> np.ndarray:
        """Rows ``[first, end)`` as one read-only array in the record layout
        (fields ``changeset``, ``latitude``, ``ordinal``, ...).

        The rows of the widest range read last stay in memory, so a range
        that starts inside it reads only the heap pages of the rows past
        it: a sliding range (an index's tail) costs its new rows.  A row
        never changes once written, until a rollback's :meth:`resync`."""
        resyncs = self._resyncs
        kept_resyncs, start, data = self._kept
        if kept_resyncs != resyncs or not start <= first <= start + len(data) // ROW_SIZE:
            start, data = first, b""
        kept = memoryview(data)[(first - start) * ROW_SIZE :]
        if len(kept) < (end - first) * ROW_SIZE:
            data = bytes(kept) + self._read(first + len(kept) // ROW_SIZE, end)
            self._kept = (resyncs, first, data)
            kept = memoryview(data)
        return np.frombuffer(kept, _ROW_ARRAY, max(end - first, 0))

    def _read(self, first: int, end: int) -> bytes:
        """The bytes of rows ``[first, end)``, ``first < end``, each heap page
        read once."""
        parts = []
        for page in range(first // ROWS_PER_PAGE, -(-end // ROWS_PER_PAGE)):
            lo = max(first - page * ROWS_PER_PAGE, 0)
            hi = min(end - page * ROWS_PER_PAGE, ROWS_PER_PAGE)
            data = self.store.read(self._page_id(page))
            if len(data) < hi * ROW_SIZE:
                raise StorageError(f"heap page {self._page_id(page)!r} ends before row {hi}")
            parts.append(memoryview(data)[lo * ROW_SIZE : hi * ROW_SIZE])
        return b"".join(parts)

    def scan_pages(self) -> Iterator[tuple[int, list[UpdateRecord]]]:
        """Full scan, page by page (the baseline's access path)."""
        self.metrics.inc_key(_K_SCANS)
        for page in range(self.page_count):
            data = self.store.read(self._page_id(page))
            whole = len(data) - len(data) % ROW_SIZE
            yield page, self._records(list(_ROW.iter_unpack(memoryview(data)[:whole])))
