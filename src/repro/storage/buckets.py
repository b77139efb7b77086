"""Two-level bucket storage shared by the hash and grid indexes.

Every index entry is computed from a warehouse heap row, so a bucket's
entries are its **base** page ``<prefix>/<bucket name>`` (fixed-width
packed entries and nothing else) for the rows a month-end fold has
reached, plus the heap rows after those — the **tail** — which every
read filters itself.  The watermark ``folded``, the number of heap rows
in the base pages, is a u64 in ``<prefix>/folded``.  Who publishes what
when, and why every reader finds each row exactly once with no lock:
DESIGN.md §10, "The two warehouse indexes".
"""

from __future__ import annotations

import struct
from datetime import date
from typing import Callable, Iterator

import numpy as np

from repro.errors import PageNotFoundError, StorageError
from repro.storage.warehouse import ROWS_PER_PAGE, RowPointer, RowRange, Warehouse

__all__ = ["FoldedBuckets", "pointers"]

_WATERMARK = struct.Struct("<Q")

#: Heap rows ``first, first + 1, ...`` (a structured array in the heap's
#: record layout) -> the bucket and the packed entry of each.
EntriesOf = Callable[[np.ndarray, int], tuple[np.ndarray, np.ndarray]]


def pointers(entries: np.ndarray, rows: np.ndarray) -> Iterator[RowPointer]:
    """The row pointers of base ``entries``, then of heap row numbers ``rows``."""
    yield from map(RowPointer, entries["page"].tolist(), entries["slot"].tolist())
    for row in rows.tolist():
        yield RowPointer(*divmod(row, ROWS_PER_PAGE))


class FoldedBuckets:
    """Bucket number → packed entries, as base pages plus the heap tail."""

    def __init__(
        self,
        warehouse: Warehouse,
        prefix: str,
        entry: np.dtype,
        bucket_name: Callable[[int], str],
        entries_of: EntriesOf,
    ) -> None:
        self.warehouse = warehouse
        self.store = warehouse.store
        self.prefix = prefix
        self.watermark_page = f"{prefix}/folded"
        self._entry = entry
        self._bucket_name = bucket_name
        self._entries_of = entries_of
        self.reload()

    def reload(self) -> None:
        """Re-read the watermark and publish the heap's rows as they are
        now (at open, and after a WAL rollback moved either)."""
        folded = 0
        if self.watermark_page in self.store:
            data = self.store.read(self.watermark_page)
            if len(data) != _WATERMARK.size:
                raise StorageError(f"torn watermark page {self.watermark_page!r}")
            (folded,) = _WATERMARK.unpack(data)
        #: ``(folded, end)``: rows before ``folded`` are in the base pages,
        #: rows ``[folded, end)`` are the published tail.  Replaced whole.
        self.extent = (folded, self.warehouse.row_count)
        self._added = self.extent[1]

    # -- write path ---------------------------------------------------------

    def add(self, rows: RowRange) -> None:
        """Index heap rows ``rows``, the ones after those already added (the
        range a warehouse append returned); a reader sees them from the
        next :meth:`publish`."""
        self._added = rows.first + rows.count

    def publish(self) -> None:
        self.extent = (self.extent[0], self._added)

    def fold(self) -> int:
        """Move the published tail into the base pages, in the order
        *append each bucket's entries (after its page's whole entries,
        learnt from its size, not read), then write the watermark*: an
        entry is always in the base, the tail, or both.  Returns buckets
        appended to."""
        folded, end = self.extent
        if folded == end:
            return 0
        buckets, entries = self._entries_of(self.warehouse.rows(folded, end), folded)
        order = np.argsort(buckets, kind="stable")
        ranked, packed = buckets[order], entries[order].tobytes()
        starts = np.flatnonzero(np.diff(ranked, prepend=-1)).tolist()
        size = self._entry.itemsize
        for bucket, lo, hi in zip(ranked[starts].tolist(), starts, starts[1:] + [len(order)]):
            base_id = self._base_id(bucket)
            length = self.store.size(base_id)
            self.store.append(base_id, packed[lo * size : hi * size], length - length % size)
        self.store.write(self.watermark_page, _WATERMARK.pack(end))
        self.extent = (end, self.extent[1])
        return len(starts)

    def tail_opens_before(self, day: date) -> bool:
        """Whether the published tail's first row is dated before ``day``."""
        folded, end = self.extent
        if folded == end:
            return False
        return int(self.warehouse.rows(folded, folded + 1)["ordinal"][0]) < day.toordinal()

    # -- read path ----------------------------------------------------------

    def _base_id(self, bucket: int) -> str:
        return f"{self.prefix}/{self._bucket_name(bucket)}"

    def tail(self) -> tuple[int, np.ndarray]:
        """The published tail's first row number and its rows, read once.

        Take it before any :meth:`base` read: a fold landing in between
        then leaves rows in both, never in neither, and callers keep the
        first of each row pointer."""
        folded, end = self.extent
        return folded, self.warehouse.rows(folded, end)

    def base(self, bucket: int) -> np.ndarray:
        """The bucket's base entries, in row order.  Whole entries only: a
        partial last one is a fold's append in flight, or a torn one that
        recovery truncates."""
        try:
            data = self.store.read(self._base_id(bucket))
        except PageNotFoundError:
            data = b""
        return np.frombuffer(data, self._entry, len(data) // self._entry.itemsize)
