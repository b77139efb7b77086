"""A bucketed hash index on ChangesetID over the page store.

RASED indexes the warehouse "by a hash index on ChangesetID, which is
needed to retrieve a single update for RASED users to see the change
that took place for a specific object" (paper, Section VI-B).

The index is a fixed fan-out bucket array: key ``k`` hashes to bucket
``k % bucket_count``; a bucket's packed (key, page, slot) entries are
its base page plus the heap rows no month-end fold has reached yet
(:attr:`HashIndex.buckets`, a :mod:`repro.storage.buckets` store).
One changeset can map to many rows (a session can touch many elements),
so lookups return every matching pointer.  An entry is computed from
its heap row, so indexing a day writes nothing: :meth:`flush` makes the
day's rows visible, and the month end's fold writes their entries once.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.storage.buckets import FoldedBuckets, pointers
from repro.storage.warehouse import RowPointer, RowRange, Warehouse

__all__ = ["HashIndex"]

_ENTRY = np.dtype([("key", "<u8"), ("page", "<u4"), ("slot", "<u4")])


class HashIndex:
    """Key → row-pointer multimap with page-resident buckets."""

    def __init__(
        self,
        warehouse: Warehouse,
        prefix: str = "warehouse/hash",
        bucket_count: int = 256,
    ) -> None:
        if bucket_count < 1:
            raise ConfigError("bucket_count must be positive")
        self.prefix = prefix
        self.bucket_count = bucket_count
        self.buckets = FoldedBuckets(warehouse, prefix, _ENTRY, "{:05d}".format, self._entries)

    def _entries(self, rows: np.ndarray, first: int) -> tuple[np.ndarray, np.ndarray]:
        entries = np.empty(len(rows), dtype=_ENTRY)
        entries["key"] = rows["changeset"]
        entries["page"], entries["slot"] = RowRange(first, len(rows)).pages_and_slots()
        return (rows["changeset"] % self.bucket_count).astype(np.int64), entries

    # -- write path ---------------------------------------------------------

    def insert_many(self, rows: RowRange) -> None:
        """Index the heap rows ``rows`` under their changeset ids."""
        self.buckets.add(rows)

    def flush(self) -> None:
        """Make the rows indexed since the last flush visible (no write)."""
        self.buckets.publish()

    # -- read path -------------------------------------------------------------

    def lookup(self, key: int) -> list[RowPointer]:
        """All row pointers stored under ``key``, each once, in row order
        (one bucket page, then the heap tail)."""
        first, tail = self.buckets.tail()
        base = self.buckets.base(key % self.bucket_count)
        rows = np.flatnonzero(tail["changeset"] == key) + first
        return list(dict.fromkeys(pointers(base[base["key"] == key], rows)))

    def __contains__(self, key: int) -> bool:
        return bool(self.lookup(key))
