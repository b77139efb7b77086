"""A bucketed hash index on ChangesetID over the page store.

RASED indexes the warehouse "by a hash index on ChangesetID, which is
needed to retrieve a single update for RASED users to see the change
that took place for a specific object" (paper, Section VI-B).

The index is a fixed fan-out bucket array: key ``k`` hashes to bucket
``k % bucket_count``; a bucket's packed (key, page, slot) entries live
in its base page plus the batch segments that name it
(:attr:`HashIndex.buckets`, a :mod:`repro.storage.segments` store).
One changeset can map to many rows (a session can touch many elements),
so lookups return every matching pointer.  Writers buffer in memory and
:meth:`flush` publishes the batch as one segment page — the same
offline cadence as the rest of RASED's maintenance.
"""

from __future__ import annotations

import struct

import numpy as np
import numpy.typing as npt

from repro.errors import ConfigError, StorageError
from repro.storage.pages import PageStore
from repro.storage.segments import SegmentedBuckets
from repro.storage.warehouse import RowPointer, RowRange

__all__ = ["HashIndex"]

_ENTRY = struct.Struct("<QII")
_ENTRY_ARRAY = np.dtype([("key", "<u8"), ("page", "<u4"), ("slot", "<u4")])


class HashIndex:
    """Key → row-pointer multimap with page-resident buckets."""

    def __init__(
        self,
        store: PageStore,
        prefix: str = "warehouse/hash",
        bucket_count: int = 256,
    ) -> None:
        if bucket_count < 1:
            raise ConfigError("bucket_count must be positive")
        self.prefix = prefix
        self.bucket_count = bucket_count
        self.buckets = SegmentedBuckets(store, prefix, _ENTRY, "{:05d}".format)

    # -- write path ---------------------------------------------------------

    def insert(self, key: int, pointer: RowPointer) -> None:
        self._add([key], [pointer.page], [pointer.slot])

    def insert_many(self, keys: npt.ArrayLike, rows: RowRange) -> None:
        """:meth:`insert` of the ``i``-th key at the ``i``-th row of ``rows``."""
        self._add(keys, *rows.pages_and_slots())

    def _add(self, keys: npt.ArrayLike, pages: npt.ArrayLike, slots: npt.ArrayLike) -> None:
        key = np.asarray(keys, dtype=np.int64)
        if len(key) and key.min() < 0:
            raise StorageError(f"hash keys must be non-negative, got {key.min()}")
        entries = np.empty(len(key), dtype=_ENTRY_ARRAY)
        entries["key"], entries["page"], entries["slot"] = key, pages, slots
        self.buckets.add_many(key % self.bucket_count, entries)

    def flush(self) -> int:
        """Publish buffered entries as one segment; returns pages written."""
        return self.buckets.flush()

    # -- read path -------------------------------------------------------------

    def lookup(self, key: int) -> list[RowPointer]:
        """All row pointers stored under ``key``, each once, in insertion
        order (one bucket page plus the segments that name the bucket)."""
        return list(
            dict.fromkeys(
                RowPointer(page=page, slot=slot)
                for stored, page, slot in self.buckets.entries(key % self.bucket_count)
                if stored == key
            )
        )

    def __contains__(self, key: int) -> bool:
        return bool(self.lookup(key))
