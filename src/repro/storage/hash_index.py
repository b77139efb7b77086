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
from typing import Iterable

from repro.errors import ConfigError, StorageError
from repro.storage.pages import PageStore
from repro.storage.segments import SegmentedBuckets
from repro.storage.warehouse import RowPointer

__all__ = ["HashIndex"]

_ENTRY = struct.Struct("<QII")


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
        if key < 0:
            raise StorageError(f"hash keys must be non-negative, got {key}")
        self.buckets.add(key % self.bucket_count, key, pointer.page, pointer.slot)

    def insert_many(self, entries: Iterable[tuple[int, RowPointer]]) -> None:
        for key, pointer in entries:
            self.insert(key, pointer)

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
