"""A bucketed hash index on ChangesetID over the page store.

RASED indexes the warehouse "by a hash index on ChangesetID, which is
needed to retrieve a single update for RASED users to see the change
that took place for a specific object" (paper, Section VI-B).

The index is a fixed fan-out bucket array: key ``k`` hashes to bucket
``k % bucket_count``; each bucket is one page of packed (key, page,
slot) entries.  One changeset can map to many rows (a session can
touch many elements), so lookups return every matching pointer.
Writers buffer in memory and merge into bucket pages on
:meth:`flush` — the same offline cadence as the rest of RASED's
maintenance.
"""

from __future__ import annotations

import struct
from collections import defaultdict
from typing import Iterable

from repro.errors import ConfigError, PageNotFoundError, StorageError
from repro.storage.pages import PageStore
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
        self.store = store
        self.prefix = prefix
        self.bucket_count = bucket_count
        self._pending: dict[int, list[tuple[int, RowPointer]]] = defaultdict(list)

    def _bucket_id(self, bucket: int) -> str:
        return f"{self.prefix}/{bucket:05d}"

    def _bucket_of(self, key: int) -> int:
        return key % self.bucket_count

    # -- write path ---------------------------------------------------------

    def insert(self, key: int, pointer: RowPointer) -> None:
        if key < 0:
            raise StorageError(f"hash keys must be non-negative, got {key}")
        self._pending[self._bucket_of(key)].append((key, pointer))

    def insert_many(self, entries: Iterable[tuple[int, RowPointer]]) -> None:
        for key, pointer in entries:
            self.insert(key, pointer)

    def flush(self) -> int:
        """Merge buffered entries into bucket pages; returns pages written."""
        # Taken out before the first write: a concurrent ``lookup`` adds
        # ``_pending`` to what it reads from the page, so an entry left
        # there after its bucket was written would be returned twice.
        pending, self._pending = self._pending, defaultdict(list)
        written = 0
        for bucket, entries in sorted(pending.items()):
            existing = self._read_bucket(bucket)
            existing.extend(entries)
            payload = b"".join(
                _ENTRY.pack(key, pointer.page, pointer.slot)
                for key, pointer in existing
            )
            self.store.write(self._bucket_id(bucket), payload)
            written += 1
        return written

    def discard_pending(self) -> int:
        """Drop buffered, unflushed entries (WAL rollback of a batch
        whose bucket pages were restored from undo).  Returns how many
        entries were discarded."""
        dropped = sum(len(entries) for entries in self._pending.values())
        self._pending.clear()
        return dropped

    def _read_bucket(self, bucket: int) -> list[tuple[int, RowPointer]]:
        try:
            data = self.store.read(self._bucket_id(bucket))
        except PageNotFoundError:
            return []
        if len(data) % _ENTRY.size:
            raise StorageError(f"torn hash bucket {bucket}")
        entries: list[tuple[int, RowPointer]] = []
        for offset in range(0, len(data), _ENTRY.size):
            key, page, slot = _ENTRY.unpack_from(data, offset)
            entries.append((key, RowPointer(page=page, slot=slot)))
        return entries

    # -- read path -------------------------------------------------------------

    def lookup(self, key: int) -> list[RowPointer]:
        """All row pointers stored under ``key`` (one bucket-page I/O)."""
        bucket = self._bucket_of(key)
        matches = [
            pointer
            for stored_key, pointer in self._read_bucket(bucket)
            if stored_key == key
        ]
        matches.extend(
            pointer
            for stored_key, pointer in self._pending.get(bucket, [])
            if stored_key == key
        )
        return matches

    def __contains__(self, key: int) -> bool:
        return bool(self.lookup(key))
