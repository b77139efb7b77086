"""Two-level bucket storage shared by the hash and grid indexes.

A bucket's fixed-width packed entries live in its **base** page
``<prefix>/<bucket name>`` (entries and nothing else) plus the slices
that immutable **segment** pages ``<prefix>/seg/<n>`` hold for it.  A
segment is one flushed batch: magic, entry size, a directory of
``(bucket, first entry, count)`` sorted by bucket, then the entries
grouped by bucket.  Who publishes what when, and why every reader finds
each row exactly once with no lock: DESIGN.md §10, "The two warehouse
indexes".
"""

from __future__ import annotations

import struct
from collections import defaultdict
from itertools import chain
from typing import Any, Callable, Iterator

import numpy as np

from repro.errors import PageNotFoundError, StorageError
from repro.storage.pages import PageStore

__all__ = ["SegmentedBuckets"]

_MAGIC = b"RSEG"
_HEADER = struct.Struct("<4sII")
_SPAN = struct.Struct("<III")

#: bucket -> (first byte, end byte) of its entries within a segment page.
Directory = dict[int, tuple[int, int]]


def _parse_directory(page_id: str, data: bytes, entry_size: int) -> Directory:
    """The directory of a segment page that is exactly what a flush of
    ``entry_size``-byte entries writes; StorageError for any other."""
    torn = StorageError(f"torn or inconsistent segment page {page_id!r}")
    if len(data) < _HEADER.size:
        raise torn
    magic, size, spans = _HEADER.unpack_from(data)
    body = _HEADER.size + spans * _SPAN.size
    if magic != _MAGIC or size != entry_size or len(data) < body:
        raise torn
    directory: Directory = {}
    last, end = -1, body
    for bucket, first, count in _SPAN.iter_unpack(data[_HEADER.size : body]):
        # Sorted by bucket, contiguous, no empty span.
        if bucket <= last or body + first * size != end or count < 1:
            raise torn
        directory[bucket] = (end, end + count * size)
        last, end = bucket, end + count * size
    if end != len(data):
        raise torn
    return directory


def _cut(page_id: str, data: bytes, span: tuple[int, int]) -> bytes:
    if len(data) < span[1]:
        raise StorageError(f"torn segment {page_id!r}")
    return data[span[0] : span[1]]


class SegmentedBuckets:
    """Bucket number → packed entries, as base pages plus batch segments."""

    def __init__(
        self,
        store: PageStore,
        prefix: str,
        entry: struct.Struct,
        bucket_name: Callable[[int], str],
    ) -> None:
        self.store = store
        self.prefix = prefix
        self._entry = entry
        self._bucket_name = bucket_name
        #: The writer's private buffer; readers never look at it.
        self._pending: defaultdict[int, bytearray] = defaultdict(bytearray)
        #: ``(page id, directory)`` per segment, oldest first.
        self.segments: tuple[tuple[str, Directory], ...] = ()
        self.discard_pending()

    # -- write path ---------------------------------------------------------

    def add_many(self, buckets: np.ndarray, entries: np.ndarray) -> None:
        """Buffer the ``i``-th entry under the ``i``-th bucket, each bucket's
        in order; ``entries`` is a structured array whose records are the
        packed entry layout."""
        order = np.argsort(buckets, kind="stable")
        data, ranked = memoryview(entries[order].tobytes()), buckets[order]
        starts = np.flatnonzero(np.diff(ranked, prepend=-1)).tolist()
        size = self._entry.size
        for bucket, lo, hi in zip(ranked[starts].tolist(), starts, starts[1:] + [len(order)]):
            self._pending[bucket] += data[lo * size : hi * size]

    def flush(self) -> int:
        """Publish the buffered entries as one segment; returns pages written."""
        if not self._pending:
            return 0
        size, first = self._entry.size, 0
        parts = [_HEADER.pack(_MAGIC, size, len(self._pending))]
        for bucket in sorted(self._pending):
            count = len(self._pending[bucket]) // size
            parts.append(_SPAN.pack(bucket, first, count))
            first += count
        parts.extend(self._pending[bucket] for bucket in sorted(self._pending))
        data = b"".join(parts)
        # Numbered from the store's own state, so a batch replayed after
        # a rollback writes the page the first attempt would have.
        number = int(self.segments[-1][0].rpartition("/")[2]) + 1 if self.segments else 0
        page_id = f"{self.prefix}/seg/{number:08d}"
        self.store.write(page_id, data)
        self.segments += ((page_id, _parse_directory(page_id, data, size)),)
        self._pending.clear()
        return 1

    def fold(self) -> int:
        """Move every segment into the base pages, in the order *append to
        every bucket (after its whole entries, learnt from its size, not
        read), swap in the empty tuple, retire the segment pages* (a batch
        deletes them at commit): an entry is always in at least one place.
        Returns buckets appended to."""
        segments = self.segments
        pages = [self.store.read(page_id) for page_id, _ in segments]
        buckets = sorted({bucket for _, directory in segments for bucket in directory})
        for bucket in buckets:
            slices = [
                _cut(page_id, data, directory[bucket])
                for (page_id, directory), data in zip(segments, pages)
                if bucket in directory
            ]
            base_id = self._base_id(bucket)
            size = self.store.size(base_id)
            self.store.append(base_id, b"".join(slices), size - size % self._entry.size)
        self.segments = ()
        for page_id, _ in segments:
            self.store.retire(page_id)
        return len(buckets)

    def discard_pending(self) -> int:
        """Drop the buffer and re-list the segments (a WAL rollback may have
        deleted or restored segment pages); returns entries dropped."""
        dropped = sum(map(len, self._pending.values())) // self._entry.size
        self._pending.clear()
        self.segments = tuple(
            (page_id, _parse_directory(page_id, self.store.read(page_id), self._entry.size))
            for page_id in self.store.list_pages(f"{self.prefix}/seg/")
        )
        return dropped

    # -- read path ----------------------------------------------------------

    def _base_id(self, bucket: int) -> str:
        return f"{self.prefix}/{self._bucket_name(bucket)}"

    def entries(self, bucket: int) -> Iterator[tuple[Any, ...]]:
        """The bucket's entries, unpacked, in insertion order: base page,
        then segments oldest first.  While a fold is under way an entry
        can come twice; callers keep the first of each row pointer."""
        while True:
            segments = self.segments
            hits = [(page_id, d[bucket]) for page_id, d in segments if bucket in d]
            try:
                pages = [self.store.read(page_id) for page_id, _ in hits]
            except PageNotFoundError as exc:
                if self.segments is segments:
                    raise StorageError(f"listed segment is missing: {exc}") from None
                continue
            # Segments are read before the base.  Had a fold retired them
            # meanwhile (a later flush reuses their numbers) the tuple no
            # longer starts with the one taken above and the read starts
            # over; otherwise the base read next holds, of this bucket,
            # none or all of what these slices hold.
            if self.segments[: len(segments)] == segments:
                break
        try:
            base = self.store.read(self._base_id(bucket))
        except PageNotFoundError:
            base = b""
        # Whole entries: a partial last one is a fold's append in flight,
        # or a torn one that recovery truncates.
        chunks = [base[: len(base) - len(base) % self._entry.size]]
        chunks += [_cut(page_id, data, span) for (page_id, span), data in zip(hits, pages)]
        return chain.from_iterable(map(self._entry.iter_unpack, chunks))
