"""Write-ahead intent log + undo journal for crash-safe ingestion.

RASED's crawlers run forever; a crash mid-ingest must never leave the
cube index, the warehouse heap, and the hash/spatial indexes mutually
inconsistent, and must never double-count a day after restart.  The
paper's maintenance is "copied to the index structure only when done";
this module extends that guarantee from one page to one *batch* (a
whole crawled day, which touches many pages).

The protocol is classic physical undo logging over the page store:

1. :meth:`IngestWAL.begin` writes an **intent** page (``wal/intent``)
   naming the batch.  Its presence means "a batch may have partially
   executed".
2. All batch writes flow through the :class:`JournaledStore` wrapper,
   which captures each touched page's **pre-image** to an undo page
   (``wal/undo/<batch>/<n>``) *before* the first overwrite — classic
   write-ahead ordering, so a torn undo page always implies an
   untouched data page.  A page the batch only appends to is journaled
   by a **truncate record** instead: its length before the append, no
   bytes.
3. :meth:`IngestWAL.commit` deletes the intent page — the atomic
   commit point — then garbage-collects the undo pages and records a
   **checkpoint** page (``wal/checkpoint``) naming the last durable
   batch.

:meth:`IngestWAL.recover` inverts an incomplete batch: if an intent
page exists, every parseable undo page of *that batch* is restored
(newest first: a pre-image is written back, an appended page cut back
to its recorded length) and collected, then the intent is cleared; undo
pages with no intent are committed leftovers, collected.
After recovery the store is byte-identical to the pre-batch state, so
re-running the crawler (whose cursor was part of the batch and was
therefore rolled back too) re-ingests the batch exactly once.

Undo pages carry a CRC over the pre-image; a mismatch (torn undo
write) means the corresponding data write never happened, and the page
is skipped rather than restored — restoring a torn pre-image would
corrupt a page the crash provably left intact.

Recovery runs only under the writer lease (:meth:`IngestWAL.lease`),
which every write call holds throughout and every opener only tries,
so a live writer's batch is never rolled back from outside.
"""

from __future__ import annotations

import contextlib
import errno
import fcntl
import json
import os
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import ConfigError, PageNotFoundError, StorageError
from repro.obs import MetricsRegistry, get_registry, metric_key
from repro.obs.span import span as causal_span
from repro.storage.pages import PageStore, PageStoreProxy

__all__ = ["IngestWAL", "JournaledStore", "WalRecovery", "WAL_PREFIX"]

#: Default page-id prefix for all WAL state.
WAL_PREFIX = "wal"

_HEADER_SEP = b"\n"

_K_RECOVERIES = metric_key("rased_ingest_recoveries_total")
_K_ROLLED_BACK = metric_key("rased_ingest_batches_rolled_back_total")


@dataclass
class WalRecovery:
    """What one :meth:`IngestWAL.recover` pass did."""

    #: Whether an incomplete batch was found and rolled back.
    rolled_back: bool = False
    #: Batch metadata from the intent page (``None`` if unparseable).
    batch_meta: dict | None = None
    #: Pages restored to their pre-image or length (or deleted, if absent).
    pages_restored: int = 0
    #: Undo pages skipped because their checksum failed (torn undo
    #: write — the matching data write never happened).
    pages_skipped: int = 0
    #: Orphan undo pages collected from already-committed batches.
    orphans_collected: int = 0
    #: Whether another writer committed since this WAL last looked.
    moved: bool = False


class JournaledStore(PageStoreProxy):
    """A page-store view that journals how to undo a batch.

    Outside a batch every operation is a pure pass-through.  Inside a
    batch (between :meth:`IngestWAL.begin` and :meth:`IngestWAL.commit`)
    the first change of each page is journaled before it lands: the
    page's prior contents (or its absence) before a write or delete,
    its length before an append.  WAL pages themselves are never
    journaled.
    """

    def __init__(self, wal: "IngestWAL") -> None:
        super().__init__(wal.raw)
        self._wal = wal

    def write(self, page_id: str, data: bytes) -> None:
        self._wal.journal(page_id)
        self.inner.write(page_id, data)

    def append(self, page_id: str, data: bytes, at: int) -> None:
        self._wal.journal(page_id, at)
        self.inner.append(page_id, data, at)

    def delete(self, page_id: str) -> None:
        self._wal.journal(page_id)
        self.inner.delete(page_id)


class IngestWAL:
    """Batch atomicity for ingestion over a page store.

    One WAL owns one store.  Components that must be crash-consistent
    with each other (cube index, warehouse, hash/spatial indexes, the
    crawl cursor) are constructed over :attr:`store` — the journaled
    view — while the WAL's own pages go straight to the raw device.
    """

    def __init__(
        self,
        store: PageStore,
        prefix: str = WAL_PREFIX,
        primary: PageStore | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.raw = store
        self.prefix = prefix
        owner = store if primary is None else primary
        self._lease_lock = vars(owner).setdefault("_writer_lease", threading.Lock())
        self._lease_path: Path | None = getattr(owner, "lock_path", None)
        self.metrics = metrics if metrics is not None else get_registry()
        self.intent_page = f"{prefix}/intent"
        self.checkpoint_page = f"{prefix}/checkpoint"
        #: The view batch participants must write through.
        self.store = JournaledStore(self)
        self._active_batch: int | None = None
        self._undo_count = 0
        #: Page -> ``None`` once its pre-image is journaled, or the length
        #: its truncate record holds.
        self._journaled: dict[str, int | None] = {}
        self._next_batch = self._discover_next_batch()

    # -- page ids ------------------------------------------------------------

    def _undo_prefix(self, batch: int) -> str:
        return f"{self.prefix}/undo/{batch:08d}/"

    def _undo_page(self, batch: int, n: int) -> str:
        return f"{self._undo_prefix(batch)}{n:06d}"

    def _discover_next_batch(self) -> int:
        newest = 0
        try:
            raw = self.raw.read(self.checkpoint_page)
            newest = max(newest, int(json.loads(raw.decode("utf-8"))["batch"]))
        except (PageNotFoundError, ValueError, KeyError, TypeError):
            pass
        for page_id in self.raw.list_pages(f"{self.prefix}/undo/"):
            with contextlib.suppress(ValueError, IndexError):
                newest = max(newest, int(page_id.split("/")[2]))
        return newest + 1

    # -- batch lifecycle -----------------------------------------------------

    def begin(self, meta: dict | None = None) -> int:
        """Open a batch; returns its number.  The intent page is the
        durable record that the batch may have started mutating state."""
        if self._active_batch is not None:
            raise StorageError("a WAL batch is already active")
        if self.intent_page in self.raw:
            raise StorageError(
                "an incomplete batch exists on disk; run recover() first"
            )
        batch = self._next_batch
        self._next_batch += 1
        payload = json.dumps({"batch": batch, "meta": meta or {}}).encode("utf-8")
        with causal_span("storage.wal.begin") as wal_span:
            if wal_span is not None:
                wal_span.attributes["batch"] = batch
            self.raw.write(self.intent_page, payload)
        self._active_batch = batch
        self._undo_count = 0
        self._journaled = {}
        return batch

    def journal(self, page_id: str, at: int | None = None) -> bool:
        """Journal how to undo the batch's first change of ``page_id``: its
        pre-image (or absence) before a write or delete, or before an append
        at byte ``at`` of an existing page a truncate record.  A page then
        written or deleted gets its first ``at`` bytes journaled too.  False
        outside a batch."""
        if self._active_batch is None or page_id.startswith(self.prefix + "/"):
            return False
        length = self._journaled.get(page_id)
        header: dict[str, object] = {"page_id": page_id}
        payload = b""
        if page_id in self._journaled and (length is None or at is not None):
            return True  # already undoable
        elif at is not None and page_id in self.raw:
            header["truncate"] = at
            self._journaled[page_id] = at
        else:
            try:
                before: bytes | None = self.raw.read(page_id)[:length]
            except PageNotFoundError:
                before = None
            payload = before or b""
            header.update(existed=before is not None, size=len(payload), crc=zlib.crc32(payload))
            self._journaled[page_id] = None
        undo_id = self._undo_page(self._active_batch, self._undo_count)
        self._undo_count += 1
        with causal_span("storage.wal.journal") as wal_span:
            if wal_span is not None:
                wal_span.attributes["page"] = page_id
                wal_span.attributes["bytes"] = len(payload)
            self.raw.write(undo_id, json.dumps(header).encode("utf-8") + _HEADER_SEP + payload)
        return True

    def commit(self, meta: dict | None = None) -> None:
        """Make the batch durable.  Deleting the intent page is the
        atomic commit point; undo GC and the checkpoint are cleanup."""
        if self._active_batch is None:
            raise StorageError("no active WAL batch to commit")
        batch = self._active_batch
        with causal_span("storage.wal.commit") as wal_span:
            if wal_span is not None:
                wal_span.attributes["batch"] = batch
                wal_span.attributes["undo_pages"] = self._undo_count
            self.raw.delete(self.intent_page)
            self._active_batch, self._journaled = None, {}
            # Numbered by journal(): no listing of the store to find them.
            self._collect_undo(self._undo_page(batch, n) for n in range(self._undo_count))
            checkpoint = json.dumps({"batch": batch, "meta": meta or {}}).encode("utf-8")
            self.raw.write(self.checkpoint_page, checkpoint)

    @contextlib.contextmanager
    def lease(self) -> Iterator[None]:
        """Hold the writer lease for the block, or raise :class:`ConfigError`
        naming the holder's pid (or saying the root is read-only).  It is a
        lock on ``primary`` (the deployment's own store under a routed
        view), plus a ``flock`` on its ``lock_path`` if it has one; a crash
        unwinding the block frees it, as process death frees a ``flock``."""
        held = "another writer (pid {}) holds this root's lease".format
        path, fd = self._lease_path, None
        if not self._lease_lock.acquire(blocking=False):
            raise ConfigError(held(os.getpid()))
        try:
            if path is not None:
                try:
                    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
                except OSError as exc:
                    if exc.errno not in (errno.EACCES, errno.EPERM, errno.EROFS):
                        raise
                    raise ConfigError(f"this root is read-only: {exc}") from None
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                except BlockingIOError:
                    raise ConfigError(held(path.read_text())) from None
                os.ftruncate(fd, 0)
                os.write(fd, str(os.getpid()).encode("ascii"))
            yield
        finally:
            if fd is not None:
                os.close(fd)  # the one descriptor holding the flock
            self._lease_lock.release()

    # -- recovery -------------------------------------------------------------

    def recover(self) -> WalRecovery:
        """Roll back any incomplete batch; collect committed leftovers.

        Call it holding the writer lease.  Idempotent: safe to call on a
        clean store, after a crash at any injection point, and repeatedly
        (a crash during recovery is recovered by the next call).
        """
        report = WalRecovery()
        expected = self._next_batch
        self._active_batch, self._journaled = None, {}
        intent_batch: int | None = None
        intent_present = self.intent_page in self.raw
        if intent_present:
            try:
                payload = json.loads(self.raw.read(self.intent_page).decode("utf-8"))
                intent_batch = int(payload["batch"])
                report.batch_meta = dict(payload.get("meta") or {})
            except (ValueError, KeyError, TypeError):
                # Torn intent write: the batch crashed before its first
                # data write, so there is nothing to restore.
                intent_batch = None
        if intent_batch is not None:
            report.pages_restored, report.pages_skipped = self._restore_batch(intent_batch)
            self._collect_undo(list(self.raw.list_pages(self._undo_prefix(intent_batch))))
        if intent_present:
            report.rolled_back = True
            self.raw.delete(self.intent_page)
        # Committed batches' leftovers (crash between the commit point and GC).
        report.orphans_collected = self._collect_undo(
            list(self.raw.list_pages(f"{self.prefix}/undo/"))
        )
        self._next_batch = self._discover_next_batch()
        report.moved = self._next_batch != expected
        self.metrics.inc_key(_K_RECOVERIES)
        if report.rolled_back:
            self.metrics.inc_key(_K_ROLLED_BACK)
        return report

    def _restore_batch(self, batch: int) -> tuple[int, int]:
        restored = skipped = 0
        undo_ids = sorted(self.raw.list_pages(self._undo_prefix(batch)), reverse=True)
        for undo_id in undo_ids:
            entry = self._parse_undo(self.raw.read(undo_id))
            if entry is None:
                skipped += 1
                continue
            page_id, before = entry
            if isinstance(before, int):
                # Only appends followed the record: the page is its old
                # bytes plus some or all of what was appended.
                data = self.raw.read(page_id)
                if len(data) != before:
                    self.raw.write(page_id, data[:before])
            elif isinstance(before, bytes):
                self.raw.write(page_id, before)
            elif before is None and page_id in self.raw:
                self.raw.delete(page_id)
            restored += 1
        return restored, skipped

    @staticmethod
    def _parse_undo(data: bytes) -> tuple[str, bytes | int | None] | None:
        """``(page id, pre-image, length to truncate to, or None if the page
        was absent)``, or ``None`` for a torn record."""
        head, sep, payload = data.partition(_HEADER_SEP)
        if not sep:
            return None
        try:
            header = json.loads(head.decode("utf-8"))
            page_id = str(header["page_id"])
            if "truncate" in header:
                return None if payload else (page_id, int(header["truncate"]))
            existed = bool(header["existed"])
            size = int(header["size"])
            crc = int(header["crc"])
        except (ValueError, KeyError, TypeError):
            return None
        if len(payload) != size or zlib.crc32(payload) != crc:
            return None
        return page_id, payload if existed else None

    def _collect_undo(self, undo_ids: Iterable[str]) -> int:
        collected = 0
        for undo_id in undo_ids:
            with contextlib.suppress(PageNotFoundError):
                self.raw.delete(undo_id)
                collected += 1
        return collected
