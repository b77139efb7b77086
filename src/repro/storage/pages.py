"""Page-store abstraction underlying the index and warehouse.

RASED stores each data cube in "one disk page" (~4 MB at full scale)
and its query cost is dominated by how many such pages a query reads
(paper, Sections VI-VII).  We therefore model storage as a keyed page
store: pages are addressed by string ids (e.g. ``cube/D2021-03-05``),
read whole, and written whole or grown by an append at their end.

Two concrete stores live in :mod:`repro.storage.disk`; both layer I/O
accounting and a latency model on top of this interface.  Because every
read charges the same ``read_latency``, a query's modeled disk time is
arithmetic over its own read counts (:func:`modeled_read_seconds`);
:class:`DiskStats` is the device's own cumulative record, never a
per-query number.
"""

from __future__ import annotations

import abc
import math
from dataclasses import astuple, dataclass, replace
from typing import Iterable, Iterator

__all__ = ["PageStore", "PageStoreProxy", "DiskStats", "modeled_read_seconds"]


def modeled_read_seconds(reads: int, read_latency: float, parallelism: int = 1) -> float:
    """The modeled disk time of one batch of ``reads`` page reads.

    A device draining ``parallelism`` requests at a time finishes the
    batch after ``ceil(reads / parallelism)`` read latencies; serial
    reads are the depth-1 case, ``reads * read_latency``.
    """
    return math.ceil(reads / parallelism) * read_latency


@dataclass
class DiskStats:
    """Cumulative I/O accounting for one page store.

    ``simulated_seconds`` is the device's own virtual clock: every
    read, write and injected delay it served, whoever asked.  It feeds
    the ``rased_disk_simulated_seconds_total`` counter and maintenance
    experiments; a query's modeled time is computed from the query's
    own reads (:func:`modeled_read_seconds`), never read from here.
    """

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    simulated_seconds: float = 0.0

    def snapshot(self) -> "DiskStats":
        return replace(self)

    def delta(self, earlier: "DiskStats") -> "DiskStats":
        """The I/O performed since an earlier :meth:`snapshot`."""
        return DiskStats(*(now - then for now, then in zip(astuple(self), astuple(earlier))))

    @staticmethod
    def total(each: Iterable["DiskStats"]) -> "DiskStats":
        """The I/O of several stores together."""
        return DiskStats(*map(sum, zip(*map(astuple, each))))

    @property
    def total_ios(self) -> int:
        return self.reads + self.writes


class PageStore(abc.ABC):
    """Whole-page keyed storage with I/O accounting."""

    #: The latency model: seconds per page read, and the queue depth
    #: (how many reads the device services concurrently).  The base
    #: store models no latency; latency-charging subclasses set both.
    read_latency: float = 0.0
    parallelism: int = 1

    def __init__(self) -> None:
        self.stats = DiskStats()

    @abc.abstractmethod
    def read(self, page_id: str) -> bytes:
        """Return the page's bytes; raise PageNotFoundError if absent."""

    @abc.abstractmethod
    def write(self, page_id: str, data: bytes) -> None:
        """Write (or overwrite) a page."""

    @abc.abstractmethod
    def append(self, page_id: str, data: bytes, at: int) -> None:
        """Write ``data`` at byte ``at``, which must be the page's current
        length (0 creates an absent page); raise StorageError otherwise."""

    @abc.abstractmethod
    def delete(self, page_id: str) -> None:
        """Remove a page; raise PageNotFoundError if absent."""

    @abc.abstractmethod
    def size(self, page_id: str) -> int:
        """The page's length in bytes (0 if absent), charging no read."""

    @abc.abstractmethod
    def __contains__(self, page_id: str) -> bool: ...

    @abc.abstractmethod
    def list_pages(self, prefix: str = "") -> Iterator[str]:
        """Yield page ids starting with ``prefix``, in sorted order."""

    def page_count(self, prefix: str = "") -> int:
        return sum(1 for _ in self.list_pages(prefix))

    def reset_stats(self) -> None:
        self.stats = DiskStats()


class PageStoreProxy(PageStore):
    """A transparent wrapper around another page store.

    Subclasses (the ingestion WAL's journaled view, the test suite's
    fault-injecting store) intercept only the operations they care
    about; everything else — including the stats object, the latency
    model (read latency and queue depth), and the metrics binding — is
    the inner store's, so layered wrappers stay indistinguishable from
    the raw device to accounting code.
    """

    def __init__(self, inner: PageStore) -> None:
        # No super().__init__(): ``stats`` must be the inner store's
        # object, not a fresh one, or experiment deltas would miss the
        # I/O performed through the wrapper.
        self.inner = inner

    # -- delegated accounting ------------------------------------------------

    @property
    def stats(self) -> DiskStats:  # type: ignore[override]
        return self.inner.stats

    @stats.setter
    def stats(self, value: DiskStats) -> None:
        self.inner.stats = value

    @property
    def read_latency(self) -> float:  # type: ignore[override]
        return self.inner.read_latency

    @property
    def parallelism(self) -> int:  # type: ignore[override]
        return self.inner.parallelism

    @parallelism.setter
    def parallelism(self, value: int) -> None:
        self.inner.parallelism = value

    @property
    def metrics(self) -> object:
        """The inner store's registry binding (present on latency disks)."""
        return getattr(self.inner, "metrics", None)

    @metrics.setter
    def metrics(self, value: object) -> None:
        setattr(self.inner, "metrics", value)

    def reset_stats(self) -> None:
        self.inner.reset_stats()

    # -- delegated storage ops ----------------------------------------------

    def read(self, page_id: str) -> bytes:
        return self.inner.read(page_id)

    def write(self, page_id: str, data: bytes) -> None:
        self.inner.write(page_id, data)

    def append(self, page_id: str, data: bytes, at: int) -> None:
        self.inner.append(page_id, data, at)

    def delete(self, page_id: str) -> None:
        self.inner.delete(page_id)

    def size(self, page_id: str) -> int:
        return self.inner.size(page_id)

    def __contains__(self, page_id: str) -> bool:
        return page_id in self.inner

    def list_pages(self, prefix: str = "") -> Iterator[str]:
        return self.inner.list_pages(prefix)
