"""Simulated disks: page stores with an explicit latency model.

The paper's experiments (Section VIII) measure query response time as a
function of how many data-cube pages must come from disk versus cache.
Real hardware in a CI box cannot reproduce a 2014 desktop's disk, so we
substitute a *modeled* disk: every page read costs a constant
``read_latency`` and every write a constant ``write_latency``, so a
query's modeled time is arithmetic over its own reads
(:func:`repro.storage.pages.modeled_read_seconds`), reported plus its
measured compute time — preserving the paper's cost *relations* (cache
hit ~ 0, cube read ~ milliseconds) on any host.  Each store's
:attr:`DiskStats.simulated_seconds` is its own device clock (every
read, write and injected delay it served), read by operations metrics
and maintenance experiments, never by a per-query number.

Two backings are provided:

* :class:`InMemoryDisk` — a dict; fast, used by most tests and benches.
* :class:`DirectoryDisk` — one file per page under a root directory;
  used by persistence tests and the end-to-end pipeline, where index
  state must survive process restarts.

Defaults follow a commodity HDD of the paper's era: ~5 ms seek+read for
a 4 MB page read, ~6 ms for a write.
"""

from __future__ import annotations

import os
import re
import threading
import time
from pathlib import Path
from typing import Iterator

from repro.errors import ConfigError, PageNotFoundError, StorageError
from repro.obs import MetricsRegistry, get_registry, metric_key
from repro.obs.span import current_span, record_span
from repro.storage.pages import PageStore

__all__ = ["InMemoryDisk", "DirectoryDisk", "DEFAULT_READ_LATENCY", "DEFAULT_WRITE_LATENCY"]

DEFAULT_READ_LATENCY = 0.005
DEFAULT_WRITE_LATENCY = 0.006

_SAFE_SEGMENT = re.compile(r"[^A-Za-z0-9._-]")

_K_READS = metric_key("rased_disk_reads_total")
_K_READ_BYTES = metric_key("rased_disk_read_bytes_total")
_K_WRITES = metric_key("rased_disk_writes_total")
_K_WRITE_BYTES = metric_key("rased_disk_write_bytes_total")
_K_SIM_SECONDS = metric_key("rased_disk_simulated_seconds_total")


def _check_append(page_id: str, length: int, at: int) -> None:
    if at != length:
        raise StorageError(f"append at byte {at} to {page_id!r}, which holds {length}")


class _LatencyMixin(PageStore):
    """Shared accounting: counters plus the device's virtual clock.

    Every I/O is double-booked: into the store's own resettable
    :class:`~repro.storage.pages.DiskStats` (experiment deltas) and
    into the monotonic shared metrics registry (dashboards, ops).  A
    :class:`repro.system.RasedSystem` rebinds :attr:`metrics` to its
    private registry at assembly time.

    ``read_latency`` and ``parallelism`` (the modeled queue depth) are
    the latency model a query's modeled time is computed from; the
    device clock charges every read serially, as the device served it.

    ``real_sleep`` makes each I/O actually block for its modeled
    latency (releasing the GIL), which is how end-to-end throughput
    benches observe true request overlap on one machine.  The sleep
    happens *outside* the stats lock so concurrent I/Os overlap their
    sleeps the way real in-flight disk requests would.
    """

    def __init__(
        self,
        read_latency: float = DEFAULT_READ_LATENCY,
        write_latency: float = DEFAULT_WRITE_LATENCY,
        real_sleep: bool = False,
        metrics: MetricsRegistry | None = None,
        parallelism: int = 1,
    ) -> None:
        super().__init__()
        if read_latency < 0 or write_latency < 0:
            raise ConfigError("disk latencies must be non-negative")
        if parallelism < 1:
            raise ConfigError("disk parallelism must be >= 1")
        self.read_latency = read_latency
        self.write_latency = write_latency
        self.real_sleep = real_sleep
        self.parallelism = parallelism
        self.metrics = metrics if metrics is not None else get_registry()
        # Serializes DiskStats updates; the registry has its own lock.
        self._stats_lock = threading.Lock()

    def _charge_read(self, nbytes: int, page_id: str = "") -> None:
        with self._stats_lock:
            self.stats.reads += 1
            self.stats.bytes_read += nbytes
            self.stats.simulated_seconds += self.read_latency
        metrics = self.metrics
        metrics.inc_key(_K_READS)
        metrics.inc_key(_K_READ_BYTES, nbytes)
        if current_span() is not None:
            # The span's wall duration only covers the real sleep (when
            # modeled latency is slept); the modeled charge rides along
            # as an attribute so the waterfall stays honest about what
            # was paid vs what was simulated.  Never touches the
            # virtual clock: benchmark numbers stay bit-identical.
            # Recorded *before* the sleep (duration is known up front):
            # a batch of pool workers would otherwise all wake together
            # and serialize their span bookkeeping on the GIL exactly
            # when the submitting query wants to resume.
            record_span(
                "storage.disk.read",
                self.read_latency if self.real_sleep else 0.0,
                attributes={
                    "page": page_id,
                    "bytes": nbytes,
                    "simulated_ms": self.read_latency * 1000.0,
                },
                backdated=False,
            )
        if self.read_latency:
            metrics.inc_key(_K_SIM_SECONDS, self.read_latency)
            if self.real_sleep:
                time.sleep(self.read_latency)

    def _charge_write(self, nbytes: int, page_id: str = "") -> None:
        with self._stats_lock:
            self.stats.writes += 1
            self.stats.bytes_written += nbytes
            self.stats.simulated_seconds += self.write_latency
        metrics = self.metrics
        metrics.inc_key(_K_WRITES)
        metrics.inc_key(_K_WRITE_BYTES, nbytes)
        if current_span() is not None:
            record_span(
                "storage.disk.write",
                self.write_latency if self.real_sleep else 0.0,
                attributes={
                    "page": page_id,
                    "bytes": nbytes,
                    "simulated_ms": self.write_latency * 1000.0,
                },
                backdated=False,
            )
        if self.write_latency:
            metrics.inc_key(_K_SIM_SECONDS, self.write_latency)
            if self.real_sleep:
                time.sleep(self.write_latency)


class InMemoryDisk(_LatencyMixin):
    """A dict-backed page store with modeled latency."""

    def __init__(
        self,
        read_latency: float = DEFAULT_READ_LATENCY,
        write_latency: float = DEFAULT_WRITE_LATENCY,
        real_sleep: bool = False,
        metrics: MetricsRegistry | None = None,
        parallelism: int = 1,
    ) -> None:
        super().__init__(read_latency, write_latency, real_sleep, metrics, parallelism)
        self._pages: dict[str, bytes] = {}

    def read(self, page_id: str) -> bytes:
        try:
            data = self._pages[page_id]
        except KeyError:
            raise PageNotFoundError(f"no such page: {page_id!r}") from None
        self._charge_read(len(data), page_id)
        return data

    def write(self, page_id: str, data: bytes) -> None:
        self._pages[page_id] = bytes(data)
        self._charge_write(len(data), page_id)

    def append(self, page_id: str, data: bytes, at: int) -> None:
        page = self._pages.get(page_id, b"")
        _check_append(page_id, len(page), at)
        self._pages[page_id] = page + data
        self._charge_write(len(data), page_id)

    def delete(self, page_id: str) -> None:
        try:
            del self._pages[page_id]
        except KeyError:
            raise PageNotFoundError(f"no such page: {page_id!r}") from None

    def size(self, page_id: str) -> int:
        return len(self._pages.get(page_id, b""))

    def __contains__(self, page_id: str) -> bool:
        return page_id in self._pages

    def list_pages(self, prefix: str = "") -> Iterator[str]:
        return iter(sorted(p for p in self._pages if p.startswith(prefix)))

    @property
    def stored_bytes(self) -> int:
        """Total bytes currently held (storage-size experiments)."""
        return sum(len(v) for v in self._pages.values())


class DirectoryDisk(_LatencyMixin):
    """A filesystem-backed page store: one file per page.

    Page ids may contain ``/`` separators, which become directories.
    Each id segment is sanitized to a filesystem-safe form (our ids are
    already safe by construction, so distinct ids never collide).
    """

    def __init__(
        self,
        root: str | Path,
        read_latency: float = DEFAULT_READ_LATENCY,
        write_latency: float = DEFAULT_WRITE_LATENCY,
        real_sleep: bool = False,
        metrics: MetricsRegistry | None = None,
        parallelism: int = 1,
    ) -> None:
        super().__init__(read_latency, write_latency, real_sleep, metrics, parallelism)
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: The writer lease's file, beside the page directory: not a page.
        self.lock_path = self.root.with_name(self.root.name + ".lock")

    def _path(self, page_id: str) -> Path:
        if not page_id or page_id.startswith("/") or ".." in page_id.split("/"):
            raise ConfigError(f"invalid page id {page_id!r}")
        segments = [
            _SAFE_SEGMENT.sub("_", segment) for segment in page_id.split("/")
        ]
        # Append (never replace) the extension: page ids like
        # "cubes/W2021-01.0" legitimately contain dots.
        segments[-1] += ".page"
        return self.root.joinpath(*segments)

    def read(self, page_id: str) -> bytes:
        path = self._path(page_id)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise PageNotFoundError(f"no such page: {page_id!r}") from None
        self._charge_read(len(data), page_id)
        return data

    def write(self, page_id: str, data: bytes) -> None:
        path = self._path(page_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_bytes(data)
        os.replace(tmp, path)
        self._charge_write(len(data), page_id)

    def append(self, page_id: str, data: bytes, at: int) -> None:
        # Unlike write(), not atomic: recovery cuts a partial append off.
        path = self._path(page_id)
        _check_append(page_id, self.size(page_id), at)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "ab") as handle:
            handle.write(data)
        self._charge_write(len(data), page_id)

    def delete(self, page_id: str) -> None:
        path = self._path(page_id)
        try:
            path.unlink()
        except FileNotFoundError:
            raise PageNotFoundError(f"no such page: {page_id!r}") from None

    def size(self, page_id: str) -> int:
        try:
            return os.stat(self._path(page_id)).st_size
        except FileNotFoundError:
            return 0

    def __contains__(self, page_id: str) -> bool:
        return self._path(page_id).exists()

    def list_pages(self, prefix: str = "") -> Iterator[str]:
        ids: list[str] = []
        folder = prefix.rpartition("/")[0]
        for path in self.root.joinpath(*folder.split("/")).rglob("*.page"):
            rel = path.relative_to(self.root)
            page_id = "/".join(rel.parts)[: -len(".page")]
            if page_id.startswith(prefix):
                ids.append(page_id)
        return iter(sorted(ids))

    @property
    def stored_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.root.rglob("*.page"))
