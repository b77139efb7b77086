"""Versioned memoization of whole query results.

The many-users case RASED is built for (Section VIII) is dominated by
*identical* requests: every dashboard visitor loads the same default
charts.  Re-planning and re-aggregating those is pure waste, so the
executor can sit a small :class:`ResultCache` in front of
``execute()``: a bounded LRU from :class:`AnalysisQuery` (a frozen,
hashable dataclass) to the finished row table.

Correctness is versioned, not timed.  Every entry records the index
**epoch** — a monotonic counter bumped by whatever changes query
results: daily ingestion, monthly rebuilds, and live-poll absorption
(see :class:`EpochCounter` call sites in ``core.hierarchy``,
``core.live`` and ``repro.system``).  An entry stored at epoch *e* is
served only while the epoch still reads *e*; the first lookup after a
bump drops it and falls through to real execution.  The epoch is
sampled *before* planning, so a bump racing a long execution marks the
freshly stored entry stale rather than serving pre-bump data forever.

An entry (:class:`MemoEntry`) holds one answer in two forms: the
``rows`` it was stored with, never mutated afterwards, and — once some
request has encoded them — the ``head`` of the HTTP response, every
byte that depends on ``(query, rows)`` alone.  The bytes ride on the
entry that holds the rows they were encoded from, so whatever drops
the rows (a stale epoch, eviction, :meth:`ResultCache.clear`) drops
the bytes with them, and there is no second key, lock or epoch check.
Nobody outside is handed the stored dict to keep:
:attr:`repro.core.query.QueryResult.rows` copies it for a caller that
asks for rows of its own (the live overlay edits them in place).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.core.query import AnalysisQuery
from repro.errors import ConfigError
from repro.obs import MetricsRegistry, get_registry, metric_key
from repro.obs.span import current_span, record_span

__all__ = ["EpochCounter", "MemoEntry", "ResultCache"]

_K_HITS = metric_key("rased_resultcache_hits_total")
_K_MISSES = metric_key("rased_resultcache_misses_total")
_K_INVALIDATIONS = metric_key("rased_resultcache_invalidations_total")
_K_EVICTIONS = metric_key("rased_resultcache_evictions_total")


class EpochCounter:
    """A monotonic version number for the queryable state of an index."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0  # guarded-by: _lock

    def bump(self) -> int:
        """Advance the epoch; called by every write that alters results."""
        with self._lock:
            self._value += 1
            return self._value

    @property
    def value(self) -> int:
        return self._value


class MemoEntry:
    """One memoized answer: its rows and, once encoded, its bytes."""

    __slots__ = ("epoch", "rows", "head")

    def __init__(self, epoch: int, rows: dict[tuple, float]) -> None:
        #: The index epoch the rows were computed at.
        self.epoch = epoch
        #: Shared by every hit and never mutated after the store.
        self.rows = rows
        #: The encoded response up to its per-request ``stats``; written
        #: by the first request that encodes these rows
        #: (``dashboard.server.encode_result``).  Racing writers store
        #: equal bytes, so the plain attribute store needs no lock.
        self.head: bytes | None = None


class ResultCache:
    """Bounded LRU of finished query answers, invalidated by epoch."""

    def __init__(
        self,
        slots: int,
        epoch: EpochCounter,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if slots < 1:
            raise ConfigError("result cache needs at least one slot")
        self.slots = slots
        self.epoch = epoch
        self.metrics = metrics if metrics is not None else get_registry()
        self._lock = threading.Lock()
        self._entries: OrderedDict[AnalysisQuery, MemoEntry] = (
            OrderedDict()
        )  # guarded-by: _lock

    def current_epoch(self) -> int:
        """The epoch an about-to-run execution should store under."""
        return self.epoch.value

    def get(self, query: AnalysisQuery) -> MemoEntry | None:
        """The entry memoized for ``query``, or ``None`` on miss/stale."""
        now = self.epoch.value
        stale = False
        with self._lock:
            entry = self._entries.get(query)
            if entry is not None:
                if entry.epoch == now:
                    self._entries.move_to_end(query)
                else:
                    del self._entries[query]
                    entry = None
                    stale = True
        metrics = self.metrics
        if stale:
            metrics.inc_key(_K_INVALIDATIONS)
        if current_span() is not None:
            outcome = "hit" if entry is not None else ("stale" if stale else "miss")
            record_span(
                "core.resultcache.get", 0.0, attributes={"outcome": outcome}
            )
        metrics.inc_key(_K_HITS if entry is not None else _K_MISSES)
        return entry

    def put(
        self, query: AnalysisQuery, rows: dict[tuple, float], epoch: int
    ) -> MemoEntry | None:
        """Store rows computed at ``epoch`` (copied; LRU-evicting).

        Returns the stored entry — or ``None``: the world moved on
        mid-execution, and the rows were not allowed to poison the memo.
        """
        if epoch != self.epoch.value:
            return None
        entry = MemoEntry(epoch, dict(rows))
        evicted = 0
        with self._lock:
            self._entries[query] = entry
            self._entries.move_to_end(query)
            while len(self._entries) > self.slots:
                self._entries.popitem(last=False)
                evicted += 1
        if evicted:
            self.metrics.inc_key(_K_EVICTIONS, evicted)
        return entry

    @property
    def cached_count(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
