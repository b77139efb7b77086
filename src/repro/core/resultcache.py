"""Versioned memoization of whole query results.

The many-users case RASED is built for (Section VIII) is dominated by
*identical* requests: every dashboard visitor loads the same default
charts.  Re-planning and re-aggregating those is pure waste, so the
executor can sit a small :class:`ResultCache` in front of
``execute()``: a bounded LRU from :class:`AnalysisQuery` (a frozen,
hashable dataclass) to the finished row table.

Correctness is versioned, not timed.  Every write that changes query
results bumps the index **epoch** (:class:`EpochCounter`) with the date
window it changed (a cube write its key's span; a catalog reload all
time; a road-network size record its date on, for percentages only).
A lookup at an entry's epoch is a hit; after bumps it checks the
windows logged since and *keeps* the entry (re-stamped) unless one
overlaps ``[query.start, query.end]`` or the log no longer reaches
back.  An execution stores its rows only if no write overlapped them
since the epoch it sampled before planning.

An entry (:class:`MemoEntry`) holds one answer in two forms: the
``rows`` it was stored with, never mutated afterwards, and — once some
request has encoded them — the ``head`` of the HTTP response, every
byte that depends on ``(query, rows)`` alone.  The bytes ride on the
entry that holds the rows they were encoded from, so whatever drops
the rows (an overlapping write, eviction, :meth:`ResultCache.clear`)
drops the bytes with them, and there is no second key, lock or epoch
check.  Nobody outside is handed the stored dict to keep:
:attr:`repro.core.query.QueryResult.rows` copies it for a caller that
asks for rows of its own (the live overlay edits them in place).
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from datetime import date
from itertools import islice

from repro.core.query import METRIC_PERCENTAGE, AnalysisQuery
from repro.errors import ConfigError
from repro.obs import MetricsRegistry, get_registry, metric_key
from repro.obs.span import current_span, record_span

__all__ = ["EpochCounter", "MemoEntry", "ResultCache"]

_K_HITS = metric_key("rased_resultcache_hits_total")
_K_MISSES = metric_key("rased_resultcache_misses_total")
_K_INVALIDATIONS = metric_key("rased_resultcache_invalidations_total")
_K_KEPT = metric_key("rased_resultcache_kept_total")
_K_EVICTIONS = metric_key("rased_resultcache_evictions_total")

#: Bumps whose windows are remembered (a day's ingest makes one to four).
_WINDOW_LOG = 1024


class EpochCounter:
    """A monotonic version of an index's queryable state, with windows."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0  # guarded-by: _lock
        self._windows: deque[tuple[date, date, bool]] = deque(
            maxlen=_WINDOW_LOG
        )  # guarded-by: _lock

    def bump(self, start: date = date.min, end: date = date.max, percentages_only: bool = False) -> int:
        """Advance the epoch; called by every write that alters results,
        with the inclusive window of dates it altered (default: all)."""
        with self._lock:
            self._value += 1
            self._windows.append((start, end, percentages_only))
            return self._value

    @property
    def value(self) -> int:
        return self._value

    def unchanged_since(self, epoch: int, query: AnalysisQuery) -> int | None:
        """The current epoch if the log reaches back to ``epoch`` and no
        bump since that applies to ``query`` overlapped its window."""
        start, end, counts = query.start, query.end, query.metric != METRIC_PERCENTAGE
        with self._lock:
            since = self._value - epoch
            if since > len(self._windows) or any(
                low <= end and high >= start and not (counts and sizes)
                for low, high, sizes in islice(reversed(self._windows), since)
            ):
                return None
            return self._value


class MemoEntry:
    """One memoized answer: its rows and, once encoded, its bytes."""

    __slots__ = ("epoch", "rows", "sizes_as_of", "head")

    def __init__(self, epoch: int, rows: dict[tuple, float], sizes_as_of: date | None = None) -> None:
        #: The newest index epoch the rows are known valid at (raised only).
        self.epoch = epoch
        #: Shared by every hit and never mutated after the store.
        self.rows = rows
        self.sizes_as_of = sizes_as_of
        #: The encoded response up to its per-request ``stats``; written
        #: by the first request that encodes these rows
        #: (``dashboard.server.encode_result``).  Racing writers store
        #: equal bytes, so the plain attribute store needs no lock.
        self.head: bytes | None = None


class ResultCache:
    """Bounded LRU of finished query answers, invalidated by window."""

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

    def get(self, query: AnalysisQuery) -> MemoEntry | None:
        """The entry memoized for ``query``, or ``None`` on miss/stale."""
        now = self.epoch.value
        with self._lock:
            entry = self._entries.get(query)
            if entry is not None and entry.epoch == now:
                self._entries.move_to_end(query)
        outcome = "miss" if entry is None else "hit"
        if entry is not None and entry.epoch != now:
            # Outside the lock: the check takes the counter's own.
            kept = self.epoch.unchanged_since(entry.epoch, query)
            with self._lock:
                if kept is not None:
                    entry.epoch = max(entry.epoch, kept)
                elif self._entries.get(query) is entry:
                    del self._entries[query]
            outcome = "stale" if kept is None else "kept"
            self.metrics.inc_key(_K_INVALIDATIONS if kept is None else _K_KEPT)
            if kept is None:
                entry = None
        if current_span() is not None:
            record_span(
                "core.resultcache.get", 0.0, attributes={"outcome": outcome}
            )
        self.metrics.inc_key(_K_HITS if entry is not None else _K_MISSES)
        return entry

    def put(
        self,
        query: AnalysisQuery,
        rows: dict[tuple, float],
        epoch: int,
        sizes_as_of: date | None = None,
    ) -> MemoEntry | None:
        """Store rows computed from ``epoch`` on (copied; LRU-evicting).

        Returns the stored entry — or ``None``: a write overlapping the
        query landed mid-execution, and the rows were not allowed to
        poison the memo.
        """
        now = self.epoch.unchanged_since(epoch, query)
        if now is None:
            return None
        entry = MemoEntry(now, dict(rows), sizes_as_of)
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
