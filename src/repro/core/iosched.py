"""Bounded-pool I/O scheduler with single-flight deduplication.

The executor's phase 1 is disk-bound: a cold 16-year plan touches ~16
cube pages, and fetching them strictly one-at-a-time makes latency
linear in plan size.  This module overlaps those fetches on a small
thread pool — the modeled counterpart is the disk's queue depth
(:meth:`repro.storage.pages.PageStore.rebook_overlapped_reads`), which
converts the serially charged virtual latency into the batch makespan.

Under many concurrent dashboard clients a second pathology appears:
N queries missing the *same* cube issue N identical disk reads and N
cache admissions (a cache stampede).  :meth:`IOScheduler.fetch` is
therefore **single-flight**: the first caller of a key becomes the
leader and performs the load; every concurrent caller of the same key
blocks on the leader's :class:`~concurrent.futures.Future` and shares
its result (or its exception).  Leadership is decided by whichever
caller is *running* — never at submit time — so a follower's leader is
always already executing and the pool cannot deadlock on itself.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, TypeVar

from repro.core.deadline import (
    Deadline,
    check_deadline,
    current_deadline,
    deadline_scope,
)
from repro.errors import ConfigError
from repro.obs import MetricsRegistry, get_registry, metric_key
from repro.obs.span import Span, current_span, reset_ambient, set_ambient
from repro.obs.span import span as causal_span

__all__ = ["IOScheduler", "FetchBatch", "DEFAULT_IO_WORKERS"]

#: Pool width: enough to cover a modeled queue depth of 4-8 without
#: spawning a thread per plan key.
DEFAULT_IO_WORKERS = 8

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

_K_FETCHES = metric_key("rased_iosched_fetches_total")
_K_COALESCED = metric_key("rased_iosched_coalesced_total")
_K_BATCHES = metric_key("rased_iosched_batches_total")
_K_INFLIGHT_PEAK = metric_key("rased_iosched_inflight_peak")
_K_BATCH_SIZE = metric_key("rased_iosched_batch_size")
_K_BATCH_SECONDS = metric_key("rased_iosched_batch_seconds")


@dataclass
class FetchBatch:
    """Outcome of one :meth:`IOScheduler.fetch_many` call."""

    #: key -> loaded value, for every requested key.
    values: dict = field(default_factory=dict)
    #: Loads this batch actually performed (led).
    led: int = 0
    #: Keys that piggybacked on another caller's in-flight load.
    coalesced: int = 0


class IOScheduler:
    """A shared thread pool issuing page loads with stampede protection.

    One scheduler serves a whole deployment: the pool bounds total
    fetch concurrency across *all* concurrent queries, and the
    in-flight table deduplicates loads across them.  ``load`` callables
    must be thread-safe (the index read path and cache admission are).
    """

    def __init__(
        self,
        max_workers: int = DEFAULT_IO_WORKERS,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_workers < 1:
            raise ConfigError("IOScheduler needs at least one worker")
        self.max_workers = max_workers
        self.metrics = metrics if metrics is not None else get_registry()
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="rased-io"
        )
        self._lock = threading.Lock()
        #: In-flight loads by key: ``(future, leader_trace_id)``.  The
        #: entry's creator is the leader; the trace id (when the leader
        #: was traced) lets a coalesced follower's span point at the
        #: trace actually performing its load.
        self._inflight: dict[Hashable, tuple[Future, str | None]] = {}  # guarded-by: _lock

    # -- single-flight core -------------------------------------------------

    def fetch(self, key: K, load: Callable[[K], V]) -> tuple[V, bool]:
        """Load ``key``, coalescing with any in-flight load of it.

        Returns ``(value, led)`` where ``led`` says whether this call
        performed the load itself (exactly one caller per concurrent
        group does).  A leader's exception propagates to every caller.
        """
        return self._fetch(key, load, current_span())

    def _fetch(
        self, key: K, load: Callable[[K], V], parent: Span | None
    ) -> tuple[V, bool]:
        """Single-flight core, with the causal parent passed explicitly.

        Span bookkeeping here is hand-rolled rather than ``with
        span(...)`` blocks: a batch of pool workers runs this
        near-simultaneously, every microsecond of setup serializes on
        the GIL before the modeled read's sleep starts, and every
        microsecond of teardown lands exactly when the submitting
        query wants to resume — so the spans are created directly, and
        attributes/finish happen *after* the future resolves.
        """
        leader_trace: str | None = None
        future: Future
        with self._lock:
            entry = self._inflight.get(key)
            if entry is None:
                leader = True
                future = Future()
                self._inflight[key] = (
                    future,
                    parent.trace.trace_id if parent is not None else None,
                )
            else:
                leader = False
                future, leader_trace = entry
            depth = len(self._inflight)
        metrics = self.metrics
        metrics.inc_key(_K_FETCHES)
        metrics.peak_key(_K_INFLIGHT_PEAK, depth)
        if not leader:
            metrics.inc_key(_K_COALESCED)
            # The follower's own trace shows a *wait*, not a load — the
            # read happens once, in the leader's trace, and the cross
            # reference is how a "why was this query slow" investigation
            # finds the query that actually paid for the page.
            wait_span = (
                parent.trace.new_span("iosched.wait", parent.span_id)
                if parent is not None
                else None
            )
            try:
                value = future.result()
            except BaseException as exc:
                if wait_span is not None:
                    wait_span.set_error(exc)
                raise
            finally:
                if wait_span is not None:
                    # Raw key object: stringified only if the trace is
                    # ever rendered (json default=str), not per fetch.
                    wait_span.attributes["key"] = key
                    wait_span.attributes["coalesced"] = True
                    if (
                        leader_trace is not None
                        and leader_trace != wait_span.trace.trace_id
                    ):
                        wait_span.attributes["leader_trace_id"] = leader_trace
                    wait_span.finish()
            return value, False
        load_span = token = None
        if parent is not None:
            load_span = parent.trace.new_span("iosched.load", parent.span_id)
            # Ambient for the duration of the load, so the storage
            # layer's disk span nests under this one.
            token = set_ambient(load_span)
        try:
            value = load(key)
            # Resolve the future before the span bookkeeping below:
            # followers and the submitting batch wake immediately.
            future.set_result(value)
        except BaseException as exc:
            if not future.done():
                future.set_exception(exc)
            if load_span is not None:
                load_span.set_error(exc)
            raise
        finally:
            if load_span is not None:
                reset_ambient(token)
                load_span.attributes["key"] = key
                load_span.finish()
            with self._lock:
                self._inflight.pop(key, None)
        return value, True

    def fetch_many(
        self, keys: Iterable[K], load: Callable[[K], V]
    ) -> FetchBatch:
        """Load every key, overlapping the loads ``max_workers`` wide.

        The batch is cut into at most ``max_workers`` *slices*; the
        calling thread runs one and the pool the rest, each slice going
        key by key through the single-flight table, so concurrent
        batches still share work.  A slice — not a key — is the unit
        handed to the pool because a load is mostly page decoding,
        which the interpreter lock serialises anyway: a future per key
        bought no overlap for its queue put, thread wake and lock
        hand-off, while ``width`` slices still overlap ``width`` reads
        that really wait (the modeled makespan of ``n`` sleeping reads
        stays ``ceil(n / width)`` latencies).  The caller runs a slice
        itself rather than sleep on the pool: a one-key batch never
        leaves its thread.
        """
        unique = list(dict.fromkeys(keys))
        batch = FetchBatch()
        if not unique:
            return batch
        started = time.perf_counter()
        with causal_span("iosched.batch") as batch_span:
            # ContextVars do NOT cross pool submissions: capture the
            # submitter's ambient span AND deadline here and re-attach
            # both inside each slice, so load/wait spans land in the
            # submitting query's tree instead of becoming orphans — and
            # a query past its budget stops fetching instead of loading
            # pages nobody will use.
            parent = current_span()
            deadline = current_deadline()
            width = min(self.max_workers, len(unique))
            submitted = [
                self._pool.submit(
                    self._fetch_slice, parent, deadline, unique[start::width], load
                )
                for start in range(1, width)
            ]
            outcomes = self._fetch_slice(parent, deadline, unique[::width], load)
            for future in submitted:
                outcomes += future.result()
            for key, value, led in outcomes:
                batch.values[key] = value
                if led:
                    batch.led += 1
                else:
                    batch.coalesced += 1
            if batch_span is not None:
                batch_span.attributes["keys"] = len(unique)
                batch_span.attributes["led"] = batch.led
                batch_span.attributes["coalesced"] = batch.coalesced
        self.metrics.record_batch(
            incs=((_K_BATCHES, 1.0),),
            observes=(
                (_K_BATCH_SIZE, float(len(unique))),
                (_K_BATCH_SECONDS, time.perf_counter() - started),
            ),
        )
        return batch

    def _fetch_slice(
        self,
        parent: Span | None,
        deadline: Deadline | None,
        keys: list[K],
        load: Callable[[K], V],
    ) -> list[tuple[K, V, bool]]:
        """One slice of a batch, key by key: ``(key, value, led)`` each.

        The submitter's span and deadline arrive as explicit arguments
        (a slice may run on a pool thread, where its ContextVars are
        not).  The deadline is checked before *each* key enters the
        single-flight table: an already-expired caller must not become
        a leader, because its failure would resolve the shared future
        and poison every follower whose own budget still has room.
        """
        outcomes: list[tuple[K, V, bool]] = []
        with deadline_scope(deadline):
            for key in keys:
                check_deadline("iosched.fetch")
                value, led = self._fetch(key, load, parent)
                outcomes.append((key, value, led))
        return outcomes

    # -- introspection / lifecycle ------------------------------------------

    @property
    def inflight_count(self) -> int:
        return len(self._inflight)

    def shutdown(self) -> None:
        """Stop the pool (idempotent; running loads finish first)."""
        self._pool.shutdown(wait=True)
