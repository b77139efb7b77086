"""The phase-1 read loop: a gather's page reads, on the caller's thread.

The executor's phase 1 is disk-bound: a cold 16-year plan touches ~16
cube pages.  :meth:`IOScheduler.fetch_many` reads such a batch key by
key on the thread that asked, checking the query's deadline before each
read.  Every store the serving path reads is in memory or in the OS
page cache and page decoding holds the interpreter lock, so handing the
reads to other threads bought no overlap, only thread wake-ups.  The
overlap a real device gives is modeled instead: a batch of ``n`` reads
on a device of queue depth ``store.parallelism`` is charged its
makespan (:func:`repro.storage.pages.modeled_read_seconds`).

Nothing is shared between two calls, and page reads are idempotent, so
two queries missing the same cube simply read it twice.  Reuse across
queries happens one level up, in the epoch-versioned result memo.
"""

from __future__ import annotations

import time
from typing import Callable, Hashable, Iterable, TypeVar

from repro.core.deadline import check_deadline
from repro.obs import MetricsRegistry, get_registry, metric_key
from repro.obs.span import span as causal_span

__all__ = ["IOScheduler"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

_K_FETCHES = metric_key("rased_iosched_fetches_total")
_K_BATCHES = metric_key("rased_iosched_batches_total")
_K_BATCH_SIZE = metric_key("rased_iosched_batch_size")
_K_BATCH_SECONDS = metric_key("rased_iosched_batch_seconds")


class IOScheduler:
    """A gather's miss batch, read in order on the calling thread and
    counted in ``metrics``.  Holds no thread and no shared state, so one
    instance serves every concurrent query of a deployment."""

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self.metrics = metrics if metrics is not None else get_registry()

    def fetch_many(self, keys: Iterable[K], load: Callable[[K], V]) -> dict[K, V]:
        """Load every distinct key once, in first-seen order; returns
        ``{key: value}``.  The deadline is checked before *each* load, so
        an expired query reads no further page; a load's exception
        propagates and abandons the rest of the batch."""
        unique = list(dict.fromkeys(keys))
        if not unique:
            return {}
        started = time.perf_counter()
        loaded: dict[K, V] = {}
        with causal_span("iosched.batch") as batch_span:
            if batch_span is not None:
                batch_span.attributes["keys"] = len(unique)
            for key in unique:
                check_deadline("iosched.fetch")
                loaded[key] = load(key)
        self.metrics.record_batch(
            incs=((_K_BATCHES, 1.0), (_K_FETCHES, float(len(unique)))),
            observes=(
                (_K_BATCH_SIZE, float(len(unique))),
                (_K_BATCH_SECONDS, time.perf_counter() - started),
            ),
        )
        return loaded

    def shutdown(self) -> None:
        """Nothing to stop: the scheduler holds no thread.  Kept so an
        owner can release it like any other component."""
