"""Bounded-pool I/O scheduler: the one way work crosses to a thread.

The executor's phase 1 is disk-bound: a cold 16-year plan touches ~16
cube pages, and fetching them strictly one-at-a-time makes latency
linear in plan size.  :meth:`IOScheduler.run` overlaps such work on a
small thread pool — page reads for the unsharded engine
(:meth:`IOScheduler.fetch_many`), one gather per shard for the scatter
engine.  The modeled counterpart is the disk's queue depth: an
overlapped batch of reads is modeled at its makespan
(:func:`repro.storage.pages.modeled_read_seconds`).

Nothing is shared between two calls: each owns its futures, and page
reads are idempotent, so two queries missing the same cube simply read
it twice.  Reuse across queries happens one level up, in the
epoch-versioned result memo.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Callable, Hashable, Iterable, Sequence, TypeVar

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

__all__ = ["IOScheduler", "DEFAULT_IO_WORKERS"]

#: Pool width: enough to cover a modeled queue depth of 4-8 without
#: spawning a thread per plan key.
DEFAULT_IO_WORKERS = 8

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")
T = TypeVar("T")

_K_FETCHES = metric_key("rased_iosched_fetches_total")
_K_BATCHES = metric_key("rased_iosched_batches_total")
_K_BATCH_SIZE = metric_key("rased_iosched_batch_size")
_K_BATCH_SECONDS = metric_key("rased_iosched_batch_seconds")


class IOScheduler:
    """A shared thread pool for a query's overlappable work.

    One scheduler serves a whole deployment: the pool bounds total
    concurrency across *all* concurrent queries.  Tasks must be
    thread-safe (the index read path is).
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

    def run(self, tasks: Sequence[Callable[[], T]]) -> list[T]:
        """Run every task (at least one) and return their results in
        task order; the first exception, in that order, propagates
        (tasks still on the pool then finish on their own — under an
        expired deadline, at their next check).

        ContextVars do NOT cross pool submissions, so the submitter's
        ambient span and deadline are captured here and re-attached
        around each pool task: its spans land in the submitting query's
        tree instead of becoming orphans, and a query past its budget
        stops instead of doing work nobody will use.  The caller runs
        the first task itself rather than sleep on the pool, so a
        one-task call never leaves its thread — and a pool task must
        never call :meth:`run` (it would wait on the pool it occupies).
        """
        parent = current_span()
        deadline = current_deadline()
        submitted = [
            self._pool.submit(_attached, parent, deadline, task)
            for task in tasks[1:]
        ]
        results = [tasks[0]()]
        results.extend(future.result() for future in submitted)
        return results

    def fetch_many(self, keys: Iterable[K], load: Callable[[K], V]) -> dict[K, V]:
        """Load every distinct key, overlapping the loads ``max_workers``
        wide; returns ``{key: value}``.

        The batch is cut into at most ``max_workers`` strided *slices*,
        one :meth:`run` task each.  A slice — not a key — is the unit
        handed to the pool because a load is mostly page decoding,
        which the interpreter lock serialises anyway: a future per key
        bought no overlap for its queue put, thread wake and lock
        hand-off, while ``width`` slices still overlap ``width`` reads
        that really wait (the modeled makespan of ``n`` sleeping reads
        stays ``ceil(n / width)`` latencies).
        """
        unique = list(dict.fromkeys(keys))
        if not unique:
            return {}
        started = time.perf_counter()
        width = min(self.max_workers, len(unique))
        with causal_span("iosched.batch") as batch_span:
            if batch_span is not None:
                batch_span.attributes["keys"] = len(unique)
            slices = self.run(
                [
                    partial(_load_slice, unique[start::width], load)
                    for start in range(width)
                ]
            )
        self.metrics.record_batch(
            incs=((_K_BATCHES, 1.0), (_K_FETCHES, float(len(unique)))),
            observes=(
                (_K_BATCH_SIZE, float(len(unique))),
                (_K_BATCH_SECONDS, time.perf_counter() - started),
            ),
        )
        return {key: value for loaded in slices for key, value in loaded}

    def shutdown(self) -> None:
        """Stop the pool (idempotent; running tasks finish first)."""
        self._pool.shutdown(wait=True)


def _attached(parent: Span | None, deadline: Deadline | None, task: Callable[[], T]) -> T:
    """Pool entry point: one task under its submitter's span + deadline."""
    with deadline_scope(deadline):
        token = set_ambient(parent)
        try:
            return task()
        finally:
            reset_ambient(token)


def _load_slice(keys: Sequence[K], load: Callable[[K], V]) -> list[tuple[K, V]]:
    """One slice of a batch, key by key.  The deadline is checked before
    *each* load: an expired query reads no further page."""
    loaded: list[tuple[K, V]] = []
    for key in keys:
        check_deadline("iosched.fetch")
        with causal_span("iosched.load") as load_span:
            if load_span is not None:
                # Raw key object: stringified only if the trace is ever
                # rendered (json default=str), not per fetch.
                load_span.attributes["key"] = key
            loaded.append((key, load(key)))
    return loaded
