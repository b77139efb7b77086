"""Process-pool dispatch of analysis requests.

The threaded :class:`~repro.dashboard.server.DashboardServer` scales
until the GIL does: sixteen request threads aggregating cubes take
turns on one interpreter lock.  This module moves the *compute* — body
parsing, planning, cube aggregation, result shaping, response encoding
— into a pool of long-lived worker **processes**, each owning a full
:class:`~repro.dashboard.api.Dashboard` over the same on-disk
deployment (and its own result memo, encoded bytes included).  Request
threads become thin I/O shims: read the body bytes, hand them to a
worker, relay the ``(status, json_bytes)`` that comes back.  Bytes in,
bytes out is deliberate: pickling two byte strings costs the parent
almost nothing, where a parsed payload and a result document would put
JSON work back on the serving process's core.

Consistent cube placement (:mod:`repro.core.shard`) keeps the fan-out
coherent: every worker computes the same shard mapping from the same
salt — a keyed BLAKE2b digest, not Python's per-process ``hash()`` — so
all workers read a given cube from the same shard store.

Two boundaries: **no transport in here** — the ``DashboardServer`` (and
its admission front door) stays the only HTTP surface; and **no system
assembly** — workers build their dashboard from a caller-supplied
zero-argument factory, because this module cannot import
:mod:`repro.system` (the dashboard layer sits below it).

The pool uses the ``fork`` start method: the factory is passed as an
``initializer`` argument, which fork *inherits* rather than pickles, so
closures over local configuration work.  Per-request arguments do cross
the process boundary and must stay picklable — the deadline travels as
a plain remaining-milliseconds float and is re-entered as a fresh
:class:`~repro.core.deadline.Deadline` scope inside the worker.  Spans
cannot cross at all; each worker's executions open their own trace
trees in their own recorders.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable

from repro.dashboard.api import Dashboard
from repro.errors import ConfigError
from repro.core.deadline import Deadline, deadline_scope

__all__ = ["ProcessPoolDispatcher"]

#: The only workable start method: the dashboard factory is a closure,
#: which ``fork`` inherits and any other method would have to pickle.
_START_METHOD = "fork"

#: The worker process's dashboard, built once by :func:`_worker_init`.
_WORKER_DASHBOARD: Dashboard | None = None


def _worker_init(factory: Callable[[], Dashboard]) -> None:
    """Pool initializer: assemble this worker's dashboard exactly once."""
    global _WORKER_DASHBOARD
    _WORKER_DASHBOARD = factory()


def _worker_warm(seconds: float) -> int:
    """Hold a worker busy briefly so every pool slot actually spawns."""
    time.sleep(seconds)
    return os.getpid()


def _worker_run(
    kind: str,
    body: bytes,
    deadline_ms: float | None,
) -> tuple[int, bytes]:
    """Execute one analysis request; returns ``(status, json_bytes)``.

    The work is the server's own :func:`~repro.dashboard.server.
    run_analysis_request` — parse, dispatch, encode, error -> status —
    under a re-entered deadline scope.
    """
    from repro.dashboard.server import run_analysis_request

    dashboard = _WORKER_DASHBOARD
    if dashboard is None:
        return 500, b'{"error": "worker pool initializer did not run"}'
    # The remaining budget was measured at dispatch; queue wait inside
    # the pool is not re-charged (a few microseconds against budgets
    # measured in tens of milliseconds).
    deadline = (
        Deadline(deadline_ms / 1000.0)
        if deadline_ms is not None and deadline_ms > 0.0
        else None
    )
    with deadline_scope(deadline):
        return run_analysis_request(dashboard, kind, body)


class ProcessPoolDispatcher:
    """A pool of dashboard-owning worker processes behind the server.

    Construct with a zero-argument ``factory`` that builds one
    :class:`Dashboard` (each worker calls it once, at spawn), hand the
    dispatcher to :class:`~repro.dashboard.server.DashboardServer`, and
    every ``POST /analysis*`` request is computed out-of-process.
    The owner that built the dispatcher also shuts it down —
    ``server.stop()`` deliberately leaves it running so one pool can
    outlive server restarts.
    """

    def __init__(
        self,
        factory: Callable[[], Dashboard],
        workers: int,
    ) -> None:
        if workers < 1:
            raise ConfigError(f"worker count must be >= 1, got {workers}")
        self.workers = workers
        context = multiprocessing.get_context(_START_METHOD)
        self._pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=_worker_init,
            initargs=(factory,),
        )

    def prewarm(self, hold_seconds: float = 0.05) -> list[int]:
        """Spin up (and initialize) every worker before traffic arrives.

        Submits one short blocking task per slot; because an idle pool
        assigns each to a fresh process, all ``workers`` dashboards are
        built here rather than under the first client burst.  Returns
        the worker PIDs (with duplicates, if a worker double-dipped).
        """
        futures = [
            # Deadlines/spans don't apply: these tasks predate any
            # request context by construction.
            self._pool.submit(_worker_warm, hold_seconds)
            for _ in range(self.workers)
        ]
        return [future.result() for future in futures]

    def run(
        self,
        kind: str,
        body: bytes,
        deadline_ms: float | None = None,
    ) -> tuple[int, bytes]:
        """Dispatch one request and block for its ``(status, json_bytes)``.

        ``body`` is the raw (unparsed) request body; the worker parses
        it and encodes the response document, so only byte strings
        cross the pickle boundary.  The calling thread is an I/O shim
        awaiting a remote result, so blocking here is the point.  The
        deadline crosses as plain milliseconds and is re-entered inside
        the worker; spans cannot cross a process boundary at all (each
        worker traces its own executions), so there is no ambient
        context to hand off.
        """
        future = self._pool.submit(_worker_run, kind, body, deadline_ms)
        return future.result()

    def shutdown(self) -> None:
        """Terminate the worker processes (idempotent)."""
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ProcessPoolDispatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()
