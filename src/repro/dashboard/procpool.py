"""Process-pool dispatch of analysis requests.

The threaded :class:`~repro.dashboard.server.DashboardServer` scales
until the GIL does: sixteen request threads aggregating cubes take
turns on one interpreter lock.  This module moves the *compute* — body
parsing, planning, cube aggregation, result shaping, response encoding
— into long-lived worker **processes**, each owning a full
:class:`~repro.dashboard.api.Dashboard` over the same on-disk
deployment (and its own result memo, encoded bytes included).  Request
threads become thin I/O shims: read the body bytes, hand them to a
worker, relay the ``(status, json_bytes)`` that comes back.  Bytes in,
bytes out is deliberate: pickling two byte strings costs the parent
almost nothing, where a parsed payload and a result document would put
JSON work back on the serving process's core.

**One pipe per worker, no thread in between.**  Each worker holds one
duplex pipe to the serving process.  A request thread takes an idle
worker's pipe, sends ``(kind, body, deadline_ms)``, receives the answer
and hands the pipe back — the whole exchange runs on that thread, so
the front process runs no manager or feeder thread of its own.

**A dead worker is dropped, never respawned.**  A worker whose pipe
hits end-of-file (it crashed or was killed) leaves the pool: the
request it held answers 503 naming it, later requests go to the
survivors, and with none left every request answers 503.  Respawning
would mean forking a running, threaded server, which is unsafe.

Consistent cube placement (:mod:`repro.core.shard`) keeps the fan-out
coherent: every worker computes the same shard mapping from the same
salt — a keyed BLAKE2b digest, not Python's per-process ``hash()`` — so
all workers read a given cube from the same shard store.

Two boundaries: **no transport in here** — the ``DashboardServer`` (and
its admission front door) stays the only HTTP surface; and **no system
assembly** — workers build their dashboard from a caller-supplied
zero-argument factory, because this module cannot import
:mod:`repro.system` (the dashboard layer sits below it).

Workers are started with ``fork``: the factory is a closure over the
caller's configuration (or its loaded system), which fork *inherits*
and any other start method would have to pickle.  So the dispatcher
must be built before the server starts a thread.  Per-request arguments
do cross the process boundary: the deadline travels as a plain
remaining-milliseconds float and is re-entered as a fresh
:class:`~repro.core.deadline.Deadline` scope inside the worker.  Spans
cannot cross at all; each worker's executions open their own trace
trees in their own recorders.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import queue
import threading
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Callable

from repro.dashboard.api import Dashboard
from repro.errors import ConfigError
from repro.core.deadline import Deadline, deadline_scope

__all__ = ["ProcessPoolDispatcher"]

#: The only workable start method: the dashboard factory is a closure,
#: which ``fork`` inherits and any other method would have to pickle.
_START_METHOD = "fork"

#: How long :meth:`ProcessPoolDispatcher.shutdown` lets a worker finish
#: its request and exit after its pipe closes, before terminating it.
_EXIT_GRACE_SECONDS = 5.0


def _worker_main(
    factory: Callable[[], Dashboard], conn: Connection, inherited: list[Connection]
) -> None:
    """A worker's life: build the dashboard, report ready, then answer
    requests until the serving process closes the pipe."""
    # Fork copied the serving process's ends of every pipe made so far,
    # this worker's own included.  Close them, or a pipe would stay open
    # after its owner closed it and its worker would never see EOF.
    for other in inherited:
        other.close()
    dashboard = factory()
    conn.send(os.getpid())
    while True:
        try:
            kind, body, deadline_ms = conn.recv()
            conn.send(_answer(dashboard, kind, body, deadline_ms))
        except (EOFError, OSError):
            return  # the serving process closed the pipe (or is gone)


def _answer(
    dashboard: Dashboard, kind: str, body: bytes, deadline_ms: float | None
) -> tuple[int, bytes]:
    """Execute one analysis request; returns ``(status, json_bytes)``.

    The work is the server's own :func:`~repro.dashboard.server.
    run_analysis_request` — parse, dispatch, encode, error -> status —
    under a re-entered deadline scope.
    """
    from repro.dashboard.server import run_analysis_request

    # The remaining budget was measured at dispatch; the pipe hop is
    # not re-charged (microseconds against budgets of tens of ms).
    deadline = (
        Deadline(deadline_ms / 1000.0)
        if deadline_ms is not None and deadline_ms > 0.0
        else None
    )
    with deadline_scope(deadline):
        return run_analysis_request(dashboard, kind, body)


def _unavailable(message: str) -> tuple[int, bytes]:
    return 503, json.dumps({"error": message}).encode()


@dataclass
class _Worker:
    process: BaseProcess
    #: The serving process's end of the worker's pipe.
    conn: Connection
    #: Set once the worker has sent its pid: its dashboard exists.
    ready: bool = False


class ProcessPoolDispatcher:
    """Dashboard-owning worker processes behind the server.

    Construct with a zero-argument ``factory`` that builds one
    :class:`Dashboard` (each worker calls it once, at start), hand the
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
        self._lock = threading.Lock()
        self._alive: list[_Worker] = []  # guarded-by: _lock
        #: Idle workers.  Holds ``None`` once every worker is gone, so a
        #: request waiting for one wakes up and answers 503.
        self._idle: queue.SimpleQueue[_Worker | None] = queue.SimpleQueue()
        for _ in range(workers):
            conn, child_conn = context.Pipe(duplex=True)
            inherited = [worker.conn for worker in self._alive] + [conn]
            process = context.Process(
                target=_worker_main,
                args=(factory, child_conn, inherited),
                name="rased-pool-worker",
                daemon=True,
            )
            process.start()
            child_conn.close()
            worker = _Worker(process, conn)
            self._alive.append(worker)
            self._idle.put(worker)

    def prewarm(self) -> list[int]:
        """Wait until every worker has built its dashboard; returns the
        pids of the workers that did.  Call it before traffic arrives."""
        with self._lock:
            workers = list(self._alive)
        pids = []
        for worker in workers:
            try:
                self._wait_ready(worker)
            except (EOFError, OSError):
                self._drop(worker)
                continue
            pids.append(worker.process.pid)
        return pids

    def alive(self) -> int:
        """How many workers are still in the pool."""
        with self._lock:
            return len(self._alive)

    def run(
        self,
        kind: str,
        body: bytes,
        deadline_ms: float | None = None,
    ) -> tuple[int, bytes]:
        """Dispatch one request and block for its ``(status, json_bytes)``.

        ``body`` is the raw (unparsed) request body; the worker parses
        it and encodes the response document, so only byte strings
        cross the pipe.  The calling thread waits for an idle worker,
        then for its answer; blocking here is the point.  The deadline
        crosses as plain milliseconds and is re-entered inside the
        worker.  A worker lost mid-request answers 503 and leaves the
        pool.
        """
        worker = self._idle.get()
        if worker is None:
            self._idle.put(None)
            return _unavailable("no analysis worker process is alive")
        try:
            self._wait_ready(worker)
            worker.conn.send((kind, body, deadline_ms))
            answer = worker.conn.recv()
        except (EOFError, OSError):
            self._drop(worker)
            return _unavailable(
                f"analysis worker process {worker.process.pid} exited "
                "before answering"
            )
        self._idle.put(worker)
        return answer

    def shutdown(self) -> None:
        """Close every pipe and reap the worker processes (idempotent)."""
        with self._lock:
            workers = list(self._alive)
        for worker in workers:
            self._drop(worker)

    def _wait_ready(self, worker: _Worker) -> None:
        """Receive the worker's start-up pid, once.  Only the thread that
        holds the worker (or :meth:`prewarm`, before traffic) calls this."""
        if not worker.ready:
            worker.conn.recv()
            worker.ready = True

    def _drop(self, worker: _Worker) -> None:
        """Take a worker out of the pool: close its pipe (a live worker
        then exits) and reap its process."""
        with self._lock:
            if worker not in self._alive:
                return
            self._alive.remove(worker)
            last = not self._alive
        worker.conn.close()
        worker.process.join(_EXIT_GRACE_SECONDS)
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join()
        if last:
            self._idle.put(None)

    def __enter__(self) -> "ProcessPoolDispatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()
