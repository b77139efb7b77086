"""The system under test, in a process of its own.

``run.py`` spawns this file so that the load generator's interpreter
lock never throttles the server.  The process builds a ``RasedSystem``
from the workload's literal ``SystemConfig``, loads the generated
inputs, preloads the cube cache, prewarms the process pool when the
workload has one, starts ``DashboardServer`` on port 0 and prints one
JSON ``ready`` line.  It then answers one JSON command per stdin line
(``counters``, ``replay``, ``replay_procpool``, ``replay_summary``,
``ingest``, ``shutdown``) with one JSON line on stdout, and shuts down
cleanly on ``shutdown`` or when stdin closes.

Nothing here is timed by a stopwatch inside the program: the in-process
replays call the layers' public functions the way ``dashboard.server``
does and time them from outside (see ``trace.py``).
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import time
from pathlib import Path
from typing import Any, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from repro.core.deadline import deadline_scope  # noqa: E402
from repro.dashboard.procpool import ProcessPoolDispatcher  # noqa: E402
from repro.dashboard.server import (  # noqa: E402
    DashboardServer,
    query_from_json,
    result_to_json,
)
from repro.obs import EventLog  # noqa: E402
from repro.storage.disk import InMemoryDisk  # noqa: E402
from repro.system import RasedSystem  # noqa: E402

import trace as spans  # noqa: E402  (this directory's trace.py)
from workloads import WORKLOADS, Request, Workload  # noqa: E402

__all__ = [
    "Served",
    "Session",
    "build_system",
    "replay_paired",
    "replay_procpool",
    "run_ingest",
]


def build_system(
    workload: Workload, inputs_path: Path, scratch: Path
) -> tuple[RasedSystem, dict[str, Any], dict[str, float]]:
    """Assemble the deployment and load the generated history into it.

    Returns the system, the inputs' header (requests, feed location)
    and what loading did.
    """
    with open(inputs_path, "rb") as handle:
        # Written by run.py moments ago, in this checkout.
        header = pickle.load(handle)
        # Zero modeled latency: this benchmark reports wall-clock only.
        store = InMemoryDisk(read_latency=0.0, write_latency=0.0)
        root = header["feed_root"] or scratch / f"feed-none-{os.getpid()}"
        system = RasedSystem.create(root=root, config=workload.config, store=store)
        if system.wal is not None:
            system.pipeline.recover()
        load_seconds = 0.0
        days = rows = 0
        while True:
            try:
                month = pickle.load(handle)
            except EOFError:
                break
            started = time.perf_counter()
            system.index.bulk_load(month)
            load_seconds += time.perf_counter() - started
            days += len(month)
            rows += sum(len(updates) for updates in month.values())
    resident = system.warm_cache()
    return system, header, {
        "load_s": load_seconds,
        "days_loaded": days,
        "rows_loaded": rows,
        "cube_bytes": system.index.store.stats.bytes_written,
        "cube_pages": system.index.total_pages(),
        "resident_cubes": resident,
    }


class Served:
    """A system plus the front door ``rased-repro serve`` puts on it."""

    def __init__(self, system: RasedSystem, workload: Workload) -> None:
        self.system = system
        self.dispatcher: ProcessPoolDispatcher | None = None
        self.pids = [os.getpid()]
        if workload.workers:
            # Forked before the server (or any pool) has started a
            # thread; each worker inherits the loaded system.
            self.dispatcher = ProcessPoolDispatcher(
                lambda: system.dashboard, workers=workload.workers
            )
            self.pids += sorted(set(self.dispatcher.prewarm()))
        self.server = DashboardServer(
            system.dashboard,
            port=0,
            admission=system.admission,
            tracer=system.tracer,
            recorder=system.recorder,
            slo=system.slo,
            events=EventLog(),
            dispatcher=self.dispatcher,
        )
        self.server.start()

    def close(self) -> None:
        self.server.stop()
        if self.dispatcher is not None:
            self.dispatcher.shutdown()
        shutdown = getattr(self.system.executor, "shutdown", None)
        if callable(shutdown):
            shutdown()
        if self.system.iosched is not None:
            self.system.iosched.shutdown()


def counters(system: RasedSystem) -> dict[str, float]:
    """Cumulative counts the parent differences around a pass."""
    metrics = system.metrics
    disk = system.index.store.stats
    admitted = metrics.value("rased_admission_requests_total", decision="admitted")
    return {
        "resultcache_hits": metrics.total("rased_resultcache_hits_total"),
        "resultcache_misses": metrics.total("rased_resultcache_misses_total"),
        "admission_refused": metrics.total("rased_admission_requests_total") - admitted,
        "page_reads": disk.reads,
        "page_writes": disk.writes,
        "bytes_read": disk.bytes_read,
        "bytes_written": disk.bytes_written,
        "resident_cubes": system.cache.cached_count,
        "resident_bytes": system.cache.cached_bytes,
        "warehouse_rows": system.warehouse.row_count,
    }


def _serve(system: RasedSystem, body: bytes, rec: spans.SpanRecorder, traced: bool) -> float | None:
    """Serve one ``POST /analysis`` body in-process; seconds, or None if refused.

    Makes the calls ``dashboard.server`` makes for one request — parse,
    admit, ``Dashboard.analysis`` under the admitted deadline, release,
    encode — without sockets or threads.
    """
    admission = system.admission
    rec.begin_unit(traced, name="request")
    with rec.span("server.parse"):
        query = query_from_json(json.loads(body or b"{}"))
    deadline = None
    if admission is not None:
        with rec.span("admission.admit"):
            decision = admission.admit(None, None)
        if not decision.allowed:
            rec.end_unit()
            return None
        deadline = decision.deadline
    try:
        with deadline_scope(deadline), rec.span("api.analysis"):
            result = system.dashboard.analysis(query)
    finally:
        if admission is not None:
            with rec.span("admission.release"):
                admission.release()
    with rec.span("server.encode") as slot:
        encoded = json.dumps(result_to_json(result), default=str).encode("utf-8")
        slot[0] = len(encoded)
    return rec.end_unit()


def replay_paired(
    system: RasedSystem, requests: Sequence[Request], recorder: spans.SpanRecorder
) -> tuple[list[float], list[float], int]:
    """Each request twice back to back, once untraced and once traced.

    The host's speed drifts by more between two whole replays than the
    wrappers cost, so the two are interleaved: request by request, in
    alternating order so that neither side always runs on the caches
    the other warmed.  Returns (untraced seconds, traced seconds,
    refusals); the wrappers must already be installed, and an untraced
    execution passes through them behind one flag test per call.
    """
    plain: list[float] = []
    traced: list[float] = []
    refused = 0
    posts = [body for method, _, body in requests if method == "POST"]
    for position, body in enumerate(posts):
        for on in ((False, True), (True, False))[position % 2]:
            seconds = _serve(system, body, recorder, on)
            if seconds is None:
                refused += 1
            else:
                (traced if on else plain).append(seconds)
    return plain, traced, refused


def replay_procpool(
    dispatcher: ProcessPoolDispatcher, requests: Sequence[Request]
) -> list[float]:
    """The same requests, one at a time, through ``dispatcher.run``."""
    seconds: list[float] = []
    for method, _, body in requests:
        if method != "POST":
            continue
        started = time.perf_counter()
        status, _ = dispatcher.run("analysis", body, None)
        seconds.append(time.perf_counter() - started)
        if status != 200:
            raise RuntimeError(f"process pool answered {status} to {body!r}")
    return seconds


def run_ingest(
    system: RasedSystem, recorder: spans.SpanRecorder | None = None
) -> dict[str, float]:
    """``pipeline.run_daily()`` over every pending diff, timed outside."""
    before = system.index.store.stats.snapshot()
    wrappers = spans.install_ingest_path(recorder) if recorder is not None else None
    try:
        started, cpu_started = time.perf_counter(), time.thread_time()
        report = system.pipeline.run_daily()
        seconds, cpu_seconds = time.perf_counter() - started, time.thread_time() - cpu_started
    finally:
        if wrappers is not None:
            wrappers.remove()
    if recorder is not None and recorder.unit >= 0:
        recorder.end_unit()
    written = system.index.store.stats.delta(before)
    return {
        "seconds": seconds,
        # Of this thread, the writer, alone.
        "cpu_seconds": cpu_seconds,
        "days": report.days_processed,
        "updates_indexed": report.updates_indexed,
        "warehouse_rows": system.warehouse.row_count,
        "page_writes": written.writes,
        "page_reads": written.reads,
        "bytes_written": written.bytes_written,
    }


class Session:
    """Answers the parent's commands, one JSON object each.

    The traced replay arrives in chunks (the parent runs an HTTP pass
    over the same requests between them), so its recorder lives here
    from the first ``replay`` to ``replay_summary``.
    """

    def __init__(
        self, served: Served, workload: Workload, requests: Sequence[Request], results: Path
    ) -> None:
        self.served = served
        self.workload = workload
        self.requests = requests
        self.results = results
        self.recorder = spans.SpanRecorder()
        self.refused = 0

    def handle(self, command: dict[str, Any]) -> dict[str, Any]:
        name = command["cmd"]
        if name not in ("counters", "replay", "replay_procpool", "replay_summary", "ingest"):
            raise ValueError(f"unknown command {name!r}")
        return getattr(self, name)(command)

    def counters(self, command: dict[str, Any]) -> dict[str, Any]:
        return counters(self.served.system)

    def replay(self, command: dict[str, Any]) -> dict[str, Any]:
        """Requests ``start`` to ``stop``, paired; wrappers on only meanwhile."""
        chunk = self.requests[command["start"] : command["stop"]]
        with spans.install_read_path(self.recorder):
            plain, traced, refused = replay_paired(self.served.system, chunk, self.recorder)
        self.refused += refused
        return {"plain_seconds": plain, "traced_seconds": traced}

    def replay_procpool(self, command: dict[str, Any]) -> dict[str, Any]:
        if self.served.dispatcher is None:
            raise ValueError(f"{self.workload.name} has no process pool")
        chunk = self.requests[command["start"] : command["stop"]]
        return {"seconds": replay_procpool(self.served.dispatcher, chunk)}

    def replay_summary(self, command: dict[str, Any]) -> dict[str, Any]:
        if command.get("trace_file"):
            spans.write_trace(
                self.recorder, self.results / command["trace_file"], self.workload.name
            )
        return {
            "refused": self.refused,
            "layers": spans.summarize(self.recorder),
            "attribution": spans.attribution(self.recorder),
            "spans": self.recorder.span_count,
        }

    def ingest(self, command: dict[str, Any]) -> dict[str, Any]:
        system = self.served.system
        if not command.get("traced"):
            return run_ingest(system)
        recorder = spans.SpanRecorder()
        report: dict[str, Any] = run_ingest(system, recorder)
        name = self.workload.name
        spans.write_trace(recorder, self.results / f"{name}.trace.json", name)
        report["layers"] = spans.summarize(recorder)
        report["attribution"] = spans.attribution(recorder)
        report["day_seconds"] = [
            [end - start, traced] for _, start, end, traced in recorder.units
        ]
        return report


def main(argv: Sequence[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    workload = WORKLOADS[spec["workload"]]
    scratch = Path(spec["scratch"])
    system, inputs, load = build_system(workload, Path(spec["inputs"]), scratch)
    served = Served(system, workload)
    try:
        host, port = served.server.address
        ready = {"ready": True, "address": [host, port], "pids": served.pids, "load": load}
        print(json.dumps(ready), flush=True)
        session = Session(served, workload, inputs["requests"], Path(spec["results"]))
        for line in sys.stdin:
            command = json.loads(line)
            if command["cmd"] == "shutdown":
                break
            print(json.dumps(session.handle(command)), flush=True)
    finally:
        served.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
