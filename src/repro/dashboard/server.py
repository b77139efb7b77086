"""A stdlib-only JSON HTTP API over the dashboard.

The real RASED is served at https://rased.cs.umn.edu; the reproduction
exposes the same query surface as a small JSON API (no third-party web
framework, per the offline constraint):

* ``GET /health`` — liveness and index coverage;
* ``GET /zones`` — the zone catalog;
* ``POST /analysis`` — body is a JSON query (see :func:`query_from_json`),
  response carries rows, the generated SQL, and execution stats;
* ``POST /analysis/sql`` — body is ``{"sql": "..."}`` in the paper's
  SQL dialect (Section IV-A), parsed server-side;
* ``POST /analysis/live`` — like ``/analysis`` but overlays today's
  partial hourly-crawled counts when a live monitor is wired;
* ``GET /samples?zone=<name>&n=<k>`` — sample-update query;
* ``GET /changeset/<id>`` — one changeset's updates;
* ``GET /contributors?n=<k>`` — top contributors from changeset
  metadata;
* ``GET /metrics`` — the deployment's metrics registry in Prometheus
  text exposition format (``?format=json`` for the JSON snapshot);
* ``GET /debug/traces`` — the flight recorder's retained span trees
  (``?limit=``, ``?status=error``); ``GET /debug/traces/<trace_id>``
  dumps one full tree (the id arrives on every response as an
  ``X-Trace-Id`` header);
* ``GET /debug/slo`` — objective windows, burn rates and multi-window
  alert states (also summarized on ``/health``).

The server is threaded (one thread per in-flight request, via
:class:`http.server.ThreadingHTTPServer`): RASED's pitch is a
dashboard under heavy concurrent traffic, and the whole query path —
executor, cube cache, I/O scheduler, result cache, metrics — is
thread-safe.

Error mapping is centralized in the handler: domain errors
(:class:`~repro.errors.RasedError`, ``ValueError``) answer 400, an
expired request deadline answers 504, oversized bodies 413, and any
other exception becomes a 500 JSON error instead of tearing down the
connection with no response (and a bogus ``status="0"`` metric label).

An optional :class:`~repro.dashboard.admission.AdmissionController`
sits in front of every request — auth, rate limits, quotas, deadlines
and load shedding; see :mod:`repro.dashboard.admission`.  Without one
the server behaves exactly as before.
"""

from __future__ import annotations

import json
import math
import threading
import time
from datetime import date
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Mapping
from urllib.parse import parse_qs, urlparse

from repro.baseline.sqlgen import to_sql
from repro.types.temporal import Level
from repro.core.deadline import current_deadline, deadline_scope
from repro.core.query import AnalysisQuery, QueryResult
from repro.dashboard.admission import AdmissionController
from repro.dashboard.api import Dashboard
from repro.dashboard.procpool import ProcessPoolDispatcher
from repro.errors import DeadlineExceededError, QueryError, RasedError
from repro.obs import EventLog, FlightRecorder, SLOTracker
from repro.obs.span import Tracer, current_trace_id
from repro.obs.span import span as causal_span

# Metric names as module constants (labels vary per request, so the
# keys cannot be fully prepared the way the executor's are).
_M_HTTP_REQUESTS = "rased_http_requests_total"
_M_HTTP_SECONDS = "rased_http_request_seconds"

__all__ = [
    "query_from_json",
    "result_to_json",
    "DashboardServer",
    "DEFAULT_MAX_BODY_BYTES",
    "MAX_SAMPLE_N",
]

_LEVELS = {level.label: level for level in Level}

#: Upper bound on ``?n=`` for /samples and /contributors; a request for
#: more is clamped, not rejected, so naive clients still work.
MAX_SAMPLE_N = 10_000

#: Default cap on POST body size (1 MiB); a real analysis query is a
#: few hundred bytes, so anything near this is hostile or broken.
DEFAULT_MAX_BODY_BYTES = 1 << 20

#: Known endpoint families, used as the ``path`` label on HTTP metrics
#: so an attacker probing random URLs cannot mint unbounded series.
_PATH_FAMILIES = (
    "/health",
    "/zones",
    "/samples",
    "/changeset",
    "/contributors",
    "/metrics",
    "/debug/traces",
    "/debug/slo",
    "/analysis/sql",
    "/analysis/live",
    "/analysis",
)


def _path_family(path: str) -> str:
    for family in _PATH_FAMILIES:
        if path == family or path.startswith(family + "/"):
            return family
    return "other"


def query_from_json(payload: Any) -> AnalysisQuery:
    """Build an :class:`AnalysisQuery` from a decoded JSON request body.

    The body comes from outside the program, so its shape is checked
    here: whatever is wrong with it is a :class:`QueryError` (a 400),
    never an exception type the server would report as its own fault.
    """
    if not isinstance(payload, dict):
        raise QueryError("request body must be a JSON object")
    try:
        start = date.fromisoformat(payload["start"])
        end = date.fromisoformat(payload["end"])
    except (KeyError, TypeError, ValueError) as exc:
        raise QueryError(f"bad or missing start/end dates: {exc}") from None

    def strings(key: str) -> tuple[str, ...] | None:
        value = payload.get(key)
        if value is None:
            return None
        if not isinstance(value, list) or not all(
            isinstance(item, str) for item in value
        ):
            raise QueryError(f"{key} must be a JSON array of strings")
        return tuple(value)

    granularity_text = str(payload.get("date_granularity", "day")).lower()
    if granularity_text not in _LEVELS:
        raise QueryError(
            f"date_granularity must be one of {sorted(_LEVELS)}"
        )
    return AnalysisQuery(
        start=start,
        end=end,
        element_types=strings("element_types"),
        countries=strings("countries"),
        road_types=strings("road_types"),
        update_types=strings("update_types"),
        group_by=strings("group_by") or (),
        metric=str(payload.get("metric", "count")),
        date_granularity=_LEVELS[granularity_text],
    )


def result_to_json(result: QueryResult) -> dict[str, object]:
    """Serialize a QueryResult for the wire."""
    rows = []
    for key, value in result.sorted_rows():
        cells = [
            cell.isoformat() if isinstance(cell, date) else cell for cell in key
        ]
        rows.append({"group": cells, "value": value})
    return {
        "group_by": list(result.query.group_by),
        "metric": result.query.metric,
        "rows": rows,
        "sql": to_sql(result.query),
        "partial": result.stats.partial,
        "stats": {
            "cube_count": result.stats.cube_count,
            "cache_hits": result.stats.cache_hits,
            "disk_reads": result.stats.disk_reads,
            "quarantined_cubes": result.stats.quarantined_cubes,
            "simulated_ms": result.stats.simulated_ms,
            "wall_ms": result.stats.wall_seconds * 1000.0,
            "phases": result.stats.phase_rows(),
        },
    }


#: ``POST`` path -> the request kind :func:`run_analysis_request` runs.
_POST_KINDS = {
    "/analysis": "analysis",
    "/analysis/live": "live",
    "/analysis/sql": "sql",
}


def _error_response(exc: Exception) -> tuple[int, dict[str, object]]:
    """The one failure -> ``(status, document)`` mapping of every route."""
    if isinstance(exc, DeadlineExceededError):
        return 504, {"error": str(exc)}
    if isinstance(exc, (RasedError, ValueError)):
        # json.JSONDecodeError is a ValueError subclass.
        return 400, {"error": str(exc)}
    return 500, {"error": f"internal error: {exc}"}


def run_analysis_request(
    dashboard: Dashboard, kind: str, body: bytes
) -> tuple[int, bytes]:
    """One ``POST /analysis*`` request: raw body in, ``(status, json_bytes)`` out.

    The request thread calls this directly; under ``serve --workers``
    a pool worker does (:mod:`repro.dashboard.procpool`) — the one
    implementation is why clients cannot tell which process computed a
    response.  Failures are *returned*, never raised: across a process
    boundary a raised exception would surface as a broken future and a
    bare 500 with less detail.
    """
    document: dict[str, object]
    try:
        payload = json.loads(body or b"{}")
        if kind == "sql":
            sql = payload.get("sql") if isinstance(payload, dict) else None
            if not isinstance(sql, str):
                raise QueryError('body must be {"sql": "SELECT ..."}')
            result = dashboard.analysis_sql(sql)
        elif kind == "live":
            result = dashboard.analysis_live(query_from_json(payload))
        elif kind == "analysis":
            result = dashboard.analysis(query_from_json(payload))
        else:
            raise QueryError(f"unknown request kind {kind!r}")
        status, document = 200, result_to_json(result)
    except Exception as exc:  # lint: allow[broad-except] request boundary: every failure must map to a JSON error document, not a broken future
        status, document = _error_response(exc)
    # default=str covers non-JSON leaves in dumped span attributes
    # (TemporalKey page keys are stored raw on the fetch hot path).
    return status, json.dumps(document, default=str).encode("utf-8")


def _clamped_count(params: Mapping[str, list[str]], default: int) -> int:
    """Parse ``?n=`` defensively: reject garbage, clamp the greedy."""
    raw = params.get("n", [str(default)])[0]
    try:
        n = int(raw)
    except ValueError:
        raise QueryError(f"n must be an integer, got {raw!r}") from None
    if n < 0:
        raise QueryError(f"n must be non-negative, got {n}")
    return min(n, MAX_SAMPLE_N)


class _RequestTracker:
    """Counts in-flight requests so ``stop()`` can drain gracefully."""

    def __init__(self) -> None:
        self._lock = threading.Condition()
        self._inflight = 0  # guarded-by: _lock

    def enter(self) -> None:
        with self._lock:
            self._inflight += 1

    def exit(self) -> None:
        with self._lock:
            self._inflight -= 1
            if self._inflight <= 0:
                self._lock.notify_all()

    def wait_idle(self, timeout: float) -> bool:
        """True once no requests are in flight; False on timeout."""
        deadline = time.monotonic() + timeout
        with self._lock:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    return False
                self._lock.wait(remaining)
        return True


class _Handler(BaseHTTPRequestHandler):
    dashboard: Dashboard  # injected by DashboardServer
    tracker: _RequestTracker  # injected by DashboardServer
    admission: AdmissionController | None = None
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    tracer: Tracer | None = None
    recorder: FlightRecorder | None = None
    slo: SLOTracker | None = None
    events: EventLog | None = None
    #: When set, ``POST /analysis*`` compute runs in worker processes;
    #: this thread only parses the body and relays the answer.
    dispatcher: ProcessPoolDispatcher | None = None

    # Silence per-request logging; tests drive many requests.
    def log_message(self, fmt: str, *args: Any) -> None:  # noqa: A003
        pass

    def _send(
        self,
        status: int,
        payload: dict[str, object],
        extra_headers: Mapping[str, str] | None = None,
    ) -> None:
        # default=str covers non-JSON leaves in dumped span attributes
        # (TemporalKey page keys are stored raw on the fetch hot path).
        self._send_bytes(
            status,
            json.dumps(payload, default=str).encode("utf-8"),
            "application/json",
            extra_headers,
        )

    def _send_bytes(
        self,
        status: int,
        body: bytes,
        content_type: str,
        extra_headers: Mapping[str, str] | None = None,
    ) -> None:
        """Stage the response; :meth:`_flush_response` writes the socket.

        Staging (rather than writing immediately) closes a race: the
        flight recorder only receives the trace when the root span
        closes, so writing first would let a fast client ask
        ``/debug/traces/<id>`` before the id it was just handed is
        retrievable.  Every response here is a small, fully
        materialized JSON document, so buffering costs nothing.
        """
        self._status = status
        self._responded = True
        headers = dict(extra_headers or {})
        # Success and error paths alike: the id a client quotes back to
        # look up its request's span tree at /debug/traces/<id>.
        trace_id = current_trace_id()
        if trace_id is not None:
            headers["X-Trace-Id"] = trace_id
        self._pending = (status, body, content_type, headers)

    def _flush_response(self) -> None:
        pending = self._pending
        if pending is None:
            return
        self._pending = None
        status, body, content_type, headers = pending
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _timed(self, handler: Callable[[], None]) -> None:
        """Run one request handler and record HTTP-level metrics.

        The whole request runs under a root ``http.request`` span (when
        a tracer is wired), so admission verdicts, executor phases and
        pool-thread disk reads all land in one tree; a 5xx answer marks
        the root errored *before* the trace closes, which is what makes
        the flight recorder's tail-based retention keep it.
        """
        started = time.perf_counter()
        self._status = 0
        self._responded = False
        self._pending: tuple[int, bytes, str, dict[str, str]] | None = None
        family = _path_family(urlparse(self.path).path)
        self.tracker.enter()
        try:
            tracer = self.tracer
            context = (
                tracer.trace("http.request")
                if tracer is not None
                else causal_span("http.request")
            )
            with context as root:
                if root is not None:
                    root.attributes["method"] = self.command
                    root.attributes["path"] = family
                self._admit_and_run(handler)
                if root is not None:
                    root.attributes["status"] = self._status
                    if self._status >= 500 or self._status == 0:
                        root.set_error(f"http {self._status}")
                events = self.events
                if events is not None and events.enabled:
                    events.emit(
                        "http.request",
                        method=self.command,
                        path=family,
                        status=self._status,
                        ms=round((time.perf_counter() - started) * 1000.0, 3),
                    )
        finally:
            elapsed = time.perf_counter() - started
            try:
                # Counters and SLO accounting move BEFORE the response
                # is flushed: a client that reads its answer and then
                # scrapes /metrics must see its own request counted.
                if self.slo is not None:
                    # "ok" = answered without a server-side failure; an
                    # unanswered request (status 0) is an availability
                    # miss.
                    self.slo.record(0 < self._status < 500, elapsed)
                metrics = self.dashboard.metrics
                metrics.inc(
                    _M_HTTP_REQUESTS,
                    path=family,
                    status=str(self._status),
                )
                metrics.observe(_M_HTTP_SECONDS, elapsed, path=family)
            finally:
                try:
                    # After the trace closed (and recorded), so the id
                    # in the X-Trace-Id header is retrievable the
                    # moment the client can read it.
                    self._flush_response()
                finally:
                    self.tracker.exit()

    def _admit_and_run(self, handler: Callable[[], None]) -> None:
        """Apply front-door policy (when configured), then the handler."""
        admission = self.admission
        if admission is None:
            self._run_guarded(handler)
            return
        # The verdict is recorded server-side (admission itself stays
        # transport-agnostic): one span per request saying whether the
        # front door let it in, and why not.
        with causal_span("dashboard.admission") as admit_span:
            decision = admission.admit(
                self.headers.get("X-API-Key"),
                self.headers.get("X-Deadline-Ms"),
            )
            if admit_span is not None:
                admit_span.attributes["allowed"] = decision.allowed
                if not decision.allowed:
                    admit_span.attributes["status"] = decision.status
                    admit_span.attributes["reason"] = decision.error
        if not decision.allowed:
            extra = (
                # Whole seconds, rounded up: "Retry-After: 0" invites an
                # immediate retry, which defeats the rejection.
                {"Retry-After": str(max(1, math.ceil(decision.retry_after)))}
                if decision.retry_after is not None
                else None
            )
            self._send(decision.status, {"error": decision.error}, extra)
            return
        try:
            with deadline_scope(decision.deadline):
                self._run_guarded(handler)
            # Raised by a GET handler or returned by an analysis
            # request (in-process or from a pool worker): either way
            # the request died on its deadline.
            if self._status == 504:
                admission.record_deadline_hit(
                    _path_family(urlparse(self.path).path)
                )
        finally:
            admission.release()

    def _run_guarded(self, handler: Callable[[], None]) -> None:
        """Run a handler with the full error -> status mapping."""
        try:
            handler()
        except Exception as exc:  # lint: allow[broad-except] last-resort 500; re-raised if the response already started
            status, document = _error_response(exc)
            if status == 500 and self._responded:
                raise
            self._send(status, document)

    def do_GET(self) -> None:  # noqa: N802
        self._timed(self._handle_get)

    def _handle_get(self) -> None:
        parsed = urlparse(self.path)
        if parsed.path == "/health":
            index = self.dashboard.executor.index
            coverage = index.coverage()
            quarantined = index.quarantined_count()
            payload: dict[str, object] = {
                # "degraded" = still serving, but some cubes are
                # quarantined and answers touching them carry
                # partial=true.
                "status": "degraded" if quarantined else "ok",
                "coverage": [d.isoformat() for d in coverage]
                if coverage
                else None,
                "pages": index.total_pages(),
                "quarantined_cubes": quarantined,
            }
            # Sharded deployments expose per-shard placement health;
            # probed by capability so the single-process engine's
            # /health document stays byte-stable.
            shard_status = getattr(
                self.dashboard.executor, "shard_status", None
            )
            if callable(shard_status):
                payload["shards"] = shard_status()
            if self.slo is not None:
                firing = [a.to_dict() for a in self.slo.alerts() if a.firing]
                payload["slo"] = {"burning": bool(firing), "firing": firing}
                if firing and payload["status"] == "ok":
                    payload["status"] = "degraded"
            self._send(200, payload)
        elif parsed.path == "/zones":
            self._send(
                200, {"zones": self.dashboard.atlas.zone_names()}
            )
        elif parsed.path == "/samples":
            params = parse_qs(parsed.query)
            zone = params.get("zone", [None])[0]
            if zone is None:
                raise QueryError("samples requires ?zone=<name>")
            n = _clamped_count(params, default=100)
            records = self.dashboard.sample_updates(zone, n=n)
            self._send(200, {"samples": [r.to_tsv().split("\t") for r in records]})
        elif parsed.path.startswith("/changeset/"):
            changeset_id = int(parsed.path.rsplit("/", 1)[1])
            records = self.dashboard.changeset_updates(changeset_id)
            self._send(200, {"updates": [r.to_tsv().split("\t") for r in records]})
        elif parsed.path == "/metrics":
            params = parse_qs(parsed.query)
            wanted = params.get("format", ["prometheus"])[0]
            registry = self.dashboard.metrics
            if wanted == "json":
                self._send(200, registry.snapshot())
            elif wanted == "prometheus":
                self._send_bytes(
                    200,
                    registry.to_prometheus().encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            else:
                raise QueryError(
                    "metrics format must be 'prometheus' or 'json'"
                )
        elif parsed.path == "/debug/slo":
            if self.slo is None:
                self._send(404, {"error": "SLO tracking is not enabled"})
                return
            self._send(200, self.slo.snapshot())
        elif parsed.path == "/debug/traces":
            recorder = self.recorder
            if recorder is None:
                self._send(404, {"error": "tracing is not enabled"})
                return
            params = parse_qs(parsed.query)
            raw_limit = params.get("limit", ["50"])[0]
            try:
                limit = max(0, int(raw_limit))
            except ValueError:
                raise QueryError(
                    f"limit must be an integer, got {raw_limit!r}"
                ) from None
            status = params.get("status", [None])[0]
            self._send(
                200,
                {
                    "stats": recorder.stats(),
                    "traces": [
                        t.to_summary()
                        for t in recorder.list(limit=limit, status=status)
                    ],
                },
            )
        elif parsed.path.startswith("/debug/traces/"):
            recorder = self.recorder
            if recorder is None:
                self._send(404, {"error": "tracing is not enabled"})
                return
            trace_id = parsed.path.rsplit("/", 1)[1]
            recorded = recorder.get(trace_id)
            if recorded is None:
                self._send(404, {"error": f"no retained trace {trace_id!r}"})
                return
            self._send(200, recorded.to_dict())
        elif parsed.path == "/contributors":
            params = parse_qs(parsed.query)
            n = _clamped_count(params, default=10)
            contributors = self.dashboard.top_contributors(n)
            self._send(
                200,
                {
                    "contributors": [
                        {
                            "user": c.user,
                            "uid": c.uid,
                            "sessions": c.session_count,
                            "changes": c.change_count,
                            "bulk_sessions": c.bulk_session_count,
                        }
                        for c in contributors
                    ]
                },
            )
        else:
            self._send(404, {"error": f"unknown path {parsed.path}"})

    def do_POST(self) -> None:  # noqa: N802
        self._timed(self._handle_post)

    def _read_body(self) -> bytes:
        """Read the POST body, validating Content-Length first.

        ``int()`` used to be applied to the raw header with no checks: a
        negative value made ``rfile.read(-1)`` block for EOF on a keep-
        alive socket, and a huge one let one request allocate the whole
        declared size.  Malformed or negative lengths now answer 400 and
        anything over ``max_body_bytes`` answers 413 without reading.
        """
        raw = self.headers.get("Content-Length", "0")
        try:
            length = int(raw)
        except ValueError:
            raise QueryError(f"Content-Length must be an integer, got {raw!r}") from None
        if length < 0:
            raise QueryError(f"Content-Length must be non-negative, got {length}")
        if length > self.max_body_bytes:
            raise _BodyTooLarge(length, self.max_body_bytes)
        return self.rfile.read(length)

    def _handle_post(self) -> None:
        parsed = urlparse(self.path)
        kind = _POST_KINDS.get(parsed.path)
        if kind is None:
            self._send(404, {"error": f"unknown path {parsed.path}"})
            return
        try:
            body = self._read_body()
        except _BodyTooLarge as exc:
            self._send(413, {"error": str(exc)})
            return
        dispatcher = self.dispatcher
        if dispatcher is not None:
            # The admission deadline cannot cross the process boundary
            # as an object; forward what remains of it in milliseconds
            # (floored at 1 µs so an expired budget still yields the
            # worker's 504, not a ConfigError).  The body crosses raw
            # and encoded response bytes come back, keeping JSON work
            # off this thread's core.
            deadline = current_deadline()
            deadline_ms = (
                max(deadline.remaining(), 1e-6) * 1000.0
                if deadline is not None
                else None
            )
            status, response = dispatcher.run(kind, body, deadline_ms)
        else:
            status, response = run_analysis_request(self.dashboard, kind, body)
        self._send_bytes(status, response, "application/json")


class _BodyTooLarge(Exception):
    """Internal: a declared body size exceeded the configured cap."""

    def __init__(self, declared: int, cap: int) -> None:
        super().__init__(
            f"request body of {declared} bytes exceeds the {cap}-byte limit"
        )


class _ThreadedServer(ThreadingHTTPServer):
    #: Request threads die with the process (stop() still drains them
    #: gracefully via the request tracker); a burst of 64 concurrent
    #: clients must not be refused at the accept queue.
    daemon_threads = True
    request_queue_size = 128


class DashboardServer:
    """Background-thread wrapper so tests and examples can serve + query.

    ``admission`` (optional) installs an
    :class:`~repro.dashboard.admission.AdmissionController` in front of
    every request.  ``stop()`` drains: the admission layer (when
    present) turns new arrivals away with 503, the accept loop halts,
    and in-flight requests get up to ``drain_timeout`` seconds to
    finish before the sockets close — previously ``daemon_threads``
    meant they were simply abandoned mid-response.
    """

    def __init__(
        self,
        dashboard: Dashboard,
        host: str = "127.0.0.1",
        port: int = 0,
        admission: AdmissionController | None = None,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        drain_timeout: float = 5.0,
        tracer: Tracer | None = None,
        recorder: FlightRecorder | None = None,
        slo: SLOTracker | None = None,
        events: EventLog | None = None,
        dispatcher: ProcessPoolDispatcher | None = None,
    ) -> None:
        self._tracker = _RequestTracker()
        self._admission = admission
        self._drain_timeout = drain_timeout
        #: Owned by whoever built it: ``stop()`` does not shut the pool
        #: down, so one pool can outlive a server restart.
        self.dispatcher = dispatcher
        handler = type(
            "BoundHandler",
            (_Handler,),
            {
                "dashboard": dashboard,
                "tracker": self._tracker,
                "admission": admission,
                "max_body_bytes": max_body_bytes,
                "tracer": tracer,
                "recorder": recorder,
                "slo": slo,
                "events": events,
                "dispatcher": dispatcher,
            },
        )
        self._http = _ThreadedServer((host, port), handler)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._http.server_address  # type: ignore[return-value]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> None:
        # Lifecycle thread: started before any request exists, so there
        # is no ambient span or deadline to hand across.  Per-request
        # context is attached by the handler itself.
        self._thread = threading.Thread(  # lint: allow[conc-context]
            target=self._http.serve_forever, name="rased-dashboard", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._admission is not None:
            self._admission.begin_drain()
        self._http.shutdown()
        self._tracker.wait_idle(self._drain_timeout)
        self._http.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "DashboardServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
