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
* ``POST /analysis/samples`` — the drill-down behind an aggregate
  (Section IV-B): the ``/analysis`` body plus an optional ``"n"``,
  answered with up to ``n`` matching updates in ``/samples``' rows;
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

The server is threaded — RASED's pitch is a dashboard under heavy
concurrent traffic, and the whole query path (executor, cube cache,
I/O scheduler, result cache, metrics) is thread-safe.  Every in-flight
connection has a request thread to itself; a thread that finishes one
waits for the next, and the accept loop starts a thread only when none
is idle (:class:`_ThreadedServer`).  A response leaves in one write,
after its trace has been recorded, and an answer the result memo holds
is encoded once and re-sent as the same bytes (:func:`encode_result`).

Error mapping is centralized in the handler: domain errors
(:class:`~repro.errors.RasedError`, ``ValueError``) answer 400, an
expired request deadline answers 504, oversized bodies 413, and any
other exception becomes a 500 JSON error, never a connection torn down
with no response.

An optional :class:`~repro.dashboard.admission.AdmissionController`
sits in front of every request — auth, rate limits, quotas, deadlines
and load shedding; see :mod:`repro.dashboard.admission`.
"""

from __future__ import annotations

import contextvars
import functools
import json
import math
import threading
import time
from datetime import date
from http.server import BaseHTTPRequestHandler, HTTPServer
from queue import SimpleQueue
from typing import Any, Callable, Mapping
from urllib.parse import parse_qs, urlparse

from repro.baseline.sqlgen import to_sql
from repro.collection.records import UpdateRecord
from repro.types.temporal import Level
from repro.core.deadline import current_deadline, deadline_scope
from repro.core.query import AnalysisQuery, QueryResult, QueryStats
from repro.dashboard.admission import AdmissionController
from repro.dashboard.api import DEFAULT_SAMPLE_SIZE, Dashboard
from repro.dashboard.procpool import ProcessPoolDispatcher
from repro.errors import DeadlineExceededError, QueryError, RasedError, StorageError
from repro.obs import EventLog, FlightRecorder, SLOTracker, metric_key
from repro.obs.metrics import MetricKey
from repro.obs.span import Tracer, current_trace_id, record_span
from repro.obs.span import span as causal_span

_K_ENCODED_REUSED = metric_key("rased_http_encoded_reused_total")

__all__ = [
    "query_from_json",
    "result_to_json",
    "DashboardServer",
    "DEFAULT_MAX_BODY_BYTES",
    "MAX_SAMPLE_N",
]

_LEVELS = {level.label: level for level in Level}

#: Upper bound on ``n`` for the sample routes and /contributors; a
#: request for more is clamped, not rejected, so naive clients still work.
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
    "/analysis/samples",
    "/analysis/sql",
    "/analysis/live",
    "/analysis",
)
#: A request naming a family exactly (every POST) skips the prefix walk.
_FAMILY_SET = frozenset(_PATH_FAMILIES)


def _path_family(path: str) -> str:
    if path in _FAMILY_SET:
        return path
    for family in _PATH_FAMILIES:
        if path.startswith(family + "/"):
            return family
    return "other"


_M_HTTP_REQUESTS = "rased_http_requests_total"
_M_HTTP_SECONDS = "rased_http_request_seconds"


@functools.cache
def _http_keys(family: str, status: int) -> tuple[MetricKey, MetricKey]:
    """A request's counter and histogram keys, prepared once per
    ``(family, status)`` the way the executor's ``_K_*`` are."""
    return (
        metric_key(_M_HTTP_REQUESTS, path=family, status=str(status)),
        metric_key(_M_HTTP_SECONDS, path=family),
    )


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


def _answer_document(result: QueryResult) -> dict[str, object]:
    """What the wire document derives from ``(query, rows)`` alone."""
    rows = []
    for key, value in result.sorted_rows():
        cells = [
            cell.isoformat() if isinstance(cell, date) else cell for cell in key
        ]
        rows.append({"group": cells, "value": value})
    document: dict[str, object] = {
        "group_by": list(result.query.group_by),
        "metric": result.query.metric,
        "rows": rows,
        "sql": to_sql(result.query),
        "partial": result.stats.partial,
    }
    if result.sizes_as_of is not None:
        document["sizes_as_of"] = result.sizes_as_of.isoformat()
    return document


def _stats_document(stats: QueryStats) -> dict[str, object]:
    """The per-request part: this execution's counters and clocks."""
    return {
        "cube_count": stats.cube_count,
        "cache_hits": stats.cache_hits,
        "disk_reads": stats.disk_reads,
        "quarantined_cubes": stats.quarantined_cubes,
        "simulated_ms": stats.simulated_ms,
        "wall_ms": stats.wall_seconds * 1000.0,
        "phases": stats.phase_rows(),
    }


def result_to_json(result: QueryResult) -> dict[str, object]:
    """Serialize a QueryResult for the wire."""
    document = _answer_document(result)
    document["stats"] = _stats_document(result.stats)
    return document


def _samples_document(records: list[UpdateRecord]) -> dict[str, object]:
    """Sample rows as the sample routes send them: each row's TSV fields."""
    return {"samples": [r.to_tsv().split("\t") for r in records]}


def _json_bytes(document: object) -> bytes:
    # default=str covers non-JSON leaves in dumped span attributes
    # (TemporalKey page keys are stored raw on the fetch hot path).
    return json.dumps(document, default=str).encode("utf-8")


#: ``json.dumps(value, default=str)`` without building an encoder per call.
_to_json = json.JSONEncoder(default=str).encode


@functools.lru_cache(maxsize=2048)
def _row_prefix(group: tuple[Any, ...]) -> str:
    """One answer row up to its value, as ``json.dumps`` writes it.

    Label rows recur across answers: they come from a closed set of a
    few hundred zone and road-type names.  2048 entries hold that set
    with room for the date-series rows passing through, which seldom
    recur (``benchmarks/bench_cold_read.py`` reports the hit ratio and
    the encode without this cache)."""
    cells = [cell.isoformat() if isinstance(cell, date) else cell for cell in group]
    return '{"group": ' + _to_json(cells) + ', "value": '


def encode_result(result: QueryResult) -> tuple[bytes, bool]:
    """A QueryResult as response bytes: ``(body, head re-sent)``.

    The body is ``json.dumps(result_to_json(result), default=str)``,
    byte for byte, assembled as *head* + ``stats`` + ``}``.  The head
    depends on the query and its rows alone, so the first request to
    encode a memo entry (``result.memo``) leaves it there and every
    later hit sends it as is; a result with no entry is encoded whole.
    The head is joined from fragments: per row, its cached JSON prefix
    and its value (an int as ``int.__repr__`` writes it, as json does).
    """
    entry = result.memo
    head = entry.head if entry is not None else None
    reused = head is not None
    if head is None:
        query = result.query
        rows = ", ".join([
            _row_prefix(group)
            + (int.__repr__(value) if type(value) is int else _to_json(value))
            + "}"
            for group, value in result.sorted_rows()
        ])
        sizes = result.sizes_as_of
        head = (
            f'{{"group_by": {_to_json(list(query.group_by))}, '
            f'"metric": {_to_json(query.metric)}, "rows": [{rows}], '
            f'"sql": {_to_json(to_sql(query))}, '
            f'"partial": {_to_json(result.stats.partial)}, '
            + ("" if sizes is None else f'"sizes_as_of": "{sizes.isoformat()}", ')
            + '"stats": '
        ).encode("utf-8")
        if entry is not None:
            entry.head = head
    return head + _json_bytes(_stats_document(result.stats)) + b"}", reused


#: ``POST`` path -> the request kind :func:`run_analysis_request` runs.
_POST_KINDS = {
    "/analysis": "analysis",
    "/analysis/live": "live",
    "/analysis/sql": "sql",
    "/analysis/samples": "samples",
}


def _error_response(exc: Exception) -> tuple[int, dict[str, object]]:
    """The one failure -> ``(status, document)`` mapping of every route."""
    if isinstance(exc, DeadlineExceededError):
        return 504, {"error": str(exc)}
    if isinstance(exc, StorageError):  # the store failed, not the request
        return 503, {"error": str(exc)}
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
        elif kind == "samples":
            query = query_from_json(payload)
            n = _clamped_count(payload.get("n", DEFAULT_SAMPLE_SIZE))
            return 200, _json_bytes(_samples_document(dashboard.sample_for_query(query, n)))
        else:
            raise QueryError(f"unknown request kind {kind!r}")
        started = time.perf_counter()
        response, reused = encode_result(result)
        record_span(
            "server.encode",
            time.perf_counter() - started,
            attributes={"bytes": len(response), "reused": reused},
        )
        if reused:
            dashboard.metrics.inc_key(_K_ENCODED_REUSED)
        return 200, response
    except Exception as exc:  # lint: allow[broad-except] request boundary: every failure must map to a JSON error document, not a broken future
        status, document = _error_response(exc)
        return status, _json_bytes(document)


def _clamped_count(raw: object) -> int:
    """Parse an ``n`` (``?n=`` text or a JSON number) defensively:
    reject garbage, clamp the greedy."""
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise QueryError(f"n must be an integer, got {raw!r}")
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
        self._send_bytes(
            status, _json_bytes(payload), "application/json", extra_headers
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
        """Write the staged response: head and body in one ``sendall``."""
        pending = self._pending
        if pending is None:
            return
        self._pending = None
        status, body, content_type, headers = pending
        phrase = self.responses[status][0] if status in self.responses else ""
        lines = [
            f"{self.protocol_version} {status} {phrase}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            *(f"{name}: {value}" for name, value in headers.items()),
            "\r\n",
        ]
        if self.request_version == "HTTP/0.9":
            lines = []  # that protocol has no head
        self.wfile.write("\r\n".join(lines).encode("latin-1") + body)

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
        # Parsed once: handlers route on ``_url``, labels are ``_family``.
        self._url = urlparse(self.path)
        family = self._family = _path_family(self._url.path)
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
                requests_key, seconds_key = _http_keys(family, self._status)
                self.dashboard.metrics.record_batch(
                    ((requests_key, 1.0),), ((seconds_key, elapsed),)
                )
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
                admission.record_deadline_hit(self._family)
        finally:
            admission.release()

    def _run_guarded(self, handler: Callable[[], None]) -> None:
        """Run a handler with the full error -> status mapping."""
        try:
            handler()
        except Exception as exc:
            status, document = _error_response(exc)
            if status == 500 and self._responded:
                raise
            self._send(status, document)

    def do_GET(self) -> None:  # noqa: N802
        self._timed(self._handle_get)

    def _handle_get(self) -> None:
        parsed = self._url
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
            if self.dispatcher is not None:
                # A lost pool worker is dropped, not respawned: fewer
                # alive than started is a degraded pool.
                alive = self.dispatcher.alive()
                payload["workers"] = {
                    "alive": alive,
                    "started": self.dispatcher.workers,
                }
                if alive < self.dispatcher.workers:
                    payload["status"] = "degraded"
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
            n = _clamped_count(params.get("n", [DEFAULT_SAMPLE_SIZE])[0])
            self._send(200, _samples_document(self.dashboard.sample_updates(zone, n=n)))
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
            n = _clamped_count(params.get("n", [10])[0])
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

        A negative length would make ``rfile.read(-1)`` block for EOF
        and a huge one allocate the whole declared size: malformed or
        negative lengths answer 400, anything over ``max_body_bytes``
        answers 413 without reading.
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
        kind = _POST_KINDS.get(self._url.path)
        if kind is None:
            self._send(404, {"error": f"unknown path {self._url.path}"})
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


#: ``(socket, client address)``, as ``socketserver`` passes them around.
_Connection = tuple[Any, Any]


class _ThreadedServer(HTTPServer):
    """A request thread per in-flight connection, reused when idle.

    An idle thread waits on a mailbox of its own, listed in ``_idle``;
    the accept loop gives a connection to the most recently idle thread
    and starts a thread exactly when none is listed, so a connection
    never waits behind a busy one.  ``list.append``/``pop`` are atomic
    under the GIL: the list needs no lock.
    """

    #: A burst of 64 concurrent clients must not be refused at the
    #: accept queue.
    request_queue_size = 128

    def __init__(
        self, address: tuple[str, int], handler: type[BaseHTTPRequestHandler]
    ) -> None:
        super().__init__(address, handler)
        self._idle: list[SimpleQueue[_Connection | None]] = []
        self._stopping = False
        #: Every request thread started; only the accept loop appends.
        self._threads: list[threading.Thread] = []

    def process_request(self, request: Any, client_address: Any) -> None:
        """The accept loop's hand-off of one accepted connection."""
        connection = (request, client_address)
        try:
            self._idle.pop().put(connection)
        except IndexError:
            # Daemon: dies with the process (stop() still drains
            # gracefully).  An accepted connection predates any request
            # context, so there is no span or deadline to hand on.
            thread = threading.Thread(
                target=self._serve_connections,
                args=(connection,),
                name=f"rased-http-{len(self._threads) + 1}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def _serve_connections(self, connection: _Connection | None) -> None:
        """A request thread's life: one connection after another."""
        mailbox: SimpleQueue[_Connection | None] = SimpleQueue()
        while connection is not None:
            request, client_address = connection
            try:
                # A context of its own per connection: whatever span or
                # deadline the previous one had in scope is not in this.
                contextvars.Context().run(
                    self.finish_request, request, client_address
                )
            except Exception:  # lint: allow[broad-except] socketserver's contract: report and keep serving
                self.handle_error(request, client_address)
            # Idle from here, before the close tells the client it may
            # send its next request: closing cannot block.
            self._idle.append(mailbox)
            if self._stopping:
                mailbox.put(None)
            try:
                self.shutdown_request(request)
            except OSError:
                pass  # the peer is gone; there is nobody left to tell
            connection = mailbox.get()

    def end_request_threads(self) -> None:
        """After the accept loop has halted: an idle thread ends now, a
        busy one when its connection does (it finds ``_stopping``)."""
        self._stopping = True
        while self._idle:
            self._idle.pop().put(None)
        # Idle threads are ending and one flushing its response is about
        # to: a second covers them all.  One still inside a request, or
        # waiting on a silent client, is abandoned (daemon).
        patience = time.monotonic() + 1.0
        for thread in self._threads:
            thread.join(timeout=max(0.0, patience - time.monotonic()))


class DashboardServer:
    """Background-thread wrapper so tests and examples can serve + query.

    ``admission`` (optional) installs an
    :class:`~repro.dashboard.admission.AdmissionController` in front of
    every request.  ``stop()`` drains: the admission layer (when
    present) turns new arrivals away with 503, the accept loop halts,
    in-flight requests get up to ``drain_timeout`` seconds to finish,
    and the request threads end — an idle one at once, a busy one when
    its request does.
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
        self._thread = threading.Thread(
            target=self._http.serve_forever, name="rased-dashboard", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._admission is not None:
            self._admission.begin_drain()
        self._http.shutdown()
        self._tracker.wait_idle(self._drain_timeout)
        self._http.server_close()
        self._http.end_request_threads()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "DashboardServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
