"""The front door's three economies, pinned from outside.

* a memoized answer leaves as the bytes it first left as
  (:class:`TestByteIdentity`, :class:`TestVersioning`);
* request threads are reused (:class:`TestRequestThreads`);
* a response is one write (:class:`TestWire`).
"""

from __future__ import annotations

import contextvars
import email.utils
import http.client
import json
import socket
import threading
from datetime import date, datetime, timedelta, timezone
from http.server import BaseHTTPRequestHandler

import pytest

from tests.conftest import INGESTED_END
from tests.test_server_errors import _TickingClock
from repro.core.deadline import current_deadline
from repro.core.executor import QueryExecutor
from repro.core.resultcache import EpochCounter, ResultCache
from repro.dashboard.admission import AdmissionConfig, AdmissionController
from repro.dashboard.api import Dashboard
from repro.dashboard.server import (
    DashboardServer,
    query_from_json,
    result_to_json,
    run_analysis_request,
)
from repro.obs import FlightRecorder, MetricsRegistry
from repro.obs.span import Tracer, current_trace_id
from repro.storage.disk import InMemoryDisk
from repro.synth.simulator import SimulationConfig
from repro.system import RasedSystem, SystemConfig


def post(server, path: str, body: dict, headers: dict | None = None):
    """``(status, body bytes, headers)`` of one POST on its own connection."""
    connection = http.client.HTTPConnection(*server.address, timeout=30)
    try:
        connection.request("POST", path, body=json.dumps(body), headers=headers or {})
        response = connection.getresponse()
        return response.status, response.read(), response.headers
    finally:
        connection.close()


def answer_of(body: bytes) -> bytes:
    """A response body up to its per-request ``stats``."""
    head, marker, _ = body.partition(b', "stats": ')
    assert marker, body[:200]
    return head


def stats_of(body: bytes) -> dict:
    return json.loads(body)["stats"]


def raw_exchange(server, request: bytes) -> tuple[bytes, list[tuple[str, str]], bytes]:
    """``(status line, [(header, value)] in order, body)`` off the socket.

    Reads until the server closes, so when this returns the request
    thread has nothing left to do but go idle.
    """
    with socket.create_connection(server.address, timeout=30) as sock:
        sock.send(request)
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    head, _, body = received.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = [tuple(line.split(": ", 1)) for line in lines]
    return status_line.encode(), headers, body


def post_bytes(path: str, body: bytes, extra: str = "") -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body)}\r\n"
        f"{extra}\r\n"
    ).encode() + body


# -- (1) byte identity ---------------------------------------------------------


def _window(days: int) -> dict:
    start = INGESTED_END - timedelta(days=days - 1)
    return {"start": start.isoformat(), "end": INGESTED_END.isoformat()}


def _request_shapes() -> list[dict]:
    """The three ``dashboard_mix`` shapes over 30- and 365-day windows,
    as counts and as percentages, plus a date series per granularity."""
    bodies = []
    for days in (30, 365):
        for metric in ("count", "percentage"):
            common = dict(_window(days), metric=metric)
            bodies.append(  # Example 1: country analysis
                dict(
                    common,
                    update_types=["create", "geometry"],
                    group_by=["country", "element_type"],
                )
            )
            bodies.append(  # Example 2: road types of one country
                dict(
                    common,
                    countries=["germany"],
                    update_types=["create", "geometry"],
                    group_by=["road_type", "element_type"],
                )
            )
            bodies.append(  # Example 3: comparative time series
                dict(
                    common,
                    countries=["germany", "qatar", "united_states"],
                    group_by=["country", "date"],
                    date_granularity="week" if days > 120 else "day",
                )
            )
    for granularity in ("day", "week", "month", "year"):
        bodies.append(
            dict(_window(365), group_by=["date"], date_granularity=granularity)
        )
    return bodies


@pytest.fixture()
def memo_dashboard(ingested_system):
    """A memoizing engine of its own over the shared (read-only) index."""
    metrics = MetricsRegistry()
    epoch = EpochCounter()
    executor = QueryExecutor(
        ingested_system.index,
        cache=ingested_system.cache,
        network_sizes=ingested_system.network_sizes,
        metrics=metrics,
        result_cache=ResultCache(64, epoch, metrics=metrics),
    )
    dashboard = Dashboard(executor, ingested_system.atlas, metrics=metrics)
    return dashboard, epoch


class TestByteIdentity:
    def test_miss_hit_and_reference_encoding_agree(self, memo_dashboard):
        dashboard, _ = memo_dashboard
        with DashboardServer(dashboard) as server:
            for body in _request_shapes():
                status, miss, _ = post(server, "/analysis", body)
                assert status == 200, miss
                status, hit, _ = post(server, "/analysis", body)
                assert status == 200
                result = dashboard.analysis(query_from_json(body))
                reference = json.dumps(result_to_json(result), default=str).encode()
                assert json.loads(miss)["rows"], body  # a real table, not {}
                assert answer_of(miss) == answer_of(hit) == answer_of(reference)
                # The whole body is one canonical dump, stats included.
                for sent in (miss, hit):
                    assert json.dumps(json.loads(sent)).encode() == sent
                # The hit's stats are its own, not the miss's re-sent.
                assert stats_of(miss)["cube_count"] > 0
                assert stats_of(miss)["phases"]
                assert stats_of(hit)["cube_count"] == 0
                assert stats_of(hit)["phases"] == []
                assert stats_of(hit)["wall_ms"] != stats_of(miss)["wall_ms"]
        reused = dashboard.metrics.value("rased_http_encoded_reused_total")
        assert reused == len(_request_shapes())  # each HTTP hit, nothing else

    def test_a_pool_worker_saves_the_same(self, memo_dashboard):
        """``run_analysis_request`` is what a ``--workers`` process runs."""
        dashboard, _ = memo_dashboard
        body = json.dumps(_request_shapes()[0]).encode()
        status, miss = run_analysis_request(dashboard, "analysis", body)
        status_again, hit = run_analysis_request(dashboard, "analysis", body)
        assert status == status_again == 200
        assert answer_of(miss) == answer_of(hit)
        assert stats_of(hit)["cube_count"] == 0
        assert dashboard.metrics.value("rased_http_encoded_reused_total") == 1

    def test_hit_reads_the_stored_rows_in_place(self, memo_dashboard):
        """No copy is made for a request that only encodes."""
        dashboard, _ = memo_dashboard
        query = query_from_json(_request_shapes()[0])
        dashboard.analysis(query)
        hit = dashboard.analysis(query)
        entry = hit.memo
        assert entry is not None and hit.stats.memo_hit
        assert hit.sorted_rows() and hit.total > 0  # read in place...
        assert hit.memo is entry  # ...so still the entry's answer
        mine = hit.rows  # a caller taking rows of its own gets a copy
        assert mine == entry.rows and mine is not entry.rows
        assert hit.memo is None


# -- (2) versioning ------------------------------------------------------------

JULY = {"start": "2021-07-01", "end": "2021-07-31", "group_by": ["country"]}


def build_memo_system(atlas, slots: int = 32, cache_slots: int = 8) -> RasedSystem:
    """Three July days ingested, memo on; small enough to build per test."""
    system = RasedSystem.create(
        atlas=atlas,
        store=InMemoryDisk(read_latency=0.0, write_latency=0.0),
        config=SystemConfig(
            road_types=8,
            cache_slots=cache_slots,
            result_cache_slots=slots,
            simulation=SimulationConfig(
                seed=23, mapper_count=20, base_sessions_per_day=6, nodes_per_country=8
            ),
        ),
    )
    for day in (1, 2, 3):
        system.publish_day(date(2021, 7, day), hourly=True)
    system.pipeline.run_daily()
    return system


def total_of(body: bytes) -> float:
    return sum(row["value"] for row in json.loads(body)["rows"])


class TestVersioning:
    def test_a_bump_re_encodes_and_an_ingest_changes_the_bytes(self, atlas):
        system = build_memo_system(atlas)
        reused = lambda: system.metrics.value("rased_http_encoded_reused_total")  # noqa: E731
        with DashboardServer(system.dashboard) as server:
            _, first, _ = post(server, "/analysis", JULY)
            _, again, _ = post(server, "/analysis", JULY)
            assert answer_of(again) == answer_of(first) and reused() == 1
            system.epoch.bump()
            _, bumped, _ = post(server, "/analysis", JULY)
            assert reused() == 1  # encoded afresh at the new epoch
            assert stats_of(bumped)["cube_count"] > 0
            assert answer_of(bumped) == answer_of(first)  # same data, same bytes
            system.publish_day(date(2021, 7, 4))
            system.pipeline.run_daily()
            _, after, _ = post(server, "/analysis", JULY)
            assert reused() == 1
            assert total_of(after) > total_of(first)  # day 4, not the old bytes
            _, after_hit, _ = post(server, "/analysis", JULY)
            assert answer_of(after_hit) == answer_of(after) and reused() == 2

    def test_evicted_and_cleared_entries_leave_no_bytes(self, atlas):
        system = build_memo_system(atlas, slots=1)
        memo = system.result_cache
        other = dict(JULY, group_by=["element_type"])
        with DashboardServer(system.dashboard) as server:
            post(server, "/analysis", JULY)
            entry = memo.get(query_from_json(JULY))
            assert entry is not None and entry.head is not None
            post(server, "/analysis", other)  # one slot: evicts JULY
            assert memo.get(query_from_json(JULY)) is None
            _, recomputed, _ = post(server, "/analysis", JULY)
            assert stats_of(recomputed)["cube_count"] > 0
            memo.clear()
            assert memo.cached_count == 0
            _, cleared, _ = post(server, "/analysis", JULY)
            assert stats_of(cleared)["cube_count"] > 0
        assert system.metrics.value("rased_http_encoded_reused_total") == 0

    def test_a_partial_answer_is_encoded_every_time(self, atlas):
        system = build_memo_system(atlas, cache_slots=0)
        system.index.store.delete("cubes/D2021-07-02")
        with DashboardServer(system.dashboard) as server:
            for _ in range(2):
                status, body, _ = post(server, "/analysis", JULY)
                assert status == 200
                assert json.loads(body)["partial"] is True
        assert system.result_cache.cached_count == 0
        assert system.metrics.value("rased_http_encoded_reused_total") == 0

    def test_live_overlay_neither_reads_nor_writes_the_bytes(self, atlas):
        system = build_memo_system(atlas)
        system.publisher.publish_partial_day(date(2021, 7, 5), through_hour=6)
        system.poll_live()
        with DashboardServer(system.dashboard) as server:
            _, plain, _ = post(server, "/analysis", JULY)
            entry = system.result_cache.get(query_from_json(JULY))
            stored = entry.head
            assert stored is not None
            _, live, _ = post(server, "/analysis/live", JULY)
            assert stats_of(live)["cube_count"] == 0  # rows from the memo...
            assert total_of(live) > total_of(plain)  # ...bytes not: overlaid
            assert entry.head is stored
            _, plain_again, _ = post(server, "/analysis", JULY)
            assert answer_of(plain_again) == answer_of(plain)
        # Only the second plain request re-sent bytes.
        assert system.metrics.value("rased_http_encoded_reused_total") == 1

    def test_a_live_miss_stores_no_bytes(self, atlas):
        system = build_memo_system(atlas)
        system.publisher.publish_partial_day(date(2021, 7, 5), through_hour=6)
        system.poll_live()
        with DashboardServer(system.dashboard) as server:
            _, live, _ = post(server, "/analysis/live", JULY)
            entry = system.result_cache.get(query_from_json(JULY))
            assert entry is not None and entry.head is None
            _, plain, _ = post(server, "/analysis", JULY)
            assert total_of(plain) < total_of(live)  # the memo holds plain rows

    def test_sql_shares_the_entry(self, atlas):
        system = build_memo_system(atlas)
        sql = (
            "SELECT U.Country, COUNT(*) FROM UpdateList U WHERE U.Date "
            "BETWEEN 2021-07-01 AND 2021-07-31 GROUP BY U.Country"
        )
        with DashboardServer(system.dashboard) as server:
            _, plain, _ = post(server, "/analysis", JULY)
            status, via_sql, _ = post(server, "/analysis/sql", {"sql": sql})
            assert status == 200
            assert stats_of(via_sql)["cube_count"] == 0
            assert answer_of(via_sql) == answer_of(plain)
        assert system.metrics.value("rased_http_encoded_reused_total") == 1


# -- (4) request threads -------------------------------------------------------


@pytest.fixture()
def traced_server(ingested_system):
    recorder = FlightRecorder(capacity=512, sample_every=1, metrics=MetricsRegistry())
    server = DashboardServer(
        ingested_system.dashboard, tracer=Tracer(recorder=recorder), recorder=recorder
    )
    with server:
        yield server, recorder


def get(server, path: str = "/zones", headers: dict | None = None):
    connection = http.client.HTTPConnection(*server.address, timeout=30)
    try:
        connection.request("GET", path, headers=headers or {})
        response = connection.getresponse()
        return response.status, response.read(), response.headers
    finally:
        connection.close()


def http_threads() -> set[threading.Thread]:
    return {t for t in threading.enumerate() if t.name.startswith("rased-http-")}


class TestRequestThreads:
    def test_sequential_requests_reuse_their_thread(self, traced_server):
        server, recorder = traced_server
        for _ in range(200):
            line, _, _ = raw_exchange(server, b"GET /zones HTTP/1.0\r\n\r\n")
            assert line == b"HTTP/1.0 200 OK"
        traces = recorder.list(limit=512)
        assert len(traces) == 200
        names = {span.thread_name for trace in traces for span in trace.spans}
        assert 1 <= len(names) <= 2, names
        assert all(name.startswith("rased-http-") for name in names)

    def test_a_burst_gets_a_thread_per_connection(self, ingested_system):
        """64 connections held open at once are all answered: none waits
        for a thread, busy or idle, that a new one would have replaced."""
        with DashboardServer(ingested_system.dashboard) as server:
            get(server)  # leaves one idle thread behind
            sockets = []
            try:
                for _ in range(64):
                    sock = socket.create_connection(server.address, timeout=30)
                    sock.sendall(b"GET /zones HTTP/1.0\r\n")  # ...and stalls
                    sockets.append(sock)
                for sock in sockets:  # in connect order: each needs its own thread
                    sock.sendall(b"\r\n")
                    received = b""
                    while chunk := sock.recv(65536):
                        received += chunk
                    assert received.startswith(b"HTTP/1.0 200 OK\r\n")
            finally:
                for sock in sockets:
                    sock.close()
            assert get(server)[0] == 200  # and the idle ones serve on

    def test_a_request_inherits_nothing_from_its_thread(self, ingested_system):
        leaked: contextvars.ContextVar[str] = contextvars.ContextVar("leaked")
        seen: list[tuple] = []
        inner = ingested_system.dashboard

        class Spy:
            """The dashboard, reporting what each request finds in scope —
            and leaving something behind, as a buggy handler might."""

            metrics = inner.metrics
            atlas = inner.atlas

            def analysis(self, query):
                seen.append(
                    (
                        threading.current_thread().name,
                        current_deadline(),
                        current_trace_id(),
                        leaked.get(None),
                    )
                )
                leaked.set("left behind")
                return inner.analysis(query)

        admission = AdmissionController(AdmissionConfig(shed_threshold=100))
        recorder = FlightRecorder(metrics=MetricsRegistry())
        body = json.dumps({"start": "2021-01-01", "end": "2021-01-31"}).encode()
        server = DashboardServer(
            Spy(), admission=admission, tracer=Tracer(recorder=recorder), recorder=recorder
        )
        with server:
            for _ in range(20):
                first, _, _ = raw_exchange(
                    server, post_bytes("/analysis", body, "X-Deadline-Ms: 60000\r\n")
                )
                second, _, _ = raw_exchange(server, post_bytes("/analysis", body))
                assert first == second == b"HTTP/1.0 200 OK"
        pairs = list(zip(seen[0::2], seen[1::2]))
        assert len(pairs) == 20
        same_thread = [(a, b) for a, b in pairs if a[0] == b[0]]
        assert same_thread, "no pair shared a request thread"
        for with_deadline, without in pairs:
            assert with_deadline[1] is not None
            assert without[1] is None  # no deadline left over
        trace_ids = [entry[2] for entry in seen]
        assert None not in trace_ids and len(set(trace_ids)) == len(seen)
        assert all(entry[3] is None for entry in seen)  # each context starts empty

    def test_an_expired_deadline_does_not_outlive_its_request(self, ingested_system):
        admission = AdmissionController(
            AdmissionConfig(shed_threshold=100), clock=_TickingClock(tick=0.01)
        )
        body = {"start": "2021-01-01", "end": "2021-01-31"}
        with DashboardServer(ingested_system.dashboard, admission=admission) as server:
            for _ in range(5):
                status, _, _ = post(server, "/analysis", body, {"X-Deadline-Ms": "1"})
                assert status == 504
                status, _, _ = post(server, "/analysis", body)
                assert status == 200

    def test_stop_ends_the_threads_and_a_second_server_starts_clean(
        self, ingested_system
    ):
        others = http_threads()
        first = DashboardServer(ingested_system.dashboard)
        first.start()
        for _ in range(3):
            assert get(first)[0] == 200
        mine = http_threads() - others
        assert mine and all(thread.is_alive() for thread in mine)
        first.stop()
        assert not any(thread.is_alive() for thread in mine)
        assert http_threads() - others == set()
        with DashboardServer(ingested_system.dashboard) as second:
            assert get(second)[0] == 200
            fresh = http_threads() - others
            assert [thread.name for thread in fresh] == ["rased-http-1"]
        assert http_threads() - others == set()


# -- (5) the wire --------------------------------------------------------------


@pytest.fixture()
def sendall_calls(monkeypatch):
    """Every ``sendall`` made meanwhile, as ``(local port, byte count)``."""
    calls: list[tuple[int, int]] = []
    original = socket.socket.sendall

    def recording(sock, data, *flags):
        calls.append((sock.getsockname()[1], len(data)))
        return original(sock, data, *flags)

    monkeypatch.setattr(socket.socket, "sendall", recording)
    return calls


class TestWire:
    GOOD = json.dumps({"start": "2021-01-01", "end": "2021-01-31"}).encode()

    def check(self, server, calls, request, status_line, names, content_type):
        del calls[:]
        line, headers, body = raw_exchange(server, request)
        assert line == status_line
        assert [name for name, _ in headers] == names
        values = dict(headers)
        handler = BaseHTTPRequestHandler
        assert values["Server"] == f"{handler.server_version} {handler.sys_version}"
        sent_at = email.utils.parsedate_to_datetime(values["Date"])
        assert abs(datetime.now(timezone.utc) - sent_at) < timedelta(seconds=60)
        assert values["Date"].endswith(" GMT")
        assert values["Content-Type"] == content_type
        assert int(values["Content-Length"]) == len(body)
        # One write, head and body together, on the server's side.
        port = server.address[1]
        assert [size for local, size in calls if local == port] == [
            len(line) + 2 + sum(len(f"{n}: {v}") + 2 for n, v in headers) + 2 + len(body)
        ]
        return values, body

    BASE = ["Server", "Date", "Content-Type", "Content-Length"]
    JSON = "application/json"

    def test_unguarded_responses(self, ingested_system, sendall_calls):
        server = DashboardServer(ingested_system.dashboard, max_body_bytes=256)
        with server:
            _, body = self.check(
                server, sendall_calls, post_bytes("/analysis", self.GOOD),
                b"HTTP/1.0 200 OK", self.BASE, self.JSON,
            )  # fmt: skip
            assert json.loads(body)["rows"]
            self.check(
                server, sendall_calls, post_bytes("/analysis", b"{not json"),
                b"HTTP/1.0 400 Bad Request", self.BASE, self.JSON,
            )  # fmt: skip
            self.check(
                server, sendall_calls, b"GET /nowhere HTTP/1.0\r\n\r\n",
                b"HTTP/1.0 404 Not Found", self.BASE, self.JSON,
            )  # fmt: skip
            self.check(
                server, sendall_calls, post_bytes("/analysis", b"x" * 300),
                b"HTTP/1.0 413 Request Entity Too Large", self.BASE, self.JSON,
            )  # fmt: skip
            _, text = self.check(
                server, sendall_calls, b"GET /metrics HTTP/1.0\r\n\r\n",
                b"HTTP/1.0 200 OK", self.BASE,
                "text/plain; version=0.0.4; charset=utf-8",
            )  # fmt: skip
            assert b"# TYPE rased_http_requests_total counter" in text

    def test_throttled_is_429_with_retry_after(self, ingested_system, sendall_calls):
        admission = AdmissionController(AdmissionConfig(rate_limit=1.0, burst=1.0))
        with DashboardServer(ingested_system.dashboard, admission=admission) as server:
            raw_exchange(server, b"GET /zones HTTP/1.0\r\n\r\n")
            values, _ = self.check(
                server, sendall_calls, b"GET /zones HTTP/1.0\r\n\r\n",
                b"HTTP/1.0 429 Too Many Requests", self.BASE + ["Retry-After"], self.JSON,
            )  # fmt: skip
            assert int(values["Retry-After"]) >= 1

    def test_expired_deadline_is_504_and_carries_its_trace_id(
        self, ingested_system, sendall_calls
    ):
        admission = AdmissionController(
            AdmissionConfig(default_deadline_ms=1), clock=_TickingClock(tick=0.01)
        )
        recorder = FlightRecorder(metrics=MetricsRegistry())
        server = DashboardServer(
            ingested_system.dashboard,
            admission=admission,
            tracer=Tracer(recorder=recorder),
            recorder=recorder,
        )
        with server:
            values, _ = self.check(
                server, sendall_calls, post_bytes("/analysis", self.GOOD),
                b"HTTP/1.0 504 Gateway Timeout", self.BASE + ["X-Trace-Id"], self.JSON,
            )  # fmt: skip
            # Written after the trace closed: the id is already retrievable.
            assert recorder.get(values["X-Trace-Id"]) is not None
