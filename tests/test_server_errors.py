"""HTTP error-path tests: the front door under hostile or broken input.

Covers the Content-Length bugfixes (negative/garbage -> 400, oversized
-> 413), the catch-all 500 (previously the connection just died and the
metric recorded ``status="0"``), ``?n=`` clamping, and the admission
layer observed through real HTTP: 401/429/503 with ``Retry-After``,
server-side deadlines answering 504, and graceful drain on ``stop()``.
"""

from __future__ import annotations

import http.client
import json
import random
import time
import urllib.error
import urllib.request

import pytest

from repro.core.deadline import Deadline, deadline_scope

from repro.dashboard.admission import (
    AdmissionConfig,
    AdmissionController,
    Tenant,
    TenantRegistry,
)
from repro.dashboard.server import (
    DashboardServer,
    MAX_SAMPLE_N,
    run_analysis_request,
)


@pytest.fixture(scope="module")
def server(ingested_system):
    with DashboardServer(ingested_system.dashboard) as running:
        yield running


def http_get(server, path, headers=None):
    request = urllib.request.Request(server.url + path, headers=headers or {})
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), error.headers


def raw_post(server, path, body: bytes, content_length: str | None):
    """POST with full control over the Content-Length header."""
    host, port = server.address
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        connection.putrequest("POST", path)
        connection.putheader("Content-Type", "application/json")
        if content_length is not None:
            connection.putheader("Content-Length", content_length)
        connection.endheaders()
        if body:
            connection.send(body)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestContentLengthValidation:
    def test_garbage_content_length_is_400(self, server):
        status, payload = raw_post(server, "/analysis", b"", "banana")
        assert status == 400
        assert "Content-Length" in payload["error"]

    def test_negative_content_length_is_400(self, server):
        # Previously int("-1") passed and rfile.read(-1) blocked waiting
        # for EOF on the keep-alive socket until the client gave up.
        status, payload = raw_post(server, "/analysis", b"", "-1")
        assert status == 400
        assert "non-negative" in payload["error"]

    def test_oversized_body_is_413(self, ingested_system):
        with DashboardServer(
            ingested_system.dashboard, max_body_bytes=64
        ) as small:
            body = b"{" + b" " * 200 + b"}"
            status, payload = raw_post(
                small, "/analysis", body, str(len(body))
            )
            assert status == 413
            assert "64-byte limit" in payload["error"]

    def test_body_within_cap_still_works(self, server):
        body = json.dumps({"start": "2021-01-01", "end": "2021-01-07"}).encode()
        status, payload = raw_post(server, "/analysis", body, str(len(body)))
        assert status == 200
        assert payload["rows"]


#: Bodies that are the client's fault.  Each used to answer 500
#: ``internal error`` — an availability miss on the SLO tracker and a
#: kept error trace — because a ``TypeError``/``AttributeError``/
#: ``OverflowError`` escaped the request parser.
MALFORMED_BODIES = [
    ("/analysis", "[]"),
    ("/analysis", '"x"'),
    ("/analysis", "5"),
    ("/analysis", "null"),
    ("/analysis", '{"start": 20210101, "end": "2021-01-05"}'),
    ("/analysis", '{"start": "2021-01-01", "end": "2021-01-05", "group_by": 5}'),
    ("/analysis", '{"start": "2021-01-01", "end": "2021-01-05", "group_by": [5]}'),
    ("/analysis", '{"start": "2021-01-01", "end": "2021-01-05", "countries": [5]}'),
    ("/analysis", '{"start": "2021-01-01", "end": "2021-01-05", "road_types": "x"}'),
    ("/analysis/sql", "[]"),
    ("/analysis/sql", "5"),
    ("/analysis/sql", '{"sql": 5}'),
    ("/analysis", '{"start": "0001-01-01", "end": "9999-12-31"}'),
    ("/analysis/live", '{"start": "0001-01-01", "end": "9999-12-31"}'),
    (
        "/analysis/sql",
        '{"sql": "SELECT COUNT(*) FROM UpdateList U '
        'WHERE U.Date BETWEEN 0001-01-01 AND 9999-12-31"}',
    ),
    # Ten thousand years of daily points: bounded, not planned.
    (
        "/analysis",
        '{"start": "0001-01-01", "end": "9998-12-30", "group_by": ["date"]}',
    ),
]


class TestMalformedBodies:
    @pytest.mark.parametrize("path,body", MALFORMED_BODIES)
    def test_malformed_body_is_400(self, server, path, body):
        started = time.perf_counter()
        status, payload = raw_post(
            server, path, body.encode(), str(len(body.encode()))
        )
        assert status == 400, payload
        assert "internal error" not in payload["error"]
        assert time.perf_counter() - started < 0.5

    def test_null_group_by_and_filters_mean_absent(self, server):
        body = json.dumps(
            {
                "start": "2021-01-01",
                "end": "2021-01-07",
                "group_by": None,
                "countries": None,
            }
        ).encode()
        status, payload = raw_post(server, "/analysis", body, str(len(body)))
        assert status == 200 and payload["group_by"] == []

    @pytest.mark.fuzz
    def test_any_json_body_is_answered_without_a_5xx(self, ingested_system):
        """Whatever JSON value arrives on an ``/analysis*`` route, the
        answer is 200, 400 or (budget spent) 504 — never a 5xx that
        burns the error budget for a confused client."""
        seed = 20260901
        rng = random.Random(seed)
        dates = [
            "2021-01-01", "2021-01-20", "2021-02-28", "2021-13-01", "0001-01-01",
            "9998-12-31", "9999-12-31", "1500-01-01", "2500-01-01", "", "today",
        ]
        words = [
            "country", "date", "element_type", "road_type", "update_type",
            "germany", "way", "create", "count", "percentage", "day", "week",
            "month", "year", "x", "",
        ]
        fields = [
            "start", "end", "group_by", "element_types", "countries",
            "road_types", "update_types", "metric", "date_granularity", "sql",
        ]

        def value(depth=0):
            kind = rng.randrange(9 if depth < 2 else 6)
            if kind == 0:
                return None
            if kind == 1:
                return rng.choice([True, False])
            if kind == 2:
                return rng.choice([0, -1, 5, 20210101, 2**63, 1.5, 1e308])
            if kind == 3:
                return rng.choice(dates)
            if kind in (4, 5):
                return rng.choice(words)
            if kind == 6:
                return [value(depth + 1) for _ in range(rng.randrange(4))]
            if kind == 7:
                return [rng.choice(words) for _ in range(rng.randrange(1, 4))]
            return {rng.choice(fields): value(depth + 1) for _ in range(rng.randrange(4))}

        def body(kind):
            if rng.random() < 0.2:
                return value()
            start, end = sorted(rng.choice(dates[:3]) for _ in range(2))
            if kind == "sql":
                if rng.random() < 0.3:
                    start, end = rng.choice(dates), rng.choice(dates)
                document = {
                    "sql": "SELECT U.Country, COUNT(*) FROM UpdateList U "
                    f"WHERE U.Date BETWEEN {start} AND {end} GROUP BY U.Country"
                }
            else:
                document = {
                    "start": start,
                    "end": end,
                    "group_by": rng.sample(words[:5], k=rng.randrange(3)),
                    "metric": rng.choice(words[8:10]),
                    "date_granularity": rng.choice(words[10:14]),
                }
            for _ in range(rng.randrange(3)):
                document[rng.choice(fields)] = value()
            return document

        dashboard = ingested_system.dashboard
        for case in range(600):
            kind = rng.choice(["analysis", "live", "sql"])
            text = json.dumps(body(kind))
            with deadline_scope(Deadline(0.25)):
                status, response = run_analysis_request(
                    dashboard, kind, text.encode()
                )
            assert status in (200, 400, 504), (
                f"seed {seed} case {case}: {kind} {text} -> "
                f"{status} {response[:200]!r}"
            )


class TestCatchAll500:
    def test_unexpected_exception_returns_json_500(
        self, ingested_system, monkeypatch
    ):
        def boom(n):
            raise RuntimeError("wires crossed")

        with DashboardServer(ingested_system.dashboard) as broken:
            monkeypatch.setattr(
                ingested_system.dashboard, "top_contributors", boom
            )
            status, payload, _ = http_get(broken, "/contributors")
        assert status == 500
        assert "internal error" in payload["error"]
        assert "wires crossed" in payload["error"]

    def test_500_recorded_with_real_status_label(
        self, ingested_system, monkeypatch
    ):
        # The regression this guards: an unhandled exception used to
        # skip _send entirely, so the request metric recorded the
        # initial sentinel status "0".
        metrics = ingested_system.metrics
        before_500 = metrics.value(
            "rased_http_requests_total", path="/contributors", status="500"
        )
        before_0 = metrics.value(
            "rased_http_requests_total", path="/contributors", status="0"
        )

        def boom(n):
            raise RuntimeError("boom")

        with DashboardServer(ingested_system.dashboard) as broken:
            monkeypatch.setattr(
                ingested_system.dashboard, "top_contributors", boom
            )
            http_get(broken, "/contributors")
        assert (
            metrics.value(
                "rased_http_requests_total", path="/contributors", status="500"
            )
            == before_500 + 1
        )
        assert (
            metrics.value(
                "rased_http_requests_total", path="/contributors", status="0"
            )
            == before_0
        )


class TestStorageFault503:
    """A page the store cannot serve is the service's failure, not the
    request's: 503, never the 400 a malformed body gets."""

    @pytest.fixture(scope="class")
    def broken(self, atlas):
        from datetime import date, timedelta

        from repro.storage.disk import InMemoryDisk
        from repro.synth.simulator import SimulationConfig
        from repro.system import RasedSystem, SystemConfig

        system = RasedSystem.create(
            atlas=atlas,
            store=InMemoryDisk(read_latency=0, write_latency=0),
            config=SystemConfig(
                road_types=8,
                simulation=SimulationConfig(
                    seed=7, mapper_count=6, base_sessions_per_day=3, nodes_per_country=2
                ),
            ),
        )
        for offset in range(3):
            system.publish_day(date(2021, 1, 4) + timedelta(days=offset))
        system.pipeline.run_daily()
        # The heap's tail page, which the grid index reads for the rows
        # no fold has reached, gone from the store.
        *_, tail = system.store.list_pages("warehouse/heap/")
        system.store.delete(tail)
        yield system
        system.close()

    BODY = {"start": "2021-01-04", "end": "2021-01-06", "n": 5}

    def test_run_analysis_request_answers_503(self, broken):
        status, body = run_analysis_request(
            broken.dashboard, "samples", json.dumps(self.BODY).encode()
        )
        assert status == 503
        assert "no such page: 'warehouse/heap/" in json.loads(body)["error"]

    @pytest.mark.parametrize("path", ["/analysis/samples", "/samples?zone=europe&n=5"])
    def test_over_http(self, broken, path):
        with DashboardServer(broken.dashboard) as running:
            if path.startswith("/analysis"):
                body = json.dumps(self.BODY).encode()
                status, payload = raw_post(running, path, body, str(len(body)))
            else:
                status, payload, _ = http_get(running, path)
        assert status == 503, payload
        assert "no such page: 'warehouse/heap/" in payload["error"]
        # A bad body on the same route is still the client's fault.
        with DashboardServer(broken.dashboard) as running:
            status, _ = raw_post(running, "/analysis/samples", b"[]", "2")
        assert status == 400


class TestCountClamping:
    def test_negative_n_is_400(self, server):
        status, payload, _ = http_get(server, "/samples?zone=germany&n=-3")
        assert status == 400
        assert "non-negative" in payload["error"]

    def test_garbage_n_is_400(self, server):
        status, payload, _ = http_get(server, "/contributors?n=lots")
        assert status == 400
        assert "integer" in payload["error"]

    def test_huge_n_is_clamped_not_rejected(self, server):
        status, payload, _ = http_get(
            server, f"/samples?zone=germany&n={MAX_SAMPLE_N * 1000}"
        )
        assert status == 200
        assert len(payload["samples"]) <= MAX_SAMPLE_N
        status, payload, _ = http_get(
            server, f"/contributors?n={MAX_SAMPLE_N * 1000}"
        )
        assert status == 200

    def test_unknown_path_is_404(self, server):
        status, payload, _ = http_get(server, "/nope")
        assert status == 404


class _TickingClock:
    """Monotonic fake that advances on every read.

    Lets a deadline expire *during* a request without sleeping: the
    admission check stamps t, and by the executor's first phase check
    the clock has ticked past any millisecond-scale budget.
    """

    def __init__(self, tick: float = 0.01) -> None:
        self.now = 1000.0
        self.tick = tick

    def __call__(self) -> float:
        self.now += self.tick
        return self.now


class TestAdmissionOverHttp:
    def _server(self, system, controller):
        return DashboardServer(system.dashboard, admission=controller)

    def test_missing_key_is_401(self, ingested_system):
        registry = TenantRegistry([Tenant(name="t", key="secret")])
        controller = AdmissionController(
            AdmissionConfig(key_file=None), tenants=registry
        )
        with self._server(ingested_system, controller) as guarded:
            status, payload, _ = http_get(guarded, "/health")
            assert status == 401
            status, _, _ = http_get(
                guarded, "/health", {"X-API-Key": "secret"}
            )
            assert status == 200

    def test_throttle_is_429_with_retry_after(self, ingested_system):
        controller = AdmissionController(
            AdmissionConfig(rate_limit=1.0, burst=1.0)
        )
        with self._server(ingested_system, controller) as guarded:
            status, _, _ = http_get(guarded, "/health")
            assert status == 200
            status, payload, headers = http_get(guarded, "/health")
            assert status == 429
            assert "rate limit" in payload["error"]
            assert int(headers["Retry-After"]) >= 1

    def test_shed_is_503_with_retry_after(self, ingested_system):
        controller = AdmissionController(AdmissionConfig(shed_threshold=1))
        # Hold one admitted slot so the next HTTP arrival trips the door.
        assert controller.admit(None).allowed
        try:
            with self._server(ingested_system, controller) as guarded:
                status, payload, headers = http_get(guarded, "/health")
                assert status == 503
                assert "overloaded" in payload["error"]
                assert "Retry-After" in headers
        finally:
            controller.release()

    def test_bad_deadline_header_is_400(self, ingested_system):
        controller = AdmissionController(
            AdmissionConfig(default_deadline_ms=1000)
        )
        with self._server(ingested_system, controller) as guarded:
            status, payload, _ = http_get(
                guarded, "/health", {"X-Deadline-Ms": "soon"}
            )
            assert status == 400
            assert "X-Deadline-Ms" in payload["error"]

    def test_expired_deadline_is_504_and_counted(self, ingested_system):
        metrics = ingested_system.metrics
        controller = AdmissionController(
            AdmissionConfig(default_deadline_ms=1),
            metrics=metrics,
            clock=_TickingClock(tick=0.01),
        )
        before = metrics.value(
            "rased_admission_deadline_hits_total", path="/analysis"
        )
        body = {"start": "2021-01-01", "end": "2021-02-28"}
        with self._server(ingested_system, controller) as guarded:
            request = urllib.request.Request(
                guarded.url + "/analysis",
                data=json.dumps(body).encode(),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 504
            payload = json.loads(excinfo.value.read())
            assert "deadline" in payload["error"]
        assert (
            metrics.value(
                "rased_admission_deadline_hits_total", path="/analysis"
            )
            == before + 1
        )

    def test_deadline_never_touches_unlimited_requests(self, ingested_system):
        # /health carries no deadline work; with no default configured a
        # plain request must sail through even with admission present.
        controller = AdmissionController(AdmissionConfig(shed_threshold=100))
        with self._server(ingested_system, controller) as guarded:
            status, _, _ = http_get(guarded, "/health")
            assert status == 200
        assert controller.inflight == 0


class TestGracefulDrain:
    def test_stop_drains_and_rejects_new_arrivals(self, ingested_system):
        controller = AdmissionController(AdmissionConfig(shed_threshold=100))
        server = DashboardServer(
            ingested_system.dashboard,
            admission=controller,
            drain_timeout=2.0,
        )
        server.start()
        status, _, _ = http_get(server, "/health")
        assert status == 200
        server.stop()
        # The admission layer latched into draining before shutdown, so
        # a controller shared with another listener would now refuse.
        decision = controller.admit(None)
        assert not decision.allowed
        assert decision.reason == "draining"

    def test_stop_without_admission_still_clean(self, ingested_system):
        server = DashboardServer(ingested_system.dashboard)
        server.start()
        status, _, _ = http_get(server, "/health")
        assert status == 200
        server.stop()
