"""The ``--workers`` process pool: one pipe per worker, no thread hop.

A request sent through :class:`ProcessPoolDispatcher` must answer what
the in-process path answers, keep its deadline across the pipe, and
never wedge the pool: a worker that dies is dropped (its request a
503, later requests served by the survivors), and shutdown leaves no
child process behind.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import threading
import time

import pytest

from repro.dashboard.procpool import ProcessPoolDispatcher
from repro.dashboard.server import DashboardServer, run_analysis_request
from repro.errors import ConfigError

QUERY = json.dumps(
    {"start": "2021-01-05", "end": "2021-02-10", "group_by": ["country"]}
).encode()

#: ``(kind, body)`` pairs, one of them a malformed body (a 400).
BATTERY = [
    ("analysis", QUERY),
    ("analysis", b'{"start": "2021-01-01", "end": "2021-01-31", "group_by": ["date"]}'),
    ("analysis", b'{"start": "2021-02-01", "end": "2021-02-28", "metric": "percentage"}'),
    (
        "sql",
        json.dumps(
            {
                "sql": "SELECT U.Country, COUNT(*) FROM UpdateList U WHERE U.Date "
                "BETWEEN 2021-01-05 AND 2021-02-10 GROUP BY U.Country"
            }
        ).encode(),
    ),
    ("analysis", b'{"start": "2021-01-05", "end": "2021-02-10", "group_by": 5}'),
]


def _answer_part(body: bytes) -> bytes:
    """A response body up to its per-request ``stats`` (all of an error)."""
    return body.partition(b'"stats"')[0]


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def _killed(pid: int) -> None:
    os.kill(pid, signal.SIGKILL)
    give_up = time.monotonic() + 10
    while time.monotonic() < give_up:
        # A killed child stays a zombie until reaped, and /proc says so.
        with open(f"/proc/{pid}/stat") as stat:
            if stat.read().split(") ", 1)[1].startswith("Z"):
                return
        time.sleep(0.01)
    raise AssertionError(f"worker {pid} did not die")


@pytest.fixture()
def pool(ingested_system):
    dispatcher = ProcessPoolDispatcher(lambda: ingested_system.dashboard, workers=2)
    try:
        yield dispatcher
    finally:
        dispatcher.shutdown()


class TestAnswers:
    def test_worker_answers_equal_the_in_process_answers(self, ingested_system, pool):
        statuses = []
        for kind, body in BATTERY:
            status, response = pool.run(kind, body)
            expected_status, expected = run_analysis_request(
                ingested_system.dashboard, kind, body
            )
            assert status == expected_status, body
            assert _answer_part(response) == _answer_part(expected), body
            statuses.append(status)
        assert statuses == [200, 200, 200, 200, 400]

    def test_a_drill_down_is_the_same_bytes_from_a_worker(self, ingested_system, pool):
        body = json.dumps(
            {"start": "2021-01-05", "end": "2021-02-10", "countries": ["germany"], "n": 12}
        ).encode()
        for request in (body, b'{"start": "2021-01-05", "end": "2021-02-10", "n": "x"}'):
            answer = pool.run("samples", request)
            assert answer == run_analysis_request(ingested_system.dashboard, "samples", request)
        status, response = pool.run("samples", body)
        assert status == 200 and 0 < len(json.loads(response)["samples"]) <= 12

    def test_expired_deadline_is_the_workers_504(self, pool):
        status, response = pool.run("analysis", QUERY, 1e-3)
        assert status == 504
        assert "deadline" in json.loads(response)["error"]
        assert pool.run("analysis", QUERY)[0] == 200  # the worker lives on

    def test_more_callers_than_workers_are_all_answered(self, ingested_system, pool):
        expected = _answer_part(
            run_analysis_request(ingested_system.dashboard, "analysis", QUERY)[1]
        )
        answers: list[tuple[int, bytes]] = []

        def call():
            for _ in range(3):
                answers.append(pool.run("analysis", QUERY))

        callers = [threading.Thread(target=call) for _ in range(6)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
            assert not caller.is_alive()
        assert len(answers) == 18
        assert {status for status, _ in answers} == {200}
        assert {_answer_part(body) for _, body in answers} == {expected}

    def test_rejects_zero_workers(self, ingested_system):
        with pytest.raises(ConfigError):
            ProcessPoolDispatcher(lambda: ingested_system.dashboard, workers=0)


class TestLifecycle:
    def test_prewarm_returns_after_every_dashboard_exists(self, ingested_system, tmp_path):
        def factory():
            time.sleep(0.2)  # a dashboard that takes a while to build
            (tmp_path / str(os.getpid())).touch()
            return ingested_system.dashboard

        with ProcessPoolDispatcher(factory, workers=2) as dispatcher:
            pids = dispatcher.prewarm()
            assert len(set(pids)) == 2
            assert sorted(p.name for p in tmp_path.iterdir()) == sorted(map(str, pids))

    def test_shutdown_leaves_no_child_process(self, ingested_system):
        dispatcher = ProcessPoolDispatcher(lambda: ingested_system.dashboard, workers=2)
        pids = dispatcher.prewarm()
        assert dispatcher.run("analysis", QUERY)[0] == 200
        dispatcher.shutdown()
        assert all(_gone(pid) for pid in pids)
        dispatcher.shutdown()  # idempotent
        assert dispatcher.alive() == 0


class TestDeadWorker:
    def test_a_killed_worker_costs_one_503_then_the_survivor_answers(
        self, ingested_system, pool
    ):
        first, second = pool.prewarm()
        _killed(first)
        # Idle workers are taken in order, so the next request meets
        # the dead one.
        status, response = pool.run("analysis", QUERY)
        assert status == 503
        assert str(first) in json.loads(response)["error"]
        assert pool.alive() == 1
        assert _gone(first)  # reaped, not left a zombie
        for _ in range(3):
            assert pool.run("analysis", QUERY)[0] == 200
        _killed(second)
        for _ in range(3):
            assert pool.run("analysis", QUERY)[0] == 503
        assert pool.alive() == 0


def _request(server, method: str, path: str, body: bytes | None = None):
    connection = http.client.HTTPConnection(*server.address, timeout=30)
    try:
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class TestServedThroughThePool:
    def test_front_process_runs_only_the_servers_threads(self, ingested_system):
        """No manager, feeder or pool thread in the front process: what
        a ``--workers 2`` server adds is its own accept loop and
        request threads.  A killed worker answers 503 once, then the
        survivor serves, and ``/health`` counts the workers alive."""
        before = {thread.name for thread in threading.enumerate()}
        dispatcher = ProcessPoolDispatcher(lambda: ingested_system.dashboard, workers=2)
        server = DashboardServer(ingested_system.dashboard, port=0, dispatcher=dispatcher)
        try:
            pids = dispatcher.prewarm()
            server.start()
            assert _request(server, "POST", "/analysis", QUERY)[0] == 200
            status, health = _request(server, "GET", "/health")
            assert status == 200
            assert json.loads(health)["workers"] == {"alive": 2, "started": 2}
            added = {thread.name for thread in threading.enumerate()} - before
            assert added and all(
                name == "rased-dashboard" or name.startswith("rased-http-")
                for name in added
            ), added

            _killed(pids[0])
            statuses = [_request(server, "POST", "/analysis", QUERY)[0] for _ in range(4)]
            assert sorted(statuses) == [200, 200, 200, 503]
            health = json.loads(_request(server, "GET", "/health")[1])
            assert health["workers"] == {"alive": 1, "started": 2}
            assert health["status"] == "degraded"
        finally:
            server.stop()
            dispatcher.shutdown()
