"""Causal span tracing: span trees, the flight recorder's tail-based
retention, and the HTTP ``/debug`` dump surface.

The load-bearing properties:

* a query's page reads produce ONE connected tree — every disk read
  resolves to a parent in the same trace (no orphans);
* a single-flight *follower* records a wait span pointing at the
  leader's trace, not a phantom load of its own;
* error / partial / deadline-exceeded traces are always retained by the
  recorder, no matter the sampling knobs;
* the phase spans under ``query.execute`` are a view of the query's
  one record: exactly ``QueryStats.phases``, nothing kept beside it.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from datetime import date

import pytest

from repro.core.deadline import Deadline, deadline_scope
from repro.core.executor import QueryExecutor
from repro.core.iosched import IOScheduler
from repro.core.query import AnalysisQuery
from repro.types.temporal import Level
from repro.dashboard.admission import AdmissionConfig, AdmissionController
from repro.dashboard.server import DashboardServer
from repro.errors import DeadlineExceededError
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    RecordedTrace,
    Tracer,
    current_span,
    current_trace_id,
    record_span,
    span,
)


class _ListSink:
    """A trace sink that just remembers everything it was handed."""

    def __init__(self) -> None:
        self.traces: list[RecordedTrace] = []

    def record(self, trace: RecordedTrace) -> None:
        self.traces.append(trace)


def _assert_connected(trace: RecordedTrace) -> None:
    ids = {s.span_id for s in trace.spans}
    for s in trace.spans:
        if s.parent_id is not None:
            assert s.parent_id in ids, f"orphan span {s.name}"


def _made_trace(
    trace_id: str, status: str = "ok", duration: float = 0.001
) -> RecordedTrace:
    return RecordedTrace(
        trace_id=trace_id,
        name="t",
        started_unix=float(int(trace_id, 36) if trace_id.isalnum() else 0),
        duration_seconds=duration,
        status=status,
        spans=[],
        dropped_spans=0,
    )


# -- span primitives --------------------------------------------------------


class TestSpans:
    def test_untraced_context_is_a_noop(self):
        assert current_span() is None
        assert current_trace_id() is None
        with span("anything") as s:
            assert s is None
        record_span("retro", 0.5)  # must not raise

    def test_tracer_builds_a_tree(self):
        sink = _ListSink()
        tracer = Tracer(recorder=sink)
        with tracer.trace("root") as root:
            root.attributes["k"] = 1
            with span("child") as child:
                with span("grandchild") as grand:
                    assert grand.parent_id == child.span_id
                assert child.parent_id == root.span_id
        [trace] = sink.traces
        assert trace.status == "ok"
        assert sorted(trace.span_names()) == ["child", "grandchild", "root"]
        _assert_connected(trace)
        roots = [s for s in trace.spans if s.parent_id is None]
        assert len(roots) == 1 and roots[0].attributes == {"k": 1}

    def test_nested_trace_degrades_to_child_span(self):
        sink = _ListSink()
        tracer = Tracer(recorder=sink)
        with tracer.trace("outer"):
            with tracer.trace("inner") as inner:
                assert inner.parent_id is not None
        assert len(sink.traces) == 1  # no double root

    def test_disabled_tracer_yields_none(self):
        sink = _ListSink()
        tracer = Tracer(recorder=sink, enabled=False)
        with tracer.trace("root") as root:
            assert root is None
            assert current_span() is None
        assert sink.traces == []

    def test_exception_marks_span_and_trace(self):
        sink = _ListSink()
        tracer = Tracer(recorder=sink)
        with pytest.raises(RuntimeError):
            with tracer.trace("root"):
                with span("work"):
                    raise RuntimeError("boom")
        [trace] = sink.traces
        assert trace.status == "error"
        failed = next(s for s in trace.spans if s.name == "work")
        assert failed.status == "error" and "boom" in failed.error

    def test_partial_child_degrades_trace_status(self):
        sink = _ListSink()
        tracer = Tracer(recorder=sink)
        with tracer.trace("root"):
            with span("answer") as s:
                s.mark_partial()
        assert sink.traces[0].status == "partial"

    def test_record_span_backdates_offset(self):
        sink = _ListSink()
        tracer = Tracer(recorder=sink)
        with tracer.trace("root"):
            record_span("accumulated", 0.25, count=3, attributes={"x": 1})
        [trace] = sink.traces
        retro = next(s for s in trace.spans if s.name == "accumulated")
        assert retro.duration_seconds == 0.25
        assert retro.offset_seconds == 0.0  # clamped, not negative
        assert retro.attributes["count"] == 3 and retro.attributes["x"] == 1

    def test_span_cap_drops_excess_but_keeps_root(self):
        sink = _ListSink()
        tracer = Tracer(recorder=sink, max_spans=4)
        with tracer.trace("root"):
            for n in range(10):
                with span(f"s{n}"):
                    pass
        [trace] = sink.traces
        assert "root" in trace.span_names()
        assert len(trace.spans) == 5  # 4 children + the always-kept root
        assert trace.dropped_spans == 6


# -- the phase spans are a view of the query's one record -------------------


class TestPhaseView:
    def test_phase_spans_carry_the_record(self, ingested_system):
        sink = _ListSink()
        executor = QueryExecutor(
            ingested_system.index,
            cache=ingested_system.cache,
            tracer=Tracer(recorder=sink),
            metrics=MetricsRegistry(),
        )
        stats = executor.execute(QUERY).stats
        [trace] = sink.traces
        [root] = [s for s in trace.spans if s.name == "query.execute"]
        flushed = {
            s.name: (s.duration_seconds, s.attributes.get("count", 1))
            for s in trace.spans
            if s.name.startswith("phase")
        }
        assert flushed == stats.phases
        assert {"phase1.plan", "phase2.aggregate"} <= set(flushed)
        assert all(
            s.parent_id == root.span_id
            for s in trace.spans
            if s.name.startswith("phase")
        )
        assert root.attributes == {
            "cubes": stats.cube_count,
            "cache_hits": stats.cache_hits,
            "disk_reads": stats.disk_reads,
        }

    def test_flush_without_trace_is_a_noop(self, ingested_system):
        executor = QueryExecutor(
            ingested_system.index,
            cache=ingested_system.cache,
            metrics=MetricsRegistry(),
        )
        # No tracer, no ambient trace: the record is filled all the same.
        stats = executor.execute(QUERY).stats
        assert current_span() is None
        assert {"phase1.plan", "phase2.aggregate"} <= set(stats.phases)


# -- flight recorder --------------------------------------------------------


class TestFlightRecorder:
    def test_errors_and_partials_always_retained(self):
        recorder = FlightRecorder(
            capacity=8, sample_every=0, metrics=MetricsRegistry()
        )
        recorder.record(_made_trace("err1", status="error"))
        recorder.record(_made_trace("part1", status="partial"))
        for n in range(20):
            recorder.record(_made_trace(f"ok{n}", status="ok"))
        assert recorder.get("err1") is not None
        assert recorder.get("part1") is not None
        assert [t.trace_id for t in recorder.list(status="error")] == ["err1"]

    def test_every_nth_ok_trace_is_sampled(self):
        recorder = FlightRecorder(
            capacity=64, sample_every=4, metrics=MetricsRegistry()
        )
        for n in range(12):
            recorder.record(_made_trace(f"ok{n}"))
        stats = recorder.stats()
        assert stats["sampled"] == 3  # traces 0, 4, 8
        assert stats["dropped"] == 9

    def test_slow_decile_always_retained(self):
        recorder = FlightRecorder(
            capacity=64, sample_every=0, metrics=MetricsRegistry()
        )
        # Build a population of fast traces, then a clear outlier.
        for n in range(40):
            recorder.record(_made_trace(f"fast{n}", duration=0.001))
        recorder.record(_made_trace("whale", duration=5.0))
        assert recorder.get("whale") is not None
        assert recorder.stats()["slow_threshold_ms"] is not None

    def test_cold_recorder_does_not_flag_first_traces_slow(self):
        recorder = FlightRecorder(
            capacity=64, sample_every=0, metrics=MetricsRegistry()
        )
        recorder.record(_made_trace("first", duration=9.0))
        assert recorder.get("first") is None  # population too small

    def test_rings_are_bounded_fifo(self):
        recorder = FlightRecorder(
            capacity=4, sample_every=1, metrics=MetricsRegistry()
        )
        for n in range(10):
            recorder.record(_made_trace(f"e{n}", status="error"))
            recorder.record(_made_trace(f"s{n}", status="ok"))
        stats = recorder.stats()
        assert stats["retained"] == 4 and stats["sampled"] == 4
        assert recorder.get("e0") is None  # evicted
        assert recorder.get("e9") is not None

    def test_list_is_newest_first_and_limited(self):
        recorder = FlightRecorder(
            capacity=64, sample_every=1, metrics=MetricsRegistry()
        )
        for n in range(6):
            trace = _made_trace(f"t{n}")
            trace.started_unix = float(n)
            recorder.record(trace)
        listed = recorder.list(limit=3)
        assert [t.trace_id for t in listed] == ["t5", "t4", "t3"]

    def test_retention_reasons_are_metered(self):
        registry = MetricsRegistry()
        recorder = FlightRecorder(capacity=8, sample_every=1, metrics=registry)
        recorder.record(_made_trace("a", status="error"))
        recorder.record(_made_trace("b", status="ok"))
        assert registry.value("rased_trace_kept_total", reason="error") == 1
        assert registry.value("rased_trace_kept_total", reason="sampled") == 1

    def test_clear_resets_everything(self):
        recorder = FlightRecorder(metrics=MetricsRegistry())
        recorder.record(_made_trace("a", status="error"))
        recorder.clear()
        assert recorder.get("a") is None
        assert recorder.stats()["seen"] == 0


# -- the I/O scheduler under a trace ----------------------------------------


class TestIoschedPropagation:
    def test_page_reads_yield_one_connected_tree(self):
        """A batch's page reads run on the querying thread, so each
        ``storage.disk.read`` span is a child of the ``iosched.batch``
        span in the query's one tree."""
        from tests.test_iosched import make_small_index

        index, _ = make_small_index(days=6)
        keys = sorted(index.keys(Level.DAY))
        sink = _ListSink()
        tracer = Tracer(recorder=sink)
        scheduler = IOScheduler(metrics=MetricsRegistry())
        with tracer.trace("query"):
            values = scheduler.fetch_many(keys, index.get)
        assert len(values) == 6
        [trace] = sink.traces
        _assert_connected(trace)
        [batch] = [s for s in trace.spans if s.name == "iosched.batch"]
        assert batch.attributes["keys"] == 6
        reads = [s for s in trace.spans if s.name == "storage.disk.read"]
        assert len(reads) == 6
        assert {s.parent_id for s in reads} == {batch.span_id}
        assert {s.thread_name for s in trace.spans} == {
            threading.current_thread().name
        }


# -- executor / system level ------------------------------------------------


QUERY = AnalysisQuery(
    start=date(2021, 1, 5),
    end=date(2021, 2, 10),
    group_by=("country",),
)


class TestExecutorTracing:
    def test_query_execution_records_a_connected_trace(self, ingested_system):
        system = ingested_system
        before = {t.trace_id for t in system.recorder.list(limit=10_000)}
        system.dashboard.analysis(QUERY)
        fresh = [
            t
            for t in system.recorder.list(limit=10_000)
            if t.trace_id not in before and t.name == "query.execute"
        ]
        # The recorder samples ok traces; at least run the structural
        # check when this one was kept (the first per-session query
        # always is: sampling starts at counter zero).
        for trace in fresh:
            _assert_connected(trace)
            assert "phase2.aggregate" in trace.span_names()

    def test_deadline_expired_trace_is_always_retained(self, ingested_system):
        system = ingested_system
        fake_now = [100.0]
        expired = Deadline(0.001, clock=lambda: fake_now[0])
        fake_now[0] += 10.0  # long past the budget
        before = {t.trace_id for t in system.recorder.list(limit=10_000)}
        with deadline_scope(expired):
            with pytest.raises(DeadlineExceededError):
                system.executor.execute(QUERY)
        fresh = [
            t
            for t in system.recorder.list(limit=10_000, status="error")
            if t.trace_id not in before
        ]
        assert len(fresh) == 1
        assert "DeadlineExceeded" in fresh[0].spans[0].error


# -- HTTP end to end --------------------------------------------------------


class TestHttpTracing:
    @pytest.fixture()
    def traced_server(self, ingested_system):
        recorder = FlightRecorder(metrics=MetricsRegistry())
        tracer = Tracer(recorder=recorder)
        admission = AdmissionController(
            AdmissionConfig(default_deadline_ms=60_000),
            metrics=MetricsRegistry(),
        )
        server = DashboardServer(
            ingested_system.dashboard,
            admission=admission,
            tracer=tracer,
            recorder=recorder,
        )
        with server:
            yield server, recorder

    def _analysis(self, server):
        body = json.dumps(
            {"start": "2021-01-05", "end": "2021-02-10", "group_by": ["country"]}
        ).encode()
        request = urllib.request.Request(
            server.url + "/analysis", data=body, method="POST"
        )
        return urllib.request.urlopen(request)

    def test_request_yields_one_retrievable_connected_tree(
        self, traced_server
    ):
        server, recorder = traced_server
        with self._analysis(server) as response:
            trace_id = response.headers["X-Trace-Id"]
            assert trace_id
        with urllib.request.urlopen(
            server.url + f"/debug/traces/{trace_id}"
        ) as response:
            tree = json.loads(response.read())
        assert tree["trace_id"] == trace_id
        spans = tree["span_tree"]
        ids = {s["span_id"] for s in spans}
        for s in spans:
            if s["parent_id"] is not None:
                assert s["parent_id"] in ids, f"orphan {s['name']}"
        names = {s["name"] for s in spans}
        # Admission verdict, executor phases, and the pool-thread disk
        # reads all landed in the single request tree.
        assert "http.request" in names
        assert "dashboard.admission" in names
        assert "query.execute" in names
        assert "phase1.plan" in names or "core.resultcache.get" in names
        assert "phase2.aggregate" in names
        disk_reads = [s for s in spans if s["name"] == "storage.disk.read"]
        for s in disk_reads:
            assert s["parent_id"] in ids
        # The tree carries the phase spans; no second, flat copy of them.
        assert "phases" not in tree

    def test_server_error_trace_is_retained(
        self, traced_server, ingested_system, monkeypatch
    ):
        server, recorder = traced_server

        def explode(query):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(ingested_system.dashboard, "analysis", explode)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._analysis(server)
        assert excinfo.value.code == 500
        trace_id = excinfo.value.headers["X-Trace-Id"]
        assert trace_id  # error responses carry the id too
        retained = recorder.get(trace_id)
        assert retained is not None and retained.status == "error"

    def test_trace_listing_and_missing_id(self, traced_server):
        server, recorder = traced_server
        with self._analysis(server):
            pass
        with urllib.request.urlopen(
            server.url + "/debug/traces?limit=10"
        ) as response:
            listing = json.loads(response.read())
        assert listing["stats"]["seen"] >= 1
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(server.url + "/debug/traces/deadbeef")
        assert excinfo.value.code == 404

    def test_debug_endpoints_404_when_unwired(self, ingested_system):
        with DashboardServer(ingested_system.dashboard) as server:
            for path in ("/debug/traces", "/debug/slo"):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(server.url + path)
                assert excinfo.value.code == 404
