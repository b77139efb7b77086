"""Tests for the observability layer (repro.obs) and its wiring.

Covers counter/histogram/trace semantics in isolation (quantile edges,
reset, thread-safety under concurrent increments), the Prometheus and
JSON exports, and — end to end — that a query through a RasedSystem
records cache-hit and disk-read metrics that reconcile with the page
store's DiskStats.
"""

from __future__ import annotations

import json
import threading
import urllib.request
from datetime import date

import pytest

from repro.core.query import AnalysisQuery, QueryStats
from repro.dashboard.server import DashboardServer
from repro.obs import MetricsRegistry, get_registry, metric_key
from repro.types.temporal import Level


def histogram_summary(registry, name, **labels):
    """One histogram series' summary from the JSON snapshot, or ``None``."""
    for entry in registry.snapshot()["histograms"].get(name, []):
        if entry["labels"] == labels:
            return {k: v for k, v in entry.items() if k != "labels"}
    return None


# -- counters ---------------------------------------------------------------


class TestCounters:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        registry.inc("events_total")
        registry.inc("events_total", 4)
        assert registry.value("events_total") == 5

    def test_labels_are_distinct_series(self):
        registry = MetricsRegistry()
        registry.inc("hits_total", level="day")
        registry.inc("hits_total", 2, level="week")
        assert registry.value("hits_total", level="day") == 1
        assert registry.value("hits_total", level="week") == 2
        assert registry.total("hits_total") == 3

    def test_label_order_is_normalized(self):
        registry = MetricsRegistry()
        registry.inc("io_total", kind="read", store="mem")
        registry.inc("io_total", store="mem", kind="read")
        assert registry.value("io_total", kind="read", store="mem") == 2

    def test_prepared_key_matches_kwargs_path(self):
        registry = MetricsRegistry()
        key = metric_key("x_total", level="day")
        registry.inc_key(key, 3)
        assert registry.value("x_total", level="day") == 3

    def test_missing_series_reads_zero(self):
        assert MetricsRegistry().value("nope_total") == 0.0

    def test_record_batch_applies_all_under_one_lock(self):
        registry = MetricsRegistry()
        registry.record_batch(
            incs=[(metric_key("a_total"), 2.0), (metric_key("b_total"), 1.0)],
            observes=[(metric_key("c_seconds"), 0.5)],
        )
        assert registry.value("a_total") == 2.0
        assert registry.value("b_total") == 1.0
        assert histogram_summary(registry, "c_seconds")["count"] == 1

    def test_record_batch_respects_disabled(self):
        registry = MetricsRegistry()
        registry.enabled = False
        registry.record_batch(incs=[(metric_key("a_total"), 1.0)])
        assert registry.value("a_total") == 0.0

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.inc("a_total")
        registry.observe("b_seconds", 1.0)
        registry.reset()
        assert registry.value("a_total") == 0.0
        assert histogram_summary(registry, "b_seconds") is None
        assert registry.snapshot() == {"counters": {}, "histograms": {}}

    def test_disabled_registry_drops_writes(self):
        registry = MetricsRegistry()
        registry.enabled = False
        registry.inc("a_total")
        registry.observe("b_seconds", 1.0)
        assert registry.value("a_total") == 0.0
        assert histogram_summary(registry, "b_seconds") is None

    def test_thread_safety_under_concurrent_increments(self):
        registry = MetricsRegistry()
        threads = 8
        per_thread = 5000

        def hammer():
            for _ in range(per_thread):
                registry.inc("contended_total")
                registry.observe("contended_seconds", 0.001)

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert registry.value("contended_total") == threads * per_thread
        summary = histogram_summary(registry, "contended_seconds")
        assert summary["count"] == threads * per_thread


# -- histograms -------------------------------------------------------------


class TestHistograms:
    def test_single_observation_pins_all_quantiles(self):
        registry = MetricsRegistry()
        registry.observe("latency_seconds", 0.25)
        summary = histogram_summary(registry, "latency_seconds")
        assert summary["count"] == 1
        assert summary["min"] == summary["max"] == summary["mean"] == 0.25
        assert summary["p50"] == summary["p95"] == summary["p99"] == 0.25

    def test_quantiles_interpolate(self):
        registry = MetricsRegistry()
        for value in range(1, 101):  # 1..100
            registry.observe("v", float(value))
        summary = histogram_summary(registry, "v")
        assert summary["p50"] == pytest.approx(50.5)
        assert summary["p95"] == pytest.approx(95.05)
        assert summary["p99"] == pytest.approx(99.01)
        assert summary["min"] == 1.0 and summary["max"] == 100.0
        assert summary["mean"] == pytest.approx(50.5)

    def test_window_bounds_memory_but_not_count(self):
        registry = MetricsRegistry(histogram_window=16)
        for value in range(1000):
            registry.observe("w", float(value))
        summary = histogram_summary(registry, "w")
        assert summary["count"] == 1000
        # Quantiles come from the most recent 16 observations.
        assert summary["p50"] >= 984.0

    def test_order_insensitive_quantiles(self):
        forward, backward = MetricsRegistry(), MetricsRegistry()
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        for v in values:
            forward.observe("q", v)
        for v in reversed(values):
            backward.observe("q", v)
        assert (
            histogram_summary(forward, "q")["p50"]
            == histogram_summary(backward, "q")["p50"]
            == 3.0
        )


# -- exports ----------------------------------------------------------------


class TestExports:
    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.inc("hits_total", 2, level="day")
        registry.observe("lat_seconds", 0.5)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["hits_total"] == [
            {"labels": {"level": "day"}, "value": 2.0}
        ]
        [hist] = snapshot["histograms"]["lat_seconds"]
        assert hist["labels"] == {} and hist["count"] == 1
        # The snapshot must be JSON-serializable as-is.
        json.dumps(snapshot)

    def test_prometheus_counters_and_summaries(self):
        registry = MetricsRegistry()
        registry.inc("hits_total", 2, level="day")
        registry.observe("lat_seconds", 0.5)
        text = registry.to_prometheus()
        assert "# TYPE hits_total counter" in text
        assert 'hits_total{level="day"} 2' in text
        assert "# TYPE lat_seconds summary" in text
        assert 'lat_seconds{quantile="0.5"} 0.5' in text
        assert "lat_seconds_sum 0.5" in text
        assert "lat_seconds_count 1" in text

    def test_prometheus_label_escaping(self):
        registry = MetricsRegistry()
        registry.inc("odd_total", label='a"b\\c\nd')
        text = registry.to_prometheus()
        assert 'odd_total{label="a\\"b\\\\c\\nd"} 1' in text

    def test_prometheus_text_parses_line_by_line(self):
        """Every non-comment line is `name{labels} value` with float value."""
        registry = MetricsRegistry()
        registry.inc("a_total", 3, kind="x")
        registry.observe("b_seconds", 0.1)
        registry.observe("b_seconds", 0.3)
        for line in registry.to_prometheus().strip().splitlines():
            if line.startswith("#"):
                parts = line.split()
                assert parts[0] == "#" and parts[1] in ("HELP", "TYPE")
                if parts[1] == "TYPE":
                    assert parts[3] in ("counter", "summary", "gauge")
                continue
            name_part, value_part = line.rsplit(" ", 1)
            float(value_part)
            assert name_part[0].isalpha()

    def test_every_family_has_help_and_type(self):
        registry = MetricsRegistry()
        registry.inc("a_total")
        registry.observe("b_seconds", 0.2)
        lines = registry.to_prometheus().strip().splitlines()
        families = ("a_total", "b_seconds", "b_seconds_window_count")
        for family in families:
            help_index = lines.index(
                next(l for l in lines if l.startswith(f"# HELP {family} "))
            )
            # HELP immediately precedes TYPE for every family.
            assert lines[help_index + 1].startswith(f"# TYPE {family} ")

    def test_describe_round_trips_into_help(self):
        registry = MetricsRegistry()
        registry.describe("a_total", "Things that\nhappened \\ totally.")
        registry.inc("a_total")
        text = registry.to_prometheus()
        # Newlines and backslashes are escaped per the exposition format.
        assert "# HELP a_total Things that\\nhappened \\\\ totally." in text
        assert "\nThings that" not in text

    def test_undescribed_family_gets_generated_help(self):
        registry = MetricsRegistry()
        registry.inc("mystery_total")
        assert "# HELP mystery_total " in registry.to_prometheus()

    def test_summary_families_are_contiguous(self):
        """window_count gauges must not split their parent summary block."""
        registry = MetricsRegistry()
        registry.observe("a_seconds", 0.1, path="/x")
        registry.observe("a_seconds", 0.2, path="/y")
        registry.observe("b_seconds", 0.3)
        current: str | None = None
        seen: set[str] = set()
        for line in registry.to_prometheus().strip().splitlines():
            if line.startswith("# TYPE "):
                family = line.split()[2]
                assert family not in seen, f"family {family} split into blocks"
                seen.add(family)
                current = family
            elif not line.startswith("#"):
                name = line.split("{", 1)[0].split(" ", 1)[0]
                base = current or ""
                assert name == base or name.startswith(base + "_") or name == base

    def test_window_count_in_summary_and_exports(self):
        registry = MetricsRegistry(histogram_window=4)
        for value in range(10):
            registry.observe("w_seconds", float(value))
        summary = histogram_summary(registry, "w_seconds")
        assert summary["count"] == 10
        assert summary["window_count"] == 4
        [entry] = registry.snapshot()["histograms"]["w_seconds"]
        assert entry["window_count"] == 4
        assert "w_seconds_window_count 4" in registry.to_prometheus()

    def test_scrape_under_concurrent_observes(self):
        """Scrapes copy under the lock and render outside it; hammering
        observes while scraping must neither crash nor corrupt output."""
        registry = MetricsRegistry(histogram_window=256)
        stop = threading.Event()
        errors: list[BaseException] = []

        def observe_loop():
            value = 0.0
            while not stop.is_set():
                value += 1.0
                registry.observe("hot_seconds", value, path="/analysis")
                registry.inc("hot_total")

        def scrape_loop():
            try:
                for _ in range(200):
                    text = registry.to_prometheus()
                    for line in text.strip().splitlines():
                        if not line.startswith("#"):
                            float(line.rsplit(" ", 1)[1])
                    registry.snapshot()
                    histogram_summary(registry, "hot_seconds", path="/analysis")
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        writers = [threading.Thread(target=observe_loop) for _ in range(4)]
        scraper = threading.Thread(target=scrape_loop)
        for thread in writers:
            thread.start()
        scraper.start()
        scraper.join()
        stop.set()
        for thread in writers:
            thread.join()
        assert not errors


# -- the per-query record ---------------------------------------------------


class TestQueryStatsPhases:
    def test_add_phase_accumulates(self):
        stats = QueryStats()
        assert stats.phases == {} and stats.phase_rows() == []
        stats.add_phase("phase1.fetch.disk", 0.010)
        stats.add_phase("phase1.fetch.disk", 0.020, count=3)
        seconds, count = stats.phases["phase1.fetch.disk"]
        assert seconds == pytest.approx(0.030) and count == 4
        stats.add_phase("phase2.aggregate", 0.005)
        assert stats.phase_seconds("phase1.") == pytest.approx(0.030)
        assert stats.phase_seconds("") == pytest.approx(0.035)

    def test_merge_is_exact_and_leaves_the_clocks_alone(self):
        stats = QueryStats(cube_count=5, missing_days=1, wall_seconds=2.0)
        stats.add_phase("phase1.plan", 0.001, 4)
        part = QueryStats(
            cache_hits=2,
            disk_reads=3,
            quarantined_cubes=1,
            partial=True,
            cache_hits_by_level={Level.WEEK: 2},
            disk_reads_by_level={Level.DAY: 3},
            wall_seconds=9.0,
            memo_hit=True,
        )
        part.add_phase("phase1.fetch.disk", 0.5, 4)
        stats.merge(part)
        stats.merge(part)
        assert (stats.cube_count, stats.missing_days) == (5, 1)
        assert (stats.cache_hits, stats.disk_reads) == (4, 6)
        assert stats.partial and stats.quarantined_cubes == 2
        assert stats.cache_hits_by_level == {Level.WEEK: 4}
        assert stats.disk_reads_by_level == {Level.DAY: 6}
        assert stats.phases == {
            "phase1.plan": (0.001, 4),
            "phase1.fetch.disk": (1.0, 8),
        }
        assert stats.wall_seconds == 2.0 and not stats.memo_hit
        assert part.cache_hits_by_level == {Level.WEEK: 2}  # untouched

    def test_phase_rows_are_json_ready(self):
        stats = QueryStats()
        stats.add_phase("phase1.plan", 0.001)
        stats.add_phase("phase2.aggregate", 0.003, count=7)
        rows = stats.phase_rows()
        assert [(row["phase"], row["count"]) for row in rows] == [
            ("phase1.plan", 1),
            ("phase2.aggregate", 7),
        ]
        assert rows[1]["ms"] == pytest.approx(3.0)
        json.dumps(rows)


# -- default registry -------------------------------------------------------


def test_default_registry_is_a_singleton():
    assert get_registry() is get_registry()
    assert isinstance(get_registry(), MetricsRegistry)


# -- integration: a query through a full system -----------------------------


QUERY = AnalysisQuery(
    start=date(2021, 1, 5),
    end=date(2021, 2, 10),
    group_by=("country",),
)


class TestSystemIntegration:
    def test_query_records_trace_with_both_phases(self, ingested_system):
        result = ingested_system.dashboard.analysis(QUERY)
        phases = result.stats.phases
        assert "phase1.plan" in phases
        assert "phase2.aggregate" in phases
        fetched = sum(
            phases.get(name, (0.0, 0))[1]
            for name in ("phase1.fetch.cache", "phase1.fetch.disk")
        )
        assert fetched == result.stats.cube_count
        assert phases["phase2.aggregate"][1] == result.stats.cube_count
        assert not result.stats.memo_hit

    def test_metrics_reconcile_with_disk_stats(self, ingested_system):
        system = ingested_system
        registry = system.metrics
        reads_before = registry.total("rased_disk_reads_total")
        hits_before = registry.total("rased_cache_hits_total")
        disk_before = system.store.stats.snapshot()

        result = system.dashboard.analysis(QUERY)

        disk_delta = system.store.stats.delta(disk_before)
        reads_delta = registry.total("rased_disk_reads_total") - reads_before
        hits_delta = registry.total("rased_cache_hits_total") - hits_before
        # Registry and DiskStats observe the exact same page reads.
        assert reads_delta == disk_delta.reads
        # Executor-level accounting agrees with the cache's own series.
        assert hits_delta == result.stats.cache_hits
        assert result.stats.cube_count == (
            result.stats.cache_hits + result.stats.disk_reads
        )

    def test_query_latency_histogram_grows(self, ingested_system):
        registry = ingested_system.metrics
        before = histogram_summary(registry, "rased_query_wall_seconds")
        count_before = before["count"] if before else 0
        ingested_system.dashboard.analysis(QUERY)
        after = histogram_summary(registry, "rased_query_wall_seconds")
        assert after["count"] == count_before + 1
        assert after["sum"] > 0

    def test_systems_have_isolated_registries(self, ingested_system):
        other = MetricsRegistry()
        assert ingested_system.metrics is not other
        assert ingested_system.metrics is not get_registry()

    def test_optimizer_estimates_cover_actual_reads(self, ingested_system):
        system = ingested_system
        registry = system.metrics
        est_before = registry.value("rased_optimizer_estimated_disk_reads_total")
        actual_before = registry.value("rased_query_cubes_total", source="disk")
        system.dashboard.analysis(QUERY)
        est_delta = (
            registry.value("rased_optimizer_estimated_disk_reads_total")
            - est_before
        )
        actual_delta = (
            registry.value("rased_query_cubes_total", source="disk")
            - actual_before
        )
        # The plan's estimate is exact for a static cache (no query-time
        # admission on this deployment).
        assert est_delta == actual_delta
        assert registry.value("rased_optimizer_plans_total") > 0
        assert registry.value("rased_optimizer_units_considered_total") > 0


# -- /metrics endpoint ------------------------------------------------------


class TestMetricsEndpoint:
    @pytest.fixture(scope="class")
    def server(self, ingested_system):
        with DashboardServer(ingested_system.dashboard) as running:
            yield running

    def test_prometheus_default(self, server, ingested_system):
        # Exercise a query so latency series exist.
        body = json.dumps(
            {"start": "2021-01-05", "end": "2021-02-10", "group_by": ["country"]}
        ).encode()
        request = urllib.request.Request(
            server.url + "/analysis", data=body, method="POST"
        )
        with urllib.request.urlopen(request) as response:
            payload = json.loads(response.read())
        assert {row["phase"] for row in payload["stats"]["phases"]} >= {
            "phase1.plan",
            "phase2.aggregate",
        }
        assert "trace" not in payload["stats"]

        with urllib.request.urlopen(server.url + "/metrics") as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode()
        assert "rased_cache_hits_total" in text
        assert "rased_disk_reads_total" in text
        assert 'rased_query_wall_seconds{quantile="0.5"}' in text
        # Prometheus-parsable: every line is a comment or name+value.
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            float(line.rsplit(" ", 1)[1])

    def test_json_format(self, server):
        with urllib.request.urlopen(
            server.url + "/metrics?format=json"
        ) as response:
            snapshot = json.loads(response.read())
        assert "counters" in snapshot and "histograms" in snapshot
        assert "rased_disk_reads_total" in snapshot["counters"]

    def test_unknown_format_is_rejected(self, server):
        request = urllib.request.Request(server.url + "/metrics?format=xml")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_http_requests_are_measured(self, server, ingested_system):
        with urllib.request.urlopen(server.url + "/health"):
            pass
        registry = ingested_system.metrics
        assert (
            registry.value(
                "rased_http_requests_total", path="/health", status="200"
            )
            >= 1
        )
        summary = histogram_summary(
            registry, "rased_http_request_seconds", path="/health"
        )
        assert summary is not None and summary["count"] >= 1
