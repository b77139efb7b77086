"""Tests for the I/O scheduler: single-flight dedup, overlapped
fetches, and the virtual disk's queue-depth (rebook) accounting."""

from __future__ import annotations

import random
import threading
import time
from datetime import date, timedelta

import pytest

from repro.collection.records import UpdateList, UpdateRecord
from repro.types.dimensions import default_schema
from repro.core.executor import QueryExecutor
from repro.core.hierarchy import HierarchicalIndex
from repro.core.iosched import IOScheduler
from repro.core.optimizer import FlatPlanner
from repro.core.query import AnalysisQuery
from repro.errors import ConfigError
from repro.obs import MetricsRegistry
from repro.storage.disk import InMemoryDisk

COUNTRIES = ["united_states", "germany", "qatar"]


def make_small_index(
    days: int = 8, parallelism: int = 1, read_latency: float = 0.005
) -> tuple[HierarchicalIndex, InMemoryDisk]:
    """A tiny atlas-free index with one daily cube per day."""
    schema = default_schema(COUNTRIES, road_types=4)
    disk = InMemoryDisk(
        read_latency=read_latency, write_latency=0.0, parallelism=parallelism
    )
    index = HierarchicalIndex(schema, disk)
    rng = random.Random(3)
    road_values = schema.road_type.values[:-1]
    updates_by_day: dict[date, UpdateList] = {}
    day = date(2021, 1, 1)
    for _ in range(days):
        updates = UpdateList()
        for i in range(3):
            updates.append(
                UpdateRecord(
                    element_type="way",
                    date=day,
                    country=rng.choice(COUNTRIES),
                    latitude=0.0,
                    longitude=0.0,
                    road_type=rng.choice(road_values),
                    update_type="create",
                    changeset_id=day.toordinal() * 10 + i,
                )
            )
        updates_by_day[day] = updates
        day += timedelta(days=1)
    index.bulk_load(updates_by_day)
    disk.reset_stats()
    return index, disk


class TestSingleFlight:
    def test_concurrent_fetches_share_one_load(self):
        sched = IOScheduler(max_workers=8, metrics=MetricsRegistry())
        gate = threading.Event()
        entered = threading.Event()
        load_calls = []

        def slow_load(key):
            load_calls.append(key)
            entered.set()
            assert gate.wait(timeout=5)
            return f"value-of-{key}"

        results: list[tuple[str, bool]] = []
        errors: list[BaseException] = []

        def worker():
            try:
                results.append(sched.fetch("K", slow_load))
            except BaseException as exc:  # pragma: no cover - fail path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        threads[0].start()
        assert entered.wait(timeout=5)  # leader is inside the load
        for thread in threads[1:]:
            thread.start()
        # Wait until all 7 followers have parked on the leader's future.
        deadline = time.perf_counter() + 5
        while (
            sched.metrics.value("rased_iosched_coalesced_total") < 7
            and time.perf_counter() < deadline
        ):
            time.sleep(0.001)
        gate.set()
        for thread in threads:
            thread.join(timeout=5)
        assert not errors
        assert len(load_calls) == 1  # exactly one real load
        assert [value for value, _ in results] == ["value-of-K"] * 8
        assert sum(1 for _, led in results if led) == 1
        assert sched.inflight_count == 0

    def test_leader_exception_propagates_to_followers(self):
        sched = IOScheduler(max_workers=4, metrics=MetricsRegistry())

        def boom(key):
            raise ValueError(f"cannot load {key}")

        with pytest.raises(ValueError, match="cannot load K"):
            sched.fetch("K", boom)
        # The in-flight entry is cleaned up: a retry runs a fresh load.
        value, led = sched.fetch("K", lambda key: 42)
        assert (value, led) == (42, True)

    def test_fetch_many_loads_each_key_once(self):
        sched = IOScheduler(max_workers=4, metrics=MetricsRegistry())
        loads = []
        batch = sched.fetch_many(
            ["a", "b", "a", "c", "b"],
            lambda key: loads.append(key) or key.upper(),
        )
        assert batch.values == {"a": "A", "b": "B", "c": "C"}
        assert batch.led == 3
        assert batch.coalesced == 0
        assert sorted(loads) == ["a", "b", "c"]

    def test_fetch_many_propagates_exceptions(self):
        sched = IOScheduler(max_workers=4, metrics=MetricsRegistry())

        def flaky(key):
            if key == "bad":
                raise KeyError(key)
            return key

        with pytest.raises(KeyError):
            sched.fetch_many(["ok", "bad"], flaky)

    def test_rejects_zero_workers(self):
        with pytest.raises(ConfigError):
            IOScheduler(max_workers=0)


class TestRebookAccounting:
    def test_overlap_credit_is_deterministic(self):
        disk = InMemoryDisk(read_latency=0.005, write_latency=0.0, parallelism=4)
        disk.write("p", b"x" * 8)
        for _ in range(8):
            disk.read("p")
        writes_charged = disk.stats.simulated_seconds
        assert writes_charged == pytest.approx(8 * 0.005)
        credit = disk.rebook_overlapped_reads(8)
        # 8 reads drained 4 at a time: makespan 2 ticks, credit 6.
        assert credit == pytest.approx(6 * 0.005)
        assert disk.stats.simulated_seconds == pytest.approx(2 * 0.005)
        assert disk.stats.overlap_credit_seconds == pytest.approx(credit)
        # Invariant: simulated + credit always equals the serial charge.
        assert disk.stats.simulated_seconds + disk.stats.overlap_credit_seconds == (
            pytest.approx(8 * 0.005)
        )

    def test_rebook_is_noop_at_depth_one(self):
        disk = InMemoryDisk(read_latency=0.005, write_latency=0.0, parallelism=1)
        disk.write("p", b"x")
        for _ in range(8):
            disk.read("p")
        assert disk.rebook_overlapped_reads(8) == 0.0
        assert disk.stats.simulated_seconds == pytest.approx(8 * 0.005)
        assert disk.stats.overlap_credit_seconds == 0.0

    def test_rebook_ignores_single_reads(self):
        disk = InMemoryDisk(read_latency=0.005, write_latency=0.0, parallelism=4)
        assert disk.rebook_overlapped_reads(1) == 0.0
        assert disk.rebook_overlapped_reads(0) == 0.0

    def test_rejects_bad_parallelism(self):
        with pytest.raises(ConfigError):
            InMemoryDisk(parallelism=0)


class TestExecutorOverlap:
    def test_modeled_speedup_on_cold_plan(self):
        """A cold 8-read plan at depth 4 models >= 3x less disk time."""
        query = AnalysisQuery(start=date(2021, 1, 1), end=date(2021, 1, 8))

        index_serial, disk_serial = make_small_index(parallelism=1)
        serial = QueryExecutor(
            index_serial, optimizer=FlatPlanner(index_serial)
        ).execute(query)

        index_par, disk_par = make_small_index(parallelism=4)
        sched = IOScheduler(max_workers=8, metrics=MetricsRegistry())
        try:
            parallel = QueryExecutor(
                index_par,
                optimizer=FlatPlanner(index_par),
                iosched=sched,
            ).execute(query)
        finally:
            sched.shutdown()

        assert parallel.rows == serial.rows
        assert serial.stats.disk_reads == parallel.stats.disk_reads == 8
        assert disk_serial.stats.simulated_seconds == pytest.approx(8 * 0.005)
        assert disk_par.stats.simulated_seconds == pytest.approx(2 * 0.005)
        assert disk_par.stats.overlap_credit_seconds == pytest.approx(6 * 0.005)
        assert (
            disk_serial.stats.simulated_seconds
            >= 3 * disk_par.stats.simulated_seconds
        )

    def test_trace_counts_survive_overlapped_fetch(self):
        """cache + disk phase counts still sum to cube_count."""
        index, _ = make_small_index(parallelism=4)
        sched = IOScheduler(max_workers=4, metrics=MetricsRegistry())
        try:
            executor = QueryExecutor(
                index, optimizer=FlatPlanner(index), iosched=sched
            )
            result = executor.execute(
                AnalysisQuery(start=date(2021, 1, 1), end=date(2021, 1, 8))
            )
        finally:
            sched.shutdown()
        trace = result.stats.trace
        assert trace is not None
        phases = trace.phases
        fetched = sum(
            phases[name].count
            for name in ("phase1.fetch.cache", "phase1.fetch.disk")
            if name in phases
        )
        assert fetched == result.stats.cube_count == 8
