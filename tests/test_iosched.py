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
from repro.types.temporal import Level
from repro.core.deadline import Deadline, deadline_scope
from repro.core.executor import QueryExecutor, local_gather
from repro.core.hierarchy import HierarchicalIndex
from repro.core.iosched import IOScheduler
from repro.core.optimizer import FlatPlanner
from repro.core.query import AnalysisQuery
from repro.errors import ConfigError, DeadlineExceededError
from repro.obs import MetricsRegistry
from repro.storage.disk import InMemoryDisk
from repro.types.cube import Selection

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


class TestSlices:
    """``fetch_many`` hands the pool slices, not pages: the call budget
    as counts (no timings), and what must survive the change."""

    @pytest.fixture()
    def sched(self):
        sched = IOScheduler(max_workers=4, metrics=MetricsRegistry())
        yield sched
        sched.shutdown()

    @staticmethod
    def _count_submissions(sched, monkeypatch):
        submitted = []
        submit = sched._pool.submit
        monkeypatch.setattr(
            sched._pool,
            "submit",
            lambda *args, **kwargs: submitted.append(args) or submit(*args, **kwargs),
        )
        return submitted

    def test_twenty_keys_cost_three_submissions(self, sched, monkeypatch):
        submitted = self._count_submissions(sched, monkeypatch)
        ran_on: dict[int, list[str]] = {}

        def load(key):
            ran_on.setdefault(key, []).append(threading.current_thread().name)
            return key * key

        batch = sched.fetch_many(range(20), load)
        assert len(submitted) <= 3
        assert batch.values == {key: key * key for key in range(20)}
        assert batch.led + batch.coalesced == 20 and batch.led == 20
        assert all(len(threads) == 1 for threads in ran_on.values())
        # <= width slices of <= ceil(20 / 4) keys, one of them run by the
        # caller: with loads that really wait, the makespan stays 5
        # latencies.
        slices = [list(args[3]) for args in submitted]
        mine = [k for k, (name,) in ran_on.items() if name == threading.current_thread().name]
        assert all(len(keys) <= 5 for keys in slices) and len(mine) == 5
        assert sorted(mine + [key for keys in slices for key in keys]) == list(range(20))

    def test_small_batches_stay_off_the_pool(self, sched, monkeypatch):
        submitted = self._count_submissions(sched, monkeypatch)
        assert sched.fetch_many(["k"], str.upper).values == {"k": "K"}
        assert submitted == []
        assert sched.fetch_many(["a", "b"], str.upper).led == 2
        assert len(submitted) == 1  # two slices: the caller's and one more

    def test_concurrent_batches_read_each_page_once(self, sched):
        """A second batch meeting keys the first has in flight waits for
        those loads — slice by slice, key by key — and reads nothing."""
        loads: list[int] = []
        release = threading.Event()

        def load(key):
            loads.append(key)
            assert release.wait(timeout=5)
            return -key

        batches: dict[str, object] = {}

        def run(name, keys):
            batches[name] = sched.fetch_many(keys, load)

        # 8 keys, 4 slices: the caller and three of the four pool
        # threads each park inside their slice's first load.
        first = threading.Thread(target=run, args=("first", range(8)))
        first.start()
        deadline = time.perf_counter() + 5
        while len(loads) < 4 and time.perf_counter() < deadline:
            time.sleep(0.001)
        assert sorted(loads) == [0, 1, 2, 3]
        # Two of those keys again: this caller and the one free pool
        # thread both find a leader at work.
        second = threading.Thread(target=run, args=("second", [0, 1]))
        second.start()
        while (
            sched.metrics.value("rased_iosched_coalesced_total") < 2
            and time.perf_counter() < deadline
        ):
            time.sleep(0.001)
        release.set()
        for thread in (first, second):
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert sorted(loads) == list(range(8))  # every page read exactly once
        assert batches["first"].values == {key: -key for key in range(8)}
        assert (batches["first"].led, batches["first"].coalesced) == (8, 0)
        assert batches["second"].values == {0: 0, 1: -1}
        assert (batches["second"].led, batches["second"].coalesced) == (0, 2)
        assert sched.inflight_count == 0

    def test_expired_deadline_stops_a_slice_before_its_next_key(self, sched):
        now = [0.0]
        deadline = Deadline(1.0, clock=lambda: now[0])
        loaded: list[int] = []

        def load(key):
            loaded.append(key)
            now[0] = 2.0  # the first load of any slice burns the budget
            return key

        with deadline_scope(deadline), pytest.raises(DeadlineExceededError):
            sched.fetch_many(range(20), load)
        sched.shutdown()  # slices still on the pool stop at their next check
        # Each of the <= 4 slices gets at most one key in; never all 20.
        assert 1 <= len(loaded) <= 4
        assert sched.inflight_count == 0

    def test_already_expired_deadline_loads_nothing(self, sched):
        deadline = Deadline(1.0, clock=iter([0.0] + [5.0] * 100).__next__)
        loaded: list[str] = []
        with deadline_scope(deadline), pytest.raises(DeadlineExceededError):
            sched.fetch_many(["only"], loaded.append)
        assert loaded == []

    def test_degradable_error_drops_that_key_only(self, sched):
        """A vanished page is ``None`` for its key; the rest of its slice
        (and of the batch) still loads."""
        index, disk = make_small_index(days=8, read_latency=0.0)
        keys = sorted(index.keys(Level.DAY))
        disk.delete(f"cubes/{keys[2]}")
        part = local_gather(
            index,
            None,
            [(0, key) for key in keys],
            Selection(index.schema),
            iosched=sched,
        )
        assert part.stats.partial and part.stats.quarantined_cubes == 1
        assert part.stats.disk_reads_by_level == {Level.DAY: 7}
        assert part.stats.phases["phase1.fetch.disk"][1] == 8
        assert part.stats.phases["phase2.aggregate"][1] == 7
        assert index.quarantined_keys() == [keys[2]]
        assert int(part.arrays[0]) == 3 * 7  # three updates a day


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
        phases = result.stats.phases
        fetched = sum(
            phases[name][1]
            for name in ("phase1.fetch.cache", "phase1.fetch.disk")
            if name in phases
        )
        assert fetched == result.stats.cube_count == 8
