"""Tests for the I/O scheduler: the phase-1 read loop on the calling
thread, and the modeled time of a batch at the disk's queue depth."""

from __future__ import annotations

import random
import threading
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
from repro.core.shard import (
    ScatterGatherExecutor,
    ShardedIndex,
    ShardedPageStore,
    shard_stores_for,
)
from repro.errors import ConfigError, DeadlineExceededError
from repro.obs import MetricsRegistry
from repro.obs.span import Tracer
from repro.storage.disk import InMemoryDisk
from repro.storage.pages import PageStoreProxy, modeled_read_seconds
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


@pytest.fixture()
def sched():
    return IOScheduler(metrics=MetricsRegistry())


def _thread_names() -> list[str]:
    return sorted(thread.name for thread in threading.enumerate())


class TestRun:
    """One batch's run: every load on the calling thread, in order."""

    def test_every_load_runs_on_the_caller_and_starts_no_thread(self, sched):
        before = _thread_names()
        ran_on: list[str] = []

        def load(key):
            ran_on.append(threading.current_thread().name)
            return key * key

        assert sched.fetch_many(range(20), load) == {k: k * k for k in range(20)}
        assert ran_on == [threading.current_thread().name] * 20
        assert _thread_names() == before

    @pytest.mark.parametrize("failing", [0, 2])
    def test_any_tasks_exception_reaches_the_caller(self, sched, failing):
        """A load's exception abandons the batch: no later key loads."""
        loaded: list[int] = []

        def load(n):
            loaded.append(n)
            if n == failing:
                raise KeyError(n)
            return n

        with pytest.raises(KeyError):
            sched.fetch_many(range(4), load)
        assert loaded == list(range(failing + 1))


class TestSingleFlight:
    """``fetch_many``'s contract for ONE batch (the class keeps its name
    from the cross-batch in-flight table it once covered; what is left
    of "single flight" is that a key asked for twice is loaded once)."""

    def test_fetch_many_loads_each_key_once(self):
        sched = IOScheduler(metrics=MetricsRegistry())
        loads = []
        values = sched.fetch_many(
            ["a", "b", "a", "c", "b"],
            lambda key: loads.append(key) or key.upper(),
        )
        assert values == {"a": "A", "b": "B", "c": "C"}
        assert loads == ["a", "b", "c"]
        assert sched.metrics.value("rased_iosched_fetches_total") == 3
        assert sched.metrics.value("rased_iosched_batches_total") == 1

    def test_fetch_many_propagates_exceptions(self):
        sched = IOScheduler(metrics=MetricsRegistry())

        def flaky(key):
            if key == "bad":
                raise KeyError(key)
            return key

        with pytest.raises(KeyError):
            sched.fetch_many(["ok", "bad"], flaky)


class TestSlices:
    """A batch is one slice, read key by key on the calling thread: the
    deadline before every read, a lost page dropped on its own."""

    def test_small_batches_stay_off_the_pool(self, sched):
        """There is no pool: batches of any size stay on the caller."""
        before = _thread_names()
        for keys in (["k"], ["a", "b"], [str(n) for n in range(20)]):
            ran_on = []

            def load(key):
                ran_on.append(threading.current_thread().name)
                return key.upper()

            assert sched.fetch_many(keys, load) == {k: k.upper() for k in keys}
            assert set(ran_on) == {threading.current_thread().name}
        assert _thread_names() == before

    def test_concurrent_batches_each_read_every_page(self):
        """Nothing is shared between batches: two queries missing the
        same cubes at once both get every cube, and the store serves
        each page twice (reuse across queries is the result memo's)."""
        index, disk = make_small_index(days=8, read_latency=0.0)
        keys = sorted(index.keys(Level.DAY))
        sched = IOScheduler(metrics=MetricsRegistry())
        both_inside = threading.Barrier(2)
        met: set[str] = set()

        def load(key):
            # Each batch's own thread waits once for the other batch,
            # so the two are provably in flight together.
            name = threading.current_thread().name
            if name not in met:
                met.add(name)
                both_inside.wait(timeout=5)
            return index.get(key)

        batches: dict[str, dict] = {}

        def run(name):
            batches[name] = sched.fetch_many(keys, load)

        threads = [
            threading.Thread(target=run, args=(name,), name=name)
            for name in ("batch-a", "batch-b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        for values in batches.values():
            assert sorted(values) == keys
            assert all(cube is not None for cube in values.values())
        assert disk.stats.reads == 2 * len(keys)
        assert sched.metrics.value("rased_iosched_fetches_total") == 2 * len(keys)

    def test_expired_deadline_stops_a_slice_before_its_next_key(self, sched):
        now = [0.0]
        deadline = Deadline(1.0, clock=lambda: now[0])
        loaded: list[int] = []

        def load(key):
            loaded.append(key)
            now[0] = 2.0  # the first load burns the budget
            return key

        with deadline_scope(deadline), pytest.raises(
            DeadlineExceededError, match="iosched.fetch"
        ):
            sched.fetch_many(range(20), load)
        assert loaded == [0]

    def test_already_expired_deadline_loads_nothing(self, sched):
        deadline = Deadline(1.0, clock=iter([0.0] + [5.0] * 100).__next__)
        loaded: list[str] = []
        with deadline_scope(deadline), pytest.raises(DeadlineExceededError):
            sched.fetch_many(["only"], loaded.append)
        assert loaded == []

    def test_degradable_error_drops_that_key_only(self, sched):
        """A vanished page is ``None`` for its key; the rest of the
        batch still loads."""
        index, disk = make_small_index(days=8, read_latency=0.0)
        keys = sorted(index.keys(Level.DAY))
        disk.delete(f"cubes/{keys[2]}")
        part = local_gather(
            index,
            None,
            [(0, key) for key in keys],
            Selection(index.schema),
            sched,
        )
        assert part.stats.partial and part.stats.quarantined_cubes == 1
        assert part.stats.disk_reads_by_level == {Level.DAY: 7}
        assert part.stats.phases["phase1.fetch.disk"][1] == 8
        assert part.stats.phases["phase2.aggregate"][1] == 7
        assert index.quarantined_keys() == [keys[2]]
        assert int(part.arrays[0]) == 3 * 7  # three updates a day


class TestNoThreadHop:
    """A cold query is served start to finish by the calling thread:
    every span of its tree is recorded there, and no thread starts."""

    @pytest.mark.parametrize("shards", [1, 4])
    def test_cold_query_stays_on_the_calling_thread(self, shards):
        index, _ = make_small_index(days=8)
        if shards > 1:
            disk = InMemoryDisk(read_latency=0.005, write_latency=0.0)
            sharded = ShardedIndex(
                index.schema, ShardedPageStore(shard_stores_for(disk, shards), disk)
            )
            for key in index.keys(Level.DAY):
                sharded.put(index.get(key))
            engine = ScatterGatherExecutor(sharded, optimizer=FlatPlanner(sharded))
        else:
            engine = QueryExecutor(index, optimizer=FlatPlanner(index))
        traces: list = []

        class Sink:
            record = staticmethod(traces.append)

        engine.tracer = Tracer(recorder=Sink())
        before = _thread_names()
        result = engine.execute(
            AnalysisQuery(
                start=date(2021, 1, 1), end=date(2021, 1, 8), group_by=("country",)
            )
        )
        assert _thread_names() == before
        assert result.stats.disk_reads == 8
        [trace] = traces
        assert {s.thread_name for s in trace.spans} == {
            threading.current_thread().name
        }
        names = trace.span_names()
        assert names.count("storage.disk.read") == 8
        if shards > 1:
            assert names.count("shard.query") > 1  # the plan did fan out


class TestModeledReadSeconds:
    @pytest.mark.parametrize("latency", [0.0, 0.005])
    @pytest.mark.parametrize(
        "reads, parallelism, ticks",
        [(0, 1, 0), (1, 1, 1), (8, 1, 8), (0, 4, 0), (1, 4, 1), (8, 4, 2)],
    )
    def test_batch_makespan(self, reads, parallelism, ticks, latency):
        """``ceil(reads / parallelism)`` read latencies: serial reads
        are the depth-1 case, 8 reads drain 4 at a time in 2."""
        assert modeled_read_seconds(reads, latency, parallelism) == ticks * latency

    def test_latency_model_reads_through_a_proxy(self):
        disk = InMemoryDisk(read_latency=0.005, parallelism=4)
        proxy = PageStoreProxy(disk)
        assert (proxy.read_latency, proxy.parallelism) == (0.005, 4)

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
        parallel = QueryExecutor(
            index_par, optimizer=FlatPlanner(index_par)
        ).execute(query)

        assert parallel.rows == serial.rows
        assert serial.stats.disk_reads == parallel.stats.disk_reads == 8
        modeled_serial = serial.stats.simulated_seconds - serial.stats.wall_seconds
        modeled_par = parallel.stats.simulated_seconds - parallel.stats.wall_seconds
        assert modeled_serial == pytest.approx(8 * 0.005)
        assert modeled_par == pytest.approx(2 * 0.005)
        # The devices served 8 reads each, one after another.
        assert disk_serial.stats.simulated_seconds == pytest.approx(8 * 0.005)
        assert disk_par.stats.simulated_seconds == pytest.approx(8 * 0.005)

    def test_trace_counts_survive_overlapped_fetch(self):
        """cache + disk phase counts still sum to cube_count."""
        index, _ = make_small_index(parallelism=4)
        executor = QueryExecutor(index, optimizer=FlatPlanner(index))
        result = executor.execute(
            AnalysisQuery(start=date(2021, 1, 1), end=date(2021, 1, 8))
        )
        phases = result.stats.phases
        fetched = sum(
            phases[name][1]
            for name in ("phase1.fetch.cache", "phase1.fetch.disk")
            if name in phases
        )
        assert fetched == result.stats.cube_count == 8
