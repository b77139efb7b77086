"""A query's modeled disk time is its own reads times the read latency.

Two queries sharing one store, or a query beside the daily writer, must
each report exactly what their own reads cost — never a neighbour's
reads or the writer's writes.  A gate in the store holds one query's
first read open while the other side works, so the overlap is certain
rather than a matter of thread scheduling.
"""

from __future__ import annotations

import random
import threading
from datetime import date, timedelta

import pytest

from repro.core.executor import QueryExecutor
from repro.core.hierarchy import HierarchicalIndex
from repro.core.optimizer import FlatPlanner
from repro.core.query import AnalysisQuery
from repro.storage.disk import InMemoryDisk
from repro.storage.pages import PageStoreProxy
from repro.synth.scale import scaled_day_updates
from repro.synth.simulator import SimulationConfig
from repro.system import RasedSystem, SystemConfig
from repro.types.dimensions import default_schema

READ_LATENCY = 0.005


class GatedStore(PageStoreProxy):
    """Holds the first read after :meth:`arm` until ``release`` is set."""

    def __init__(self, inner: InMemoryDisk) -> None:
        super().__init__(inner)
        self.armed = False
        self.entered = threading.Event()
        self.release = threading.Event()

    def arm(self) -> None:
        self.armed = True

    def read(self, page_id: str) -> bytes:
        if self.armed:
            self.armed = False
            self.entered.set()
            assert self.release.wait(timeout=60)
        return self.inner.read(page_id)


def modeled(result) -> float:
    return result.stats.simulated_seconds - result.stats.wall_seconds


def held_query(store: GatedStore, execute, query: AnalysisQuery):
    """Start ``query`` on a thread and return it, with the list its
    result lands in, once its first read is held."""
    out: list = []
    store.arm()
    thread = threading.Thread(target=lambda: out.append(execute(query)))
    thread.start()
    assert store.entered.wait(timeout=60)
    return thread, out


def test_concurrent_queries_each_report_their_own_reads():
    """A 366-read year query held open across a 20-read query: each
    reports its own reads, not the other's (the year used to report
    386 reads' worth)."""
    schema = default_schema(["united_states", "germany", "qatar"], road_types=4)
    store = GatedStore(InMemoryDisk(read_latency=READ_LATENCY, write_latency=0.0))
    index = HierarchicalIndex(schema, store)
    rng = random.Random(5)
    day, updates = date(2020, 1, 1), {}
    while day.year == 2020:
        updates[day] = scaled_day_updates(day, rng, schema, 2)
        day += timedelta(days=1)
    index.bulk_load(updates)
    executor = QueryExecutor(index, optimizer=FlatPlanner(index))

    year = AnalysisQuery(start=date(2020, 1, 1), end=date(2020, 12, 31))
    thread, out = held_query(store, executor.execute, year)
    short = executor.execute(
        AnalysisQuery(start=date(2020, 3, 1), end=date(2020, 3, 20))
    )
    store.release.set()
    thread.join(timeout=60)
    assert not thread.is_alive()
    (long,) = out

    assert (long.stats.disk_reads, short.stats.disk_reads) == (366, 20)
    assert modeled(long) == pytest.approx(366 * READ_LATENCY)
    assert modeled(short) == pytest.approx(20 * READ_LATENCY)


def test_query_beside_the_writer_excludes_its_writes(atlas):
    """A query held open across a durable ``run_daily`` reports its own
    reads, not the pages the writer wrote (or read) meanwhile."""
    disk = InMemoryDisk(read_latency=READ_LATENCY, write_latency=0.006)
    store = GatedStore(disk)
    system = RasedSystem.create(
        atlas=atlas,
        store=store,
        config=SystemConfig(
            road_types=8,
            fetch_parallelism=1,
            durable_ingest=True,
            simulation=SimulationConfig(
                seed=23, mapper_count=6, base_sessions_per_day=3, nodes_per_country=2
            ),
        ),
    )
    first = date(2021, 7, 1)
    for offset in range(7):
        system.publish_day(first + timedelta(days=offset))
    system.pipeline.run_daily()
    for offset in range(7, 14):
        system.publish_day(first + timedelta(days=offset))

    query = AnalysisQuery(
        start=first, end=first + timedelta(days=6), group_by=("country",)
    )
    thread, out = held_query(store, system.executor.execute, query)
    writes_before = disk.stats.writes
    report = system.pipeline.run_daily()
    writes = disk.stats.writes - writes_before
    store.release.set()
    thread.join(timeout=60)
    assert not thread.is_alive()
    (result,) = out

    assert report.days_processed == 7 and writes > 0
    assert result.stats.disk_reads > 0
    assert modeled(result) == pytest.approx(result.stats.disk_reads * READ_LATENCY)
