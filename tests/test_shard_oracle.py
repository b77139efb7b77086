"""Differential oracle suite: sharded answers == single-process answers.

The sharding tentpole's correctness contract is *byte identity*: for
any analysis query, the scatter-gather engine over N shards must
return exactly the rows (and exactly the ``partial`` flag) the
unsharded engine returns — not approximately, not "within float
noise".  The argument is plan-invariance (any exact cover yields the
same totals) plus exact int64 addition (grouping partial arrays by
shard cannot change a sum).  These tests are the empirical check of
that argument: a seeded sweep of dashboard-mix, single-cell, and
time-series queries — ranges, zones, filters, groupings — executed
against both engines at N ∈ {1, 2, 4, 8} (N=1 is the scatter engine
over a one-shard index: the degenerate case must be identical too),
every answer compared key-for-key, value-for-value.  Sharding is a
property of the page store only — one catalog, one cache — so the
cache contents and every ``QueryStats`` counter (cubes planned,
missing days, hits and reads by level, the count of every phase) must
equal the unsharded engine's as well, not just the rows.

Per shard count the sweep runs 70 queries (40 dashboard-mix across
two window spans, 20 single-cell, 10 daily series), so the whole
suite executes 280 differential comparisons — plus the same 70 through
an unsharded executor over a queue-depth-4 disk (modeled overlap must
change nothing but modeled time, counters included), and the
live-overlay comparisons, which drive two fully assembled
deployments (shards=1 vs shards=4) through the same simulated days and
compare ``analysis_live`` output.
"""

from __future__ import annotations

import dataclasses
import random
from datetime import date, timedelta

import pytest

from repro.core.cache import CacheManager
from repro.types.dimensions import default_schema
from repro.core.executor import QueryExecutor
from repro.core.hierarchy import HierarchicalIndex
from repro.core.optimizer import LevelOptimizer
from repro.core.query import AnalysisQuery
from repro.core.shard import (
    ScatterGatherExecutor,
    ShardedIndex,
    ShardedPageStore,
    shard_stores_for,
)
from repro.storage.disk import InMemoryDisk
from repro.synth.scale import scaled_day_updates
from repro.synth.simulator import SimulationConfig
from repro.synth.workload import QueryWorkload
from repro.system import RasedSystem, SystemConfig

COUNTRIES = (
    "united_states",
    "india",
    "germany",
    "brazil",
    "france",
    "vietnam",
    "qatar",
    "japan",
)
START = date(2021, 1, 1)
END = date(2021, 5, 31)
SHARD_COUNTS = (1, 2, 4, 8)


def _dataset():
    schema = default_schema(COUNTRIES, road_types=6)
    rng = random.Random(29)
    updates = {}
    day = START
    while day <= END:
        updates[day] = scaled_day_updates(day, rng, schema, 8)
        day += timedelta(days=1)
    return schema, updates


@pytest.fixture(scope="module")
def corpus():
    return _dataset()


@pytest.fixture(scope="module")
def oracle(corpus):
    """The unsharded engine every sharded answer is compared against."""
    schema, updates = corpus
    index = HierarchicalIndex(
        schema, InMemoryDisk(read_latency=0.0, write_latency=0.0)
    )
    index.bulk_load(updates)
    cache = CacheManager(index, slots=24)
    cache.preload()
    return QueryExecutor(index, cache=cache, optimizer=LevelOptimizer(index))


def _sharded_index(corpus, shards):
    schema, updates = corpus
    disk = InMemoryDisk(read_latency=0.0, write_latency=0.0)
    index = ShardedIndex(
        schema, ShardedPageStore(shard_stores_for(disk, shards), disk)
    )
    index.bulk_load(updates)
    return index


def _sharded_engine(corpus, shards):
    index = _sharded_index(corpus, shards)
    cache = CacheManager(index, slots=24)
    cache.preload()
    return ScatterGatherExecutor(index, cache=cache, optimizer=LevelOptimizer(index))


def _sweep(schema):
    workload = QueryWorkload(
        schema=schema, coverage_start=START, coverage_end=END, seed=41
    )
    queries = []
    queries += workload.dashboard_mix(span_days=30, count=20)
    queries += workload.dashboard_mix(span_days=120, count=20)
    queries += workload.single_cell(span_days=45, count=20)
    queries += workload.daily_series(span_days=21, count=10)
    return queries


def _assert_identical(oracle_result, sharded_result, query):
    assert sharded_result.rows == oracle_result.rows, (
        f"sharded rows diverge for {query}"
    )
    assert sharded_result.stats.partial == oracle_result.stats.partial, (
        f"partial flag diverges for {query}"
    )


def _counters(stats):
    """One execution's record minus its clock readings: every counter
    field, and the name and count of every phase.  The scatter engine
    builds its record by ``QueryStats.merge`` of one record per shard,
    so equality here is the merge being exact."""
    record = {
        field.name: getattr(stats, field.name)
        for field in dataclasses.fields(stats)
        if field.name not in ("simulated_seconds", "wall_seconds", "phases")
    }
    record["phase_counts"] = {
        phase: count for phase, (_, count) in stats.phases.items()
    }
    return record


def _assert_same_counters(oracle_result, sharded_result, query):
    expected = _counters(oracle_result.stats)
    assert len(expected) == 10 and expected["phase_counts"]
    assert _counters(sharded_result.stats) == expected, f"diverges for {query}"


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_oracle_sweep_byte_identical(corpus, oracle, shards):
    """70 seeded queries per shard count, compared answer-for-answer —
    and plan-for-plan: same cache contents, same counters."""
    schema, _ = corpus
    engine = _sharded_engine(corpus, shards)
    assert engine.cache.contents() == oracle.cache.contents()
    queries = _sweep(schema)
    assert len(queries) == 70
    for query in queries:
        expected, actual = oracle.execute(query), engine.execute(query)
        _assert_identical(expected, actual, query)
        _assert_same_counters(expected, actual, query)
    assert engine.cache.contents() == oracle.cache.contents()


def test_overlapped_reads_match_serial_oracle(corpus, oracle):
    """An unsharded engine over a disk of queue depth 4 — its miss
    batches modeled as overlapped reads — answers and *counts* exactly
    like the depth-1 oracle: only the modeled time may differ."""
    schema, updates = corpus
    index = HierarchicalIndex(
        schema, InMemoryDisk(read_latency=0.0, write_latency=0.0, parallelism=4)
    )
    index.bulk_load(updates)
    cache = CacheManager(index, slots=24)
    cache.preload()
    subject = QueryExecutor(index, cache=cache, optimizer=LevelOptimizer(index))
    for query in _sweep(schema):
        expected = oracle.execute(query)
        actual = subject.execute(query)
        _assert_identical(expected, actual, query)
        _assert_same_counters(expected, actual, query)


def test_total_query_volume_meets_spec(corpus):
    """The sweep above totals >= 200 differential comparisons."""
    schema, _ = corpus
    assert len(_sweep(schema)) * len(SHARD_COUNTS) >= 200


def test_oracle_without_caches(corpus, oracle):
    """Cache-free scatter (every read from a shard store) is identical."""
    schema, _ = corpus
    index = _sharded_index(corpus, 4)
    engine = ScatterGatherExecutor(
        index, cache=None, optimizer=LevelOptimizer(index)
    )
    sweep = _sweep(schema)
    # First 25 plus the daily-series tail, so the batched series
    # fan-out is exercised with no cache at all.
    for query in sweep[:25] + sweep[-10:]:
        _assert_identical(oracle.execute(query), engine.execute(query), query)


def test_one_shard_query_never_leaves_the_calling_thread(corpus, oracle):
    """Shard gathers run one after another on the querying thread: a
    one-shard query and one spread over several shards alike record
    every ``shard.query`` span there and start no thread."""
    import threading

    from repro.obs.span import Tracer

    engine = _sharded_engine(corpus, 4)
    traces: list = []

    class Sink:
        record = staticmethod(traces.append)

    engine.tracer = Tracer(recorder=Sink())
    one_day = AnalysisQuery(start=START, end=START, group_by=("country",))
    spread = AnalysisQuery(start=START, end=END, group_by=("country",))
    assert len(engine.plan(one_day).keys) == 1
    owners = {engine.index.shard_for(k) for k in engine.plan(spread).keys}
    assert len(owners) > 1
    before = sorted(thread.name for thread in threading.enumerate())
    for query, shards in ((one_day, 1), (spread, len(owners))):
        assert engine.execute(query).rows == oracle.execute(query).rows
        shard_spans = [s for s in traces[-1].spans if s.name == "shard.query"]
        assert len(shard_spans) == shards
        assert {s.thread_name for s in shard_spans} == {
            threading.current_thread().name
        }
    assert sorted(thread.name for thread in threading.enumerate()) == before


def test_sharded_catalog_matches_oracle(corpus, oracle):
    """The catalog over the routed store is exactly the oracle's."""
    index = _sharded_index(corpus, 4)
    oracle_index = oracle.index
    assert index.total_pages() == oracle_index.total_pages()
    assert index.coverage() == oracle_index.coverage()
    for level in oracle_index.levels:
        assert index.keys(level) == oracle_index.keys(level)
    assert index.pages_per_level() == oracle_index.pages_per_level()
    # Placement is total: the shard page counts partition the catalog.
    assert sum(
        entry["pages"] for entry in index.shard_status()
    ) == oracle_index.total_pages()
    # ...and it is where the pages physically are.
    assert [entry["pages"] for entry in index.shard_status()] == [
        store.page_count("cubes/") for store in index.routed.shard_stores
    ]


# -- live overlays over two full deployments --------------------------------


def _deployment(shards):
    return RasedSystem.create(
        config=SystemConfig(
            road_types=6,
            cache_slots=16,
            shards=shards,
            simulation=SimulationConfig(
                seed=7,
                mapper_count=8,
                base_sessions_per_day=3,
                nodes_per_country=5,
            ),
        )
    )


@pytest.fixture(scope="module")
def paired_live_systems():
    """shards=1 and shards=4 deployments fed identical simulated days."""
    systems = []
    for shards in (1, 4):
        system = _deployment(shards)
        system.simulate_and_ingest(date(2021, 3, 1), date(2021, 3, 14))
        # "Today": hourly diffs only, visible to the live monitor alone.
        system.publish_partial_day(date(2021, 3, 15), through_hour=13)
        system.poll_live()
        system.warm_cache()
        systems.append(system)
    return systems


def test_live_overlay_byte_identical(paired_live_systems):
    base, sharded = paired_live_systems
    assert isinstance(sharded.executor, ScatterGatherExecutor)
    for group_by in (("country",), ("date",), ("country", "element_type")):
        query = AnalysisQuery(
            start=date(2021, 3, 10), end=date(2021, 3, 15), group_by=group_by
        )
        a = base.dashboard.analysis_live(query)
        b = sharded.dashboard.analysis_live(query)
        assert a.rows == b.rows
        assert a.stats.partial == b.stats.partial
        # The overlay day contributed: drop it and the answers change.
        settled = AnalysisQuery(
            start=date(2021, 3, 10), end=date(2021, 3, 14), group_by=group_by
        )
        assert base.dashboard.analysis_live(settled).rows == (
            sharded.dashboard.analysis_live(settled).rows
        )


def test_ingested_history_identical_across_shard_counts(paired_live_systems):
    base, sharded = paired_live_systems
    query = AnalysisQuery(
        start=date(2021, 3, 1),
        end=date(2021, 3, 14),
        group_by=("country", "update_type"),
    )
    assert base.dashboard.analysis(query).rows == (
        sharded.dashboard.analysis(query).rows
    )


def test_shard_status_groups_the_one_catalog_and_cache(paired_live_systems):
    """/health's per-shard document is the single catalog, quarantine
    set and cache, grouped by placement — and the cache is the
    unsharded deployment's, key for key."""
    base, sharded = paired_live_systems
    assert sharded.cache.contents() == base.cache.contents()
    status = sharded.executor.shard_status()
    assert [entry["shard"] for entry in status] == [0, 1, 2, 3]
    assert sum(e["pages"] for e in status) == sharded.index.total_pages()
    assert sum(e["cached_cubes"] for e in status) == sharded.cache.cached_count
    assert all(e["quarantined_cubes"] == 0 for e in status)
    victim = sharded.index.keys(sharded.index.levels[0])[0]
    sharded.index.quarantine(victim)
    try:
        after = sharded.executor.shard_status()
        owner = sharded.index.shard_for(victim)
        assert after[owner]["quarantined_cubes"] == 1
        assert after[owner]["pages"] == status[owner]["pages"] - 1
    finally:
        sharded.index.reload_catalog()


# -- configuration contract --------------------------------------------------


def test_sharding_off_by_default():
    system = RasedSystem.create(
        config=SystemConfig(road_types=6, cache_slots=4)
    )
    assert not isinstance(system.executor, ScatterGatherExecutor)
    assert not isinstance(system.index, ShardedIndex)
    assert system.shard_stores == []
