"""Shard failure semantics: degrade honestly, never answer wrong.

The contract mirrors PR 4's quarantine semantics one level up: a
shard that dies mid-query drops its cubes from the answer and flags
``partial=true`` — every returned total is a lower bound over the
surviving shards, never a silently wrong number.  A simulated *crash*
(:class:`CrashPoint`, a ``BaseException``) must instead propagate:
degradation is for component failures, not for the process-kill
simulation.

Injection rides the PR 4 harness: ``shard.query`` is a first-class
injection point, targeted as ``shard/<id>`` so ``page_prefix``
selects a shard the way it selects a page family, and
:func:`repro.testing.faults.shard_fault_hook` adapts a
:class:`FaultPlan` to the executor's ``fault_hook`` seam.
"""

from __future__ import annotations

import random
from datetime import date, timedelta

import pytest

from repro.core.cache import CacheManager
from repro.types.dimensions import default_schema
from repro.core.executor import QueryExecutor
from repro.core.hierarchy import HierarchicalIndex
from repro.core.optimizer import LevelOptimizer
from repro.core.query import AnalysisQuery
from repro.core.resultcache import EpochCounter, ResultCache
from repro.core.shard import (
    ScatterGatherExecutor,
    ShardedIndex,
    ShardedPageStore,
    shard_stores_for,
)
from repro.storage.disk import InMemoryDisk
from repro.synth.scale import scaled_day_updates
from repro.testing.faults import (
    CrashPoint,
    FaultPlan,
    FaultSpec,
    shard_fault_hook,
)

COUNTRIES = ("united_states", "india", "germany", "brazil", "qatar")
START = date(2021, 1, 1)
END = date(2021, 3, 31)
SHARDS = 4


def _updates(schema):
    rng = random.Random(17)
    updates = {}
    day = START
    while day <= END:
        updates[day] = scaled_day_updates(day, rng, schema, 6)
        day += timedelta(days=1)
    return updates


@pytest.fixture(scope="module")
def schema():
    return default_schema(COUNTRIES, road_types=5)


@pytest.fixture(scope="module")
def oracle(schema):
    index = HierarchicalIndex(
        schema, InMemoryDisk(read_latency=0.0, write_latency=0.0)
    )
    index.bulk_load(_updates(schema))
    cache = CacheManager(index, slots=16)
    cache.preload()
    return QueryExecutor(index, cache=cache, optimizer=LevelOptimizer(index))


def _build_engine(schema, fault_hook=None, slots=16, result_cache=None):
    disk = InMemoryDisk(read_latency=0.0, write_latency=0.0)
    index = ShardedIndex(
        schema, ShardedPageStore(shard_stores_for(disk, SHARDS), disk)
    )
    index.bulk_load(_updates(schema))
    cache = CacheManager(index, slots=slots) if slots else None
    if cache is not None:
        cache.preload()
    return ScatterGatherExecutor(
        index,
        cache=cache,
        optimizer=LevelOptimizer(index),
        result_cache=result_cache,
        fault_hook=fault_hook,
    )


QUERY = AnalysisQuery(
    start=date(2021, 2, 1), end=date(2021, 3, 15), group_by=("country",)
)


def _touched_shards(engine, query):
    plan = engine.plan(query)
    return {engine.sharded_index.shard_for(key) for key in plan.keys}


def test_dead_shard_yields_partial_lower_bound(schema, oracle):
    """Kill one planned shard: partial=true, every total a lower bound."""
    engine = _build_engine(schema)
    victim = sorted(_touched_shards(engine, QUERY))[0]
    plan = FaultPlan(
        specs=[
            FaultSpec(
                point="shard.query",
                kind="error",
                page_prefix=f"shard/{victim}",
                count=10**9,
            )
        ]
    )
    engine.fault_hook = shard_fault_hook(plan)
    truth = oracle.execute(QUERY)
    degraded = engine.execute(QUERY)
    assert degraded.stats.partial is True
    # The dead shard's keys are counted, the survivors' records are
    # merged in whole: together they account for every planned cube.
    lost = sum(
        engine.sharded_index.shard_for(key) == victim
        for key in engine.plan(QUERY).keys
    )
    stats = degraded.stats
    assert stats.quarantined_cubes == lost >= 1
    served = stats.cache_hits + stats.disk_reads
    assert served == stats.cube_count - lost == truth.stats.cube_count - lost
    assert stats.phases["phase2.aggregate"][1] == served
    assert plan.fired, "the injected shard fault never fired"
    # Never a wrong total: every surviving row is <= the truth, and
    # no row appears that the truth does not have.
    for key, value in degraded.rows.items():
        assert key in truth.rows
        assert value <= truth.rows[key], (key, value, truth.rows[key])
    assert degraded.rows != truth.rows or len(degraded.rows) < len(
        truth.rows
    )


def test_dead_shard_in_series_fanout_yields_partial(schema, oracle):
    """Kill a shard under the batched series fan-out: same contract.

    A daily series is ONE fan-out carrying every
    period's keys, with its own gather loop — so the dead-shard
    degradation (partial=true, lower-bound rows, never a wrong total)
    needs pinning separately from the single-window path.
    """
    series = AnalysisQuery(
        start=date(2021, 2, 1), end=date(2021, 3, 15), group_by=("date",)
    )
    engine = _build_engine(schema)
    victim = sorted(_touched_shards(engine, series))[0]
    plan = FaultPlan(
        specs=[
            FaultSpec(
                point="shard.query",
                kind="error",
                page_prefix=f"shard/{victim}",
                count=10**9,
            )
        ]
    )
    engine.fault_hook = shard_fault_hook(plan)
    truth = oracle.execute(series)
    degraded = engine.execute(series)
    assert degraded.stats.partial is True
    assert degraded.stats.quarantined_cubes >= 1
    assert plan.fired, "the injected shard fault never fired"
    for key, value in degraded.rows.items():
        assert key in truth.rows
        assert value <= truth.rows[key], (key, value, truth.rows[key])
    assert degraded.rows != truth.rows or len(degraded.rows) < len(
        truth.rows
    )


def test_all_shards_dead_yields_empty_partial(schema):
    plan = FaultPlan.single(
        "shard.query", kind="error", page_prefix="shard/", count=10**9
    )
    engine = _build_engine(schema, fault_hook=shard_fault_hook(plan))
    result = engine.execute(QUERY)
    assert result.stats.partial is True
    assert result.rows == {}
    assert result.stats.quarantined_cubes == result.stats.cube_count > 0
    assert result.stats.cache_hits == result.stats.disk_reads == 0


def test_shard_heals_after_fault_exhausts(schema, oracle):
    """count=1: exactly one degraded answer, then exact answers again."""
    engine = _build_engine(schema)
    victim = sorted(_touched_shards(engine, QUERY))[0]
    plan = FaultPlan(
        specs=[
            FaultSpec(
                point="shard.query",
                kind="error",
                page_prefix=f"shard/{victim}",
                count=1,
            )
        ]
    )
    engine.fault_hook = shard_fault_hook(plan)
    truth = oracle.execute(QUERY)
    first = engine.execute(QUERY)
    assert first.stats.partial is True
    second = engine.execute(QUERY)
    assert second.stats.partial is False
    assert second.rows == truth.rows


def test_partial_answers_are_never_memoized(schema, oracle):
    """A degraded answer must not be served from the result cache."""
    engine = _build_engine(
        schema, result_cache=ResultCache(8, EpochCounter())
    )
    victim = sorted(_touched_shards(engine, QUERY))[0]
    plan = FaultPlan(
        specs=[
            FaultSpec(
                point="shard.query",
                kind="error",
                page_prefix=f"shard/{victim}",
                count=1,
            )
        ]
    )
    engine.fault_hook = shard_fault_hook(plan)
    degraded = engine.execute(QUERY)
    assert degraded.stats.partial is True
    healed = engine.execute(QUERY)
    assert healed.stats.partial is False
    assert healed.rows == oracle.execute(QUERY).rows
    # Now that a full answer is memoized, it IS served from cache.
    memoized = engine.execute(QUERY)
    assert memoized.rows == healed.rows


def test_crash_point_propagates(schema):
    """A simulated process kill is not a degradable component failure."""
    plan = FaultPlan.single(
        "shard.query", kind="crash", page_prefix="shard/", count=1
    )
    engine = _build_engine(schema, fault_hook=shard_fault_hook(plan))
    with pytest.raises(CrashPoint):
        engine.execute(QUERY)


def test_slow_shard_answers_exactly_but_slower(schema, oracle):
    """A delayed shard changes its device's clock, never the answer —
    and never the query's modeled time, which counts the query's reads."""
    delay = 0.05
    engine = _build_engine(schema)
    victim = sorted(_touched_shards(engine, QUERY))[0]
    plan = FaultPlan(
        specs=[
            FaultSpec(
                point="shard.query",
                kind="delay",
                page_prefix=f"shard/{victim}",
                count=10**9,
                delay_seconds=delay,
            )
        ]
    )
    engine.fault_hook = shard_fault_hook(plan)
    stores = engine.sharded_index.routed.shard_stores
    truth = oracle.execute(QUERY)
    slow = engine.execute(QUERY)
    assert slow.rows == truth.rows
    assert slow.stats.partial is False
    # The delay landed on the slow shard's device clock, and only there.
    clocks = [store.stats.simulated_seconds for store in stores]
    assert clocks[victim] == pytest.approx(delay)
    assert sum(clocks) == pytest.approx(delay)
    # Zero-latency disks: the query's own reads model no time at all.
    assert slow.stats.simulated_seconds == slow.stats.wall_seconds


def test_phase_names_mean_the_same_in_every_engine(schema, oracle):
    """One pipeline, one phase vocabulary: the scatter engine reports
    its cache hits under ``phase1.fetch.cache`` (it used to bill them
    to ``phase1.fetch.disk``), and ``phase1.plan`` counts one
    plan per window whichever engine ran."""
    # Both end inside the preloaded (newest) days, so cubes are resident.
    window = AnalysisQuery(
        start=date(2021, 3, 10), end=END, group_by=("country",)
    )
    series = AnalysisQuery(
        start=date(2021, 3, 22), end=END, group_by=("date",)
    )
    sharded = _build_engine(schema)
    for engine in (oracle, sharded):
        for query, windows in ((window, 1), (series, 10)):
            result = engine.execute(query)
            phases = result.stats.phases
            assert phases["phase1.plan"][1] == windows
            assert result.stats.cache_hits > 0
            cache_seconds, cache_count = phases["phase1.fetch.cache"]
            assert cache_count == result.stats.cache_hits
            assert cache_seconds > 0.0
            fetched = cache_count + phases.get("phase1.fetch.disk", (0.0, 0))[1]
            assert fetched == result.stats.cube_count
            assert "phase2.aggregate" in phases


def test_injection_point_is_registered():
    from repro.testing.faults import INJECTION_POINTS

    assert "shard.query" in INJECTION_POINTS
    # And the spec validator accepts it.
    FaultSpec(point="shard.query", kind="delay", delay_seconds=0.01)
