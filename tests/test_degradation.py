"""Graceful degradation, end to end: quarantine → partial=true → heal.

The ISSUE contract: a corrupt or missing cube page must not take the
dashboard down.  The executor answers what it can with an explicit
``partial=true`` flag, the bad cube is quarantined (visible on
``/health`` and the metrics registry), and rewriting the cube heals it
back into service — including through the HTTP surface and around the
result cache (a partial answer must never be memoized as if complete).
"""

from __future__ import annotations

import json
import time
import urllib.request
from datetime import date, timedelta

import pytest

from repro.types.temporal import day_key, iter_days, month_key
from repro.core.hierarchy import page_id_for
from repro.core.query import AnalysisQuery
from repro.dashboard.server import DashboardServer
from repro.storage.disk import InMemoryDisk
from repro.storage.serializer import deserialize_cube
from repro.synth.simulator import SimulationConfig
from repro.system import RasedSystem, SystemConfig
from repro.testing import FaultPlan, FaultyPageStore
from tests.v3pages import corruptions

START = date(2021, 1, 1)
END = date(2021, 1, 4)
VICTIM = date(2021, 1, 2)

_QUERY = AnalysisQuery(start=START, end=END)


def _build(atlas, store=None, **config_kw) -> RasedSystem:
    system = RasedSystem.create(
        atlas=atlas,
        store=store or InMemoryDisk(read_latency=0, write_latency=0),
        config=SystemConfig(
            road_types=8,
            cache_slots=0,
            simulation=SimulationConfig(
                seed=23,
                mapper_count=6,
                base_sessions_per_day=2,
                nodes_per_country=2,
            ),
            **config_kw,
        ),
    )
    system.simulate_and_ingest(START, END)
    return system


@pytest.fixture(scope="module")
def clean_totals(atlas) -> tuple[int, int]:
    """(window total, victim-day total) from an unbroken deployment."""
    dashboard = _build(atlas).dashboard
    return (
        dashboard.analysis(_QUERY).total,
        dashboard.analysis(AnalysisQuery(start=VICTIM, end=VICTIM)).total,
    )


class TestPartialAnswers:
    @pytest.mark.parametrize("shards", [1, 4])
    def test_missing_page_yields_partial_not_crash(
        self, atlas, clean_totals, shards
    ):
        """Both read paths (one store and the scatter-gather over shard
        stores) degrade the same way: answer minus the lost day, flagged
        partial."""
        full_total, victim_total = clean_totals
        system = _build(atlas, shards=shards)
        system.index.store.delete(page_id_for(day_key(VICTIM)))

        result = system.dashboard.analysis(_QUERY)
        assert result.stats.partial is True
        assert result.stats.quarantined_cubes == 1
        assert result.total == full_total - victim_total
        assert system.index.quarantined_count() == 1

    def test_corrupt_read_from_fault_plan_quarantines(self, atlas, clean_totals):
        """An injected bit-flip on a cube read ends in quarantine, not
        a crashed query — the paper's dashboard stays up."""
        full_total, _ = clean_totals
        disk = InMemoryDisk(read_latency=0, write_latency=0)
        faulty = FaultyPageStore(disk)
        system = _build(atlas, store=faulty)
        faulty.plan = FaultPlan.single(
            "store.read",
            kind="corrupt",
            seed=3,
            page_prefix=f"cubes/{day_key(VICTIM)}",
        )
        result = system.dashboard.analysis(_QUERY)
        assert result.stats.partial is True
        assert result.total < full_total
        assert day_key(VICTIM) in system.index.quarantined_keys()

    @pytest.mark.parametrize("shards", [1, 4])
    def test_v3_page_past_int64_behind_valid_crc_is_quarantined(
        self, atlas, clean_totals, shards
    ):
        """A sparse header whose first cell is >= 2**63, checksum valid:
        the decoder used to leak numpy's OverflowError (a 500, the key
        never quarantined); it must degrade like any corrupt page."""
        full_total, victim_total = clean_totals
        system = _build(atlas, shards=shards)
        cube_store = system.index.store
        victim_page = page_id_for(day_key(VICTIM))
        cube_store.write(
            victim_page,
            corruptions(cube_store.read(victim_page), system.schema.cell_count)[
                "first_cell = 2**63 !"
            ],
        )
        result = system.dashboard.analysis(_QUERY)
        assert result.stats.partial is True
        assert result.total == full_total - victim_total
        assert system.index.quarantined_keys() == [day_key(VICTIM)]

    def test_metrics_count_partial_answers(self, atlas):
        system = _build(atlas)
        system.store.delete(page_id_for(day_key(VICTIM)))
        system.dashboard.analysis(_QUERY)
        counters = system.metrics.snapshot()["counters"]
        assert counters["rased_queries_partial_total"][0]["value"] == 1
        assert counters["rased_query_quarantined_cubes_total"][0]["value"] == 1

    def test_heal_by_rewriting_the_cube(self, atlas, clean_totals):
        full_total, _ = clean_totals
        system = _build(atlas)
        victim_page = page_id_for(day_key(VICTIM))
        good_bytes = system.store.read(victim_page)
        system.store.delete(victim_page)
        assert system.dashboard.analysis(_QUERY).stats.partial is True

        system.index.put(deserialize_cube(good_bytes, system.schema, day_key(VICTIM)))
        healed = system.dashboard.analysis(_QUERY)
        assert healed.stats.partial is False
        assert healed.total == full_total
        assert system.index.quarantined_count() == 0


class TestResultCacheInteraction:
    def test_partial_answers_are_never_memoized(self, atlas, clean_totals):
        """A memoized partial answer would keep serving the hole after
        the heal; the executor must skip the result cache for them."""
        full_total, _ = clean_totals
        system = _build(atlas, result_cache_slots=8)
        victim_page = page_id_for(day_key(VICTIM))
        good_bytes = system.store.read(victim_page)
        system.store.delete(victim_page)

        first = system.dashboard.analysis(_QUERY)
        second = system.dashboard.analysis(_QUERY)
        assert first.stats.partial and second.stats.partial

        system.index.put(deserialize_cube(good_bytes, system.schema, day_key(VICTIM)))
        healed = system.dashboard.analysis(_QUERY)
        assert healed.stats.partial is False
        assert healed.total == full_total


class TestHttpSurface:
    @pytest.fixture()
    def degraded_server(self, atlas):
        system = _build(atlas)
        system.store.delete(page_id_for(day_key(VICTIM)))
        with DashboardServer(system.dashboard) as server:
            yield server, system

    def _post_analysis(self, server):
        request = urllib.request.Request(
            server.url + "/analysis",
            data=json.dumps(
                {"start": START.isoformat(), "end": END.isoformat()}
            ).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())

    def test_analysis_carries_the_partial_flag(self, degraded_server):
        server, _ = degraded_server
        status, payload = self._post_analysis(server)
        assert status == 200
        assert payload["partial"] is True
        assert payload["stats"]["quarantined_cubes"] == 1

    def test_health_reports_degraded(self, degraded_server):
        server, _ = degraded_server
        # The quarantine happens on first touch; trigger it.
        self._post_analysis(server)
        with urllib.request.urlopen(server.url + "/health") as response:
            payload = json.loads(response.read())
        assert payload["status"] == "degraded"
        assert payload["quarantined_cubes"] == 1

    def test_prometheus_exposes_partial_counters(self, degraded_server):
        server, _ = degraded_server
        self._post_analysis(server)
        with urllib.request.urlopen(server.url + "/metrics") as response:
            text = response.read().decode("utf-8")
        assert "rased_queries_partial_total 1" in text


class TestQuarantineScope:
    def test_untouched_days_still_answer_complete(self, atlas):
        """Queries that never touch the quarantined day stay partial-free."""
        system = _build(atlas)
        system.store.delete(page_id_for(day_key(VICTIM)))
        clean = AnalysisQuery(start=END - timedelta(days=1), end=END)
        result = system.dashboard.analysis(clean)
        assert result.stats.partial is False
        assert result.stats.quarantined_cubes == 0


# -- a 31-day root with 200 rows a day and no cube cache ----------------------

JAN = [date(2021, 1, 1) + timedelta(days=i) for i in range(31)]


def _month_root(atlas, shards=1) -> RasedSystem:
    from random import Random

    from repro.synth.scale import scaled_day_updates

    system = RasedSystem.create(
        atlas=atlas,
        store=InMemoryDisk(read_latency=0, write_latency=0),
        config=SystemConfig(road_types=8, cache_slots=0, shards=shards),
    )
    rng = Random(5)
    system.index.bulk_load(
        {day: scaled_day_updates(day, rng, system.schema, 200) for day in JAN}
    )
    return system


def _by_type(day: date) -> AnalysisQuery:
    return AnalysisQuery(start=day, end=day, group_by=("element_type",))


@pytest.fixture(scope="module")
def clean_days(atlas) -> dict[date, dict]:
    """Each January day's answer by element type, on an untouched root."""
    dashboard = _month_root(atlas).dashboard
    return {day: dict(dashboard.analysis(_by_type(day)).sorted_rows()) for day in JAN}


class TestMisfiledPage:
    """A whole, CRC-valid page stored under another cube's page id (a
    misdirected write, a restored backup under the wrong name) is
    corrupt: served, it would answer with another day's counts."""

    @pytest.mark.parametrize("shards", [1, 4])
    def test_another_days_page_is_quarantined_not_served(
        self, atlas, clean_days, shards
    ):
        system = _month_root(atlas, shards=shards)
        store = system.index.store
        victim, donor = day_key(date(2021, 1, 3)), day_key(date(2021, 1, 4))
        store.write(page_id_for(victim), store.read(page_id_for(donor)))

        result = system.dashboard.analysis(_by_type(victim.start))
        assert result.stats.partial is True
        assert result.rows == {}
        assert system.index.quarantined_keys() == [victim]
        for day in JAN:
            if day != victim.start:
                answer = system.dashboard.analysis(_by_type(day))
                assert answer.stats.partial is False
                assert dict(answer.sorted_rows()) == clean_days[day]
        with DashboardServer(system.dashboard) as server:
            with urllib.request.urlopen(server.url + "/health") as response:
                health = json.loads(response.read())
        assert health["status"] == "degraded"
        assert health["quarantined_cubes"] == 1


class TestWindowsOutsideCoverage:
    """Each window is planned clipped to the span the catalog's cubes
    cover; the days cut off are counted missing, not visited."""

    @pytest.fixture(scope="class")
    def system(self, atlas):
        return _month_root(atlas)

    def test_a_window_of_millennia_answers_the_covered_month(self, system):
        inside = system.dashboard.analysis(
            AnalysisQuery(start=JAN[0], end=JAN[-1], group_by=("element_type",))
        )
        huge = AnalysisQuery(
            start=date(1, 1, 1), end=date(9998, 12, 31), group_by=("element_type",)
        )
        started = time.perf_counter()
        result = system.dashboard.analysis(huge)
        assert time.perf_counter() - started < 1.0
        assert result.rows == inside.rows and result.rows
        assert result.stats.missing_days == (huge.end - huge.start).days + 1 - 31
        assert result.stats.cube_count == inside.stats.cube_count == 1

    def test_a_window_past_coverage_plans_as_its_covered_part(self, system):
        """Two years past the data: the keys, rows and missing days the
        unclipped search gave (every day but January's, listed in order)."""
        start, end = date(2020, 12, 1), date(2023, 1, 31)
        query = AnalysisQuery(start=start, end=end, group_by=("element_type",))
        result = system.dashboard.analysis(query)
        optimizer = system.executor.optimizer
        plan = optimizer.plan(start, end)
        assert plan.keys == optimizer.plan(JAN[0], JAN[-1]).keys == [month_key(2021, 1)]
        outside = [day for day in iter_days(start, end) if day not in JAN]
        assert plan.missing_days == outside
        assert plan.missing_count == result.stats.missing_days == len(outside)
        inside = system.dashboard.analysis(
            AnalysisQuery(start=JAN[0], end=JAN[-1], group_by=("element_type",))
        )
        assert result.rows == inside.rows

    def test_a_quarantined_last_day_keeps_the_month_cube_in_the_plan(self, atlas):
        system = _month_root(atlas)
        system.index.quarantine(day_key(JAN[-1]))
        plan = system.executor.optimizer.plan(date(2020, 1, 1), date(2022, 12, 31))
        assert plan.keys == [month_key(2021, 1)]
        assert plan.missing_count == (date(2022, 12, 31) - date(2020, 1, 1)).days + 1 - 31

    def test_an_empty_catalog_plans_nothing(self, atlas):
        system = RasedSystem.create(
            atlas=atlas,
            store=InMemoryDisk(read_latency=0, write_latency=0),
            config=SystemConfig(road_types=8, cache_slots=0),
        )
        result = system.dashboard.analysis(AnalysisQuery(start=JAN[0], end=JAN[-1]))
        assert result.rows == {} and result.stats.missing_days == 31
