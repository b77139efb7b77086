"""Tests for stability analysis and scenario injection.

The key end-to-end check: plant an import event and a vandalism burst
with the scenario simulator, run the ordinary pipeline, and verify the
stability analyzer finds exactly the planted days.
"""

from __future__ import annotations

from datetime import date

import pytest

from repro.core.stability import StabilityAnalyzer
from repro.core.query import AnalysisQuery
from repro.errors import QueryError, SimulationError
from repro.storage.disk import InMemoryDisk
from repro.synth.scenarios import (
    ScenarioEvent,
    ScenarioSimulator,
    import_event,
    mapping_party,
    vandalism_event,
)
from repro.synth.simulator import SimulationConfig
from repro.system import RasedSystem, SystemConfig

SPAN = (date(2021, 3, 1), date(2021, 3, 31))
IMPORT_DAY = date(2021, 3, 17)
VANDAL_DAY = date(2021, 3, 24)


@pytest.fixture(scope="module")
def scenario_system(atlas):
    """A month with an import in qatar and vandalism in france."""
    system = RasedSystem.create(
        atlas=atlas,
        store=InMemoryDisk(read_latency=0, write_latency=0),
        config=SystemConfig(
            road_types=8,
            cache_slots=16,
            simulation=SimulationConfig(
                seed=55, mapper_count=30, base_sessions_per_day=10, nodes_per_country=8
            ),
        ),
    )
    # Swap the simulator for a scenario-enabled one sharing the config.
    system.simulator = ScenarioSimulator(
        atlas=atlas,
        config=system.config.simulation,
        events=[
            import_event(IMPORT_DAY, "qatar", sessions=8),
            vandalism_event(VANDAL_DAY, "france", sessions=6),
        ],
    )
    system.simulate_and_ingest(*SPAN, monthly_rebuild=True)
    system.warm_cache()
    # Denominators moved with the new simulator's world.
    for country, size in system.simulator.road_network_sizes().items():
        system.network_sizes.update_country(country, size)
    return system


@pytest.fixture(scope="module")
def analyzer(scenario_system):
    return StabilityAnalyzer(
        scenario_system.executor, scenario_system.network_sizes
    )


class TestScenarioSimulator:
    def test_unknown_country_rejected(self, atlas):
        sim = ScenarioSimulator(
            atlas=atlas,
            config=SimulationConfig(
                seed=1, mapper_count=10, base_sessions_per_day=4, nodes_per_country=6
            ),
        )
        with pytest.raises(Exception):
            sim.schedule(import_event(date(2021, 1, 1), "atlantis"))

    def test_zero_sessions_rejected(self):
        with pytest.raises(SimulationError):
            ScenarioEvent(
                day=date(2021, 1, 1),
                country="qatar",
                profile=mapping_party(date(2021, 1, 1), "qatar").profile,
                sessions=0,
                user="x",
            )

    def test_event_day_has_extra_activity(self, scenario_system):
        """The import day's qatar count dwarfs ordinary days."""
        from collections import Counter

        per_day = Counter()
        for day, truth in scenario_system.truth_by_day.items():
            per_day[day] = sum(1 for r in truth if r.country == "qatar")
        ordinary = [
            count for day, count in per_day.items() if day != IMPORT_DAY
        ]
        assert per_day[IMPORT_DAY] > 5 * (max(ordinary) or 1)

    def test_event_flows_through_changesets(self, scenario_system):
        users = {
            c.user
            for c in scenario_system.changeset_store
        }
        assert "import_program_qatar" in users
        assert "suspicious_france" in users

    def test_scheduled_days(self, scenario_system):
        assert scenario_system.simulator.scheduled_days() == [IMPORT_DAY, VANDAL_DAY]


class TestStabilityMetrics:
    def test_metrics_fields_consistent(self, analyzer):
        metrics = analyzer.zone_metrics("germany", *SPAN)
        assert metrics.zone == "germany"
        assert metrics.days == 31
        assert metrics.total_updates >= 0
        assert metrics.daily_mean == pytest.approx(metrics.total_updates / 31)
        assert 0 < metrics.stability_score <= 1.0

    def test_total_matches_direct_query(self, analyzer, scenario_system):
        metrics = analyzer.zone_metrics("qatar", *SPAN)
        direct = scenario_system.dashboard.analysis(
            AnalysisQuery(start=SPAN[0], end=SPAN[1], countries=("qatar",))
        )
        assert metrics.total_updates == direct.rows[()]

    def test_geometry_share_in_unit_interval(self, analyzer):
        metrics = analyzer.zone_metrics("france", *SPAN)
        assert 0.0 <= metrics.geometry_share <= 1.0

    def test_import_zone_less_stable_than_quiet_zone(self, analyzer):
        qatar = analyzer.zone_metrics("qatar", *SPAN)
        quiet = analyzer.zone_metrics("oceania_012", *SPAN)
        assert qatar.stability_score < quiet.stability_score

    def test_rank_zones_orders_by_score(self, analyzer):
        ranked = analyzer.rank_zones(["qatar", "france", "oceania_012"], *SPAN)
        scores = [m.stability_score for m in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_rank_zones_empty_rejected(self, analyzer):
        with pytest.raises(QueryError):
            analyzer.rank_zones([], *SPAN)


class TestAnomalyDetection:
    def test_import_day_detected(self, analyzer):
        anomalies = analyzer.detect_anomalies("qatar", *SPAN)
        assert IMPORT_DAY in {a.day for a in anomalies}

    def test_vandalism_day_detected(self, analyzer):
        anomalies = analyzer.detect_anomalies("france", *SPAN)
        assert VANDAL_DAY in {a.day for a in anomalies}

    def test_planted_day_is_top_anomaly(self, analyzer):
        """Organic synthetic activity is bursty too, so instead of
        demanding zero false positives we demand the planted import is
        the strongest signal in its zone."""
        anomalies = analyzer.detect_anomalies("qatar", *SPAN)
        top = max(anomalies, key=lambda a: a.z_score)
        assert top.day == IMPORT_DAY

    def test_silent_zone_has_no_anomalies(self, analyzer, scenario_system):
        """A zone with zero updates all month triggers nothing."""
        silent = None
        for zone in scenario_system.atlas.countries:
            total = scenario_system.dashboard.analysis(
                AnalysisQuery(start=SPAN[0], end=SPAN[1], countries=(zone.name,))
            ).rows.get((), 0)
            if total == 0:
                silent = zone.name
                break
        assert silent is not None, "expected at least one silent country"
        assert analyzer.detect_anomalies(silent, *SPAN) == []

    def test_anomaly_scores_positive(self, analyzer):
        for anomaly in analyzer.detect_anomalies("qatar", *SPAN):
            assert anomaly.z_score >= 3.0
            assert anomaly.count >= 5

    def test_short_window_rejected(self, analyzer):
        with pytest.raises(QueryError):
            analyzer.detect_anomalies("qatar", date(2021, 3, 1), date(2021, 3, 3))


class TestReport:
    def test_report_mentions_zones_and_anomalies(self, analyzer):
        report = analyzer.render_report(["qatar", "france", "germany"], *SPAN)
        assert "qatar" in report
        assert "score=" in report
        assert "!!" in report  # at least one anomaly called out
        assert str(IMPORT_DAY) in report


class TestZeroVarianceBaseline:
    def test_spike_in_silent_zone_detected_with_infinite_z(
        self, scenario_system, analyzer
    ):
        """A burst in an otherwise all-zero zone must be flagged even
        though the leave-one-out std is zero (regression test: the
        detector used to skip exactly the most extreme anomalies)."""
        from repro.types.temporal import day_key
        from repro.types.cube import DataCube

        # Fabricate a silent zone with one spike day directly in a
        # scratch index to isolate the detector's math.
        import math

        from repro.core.executor import QueryExecutor
        from repro.core.hierarchy import HierarchicalIndex
        from repro.collection.records import UpdateList, UpdateRecord
        from repro.storage.disk import InMemoryDisk

        schema = scenario_system.schema
        disk = InMemoryDisk(read_latency=0, write_latency=0)
        index = HierarchicalIndex(schema, disk, atlas=scenario_system.atlas)
        from datetime import timedelta

        spike_day = date(2021, 3, 15)
        center = scenario_system.atlas.zone("qatar").bbox.center
        day = date(2021, 3, 1)
        while day <= date(2021, 3, 31):
            rows = UpdateList()
            if day == spike_day:
                rows.extend(
                    UpdateRecord(
                        element_type="way",
                        date=day,
                        country="qatar",
                        latitude=center.lat,
                        longitude=center.lon,
                        road_type="residential",
                        update_type="create",
                        changeset_id=i + 1,
                    )
                    for i in range(40)
                )
            index.ingest_day(day, rows)
            day += timedelta(days=1)
        detector = StabilityAnalyzer(
            QueryExecutor(index), scenario_system.network_sizes
        )
        anomalies = detector.detect_anomalies("qatar", *SPAN)
        assert [a.day for a in anomalies] == [spike_day]
        assert math.isinf(anomalies[0].z_score)
