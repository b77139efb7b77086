"""Tests for result export and the system-level live overlay path."""

from __future__ import annotations

import io
import json
from datetime import date

import pytest

from repro.core.query import AnalysisQuery
from tests.support.export import (
    result_to_csv,
    result_to_json_text,
    timelapse_to_text,
)
from repro.errors import QueryError
from repro.storage.disk import InMemoryDisk
from repro.synth.simulator import SimulationConfig
from repro.system import RasedSystem, SystemConfig
from tests.conftest import INGESTED_END, INGESTED_START


@pytest.fixture(scope="module")
def result(ingested_system):
    return ingested_system.dashboard.analysis(
        AnalysisQuery(
            start=INGESTED_START,
            end=INGESTED_END,
            countries=("germany", "france", "qatar"),
            group_by=("country", "element_type"),
        )
    )


class TestCsvExport:
    def test_writes_header_and_rows(self, result, tmp_path):
        path = tmp_path / "out.csv"
        count = result_to_csv(result, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "country,element_type,value"
        assert len(lines) == count + 1

    def test_rows_sorted_descending(self, result):
        buffer = io.StringIO()
        result_to_csv(result, buffer)
        values = [
            int(line.rsplit(",", 1)[1])
            for line in buffer.getvalue().strip().splitlines()[1:]
        ]
        assert values == sorted(values, reverse=True)

    def test_date_cells_are_iso(self, ingested_system, tmp_path):
        series = ingested_system.dashboard.analysis(
            AnalysisQuery(
                start=date(2021, 1, 1),
                end=date(2021, 1, 7),
                countries=("germany",),
                group_by=("date",),
            )
        )
        buffer = io.StringIO()
        result_to_csv(series, buffer)
        assert "2021-01-0" in buffer.getvalue()


class TestJsonExport:
    def test_document_is_self_describing(self, result):
        payload = json.loads(result_to_json_text(result))
        assert payload["sql"].startswith("SELECT")
        assert payload["group_by"] == ["country", "element_type"]
        assert payload["rows"]
        assert "simulated_ms" in payload["stats"]

    def test_writes_to_path(self, result, tmp_path):
        path = tmp_path / "out.json"
        result_to_json_text(result, path)
        assert json.loads(path.read_text())["rows"]

    def test_round_trips_values(self, result):
        payload = json.loads(result_to_json_text(result))
        total = sum(row["value"] for row in payload["rows"])
        assert total == result.total


class TestTimelapseExport:
    def test_storyboard(self, ingested_system, tmp_path):
        frames = ingested_system.dashboard.timelapse(
            AnalysisQuery(
                start=INGESTED_START, end=INGESTED_END, group_by=("country",)
            )
        )
        path = tmp_path / "timelapse.txt"
        count = timelapse_to_text(frames, path)
        text = path.read_text()
        assert count == len(frames) == 2
        assert "frame 1/2" in text
        assert "shade scale" in text


class TestSystemLivePath:
    @pytest.fixture(scope="class")
    def live_system(self, atlas):
        system = RasedSystem.create(
            atlas=atlas,
            store=InMemoryDisk(read_latency=0, write_latency=0),
            config=SystemConfig(
                road_types=8,
                cache_slots=8,
                simulation=SimulationConfig(
                    seed=77, mapper_count=20, base_sessions_per_day=6, nodes_per_country=8
                ),
            ),
        )
        # Two complete days (published hourly + daily, then ingested)...
        system.publish_day(date(2021, 7, 1), hourly=True)
        system.publish_day(date(2021, 7, 2), hourly=True)
        system.pipeline.run_daily()
        # ...plus "today", existing only as hourly diffs so far.
        system.publisher.publish_partial_day(date(2021, 7, 3), through_hour=23)
        system.poll_live()
        yield system
        system.close()

    def test_overlay_only_for_uningested_day(self, live_system):
        assert live_system.live_monitor.partial_days() == [date(2021, 7, 3)]

    def test_analysis_live_includes_today(self, live_system):
        query = AnalysisQuery(start=date(2021, 7, 1), end=date(2021, 7, 3))
        stale = live_system.dashboard.analysis(query)
        live = live_system.dashboard.analysis_live(query)
        today_truth = len(live_system.truth_by_day[date(2021, 7, 3)])
        assert live.total == stale.total + today_truth

    def test_analysis_live_equals_analysis_for_past_windows(self, live_system):
        query = AnalysisQuery(start=date(2021, 7, 1), end=date(2021, 7, 2))
        assert (
            live_system.dashboard.analysis_live(query).rows
            == live_system.dashboard.analysis(query).rows
        )

    def test_poll_live_keeps_overlays_for_coverage_holes(self, live_system):
        """Ingesting a later day must NOT drop the overlay for July 3,
        whose daily diff never arrived — only days with a materialized
        daily cube lose their live overlay."""
        system = live_system
        system.publish_day(date(2021, 7, 4), hourly=True)
        system.pipeline.run_daily()
        system.poll_live()
        # July 4 was ingested (its hourly overlay is dropped); July 3
        # remains live because only hourly data exists for it.
        assert system.live_monitor.partial_days() == [date(2021, 7, 3)]
        # And the live analysis still sees July 3's updates.
        query = AnalysisQuery(start=date(2021, 7, 3), end=date(2021, 7, 3))
        live = system.dashboard.analysis_live(query)
        assert live.total == len(system.truth_by_day[date(2021, 7, 3)])

    def test_top_contributors(self, live_system):
        top = live_system.dashboard.top_contributors(5)
        assert top
        assert top[0].change_count >= top[-1].change_count

    def test_contributors_without_store_raises(self, ingested_system):
        from repro.dashboard.api import Dashboard

        bare = Dashboard(executor=ingested_system.executor, atlas=ingested_system.atlas)
        with pytest.raises(QueryError):
            bare.top_contributors()

    def test_analysis_sql_facade(self, live_system):
        result = live_system.dashboard.analysis_sql(
            "SELECT U.ElementType, COUNT(*) FROM UpdateList U "
            "WHERE U.Date BETWEEN 2021-07-01 AND 2021-07-02 "
            "GROUP BY U.ElementType"
        )
        assert result.rows
