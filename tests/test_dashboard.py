"""Tests for the dashboard: renderers, facade, timelapse, HTTP server."""

from __future__ import annotations

import json
import urllib.request
from datetime import date

import pytest

from repro.types.temporal import Level
from repro.core.query import AnalysisQuery, QueryResult, QueryStats
from repro.dashboard.charts import bar_chart, choropleth, time_series
from repro.dashboard.api import DEFAULT_SAMPLE_SIZE
from repro.dashboard.server import (
    MAX_SAMPLE_N,
    DashboardServer,
    query_from_json,
    result_to_json,
)
from repro.dashboard.tables import format_value, render_pivot, render_table
from repro.errors import QueryError
from repro.geo.geometry import Point
from tests.conftest import INGESTED_END, INGESTED_START


def make_result(group_by=("country",), rows=None, metric="count"):
    query = AnalysisQuery(
        start=date(2021, 1, 1),
        end=date(2021, 1, 31),
        group_by=group_by,
        metric=metric,
    )
    return QueryResult(
        query=query,
        rows=rows if rows is not None else {("germany",): 120, ("qatar",): 30},
        stats=QueryStats(),
    )


class TestFormatting:
    def test_counts_get_thousand_separators(self):
        assert format_value(1234567) == "1,234,567"

    def test_float_percentages_keep_decimals(self):
        assert format_value(12.3456) == "12.35"

    def test_integral_float_renders_as_int(self):
        assert format_value(12.0) == "12"


class TestRenderTable:
    def test_basic_layout(self):
        text = render_table(make_result())
        lines = text.splitlines()
        assert lines[0].split("|")[0].strip() == "country"
        assert "germany" in lines[2]
        assert "120" in lines[2]

    def test_sorted_by_value_descending_by_default(self):
        text = render_table(make_result())
        assert text.index("germany") < text.index("qatar")

    def test_sort_by_attribute_column(self):
        text = render_table(
            make_result(), sort_by="country", descending=False
        )
        assert text.index("germany") < text.index("qatar")

    def test_limit(self):
        text = render_table(make_result(), limit=1)
        assert "qatar" not in text

    def test_bad_sort_column_raises(self):
        with pytest.raises(QueryError):
            render_table(make_result(), sort_by="color")


class TestRenderPivot:
    def test_fig3_layout(self):
        rows = {
            ("germany", "way"): 10,
            ("germany", "node"): 5,
            ("qatar", "way"): 2,
        }
        result = make_result(group_by=("country", "element_type"), rows=rows)
        text = render_pivot(result, "country", "element_type")
        header = text.splitlines()[0]
        assert "All" in header
        assert "node" in header and "way" in header
        germany_line = next(l for l in text.splitlines() if "germany" in l)
        assert "15" in germany_line  # All column

    def test_rows_sorted_by_total(self):
        rows = {
            ("qatar", "way"): 50,
            ("germany", "way"): 10,
        }
        result = make_result(group_by=("country", "element_type"), rows=rows)
        text = render_pivot(result, "country", "element_type")
        assert text.index("qatar") < text.index("germany")

    def test_attribute_not_in_group_by_raises(self):
        with pytest.raises(QueryError):
            render_pivot(make_result(), "country", "element_type")

    def test_same_attribute_raises(self):
        rows = {("germany", "way"): 1}
        result = make_result(group_by=("country", "element_type"), rows=rows)
        with pytest.raises(QueryError):
            render_pivot(result, "country", "country")


class TestCharts:
    def test_bar_chart_contains_bars_and_labels(self):
        text = bar_chart(make_result())
        assert "germany" in text
        assert "#" in text
        germany_line = next(l for l in text.splitlines() if "germany" in l)
        qatar_line = next(l for l in text.splitlines() if "qatar" in l)
        assert germany_line.count("#") > qatar_line.count("#")

    def test_bar_chart_empty(self):
        assert bar_chart(make_result(rows={})) == "(no data)"

    def test_time_series_renders_grid_and_legend(self):
        rows = {
            ("germany", date(2021, 1, 1)): 5,
            ("germany", date(2021, 1, 2)): 9,
            ("qatar", date(2021, 1, 1)): 2,
        }
        result = make_result(group_by=("country", "date"), rows=rows)
        text = time_series(result)
        assert "o=germany" in text
        assert "x=qatar" in text
        assert "peak=9" in text

    def test_time_series_requires_date_group(self):
        with pytest.raises(QueryError):
            time_series(make_result())

    def test_choropleth_shades_by_value(self, atlas):
        result = make_result(rows={("germany",): 100, ("qatar",): 1})
        art = choropleth(result, atlas)
        assert "@" in art  # peak shade present
        assert "shade scale" in art

    def test_choropleth_requires_country_group(self, atlas):
        result = make_result(group_by=("element_type",), rows={("way",): 1})
        with pytest.raises(QueryError):
            choropleth(result, atlas)


class TestDashboardFacade:
    def test_table_view(self, ingested_system):
        text = ingested_system.dashboard.table(
            AnalysisQuery(
                start=INGESTED_START,
                end=INGESTED_END,
                group_by=("element_type",),
            )
        )
        assert "way" in text

    def test_pivot_view(self, ingested_system):
        result = ingested_system.dashboard.analysis(
            AnalysisQuery(
                start=INGESTED_START,
                end=INGESTED_END,
                countries=("germany", "france", "india"),
                group_by=("country", "element_type"),
            )
        )
        text = render_pivot(result, "country", "element_type")
        assert "All" in text

    def test_timelapse_frames(self, ingested_system):
        frames = ingested_system.dashboard.timelapse(
            AnalysisQuery(
                start=INGESTED_START,
                end=INGESTED_END,
                group_by=("country",),
            ),
            frame_granularity=Level.MONTH,
        )
        assert len(frames) == 2
        assert frames[0].period_start == date(2021, 1, 1)
        assert "shade scale" in frames[0].art
        assert frames[0].title.startswith("2021-01-01")

    def test_timelapse_requires_country_group(self, ingested_system):
        with pytest.raises(QueryError):
            ingested_system.dashboard.timelapse(
                AnalysisQuery(start=INGESTED_START, end=INGESTED_END)
            )

    def test_timelapse_rejects_date_group(self, ingested_system):
        with pytest.raises(QueryError):
            ingested_system.dashboard.timelapse(
                AnalysisQuery(
                    start=INGESTED_START,
                    end=INGESTED_END,
                    group_by=("country", "date"),
                )
            )

    def test_sample_updates_by_zone_name(self, ingested_system):
        samples = ingested_system.dashboard.sample_updates("germany", n=10)
        assert 0 < len(samples) <= 10
        assert all(s.country == "germany" for s in samples)

    def test_sample_updates_by_bbox(self, ingested_system):
        box = ingested_system.atlas.zone("france").bbox
        samples = ingested_system.dashboard.sample_updates(box, n=5)
        assert all(box.contains_point(s.point) for s in samples)

    def test_sample_default_size_is_100(self, ingested_system):
        samples = ingested_system.dashboard.sample_updates("united_states")
        assert len(samples) <= 100

    def test_changeset_updates_roundtrip(self, ingested_system):
        samples = ingested_system.dashboard.sample_updates("germany", n=1)
        changeset_id = samples[0].changeset_id
        rows = ingested_system.dashboard.changeset_updates(changeset_id)
        assert rows
        assert all(r.changeset_id == changeset_id for r in rows)

    def test_sql_of(self, ingested_system):
        sql = ingested_system.dashboard.sql_of(
            AnalysisQuery(start=INGESTED_START, end=INGESTED_END)
        )
        assert "FROM UpdateList U" in sql


class TestQueryJson:
    def test_full_roundtrip(self):
        payload = {
            "start": "2021-01-01",
            "end": "2021-02-28",
            "countries": ["germany", "qatar"],
            "group_by": ["country", "date"],
            "metric": "percentage",
            "date_granularity": "week",
        }
        query = query_from_json(payload)
        assert query.countries == ("germany", "qatar")
        assert query.date_granularity is Level.WEEK
        assert query.metric == "percentage"

    def test_missing_dates_rejected(self):
        with pytest.raises(QueryError):
            query_from_json({"start": "2021-01-01"})

    def test_bad_granularity_rejected(self):
        with pytest.raises(QueryError):
            query_from_json(
                {"start": "2021-01-01", "end": "2021-01-02", "date_granularity": "hour"}
            )

    def test_non_list_filter_rejected(self):
        with pytest.raises(QueryError):
            query_from_json(
                {"start": "2021-01-01", "end": "2021-01-02", "countries": "germany"}
            )

    def test_result_to_json_serializes_dates(self):
        rows = {("germany", date(2021, 1, 1)): 5}
        result = make_result(group_by=("country", "date"), rows=rows)
        payload = result_to_json(result)
        assert payload["rows"][0]["group"] == ["germany", "2021-01-01"]
        assert "sql" in payload
        assert "stats" in payload


@pytest.fixture(scope="module")
def server(ingested_system):
    with DashboardServer(ingested_system.dashboard) as running:
        yield running


def http_get(server, path):
    try:
        with urllib.request.urlopen(server.url + path) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def http_post(server, path, payload):
    request = urllib.request.Request(
        server.url + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestHttpServer:
    def test_health(self, server):
        status, payload = http_get(server, "/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["coverage"] == ["2021-01-01", "2021-02-28"]

    def test_zones(self, server):
        status, payload = http_get(server, "/zones")
        assert status == 200
        assert len(payload["zones"]) == 306

    def test_analysis_roundtrip(self, server):
        status, payload = http_post(
            server,
            "/analysis",
            {
                "start": "2021-01-01",
                "end": "2021-02-28",
                "group_by": ["element_type"],
            },
        )
        assert status == 200
        assert payload["group_by"] == ["element_type"]
        assert payload["rows"]
        assert payload["stats"]["cube_count"] >= 1

    def test_analysis_bad_query_is_400(self, server):
        status, payload = http_post(
            server, "/analysis", {"start": "2021-02-01", "end": "2021-01-01"}
        )
        assert status == 400
        assert "error" in payload

    def test_samples_endpoint(self, server):
        status, payload = http_get(server, "/samples?zone=germany&n=5")
        assert status == 200
        assert len(payload["samples"]) <= 5

    def test_samples_n_zero_is_an_empty_list(self, server):
        status, payload = http_get(server, "/samples?zone=germany&n=0")
        assert status == 200
        assert payload == {"samples": []}

    def test_samples_requires_zone(self, server):
        status, payload = http_get(server, "/samples")
        assert status == 400

    def test_changeset_endpoint(self, server, ingested_system):
        sample = ingested_system.dashboard.sample_updates("germany", n=1)[0]
        status, payload = http_get(server, f"/changeset/{sample.changeset_id}")
        assert status == 200
        assert payload["updates"]

    def test_unknown_path_is_404(self, server):
        status, _ = http_get(server, "/nope")
        assert status == 404


class TestSampleForQuery:
    def test_samples_respect_all_filters(self, ingested_system):
        from tests.conftest import INGESTED_END, INGESTED_START

        query = AnalysisQuery(
            start=date(2021, 1, 10),
            end=date(2021, 2, 10),
            countries=("germany",),
            element_types=("way",),
            update_types=("create",),
        )
        samples = ingested_system.dashboard.sample_for_query(query, n=10)
        for record in samples:
            assert record.element_type == "way"
            assert record.update_type == "create"
            assert date(2021, 1, 10) <= record.date <= date(2021, 2, 10)
            box = ingested_system.atlas.zone("germany").bbox
            assert box.contains_point(record.point)

    def test_sample_size_bounded(self, ingested_system):
        query = AnalysisQuery(start=INGESTED_START, end=INGESTED_END)
        samples = ingested_system.dashboard.sample_for_query(query, n=7)
        assert len(samples) == 7

    def test_no_matches_returns_empty(self, ingested_system):
        query = AnalysisQuery(
            start=date(2020, 1, 1), end=date(2020, 1, 2)  # before coverage
        )
        assert ingested_system.dashboard.sample_for_query(query, n=5) == []

    def test_samples_unique(self, ingested_system):
        query = AnalysisQuery(start=INGESTED_START, end=INGESTED_END,
                              countries=("france", "germany"))
        samples = ingested_system.dashboard.sample_for_query(query, n=50)
        identities = [
            (r.changeset_id, r.latitude, r.longitude, r.element_type, r.update_type)
            for r in samples
        ]
        assert len(identities) == len(set(identities))


class TestHttpServerExtensions:
    def test_analysis_sql_endpoint(self, server):
        status, payload = http_post(
            server,
            "/analysis/sql",
            {
                "sql": (
                    "SELECT U.ElementType, COUNT(*) FROM UpdateList U "
                    "WHERE U.Date BETWEEN 2021-01-01 AND 2021-02-28 "
                    "GROUP BY U.ElementType"
                )
            },
        )
        assert status == 200
        assert payload["rows"]

    def test_analysis_sql_bad_body(self, server):
        status, payload = http_post(server, "/analysis/sql", {"nope": 1})
        assert status == 400

    def test_analysis_sql_bad_dialect(self, server):
        status, payload = http_post(server, "/analysis/sql", {"sql": "DELETE"})
        assert status == 400
        assert "error" in payload

    def test_analysis_live_endpoint(self, server):
        status, payload = http_post(
            server,
            "/analysis/live",
            {"start": "2021-01-01", "end": "2021-02-28"},
        )
        assert status == 200
        # No live monitor days pending; result equals plain analysis.
        plain_status, plain = http_post(
            server, "/analysis", {"start": "2021-01-01", "end": "2021-02-28"}
        )
        assert payload["rows"] == plain["rows"]

    #: A drill-down body: every predicate an /analysis query can carry.
    DRILL = {
        "start": "2021-01-10",
        "end": "2021-02-10",
        "countries": ["germany", "france", "europe"],
        "element_types": ["way", "node"],
        "road_types": ["residential", "service", "track"],
        "update_types": ["create", "geometry"],
    }

    def test_analysis_samples_rows_satisfy_every_predicate(self, server, ingested_system):
        status, payload = http_post(server, "/analysis/samples", {**self.DRILL, "n": 40})
        assert status == 200
        rows = payload["samples"]
        assert 0 < len(rows) <= 40
        atlas = ingested_system.atlas
        for element, day, country, lat, lon, road, update, _ in rows:
            assert "2021-01-10" <= day <= "2021-02-10"
            # In a queried zone the way the cube counts it: by its point.
            point = Point(lon=float(lon), lat=float(lat))
            assert {z.name for z in atlas.zones_for_point(point)} & set(self.DRILL["countries"])
            assert country in {z.name for z in atlas.countries}
            assert element in self.DRILL["element_types"]
            assert road in self.DRILL["road_types"]
            assert update in self.DRILL["update_types"]
        # The route is the facade's drill-down, row for row.
        records = ingested_system.dashboard.sample_for_query(query_from_json(self.DRILL), 40)
        assert rows == [r.to_tsv().split("\t") for r in records]

    def test_analysis_samples_n_bounds_the_rows(self, server):
        for n, most in ((3, 3), (0, 0), (10**9, MAX_SAMPLE_N)):
            status, payload = http_post(server, "/analysis/samples", {**self.DRILL, "n": n})
            assert status == 200 and len(payload["samples"]) <= most
        status, payload = http_post(server, "/analysis/samples", self.DRILL)
        assert status == 200 and 0 < len(payload["samples"]) <= DEFAULT_SAMPLE_SIZE

    @pytest.mark.parametrize("n", ["many", -1, True, 2.5, [3], None])
    def test_analysis_samples_bad_n_is_400(self, server, n):
        status, payload = http_post(server, "/analysis/samples", {**self.DRILL, "n": n})
        assert status == 400
        assert "n must be" in payload["error"]

    def test_analysis_samples_bad_query_is_400(self, server):
        status, payload = http_post(
            server, "/analysis/samples", {"start": "2021-02-01", "n": 5}
        )
        assert status == 400

    def test_unknown_analysis_subpath_is_404(self, server):
        for path in ("/analysis/nope", "/analysis/samples/x", "/analysis/sample"):
            status, payload = http_post(server, path, self.DRILL)
            assert status == 404, path
            assert "unknown path" in payload["error"]

    def test_contributors_endpoint(self, server):
        status, payload = http_get(server, "/contributors?n=3")
        assert status == 200
        contributors = payload["contributors"]
        assert 0 < len(contributors) <= 3
        assert contributors[0]["changes"] >= contributors[-1]["changes"]


class TestWireBytes:
    """``encode_result`` joins the answer from cached per-row fragments;
    its bytes must be ``json.dumps(result_to_json(r), default=str)``
    exactly — on the first encode and on the memo hit that re-sends the
    stored head."""

    @staticmethod
    def _assert_wire_equal(query, rows, partial=False):
        from repro.core.resultcache import MemoEntry
        from repro.dashboard.server import encode_result

        entry = MemoEntry(0, rows)
        first = QueryResult(query, rows=dict(rows), memo=entry)
        first.stats.partial = partial
        for result, reused in (
            (first, False),
            (QueryResult(query, stats=QueryStats(partial=partial), memo=entry), True),
            (QueryResult(query, rows=dict(rows), stats=QueryStats(partial=partial)), False),
        ):
            body, was_reused = encode_result(result)
            assert was_reused is reused
            assert body == json.dumps(result_to_json(result), default=str).encode()

    def test_label_rows(self):
        query = AnalysisQuery(
            start=date(2021, 1, 1), end=date(2021, 1, 31), group_by=("country", "element_type")
        )
        self._assert_wire_equal(
            query, {("germany", "way"): 12, ("qatar", "node"): 3, ("france", "way"): 12}
        )

    @pytest.mark.parametrize("granularity", [Level.DAY, Level.WEEK])
    def test_date_series(self, granularity):
        query = AnalysisQuery(
            start=date(2021, 1, 1),
            end=date(2021, 1, 31),
            group_by=("date", "country"),
            date_granularity=granularity,
        )
        rows = {(date(2021, 1, d), "germany"): d * 7 for d in (1, 8, 15, 22, 29)}
        rows[(date(2021, 1, 8), "qatar")] = 0
        self._assert_wire_equal(query, rows)

    def test_percentage_floats(self):
        query = AnalysisQuery(
            start=date(2021, 1, 1),
            end=date(2021, 1, 31),
            group_by=("country",),
            metric="percentage",
        )
        rows = {("a",): 1e-05, ("b",): 0.1, ("c",): 100.0, ("d",): 1 / 3, ("e",): 2.5e-300}
        self._assert_wire_equal(query, rows)

    def test_values_that_are_not_python_ints_go_through_json(self):
        import numpy as np

        query = AnalysisQuery(start=date(2021, 1, 1), end=date(2021, 1, 31), group_by=("country",))
        self._assert_wire_equal(query, {("a",): np.int64(7), ("b",): float("inf"), ("c",): True})

    def test_empty_answer(self):
        self._assert_wire_equal(
            AnalysisQuery(start=date(2021, 1, 1), end=date(2021, 1, 2), group_by=("country",)), {}
        )
        scalar = AnalysisQuery(start=date(2021, 1, 1), end=date(2021, 1, 2))
        self._assert_wire_equal(scalar, {(): 0})

    def test_partial_answer(self):
        query = AnalysisQuery(start=date(2021, 1, 1), end=date(2021, 1, 9), group_by=("road_type",))
        self._assert_wire_equal(query, {("primary",): 4}, partial=True)

    def test_non_ascii_zone_label_is_escaped(self):
        query = AnalysisQuery(
            start=date(2021, 1, 1),
            end=date(2021, 1, 9),
            group_by=("country",),
            countries=("Côte d'Ivoire",),
        )
        rows = {("Côte d'Ivoire",): 5, ('Zürich "Nord"\\',): 2, ("東京",): 1}
        self._assert_wire_equal(query, rows)
        from repro.dashboard.server import encode_result

        assert b"C\\u00f4te" in encode_result(QueryResult(query, rows=rows))[0]

    def test_answers_of_an_ingested_system(self, ingested_system):
        """Real rows: labels, day and week series, through the dashboard."""
        from repro.dashboard.server import encode_result

        for group_by, granularity in (
            (("country",), Level.DAY),
            (("road_type", "update_type"), Level.DAY),
            (("date",), Level.DAY),
            (("date", "element_type"), Level.WEEK),
        ):
            result = ingested_system.dashboard.analysis(
                AnalysisQuery(
                    start=INGESTED_START,
                    end=INGESTED_END,
                    group_by=group_by,
                    date_granularity=granularity,
                )
            )
            assert result.rows
            body, _ = encode_result(result)
            assert body == json.dumps(result_to_json(result), default=str).encode()
