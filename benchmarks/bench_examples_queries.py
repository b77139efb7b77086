"""Figures 2-5 — the paper's worked example queries, end to end.

These are the dashboard outputs the paper uses to demonstrate RASED:

* **Example 1 / Figs. 2-3** — country analysis: newly created or
  modified elements per country and element type over one year,
  as a bar chart and a sorted pivot table;
* **Example 2 / Fig. 4** — road-type analysis for the United States;
* **Example 3 / Fig. 5** — comparative percentage time series for
  Germany, Singapore, and Qatar.

Unlike the long-horizon benches, this one drives the *full* pipeline:
OSM-format diffs are simulated, crawled, geocoded, cube-indexed, and
queried through the dashboard facade; the rendered text figures are
printed.  Shape checks assert the activity skew the paper's Fig. 3
shows (the hot countries lead) and that all three queries answer from
a handful of cubes.

Run: ``pytest benchmarks/bench_examples_queries.py --benchmark-only -s``
"""

from __future__ import annotations

from datetime import date

import pytest

from repro.types.temporal import Level
from repro.core.query import AnalysisQuery
from repro.storage.disk import InMemoryDisk
from repro.synth.publisher import FeedPublisher
from repro.synth.simulator import SimulationConfig
from repro.system import RasedSystem, SystemConfig

from common import write_result_json

SPAN = (date(2021, 1, 1), date(2021, 4, 30))

#: Per-figure query stats collected across the module's benches and
#: flushed (with the system's metrics registry) to results JSON.
_RESULTS: dict[str, dict] = {}


@pytest.fixture(scope="module")
def system():
    deployment = RasedSystem.create(
        store=InMemoryDisk(read_latency=0.005, write_latency=0.006),
        config=SystemConfig(road_types=12, cache_slots=48),
    )
    publisher = FeedPublisher(
        deployment.feed_root,
        deployment.atlas,
        SimulationConfig(seed=2021, mapper_count=60, base_sessions_per_day=14, nodes_per_country=10),
    )
    publisher.publish_and_ingest(deployment.pipeline, *SPAN, monthly_rebuild=True)
    deployment.warm_cache()
    yield deployment
    write_result_json(
        "bench_examples_queries", _RESULTS, registry=deployment.metrics
    )
    deployment.close()


def _record(figure: str, result) -> None:
    _RESULTS[figure] = {
        "simulated_ms": result.stats.simulated_ms,
        "wall_ms": result.stats.wall_seconds * 1000.0,
        "cube_count": result.stats.cube_count,
        "cache_hits": result.stats.cache_hits,
        "disk_reads": result.stats.disk_reads,
        "phases": result.stats.phase_rows(),
    }


def example1_query() -> AnalysisQuery:
    return AnalysisQuery(
        start=SPAN[0],
        end=SPAN[1],
        update_types=("create", "geometry"),
        group_by=("country", "element_type"),
    )


def bench_fig2_fig3_country_analysis(benchmark, system):
    result = benchmark(lambda: system.dashboard.analysis(example1_query()))
    _record("fig2_fig3", result)

    print()
    print("SQL (paper Example 1):")
    print(system.dashboard.sql_of(example1_query()))
    print()
    print("Fig. 2 analog — bar chart (top countries):")
    from repro.dashboard.charts import bar_chart

    print(bar_chart(result, limit=10))
    print()
    print("Fig. 3 analog — pivot table:")
    from repro.dashboard.tables import render_pivot

    print(render_pivot(result, "country", "element_type", limit=8))

    # The activity skew must mirror the paper's Fig. 3 head: the
    # US-led ranking encoded in the atlas dominates the totals.
    per_country: dict[str, float] = {}
    for (country, _element), value in result.rows.items():
        per_country[country] = per_country.get(country, 0) + value
    countries_only = {
        name: value
        for name, value in per_country.items()
        if system.atlas.zone(name).kind == "country"
    }
    top = sorted(countries_only, key=countries_only.get, reverse=True)[:10]
    assert "united_states" in top[:3]
    # Interactive: answered from few cubes, mostly cached.
    assert result.stats.cube_count <= 8
    assert result.stats.simulated_ms < 100


def bench_fig4_road_type_analysis(benchmark, system):
    query = AnalysisQuery(
        start=SPAN[0],
        end=SPAN[1],
        countries=("united_states",),
        update_types=("create", "geometry"),
        group_by=("road_type", "element_type"),
    )
    result = benchmark(lambda: system.dashboard.analysis(query))
    _record("fig4", result)

    print()
    print("SQL (paper Example 2):")
    print(system.dashboard.sql_of(query))
    print()
    print("Fig. 4 analog — road types in the United States:")
    from repro.dashboard.charts import bar_chart

    print(bar_chart(result, limit=12))

    road_totals: dict[str, float] = {}
    for (road, _element), value in result.rows.items():
        road_totals[road] = road_totals.get(road, 0) + value
    # OSM's tag frequency: residential/service lead road edits.
    top_two = sorted(road_totals, key=road_totals.get, reverse=True)[:2]
    assert "residential" in top_two
    assert result.stats.simulated_ms < 100


def bench_fig5_time_series_comparison(benchmark, system):
    query = AnalysisQuery(
        start=SPAN[0],
        end=SPAN[1],
        countries=("germany", "singapore", "qatar"),
        group_by=("country", "date"),
        metric="percentage",
        date_granularity=Level.WEEK,
    )
    result = benchmark(lambda: system.dashboard.analysis(query))
    _record("fig5", result)

    print()
    print("SQL (paper Example 3):")
    print(system.dashboard.sql_of(query))
    print()
    print("Fig. 5 analog — % of road network changed per week:")
    from repro.dashboard.charts import time_series

    print(time_series(result))

    series_countries = {key[0] for key in result.rows}
    assert series_countries <= {"germany", "singapore", "qatar"}
    assert "germany" in series_countries
    # Percentages, not counts.
    assert all(isinstance(v, float) for v in result.rows.values())
    assert result.stats.simulated_ms < 500
