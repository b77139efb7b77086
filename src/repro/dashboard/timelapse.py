"""Timelapse rendering: the road network's evolution over time.

RASED can present an analysis answer as "a timelapse video showing the
road network evolution" (paper, Section IV-A).  The reproduction's
equivalent is a sequence of choropleth frames — one per period — that
can be printed, diffed, or written to a text file; each frame reuses
the dashboard's choropleth renderer so the visual scale is consistent
across frames (shared peak).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date

from repro.types.temporal import Level, series_periods
from repro.core.executor import QueryExecutor
from repro.core.query import AnalysisQuery, QueryResult
from repro.dashboard.charts import choropleth
from repro.errors import QueryError
from repro.geo.zones import ZoneAtlas

__all__ = ["TimelapseFrame", "render_timelapse"]


@dataclass
class TimelapseFrame:
    """One rendered period of the timelapse."""

    period_start: date
    period_end: date
    result: QueryResult
    art: str

    @property
    def title(self) -> str:
        return f"{self.period_start.isoformat()} .. {self.period_end.isoformat()}"


def render_timelapse(
    executor: QueryExecutor,
    atlas: ZoneAtlas,
    query: AnalysisQuery,
    frame_granularity: Level = Level.MONTH,
) -> list[TimelapseFrame]:
    """Run the query per period and render one choropleth per frame.

    The input query must group by country (the map dimension) and not
    by date — the timelapse supplies the time axis itself.
    """
    if "country" not in query.group_by:
        raise QueryError("a timelapse query must group by country")
    if "date" in query.group_by:
        raise QueryError("timelapse queries must not group by date")
    frames: list[TimelapseFrame] = []
    for period_start, period_end in series_periods(
        query.start, query.end, frame_granularity
    ):
        frame_query = AnalysisQuery(
            start=period_start,
            end=period_end,
            element_types=query.element_types,
            countries=query.countries,
            road_types=query.road_types,
            update_types=query.update_types,
            group_by=query.group_by,
            metric=query.metric,
        )
        result = executor.execute(frame_query)
        frames.append(
            TimelapseFrame(
                period_start=period_start,
                period_end=period_end,
                result=result,
                art=choropleth(result, atlas),
            )
        )
    return frames
