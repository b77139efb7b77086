"""The dashboard facade: every RASED query behind one object.

:class:`Dashboard` is the reproduction's equivalent of the RASED web
GUI's backend (paper, Section III "User Interface" + Section IV): it
exposes analysis queries (counts or percentages, any filters and
group-bys, rendered as tables/charts/timelapses) and sample-update
queries (N updates in a region, or the updates of one changeset).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.baseline.sqlgen import to_sql
from repro.types.temporal import Level
from repro.core.executor import QueryExecutor
from repro.core.query import AnalysisQuery, QueryResult
from repro.dashboard import charts, tables
from repro.dashboard.timelapse import TimelapseFrame, render_timelapse
from repro.errors import QueryError
from repro.geo.geometry import BBox
from repro.geo.zones import ZoneAtlas
from repro.collection.records import UpdateRecord
from repro.obs import MetricsRegistry, get_registry
from repro.storage.hash_index import HashIndex
from repro.storage.spatial_index import GridSpatialIndex
from repro.storage.warehouse import Warehouse

if TYPE_CHECKING:
    from repro.core.contributors import Contributor
    from repro.core.live import LiveMonitor
    from repro.osm.changesets import ChangesetStore

__all__ = ["Dashboard", "DEFAULT_SAMPLE_SIZE"]

#: The paper's default N for sample-update queries.
DEFAULT_SAMPLE_SIZE = 100


class Dashboard:
    """User-facing query surface over an assembled RASED deployment."""

    def __init__(
        self,
        executor: QueryExecutor,
        atlas: ZoneAtlas,
        warehouse: Warehouse | None = None,
        hash_index: HashIndex | None = None,
        spatial_index: GridSpatialIndex | None = None,
        live_monitor: LiveMonitor | None = None,
        changeset_store: ChangesetStore | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.executor = executor
        self.atlas = atlas
        self.warehouse = warehouse
        self.hash_index = hash_index
        self.spatial_index = spatial_index
        #: The registry the ``/metrics`` endpoint serves.
        self.metrics = metrics if metrics is not None else get_registry()
        #: Optional :class:`repro.core.live.LiveMonitor` for
        #: intra-day overlays (see :meth:`analysis_live`).
        self.live_monitor = live_monitor
        #: Optional changeset store backing contributor analytics.
        self.changeset_store = changeset_store

    # -- analysis queries ---------------------------------------------------

    def analysis(self, query: AnalysisQuery) -> QueryResult:
        """Run one analysis query (Section IV-A)."""
        return self.executor.execute(query)

    def analysis_live(self, query: AnalysisQuery) -> QueryResult:
        """Analysis including today's partial (hourly-crawled) counts.

        Runs the normal cube query, then overlays any live days the
        persisted index has not ingested yet.  Requires a deployment
        wired with a :class:`~repro.core.live.LiveMonitor`;
        without one this is identical to :meth:`analysis`.
        """
        result = self.executor.execute(query)
        if self.live_monitor is not None:
            self.live_monitor.overlay(query, result)
        return result

    def analysis_sql(self, sql: str) -> QueryResult:
        """Run a query written in the paper's SQL dialect."""
        from repro.baseline.sqlparse import parse_sql

        coverage = self.executor.index.coverage()
        default_end = coverage[1] if coverage else None
        return self.analysis(parse_sql(sql, default_end=default_end))

    def top_contributors(self, n: int = 10) -> list[Contributor]:
        """Contributor analytics from changeset metadata (extension)."""
        if self.changeset_store is None:
            raise QueryError("this deployment has no changeset store")
        from repro.core.contributors import ContributorStats

        return ContributorStats.from_store(self.changeset_store).top(n)

    def sql_of(self, query: AnalysisQuery) -> str:
        """The query rendered in the paper's SQL style."""
        return to_sql(query)

    # -- rendered views --------------------------------------------------------

    def table(self, query: AnalysisQuery, **render_args: Any) -> str:
        return tables.render_table(self.analysis(query), **render_args)

    def bar_chart(self, query: AnalysisQuery, **render_args: Any) -> str:
        return charts.bar_chart(self.analysis(query), **render_args)

    def time_series(self, query: AnalysisQuery, **render_args: Any) -> str:
        return charts.time_series(self.analysis(query), **render_args)

    def choropleth(self, query: AnalysisQuery, **render_args: Any) -> str:
        return charts.choropleth(self.analysis(query), self.atlas, **render_args)

    def timelapse(
        self, query: AnalysisQuery, frame_granularity: Level = Level.MONTH
    ) -> list[TimelapseFrame]:
        return render_timelapse(self.executor, self.atlas, query, frame_granularity)

    # -- sample update queries (Section IV-B) ------------------------------------

    def sample_updates(
        self,
        region: BBox | str,
        n: int = DEFAULT_SAMPLE_SIZE,
    ) -> list[UpdateRecord]:
        """Up to ``n`` updates located inside a region or named zone."""
        if self.spatial_index is None or self.warehouse is None:
            raise QueryError("this deployment has no sample-update warehouse")
        box = self.atlas.zone(region).bbox if isinstance(region, str) else region
        pointers = self.spatial_index.query(box, limit=n)
        return self.warehouse.fetch_many(pointers)

    def sample_for_query(
        self,
        query: AnalysisQuery,
        n: int = DEFAULT_SAMPLE_SIZE,
        overscan: int = 20,
    ) -> list[UpdateRecord]:
        """Up to ``n`` concrete updates matching an analysis query.

        The paper's Section IV-B: analysts drill from an aggregate into
        "a sample of N (default = 100) such updates" plotted by their
        coordinates.  We scan the query's spatial region through the
        grid index (the union of its zone bboxes, or the world) and
        filter fetched rows by the query's date, zone and attribute
        predicates (a row is in a zone when its point is, as the cube
        counts it, not merely inside the zone's box); ``overscan``
        bounds how many candidate rows are fetched per requested sample
        before giving up.
        """
        if self.spatial_index is None or self.warehouse is None:
            raise QueryError("this deployment has no sample-update warehouse")
        regions: list[BBox]
        if query.countries:
            regions = [self.atlas.zone(name).bbox for name in query.countries]
        else:
            regions = [BBox(min_lon=-180, min_lat=-90, max_lon=180, max_lat=90)]
        samples: list[UpdateRecord] = []
        seen: set[tuple[object, ...]] = set()
        for region in regions:
            if len(samples) >= n:
                break
            pointers = self.spatial_index.query(region, limit=n * overscan)
            for record in self.warehouse.fetch_many(pointers):
                if not self._record_matches(record, query):
                    continue
                identity = (record.changeset_id, record.latitude, record.longitude,
                            record.element_type, record.update_type)
                if identity in seen:
                    continue
                seen.add(identity)
                samples.append(record)
                if len(samples) >= n:
                    break
        return samples

    def _record_matches(self, record: UpdateRecord, query: AnalysisQuery) -> bool:
        if not query.start <= record.date <= query.end:
            return False
        if query.countries is not None and not any(
            zone.name in query.countries for zone in self.atlas.zones_for_point(record.point)
        ):
            return False
        if query.element_types is not None and record.element_type not in query.element_types:
            return False
        if query.road_types is not None and record.road_type not in query.road_types:
            return False
        if query.update_types is not None and record.update_type not in query.update_types:
            return False
        return True

    def changeset_updates(self, changeset_id: int) -> list[UpdateRecord]:
        """All warehouse rows of one changeset (the third-party hook).

        The real dashboard forwards the ChangesetID to an external
        visualizer (e.g. OSMCha); the reproduction returns the rows so
        a caller can do the same.
        """
        if self.hash_index is None or self.warehouse is None:
            raise QueryError("this deployment has no sample-update warehouse")
        pointers = self.hash_index.lookup(changeset_id)
        return self.warehouse.fetch_many(pointers)
