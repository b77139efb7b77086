"""Live monitoring: intra-day statistics from hourly diffs.

The deployed RASED refreshes daily — its statistics lag up to 24 hours
behind the map.  OSM, however, also publishes minutely and hourly
diffs (paper, Section II-B), and this module uses them to close the
gap: a :class:`LiveMonitor` tails an hour-granularity replication feed
and maintains an **in-memory cube for the current day**, which the
dashboard overlays on top of the persisted index for any query whose
window reaches "today".

The live cube is ephemeral by design: once the *daily* diff for the
day arrives and the normal pipeline ingests it, the overlay for that
day is dropped — the persisted daily cube supersedes it (same
after-image source, so the counts agree; validated in the tests).
"""

from __future__ import annotations

import threading
from datetime import date

from repro.collection.daily import DailyCrawler, DailyCrawlResult
from repro.collection.geocode import Geocoder
from repro.core.query import AnalysisQuery, QueryResult
from repro.geo.zones import ZoneAtlas
from repro.obs.span import span as causal_span
from repro.osm.changesets import ChangesetStore
from repro.osm.replication import ReplicationFeed
from repro.types.cube import RESOLUTION_COARSE, SparseCube
from repro.types.dimensions import CubeSchema
from repro.types.temporal import day_key, series_period_start

__all__ = ["LiveMonitor"]


class LiveMonitor:
    """Tails an hourly feed into an in-memory cube for the current day."""

    def __init__(
        self,
        hour_feed: ReplicationFeed,
        changesets: ChangesetStore,
        geocoder: Geocoder,
        schema: CubeSchema,
        atlas: ZoneAtlas | None = None,
    ) -> None:
        self.hour_feed = hour_feed
        self.schema = schema
        self.atlas = atlas
        self._crawler = DailyCrawler(hour_feed, changesets, geocoder)
        # poll() mutates crawler cursor state; a second lock keeps the
        # overlay map usable by queries while a poll is in progress.
        self._poll_lock = threading.Lock()
        self._lock = threading.Lock()
        #: Partial cubes per day, newest last (today plus any day whose
        #: daily diff has not been ingested yet).
        self._partial: dict[date, SparseCube] = {}  # guarded-by: _lock
        self.hours_processed = 0
        self.updates_seen = 0

    # -- feed tailing -----------------------------------------------------

    def poll(self) -> int:
        """Crawl newly published hourly diffs; returns hours processed."""
        with self._poll_lock, causal_span("live.poll") as poll_span:
            processed = 0
            # The crawl deliberately holds _poll_lock: polls mutate the
            # crawler cursor and must be serialized end-to-end.  Queries
            # never take _poll_lock (they use _lock), so the blocking
            # feed reads stall only a competing poll — which is the
            # designed behavior, not a hazard.
            for sequence, timestamp, change in self.hour_feed.iter_since(  # lint: allow[conc-blocking]
                self._crawler.last_sequence
            ):
                result = DailyCrawlResult(sequence=sequence, timestamp=timestamp)
                self._crawler.process_change(change, result)
                self._absorb(result)
                self._crawler.last_sequence = sequence
                processed += 1
            self.hours_processed += processed
            if poll_span is not None:
                poll_span.attributes["hours"] = processed
        return processed

    def _absorb(self, result: DailyCrawlResult) -> None:
        self.updates_seen += len(result.updates)
        for day, updates in result.updates.by_date().items():
            coded = updates.cube_coordinates(self.schema, self.atlas)
            # Cube creation *and* recording stay under the lock: a
            # concurrent overlay must never read a half-updated cube.
            with self._lock:
                cube = self._partial.get(day)
                if cube is None:
                    cube = SparseCube(
                        schema=self.schema,
                        key=day_key(day),
                        resolution=RESOLUTION_COARSE,
                    )
                    self._partial[day] = cube
                cube.bulk_record(coded)

    # -- lifecycle ----------------------------------------------------------

    def partial_days(self) -> list[date]:
        with self._lock:
            return sorted(self._partial)

    def discard_day(self, day: date) -> bool:
        """Drop a day's overlay once the daily pipeline ingested it."""
        with self._lock:
            return self._partial.pop(day, None) is not None

    # -- query overlay ---------------------------------------------------------

    def overlay(self, query: AnalysisQuery, result: QueryResult) -> int:
        """Add live partial counts to an executed query result.

        Only days inside the query window that the persisted index has
        *not* covered should remain in the monitor (callers discard
        ingested days), so the overlay never double counts.  Returns
        the number of live days applied.  Percentage queries are not
        overlaid (denominators are maintained by the daily pipeline).
        """
        if query.metric != "count":
            return 0
        applied = 0
        filters = query.cube_filters(self.atlas)
        # Aggregate under the lock: a concurrent _absorb may be
        # bulk-recording into the same (small) cubes.
        with self._lock:
            for day, cube in self._partial.items():
                if not query.start <= day <= query.end:
                    continue
                partial = cube.aggregate(filters, query.cube_group_by)
                for group, count in partial.items():
                    if count == 0:
                        continue
                    key = self._row_key(query, group, day)
                    result.rows[key] = result.rows.get(key, 0) + count
                applied += 1
        return applied

    @staticmethod
    def _row_key(query: AnalysisQuery, group: tuple, day: date) -> tuple:
        if not query.groups_by_date:
            return group
        period = max(
            series_period_start(day, query.date_granularity), query.start
        )
        parts = list(group)
        parts.insert(query.group_by.index("date"), period)
        return tuple(parts)
