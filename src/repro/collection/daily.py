"""The daily crawler: diffs + changesets → coarse UpdateList rows.

Implements the paper's Section V daily path.  Each day the crawler
pulls the newest daily diff from the replication feed and produces
UpdateList rows with seven of the eight attributes fully resolved:

* *ElementType*, *Date*, *RoadType*, *ChangesetID* — straight from the
  diff's element after-images;
* *Country*, *Latitude*, *Longitude* — from node coordinates, or for
  ways/relations by joining ``ChangesetID`` against the changesets
  feed and taking the bounding box's center;
* *UpdateType* — only **coarsely**: the diff reveals creations (and
  deletions, which arrive in their own ``<delete>`` block), but cannot
  distinguish geometry from metadata modifications because it carries
  only after-images.  Modifications are recorded under ``geometry``
  and the resulting daily cubes are marked coarse; the monthly crawler
  later rebuilds them with the full 4-way classification.

Rows whose location cannot be resolved (missing changeset, or a bbox
outside the synthetic world) are counted in
:attr:`DailyCrawlResult.skipped` rather than silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, datetime
from typing import Iterator

from repro.types.dimensions import UPDATE_CREATE, UPDATE_DELETE, UPDATE_GEOMETRY
from repro.obs.span import span as causal_span
from repro.collection.geocode import Geocoder
from repro.collection.records import UpdateList
from repro.osm.changesets import ChangesetStore
from repro.osm.replication import ReplicationFeed
from repro.osm.xml_io import OsmChange

__all__ = ["DailyCrawler", "DailyCrawlResult", "coarse_update_type"]


def coarse_update_type(action: str) -> str:
    """Map an osmChange action to the daily crawler's coarse type."""
    if action == "create":
        return UPDATE_CREATE
    if action == "delete":
        return UPDATE_DELETE
    return UPDATE_GEOMETRY  # stands in for "some modification"


@dataclass
class DailyCrawlResult:
    """One day's crawl output plus bookkeeping."""

    sequence: int
    timestamp: datetime
    updates: UpdateList = field(default_factory=UpdateList)
    skipped: int = 0
    #: The size record published beside the diff, if any.
    sizes: bytes | None = None

    @property
    def day(self) -> date:
        return self.timestamp.date()


class DailyCrawler:
    """Joins a day-granularity diff feed with the changesets feed."""

    def __init__(
        self,
        feed: ReplicationFeed,
        changesets: ChangesetStore,
        geocoder: Geocoder,
    ) -> None:
        self.feed = feed
        self.changesets = changesets
        self.geocoder = geocoder
        #: Highest sequence already crawled; None before the first run.
        self.last_sequence: int | None = None

    # -- one diff ---------------------------------------------------------

    def process_change(
        self, change: OsmChange, result: DailyCrawlResult
    ) -> None:
        """Convert one osmChange document into UpdateList rows: its element
        rows, located in one batch (``Geocoder.locate``)."""
        updates, skipped = self.geocoder.locate(
            [
                (kind, day, changeset, visible, lat, lon, road, coarse_update_type(action))
                for action, kind, changeset, day, visible, lat, lon, road in change.rows()
            ],
            self.changesets,
        )
        result.updates.extend(updates)
        result.skipped += skipped

    # -- feed loop ----------------------------------------------------------

    def crawl_new(self) -> Iterator[DailyCrawlResult]:
        """Crawl every diff published since the last run, in order
        (spans: ``feed.fetch`` reads and parses, ``feed.crawl`` rows)."""
        feed = self.feed
        for sequence in feed.pending(self.last_sequence):
            _, timestamp = feed.state(sequence)
            with causal_span("feed.fetch") as fetch_span:
                change = feed.fetch(sequence)
                if fetch_span is not None:
                    fetch_span.attributes["sequence"] = sequence
                    fetch_span.attributes["elements"] = len(change)
            result = DailyCrawlResult(sequence, timestamp, sizes=feed.sizes(sequence))
            with causal_span("feed.crawl") as crawl_span:
                self.process_change(change, result)
                if crawl_span is not None:
                    crawl_span.attributes["sequence"] = sequence
                    crawl_span.attributes["rows"] = len(result.updates)
                    crawl_span.attributes["skipped"] = result.skipped
            self.last_sequence = sequence
            yield result
