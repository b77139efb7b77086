"""The monthly crawler: full history → fully classified UpdateList.

Implements the paper's Section V monthly path: walk the *full history*
dump, compare every two consecutive versions of each element, and
classify the update as *create*, *delete*, *geometry* update, or
*metadata* update — the information the daily diffs cannot provide.

The output for a target month replaces that month's coarse daily rows:
the Storage & Indexing module rebuilds the month's daily and weekly
cubes from it ("Index Maintenance with Monthly Updates").

Locations are resolved identically to the daily crawler — node
coordinates, or the changeset bbox center for ways/relations — so a
rebuilt row differs from its coarse predecessor only in *UpdateType*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable

from repro.types.temporal import TemporalKey
from repro.collection.geocode import ElementRow, Geocoder
from repro.collection.records import UpdateList
from repro.osm.changesets import ChangesetStore
from repro.osm.history import iter_history_updates
from repro.osm.model import OSMElement, road_type_of

__all__ = ["MonthlyCrawler", "MonthlyCrawlResult"]


@dataclass
class MonthlyCrawlResult:
    """One month's reclassified UpdateList plus bookkeeping."""

    month: TemporalKey
    updates: UpdateList = field(default_factory=UpdateList)
    skipped: int = 0
    scanned_versions: int = 0


class MonthlyCrawler:
    """Reclassifies a month of updates from the full-history dump."""

    def __init__(self, changesets: ChangesetStore, geocoder: Geocoder) -> None:
        self.changesets = changesets
        self.geocoder = geocoder

    def crawl_month(
        self,
        history: str | Path | IO[bytes] | Iterable[OSMElement],
        month: TemporalKey,
    ) -> MonthlyCrawlResult:
        """Extract the target month's fully classified updates.

        ``history`` is the full dump (all versions of all elements);
        version pairs are classified globally and then filtered to the
        month, so a version-2 update in the target month classifies
        correctly against its version-1 predecessor from an earlier
        month.
        """
        result = MonthlyCrawlResult(month=month)
        start, end = month.start, month.end
        rows: list[ElementRow] = []
        for update in iter_history_updates(history):
            result.scanned_versions += 1
            element = update.element
            day = element.timestamp.date()
            if start <= day <= end:
                # A deleted element's after-image may carry no tags; the
                # road type comes from the previous version so deletions
                # of highways count against the right road class.
                source = element
                if not element.visible and update.previous is not None:
                    source = update.previous
                rows.append((
                    element.kind, day, element.changeset, element.visible,
                    getattr(element, "lat", 0.0), getattr(element, "lon", 0.0),
                    road_type_of(source), update.update_type,
                ))
        result.updates, result.skipped = self.geocoder.locate(rows, self.changesets)
        return result
