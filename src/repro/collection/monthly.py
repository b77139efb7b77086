"""The monthly crawler: full history → fully classified UpdateList.

Implements the paper's Section V monthly path: walk the *full history*
dump, compare every two consecutive versions of each element, and
classify the update as *create*, *delete*, *geometry* update, or
*metadata* update — the information the daily diffs cannot provide.

The output for the target months replaces their coarse daily rows:
the Storage & Indexing module rebuilds those days' cubes and their
rollups from it ("Index Maintenance with Monthly Updates").  Any run of
months costs one pass over the dump, which OSM sorts by element, not by
time; it also folds the road network as of the last month's end (or
the dump's last version, if that is earlier).

Locations are resolved identically to the daily crawler — node
coordinates, or the changeset bbox center for ways/relations — so a
rebuilt row differs from its coarse predecessor only in *UpdateType*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path
from typing import IO, Sequence

from repro.types.temporal import TemporalKey
from repro.collection.geocode import ElementRow, Geocoder
from repro.collection.records import UpdateList
from repro.osm.changesets import ChangesetStore
from repro.osm.history import iter_history
from repro.osm.model import UNKNOWN_ROAD_TYPE
from repro.osm.snapshot import RoadNetworkFold

__all__ = ["MonthlyCrawler", "MonthlyCrawlResult"]


@dataclass
class MonthlyCrawlResult:
    """The target months' reclassified UpdateList plus bookkeeping."""

    updates: UpdateList = field(default_factory=UpdateList)
    skipped: int = 0
    scanned_versions: int = 0
    #: The day road segments are counted as of — the last month's end, or
    #: the dump's last version date if earlier (the newest day the dump
    #: vouches for) — and the segments per country.
    sizes: tuple[date, dict[str, int]] | None = None


class MonthlyCrawler:
    """Reclassifies months of updates from the full-history dump."""

    def __init__(self, changesets: ChangesetStore, geocoder: Geocoder) -> None:
        self.changesets = changesets
        self.geocoder = geocoder

    def crawl(
        self, history: str | Path | IO[bytes], months: Sequence[TemporalKey]
    ) -> MonthlyCrawlResult:
        """Extract the target months' fully classified updates.

        ``history`` is the full dump (all versions of all elements),
        read once; version pairs are classified globally and then
        filtered to the months, so a version-2 update in a target month
        classifies correctly against its version-1 predecessor from an
        earlier month.  The rows are located in one batch, and the same
        pass folds the road network as of the last month's end, or of the
        dump's last version if it ends before that.
        """
        result = MonthlyCrawlResult()
        fold = RoadNetworkFold(months[-1].end)
        wanted = {
            month.start + timedelta(days=offset)
            for month in months
            for offset in range(month.day_count)
        }
        rows: list[ElementRow] = []
        newest = date.min
        for kind, fields, previous, update_type in iter_history(history):
            header, lat, lon, _ = fields
            result.scanned_versions += 1
            fold.add(kind, fields)
            day = header[2].date()
            newest = max(newest, day)
            if day in wanted:
                # A deleted element's after-image may carry no tags; the
                # road type comes from the previous version so deletions
                # of highways count against the right road class.
                tags = previous[0][7] if previous is not None and not header[6] else header[7]
                rows.append((
                    kind, day, header[3], header[6], lat, lon,
                    tags.get("highway", UNKNOWN_ROAD_TYPE), update_type,
                ))
        result.updates, result.skipped = self.geocoder.locate(rows, self.changesets)
        if fold.versions:
            result.sizes = min(fold.as_of, newest), fold.counts(self.geocoder.atlas)
        return result
