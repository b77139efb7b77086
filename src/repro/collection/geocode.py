"""Geocoding updates to countries, per the paper's Section V rules.

The daily crawler obtains *Country*, *Latitude*, *Longitude* easily
for node elements (they carry coordinates), but ways and relations in
a diff reference node ids without locations.  RASED resolves those via
the update's ``ChangesetID``: fetch the changeset's bounding box from
the changesets feed, map the box to its country, and use "the center
point contained in the bounding box" as the representative location.

:class:`Geocoder` applies both rules to a whole batch of updates over a
:class:`~repro.geo.zones.ZoneAtlas`.
"""

from __future__ import annotations

import math
from datetime import date
from typing import Any, Sequence

import numpy as np

from repro.collection.records import UpdateList
from repro.geo.zones import ZoneAtlas
from repro.osm.changesets import ChangesetStore

__all__ = ["ElementRow", "Geocoder"]


#: One update to locate: element kind, date, changeset, visible, the
#: node's lat and lon (0 otherwise), road type, update type.
ElementRow = tuple[str, date, int, bool, float, float, str, str]


class Geocoder:
    """Resolves update locations against the zone atlas."""

    def __init__(self, atlas: ZoneAtlas) -> None:
        self.atlas = atlas
        self._names = atlas.zone_names()

    def locate(
        self, rows: Sequence[ElementRow], changesets: ChangesetStore
    ) -> tuple[UpdateList, int]:
        """Locate updates the way both crawlers do — a visible node at its
        own coordinates, anything else at its changeset's bbox centre —
        and return the located rows' UpdateList, in order, and how many
        were skipped (no changeset, no bbox, or outside the world).  Each
        changeset is looked up once; every point goes through one
        ``ZoneAtlas.zone_indexes`` call, whose zones the list keeps."""
        if not rows:
            return UpdateList(), 0
        kind, day, changeset, visible, lat, lon, road, update = zip(*rows)
        own = np.array([k == "node" and v for k, v in zip(kind, visible)], dtype=bool)
        ids = np.array(changeset, dtype=np.int64)
        # Not np.unique: its first call imports numpy.ma (~1 MB resident).
        wanted = np.array(sorted(set(ids[~own].tolist())), dtype=np.int64)
        # One row per wanted changeset, plus a last one no row reads
        # (a located node's id may sort past them all).
        centres = np.full((len(wanted) + 1, 2), math.nan)
        for at, cid in enumerate(wanted.tolist()):
            found = changesets.lookup(cid)
            if found is not None and found.bbox is not None:
                centre = found.bbox.center
                centres[at] = (centre.lat, centre.lon)
        centre_of = centres[np.searchsorted(wanted, ids)]
        lat_of = np.where(own, np.array(lat, dtype=np.float64), centre_of[:, 0])
        lon_of = np.where(own, np.array(lon, dtype=np.float64), centre_of[:, 1])
        zones = self.atlas.zone_indexes(lon_of, lat_of)
        # Unlocated rows (zone -1) read the last name and are not picked.
        country = [self._names[i] for i in zones[:, 0].tolist()]
        located: tuple[Sequence[Any], ...] = (
            kind, day, country, lat_of.tolist(), lon_of.tolist(), road, update, changeset
        )
        pick = np.flatnonzero(zones[:, 0] >= 0).tolist()
        columns = [[column[i] for i in pick] for column in located]
        return UpdateList(columns=columns, zones=(self.atlas, zones[pick])), len(rows) - len(pick)
