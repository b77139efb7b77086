"""Geocoding updates to countries, per the paper's Section V rules.

The daily crawler obtains *Country*, *Latitude*, *Longitude* easily
for node elements (they carry coordinates), but ways and relations in
a diff reference node ids without locations.  RASED resolves those via
the update's ``ChangesetID``: fetch the changeset's bounding box from
the changesets feed, map the box to its country, and use "the center
point contained in the bounding box" as the representative location.

:class:`Geocoder` encapsulates both paths over a
:class:`~repro.geo.zones.ZoneAtlas`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collection.records import UpdateRecord
from repro.errors import GeocodeError
from repro.geo.geometry import Point
from repro.geo.zones import Zone, ZoneAtlas
from repro.osm.changesets import Changeset, ChangesetStore
from repro.osm.model import OSMElement, OSMNode

__all__ = ["Geocoder", "Location"]


@dataclass(frozen=True)
class Location:
    """A resolved update location: representative point plus country."""

    point: Point
    country: Zone

    def record(self, element: OSMElement, road_type: str, update_type: str) -> UpdateRecord:
        """The UpdateList row of an update of ``element`` located here."""
        return UpdateRecord(
            element_type=element.kind,
            date=element.timestamp.date(),
            country=self.country.name,
            latitude=self.point.lat,
            longitude=self.point.lon,
            road_type=road_type,
            update_type=update_type,
            changeset_id=element.changeset,
        )


class Geocoder:
    """Resolves update locations against the zone atlas."""

    def __init__(self, atlas: ZoneAtlas) -> None:
        self.atlas = atlas

    def locate_node(self, node: OSMNode) -> Location:
        """Locate a node update at the node's own coordinates."""
        point = Point(lon=node.lon, lat=node.lat)
        return Location(point=point, country=self.atlas.country_at(point))

    def locate_changeset(self, changeset: Changeset) -> Location:
        """Locate a way/relation update at its changeset's bbox center."""
        if changeset.bbox is None:
            raise GeocodeError(
                f"changeset {changeset.id} has no bounding box"
            )
        center, zones = self.atlas.resolve_bbox(changeset.bbox)
        return Location(point=center, country=zones[0])

    def locate(
        self,
        element: OSMElement,
        changesets: ChangesetStore,
        by_changeset: dict[int, Location | None] | None = None,
    ) -> Location | None:
        """Locate any update the way both crawlers do: a visible node at
        its own coordinates, anything else through its changeset;
        ``None`` when neither resolves.  ``by_changeset`` memoizes the
        changeset route by id, for calls over one unchanging store."""
        memo: dict[int, Location | None] = {} if by_changeset is None else by_changeset
        try:
            if isinstance(element, OSMNode) and element.visible:
                return self.locate_node(element)
            if element.changeset not in memo:
                changeset = changesets.lookup(element.changeset)
                memo[element.changeset] = (
                    None if changeset is None else self.locate_changeset(changeset)
                )
            return memo[element.changeset]
        except GeocodeError:
            return None
