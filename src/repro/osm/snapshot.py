"""Snapshot reconstruction: current map state from the full history.

The full-history dump contains every version of every element; folding
it forward yields the *current* planet snapshot — what ``planet.osm``
would contain (paper, Section II: the snapshot and the history are two
views of the same data).  RASED needs this for one concrete thing: the
``Percentage(*)`` metric divides by each country's road-network size,
and that size is a property of the current snapshot.

:func:`build_snapshot` folds a history stream into latest-visible
state; :func:`road_segment_counts` then counts live highway-tagged
ways per country, locating each way by its first resolvable member
node (the same node-coordinate geocoding the crawlers use).
"""

from __future__ import annotations

from pathlib import Path
from typing import IO

from repro.errors import GeocodeError, ParseError
from repro.geo.geometry import Point
from repro.geo.zones import ZoneAtlas
from repro.osm.model import OSMElement, OSMNode, OSMWay
from repro.osm.xml_io import iter_osm

__all__ = ["build_snapshot", "road_segment_counts", "network_sizes_from_history"]


def build_snapshot(source: str | Path | IO[bytes]) -> dict[tuple[str, int], OSMElement]:
    """Fold a full-history dump into latest-visible element state.

    Deleted elements (whose newest version is a tombstone) are absent
    from the result, exactly as in a planet snapshot.  Versions may
    arrive in any order per element; newer versions win.
    """
    newest: dict[tuple[str, int], OSMElement] = {}
    for element in iter_osm(source):
        key = (element.kind, element.id)
        current = newest.get(key)
        if current is None or element.version > current.version:
            newest[key] = element
    return {
        key: element for key, element in newest.items() if element.visible
    }


def road_segment_counts(
    snapshot: dict[tuple[str, int], OSMElement], atlas: ZoneAtlas
) -> dict[str, int]:
    """Live highway-tagged ways per country.

    A way is located at its first member node that exists in the
    snapshot; ways whose nodes are all missing (truncated extracts)
    are skipped rather than guessed.
    """
    counts = {zone.name: 0 for zone in atlas.countries}
    for (kind, _id), element in snapshot.items():
        if kind != "way" or "highway" not in element.tags:
            continue
        assert isinstance(element, OSMWay)
        location = _first_node_point(element, snapshot)
        if location is None:
            continue
        try:
            country = atlas.country_at(location)
        except GeocodeError:
            # Ways anchored outside every zone (ocean nodes, truncated
            # extracts) belong to no country's road network; skip them.
            continue
        counts[country.name] += 1
    return counts


def _first_node_point(
    way: OSMWay, snapshot: dict[tuple[str, int], OSMElement]
) -> Point | None:
    for ref in way.refs:
        node = snapshot.get(("node", ref))
        if isinstance(node, OSMNode):
            return Point(lon=node.lon, lat=node.lat)
    return None


def network_sizes_from_history(source: str | Path | IO[bytes], atlas: ZoneAtlas) -> dict[str, int]:
    """Per-country road-network sizes straight from a history dump.

    The OSM-native path for populating a
    :class:`~repro.core.percentages.NetworkSizeRegistry` — the monthly
    crawler already downloads this file, so the denominators refresh
    on the same cadence as the 4-way update types.
    """
    snapshot = build_snapshot(source)
    if not snapshot:
        raise ParseError("history stream produced an empty snapshot")
    return road_segment_counts(snapshot, atlas)
