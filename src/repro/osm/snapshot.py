"""Road-network sizes as dated records: the ``Percentage(*)`` denominators.

RASED shows results "as either absolute numbers or percentages of the
country's road network size" (paper, Section IV-A).  A size is a
property of the map *as of a day*: each country's live highway-tagged
ways.  A root stores one record per day it learned them, the page
``meta/network_sizes/YYYY-MM-DD`` (compact JSON, countries sorted).
:class:`RoadNetworkFold` computes one from a full-history dump's version
tuples, in the pass the monthly crawler already makes: versions stamped
after the day are ignored, the newest remaining version of each element
wins (a tombstone removes it, a later version re-creates it), and a live
``highway`` way counts toward the country of its first live member node
(a way with none, or anchored outside every zone, counts nowhere).
"""

from __future__ import annotations

import json
from datetime import date
from typing import Any, Mapping

import numpy as np

from repro.errors import ParseError
from repro.geo.zones import ZoneAtlas

__all__ = ["SIZES_PREFIX", "RoadNetworkFold", "decode_sizes", "encode_sizes", "sizes_page_id"]

#: Page-id prefix of a root's dated size records.
SIZES_PREFIX = "meta/network_sizes/"


def sizes_page_id(as_of: date) -> str:
    return f"{SIZES_PREFIX}{as_of.isoformat()}"


def encode_sizes(sizes: Mapping[str, int]) -> bytes:
    """A size record's bytes: compact JSON, countries sorted."""
    return json.dumps(dict(sizes), separators=(",", ":"), sort_keys=True).encode("ascii")


def decode_sizes(raw: bytes) -> dict[str, int]:
    try:
        return {str(name): int(size) for name, size in json.loads(raw).items()}
    except (AttributeError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed network-size record: {exc}") from None


class RoadNetworkFold:
    """Road segments per country as of ``as_of``, folded from a history
    dump's ``(kind, fields)`` tuples as ``osm.history.iter_history``
    yields them."""

    def __init__(self, as_of: date) -> None:
        self.as_of = as_of
        #: Node id -> ``(lat, lon)`` when live; way id -> refs when a live road.
        self._nodes: dict[int, tuple[float, float] | None] = {}
        self._roads: dict[int, Any] = {}
        self.versions = 0

    def add(self, kind: str, fields: Any) -> None:
        header, lat, lon, children = fields
        if header[2].date() > self.as_of:
            return
        self.versions += 1
        live = header[6]
        if kind == "node":
            self._nodes[header[0]] = (lat, lon) if live else None
        elif kind == "way":
            self._roads[header[0]] = children if live and "highway" in header[7] else None

    def counts(self, atlas: ZoneAtlas) -> dict[str, int]:
        nodes = self._nodes
        anchors = [
            next((nodes[ref] for ref in refs if nodes.get(ref) is not None), None)
            for refs in self._roads.values()
            if refs is not None
        ]
        points = np.array([p for p in anchors if p is not None], dtype=np.float64).reshape(-1, 2)
        countries = atlas.zone_indexes(points[:, 1], points[:, 0])[:, 0]
        # Countries lead the atlas's zone order.
        located = np.bincount(countries[countries >= 0], minlength=len(atlas.countries))
        return {zone.name: int(n) for zone, n in zip(atlas.countries, located.tolist())}

