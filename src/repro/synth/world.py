"""Synthetic world state: per-country road networks that evolve.

This is the stand-in for the real planet: every country in the
:class:`~repro.geo.zones.ZoneAtlas` gets a small road network — nodes
(intersections) placed inside the country's bounds and ways (road
segments) joining each node to its nearest already-placed neighbours,
so the result looks like a street fabric rather than random noise.  The
:class:`WorldState` tracks the *current* version of every element plus
the full version history, which is what lets the simulator emit both
diff files (after-images only) and full-history dumps (all versions).

Element ids are globally unique per kind, as in OSM.  All randomness
flows from one seeded :class:`random.Random`, so worlds are fully
reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import datetime, timezone

from repro.errors import SimulationError
from repro.geo.geometry import Point
from repro.geo.zones import Zone, ZoneAtlas
from repro.osm.model import OSMElement, OSMNode, OSMRelation, OSMWay, RelationMember

__all__ = ["WorldState", "CountryNetwork", "build_initial_world", "GENESIS_TIME"]

#: Timestamp for the genesis snapshot (before the simulated era starts).
GENESIS_TIME = datetime(2004, 8, 9, tzinfo=timezone.utc)

#: Distribution of highway values for newly created roads, roughly
#: following real OSM tag frequencies.
ROAD_TYPE_WEIGHTS: tuple[tuple[str, float], ...] = (
    ("residential", 0.30),
    ("service", 0.22),
    ("track", 0.12),
    ("footway", 0.10),
    ("path", 0.07),
    ("unclassified", 0.06),
    ("tertiary", 0.05),
    ("secondary", 0.04),
    ("primary", 0.025),
    ("trunk", 0.01),
    ("motorway", 0.005),
)


def choose_road_type(rng: random.Random) -> str:
    """Sample a highway value from the realistic frequency table."""
    roll = rng.random() * sum(w for _, w in ROAD_TYPE_WEIGHTS)
    cumulative = 0.0
    for value, weight in ROAD_TYPE_WEIGHTS:
        cumulative += weight
        if roll <= cumulative:
            return value
    return ROAD_TYPE_WEIGHTS[-1][0]


@dataclass
class CountryNetwork:
    """The road network of one country: the ids of the OSM elements
    created in it.  The elements themselves, in :class:`WorldState`,
    are the ground truth; a way's ``refs`` are its topology.
    """

    zone: Zone
    node_ids: list[int] = field(default_factory=list)
    way_ids: list[int] = field(default_factory=list)
    relation_ids: list[int] = field(default_factory=list)


class WorldState:
    """All live elements, their histories, and per-country networks."""

    def __init__(self, atlas: ZoneAtlas) -> None:
        self.atlas = atlas
        self.networks: dict[str, CountryNetwork] = {}
        self.current: dict[tuple[str, int], OSMElement] = {}
        self.history: list[OSMElement] = []
        self.version_index: dict[tuple[str, int, int], OSMElement] = {}
        self._next_id = {"node": 1, "way": 1, "relation": 1}
        self.next_changeset_id = 1

    # -- id allocation ---------------------------------------------------

    def allocate_id(self, kind: str) -> int:
        new_id = self._next_id[kind]
        self._next_id[kind] = new_id + 1
        return new_id

    def allocate_changeset_id(self) -> int:
        cid = self.next_changeset_id
        self.next_changeset_id += 1
        return cid

    # -- element bookkeeping ----------------------------------------------

    def apply(self, element: OSMElement) -> None:
        """Record a new element version as both current state and history."""
        key = (element.kind, element.id)
        previous = self.current.get(key)
        if previous is not None and element.version != previous.version + 1:
            raise SimulationError(
                f"version skew for {key}: {previous.version} -> {element.version}"
            )
        if previous is None and element.version != 1:
            raise SimulationError(f"first version of {key} must be 1")
        self.current[key] = element
        self.history.append(element)
        self.version_index[(element.kind, element.id, element.version)] = element

    def previous_version(self, element: OSMElement) -> OSMElement | None:
        """The version preceding ``element``, or ``None`` for v1."""
        return self.version_index.get(
            (element.kind, element.id, element.version - 1)
        )

    def get(self, kind: str, element_id: int) -> OSMElement:
        try:
            return self.current[(kind, element_id)]
        except KeyError:
            raise SimulationError(f"no live element {kind}/{element_id}") from None

    def network(self, country: str) -> CountryNetwork:
        try:
            return self.networks[country]
        except KeyError:
            raise SimulationError(f"no network for country {country!r}") from None

    def road_network_size(self, country: str) -> int:
        """Number of live road segments — the Percentage(*) denominator."""
        network = self.network(country)
        return sum(
            1
            for way_id in network.way_ids
            if self.current.get(("way", way_id), None) is not None
            and self.current[("way", way_id)].visible
        )


def _random_point_in(zone: Zone, rng: random.Random) -> Point:
    margin_lon = zone.bbox.width * 0.05
    margin_lat = zone.bbox.height * 0.05
    return Point(
        lon=rng.uniform(zone.bbox.min_lon + margin_lon, zone.bbox.max_lon - margin_lon),
        lat=rng.uniform(zone.bbox.min_lat + margin_lat, zone.bbox.max_lat - margin_lat),
    )


def build_initial_world(
    atlas: ZoneAtlas,
    rng: random.Random,
    base_nodes_per_country: int = 24,
    changeset_id: int = 0,
) -> WorldState:
    """Build the genesis snapshot: one road network per country.

    Each country receives ``base_nodes_per_country`` scaled by its
    activity weight (hot countries start denser, as in reality), with
    ways created by connecting each node to its nearest already-placed
    neighbors — a cheap proxy for street fabric that yields mostly
    planar, connected networks.
    """
    world = WorldState(atlas)
    for zone in atlas.countries:
        network = CountryNetwork(zone=zone)
        world.networks[zone.name] = network
        node_count = max(6, int(base_nodes_per_country * (0.5 + zone.activity_weight)))
        points: list[tuple[int, Point]] = []
        for _ in range(node_count):
            point = _random_point_in(zone, rng)
            node_id = world.allocate_id("node")
            node = OSMNode(
                id=node_id,
                version=1,
                timestamp=GENESIS_TIME,
                changeset=changeset_id,
                uid=1,
                user="genesis_import",
                lat=point.lat,
                lon=point.lon,
            )
            world.apply(node)
            network.node_ids.append(node_id)
            points.append((node_id, point))
        _connect_nearest(world, network, points, rng, changeset_id)
        _add_route_relation(world, network, rng, changeset_id)
    return world


def _connect_nearest(
    world: WorldState,
    network: CountryNetwork,
    points: list[tuple[int, Point]],
    rng: random.Random,
    changeset_id: int,
) -> None:
    """Link each node to its 2 nearest predecessors with a way."""
    for index, (node_id, point) in enumerate(points):
        if index == 0:
            continue
        candidates = points[:index]
        candidates = sorted(
            candidates,
            key=lambda entry: (entry[1].lon - point.lon) ** 2
            + (entry[1].lat - point.lat) ** 2,
        )
        for other_id, _ in candidates[:2]:
            way_id = world.allocate_id("way")
            way = OSMWay(
                id=way_id,
                version=1,
                timestamp=GENESIS_TIME,
                changeset=changeset_id,
                uid=1,
                user="genesis_import",
                refs=(other_id, node_id),
                tags={"highway": choose_road_type(rng)},
            )
            world.apply(way)
            network.way_ids.append(way_id)


def _add_route_relation(
    world: WorldState,
    network: CountryNetwork,
    rng: random.Random,
    changeset_id: int,
) -> None:
    """Give each country one route relation over a few of its ways."""
    if len(network.way_ids) < 3:
        return
    member_ways = rng.sample(network.way_ids, k=min(4, len(network.way_ids)))
    relation_id = world.allocate_id("relation")
    relation = OSMRelation(
        id=relation_id,
        version=1,
        timestamp=GENESIS_TIME,
        changeset=changeset_id,
        uid=1,
        user="genesis_import",
        members=tuple(RelationMember("way", way_id, "") for way_id in member_ways),
        tags={"type": "route", "route": "road"},
    )
    world.apply(relation)
    network.relation_ids.append(relation_id)
