"""Simulated mappers: who edits, where, and what kind of edits.

OSM's update stream is produced by a skewed population of volunteer
and corporate mappers (paper, Sections I-II: 300K active users/year,
heavy corporate contributions from Amazon, Apple, Facebook, ...).  The
simulator models that population with a few profiles:

* **casual** — a handful of edits near home, mostly retagging;
* **surveyor** — maps new roads and fixes geometry in their country;
* **corporate** — large sessions, geometry-heavy, roams the world;
* **importer** — bulk creations concentrated in one country.

Each profile fixes a session-size range and a distribution over the
primitive edit operations below.  Operations mutate the
:class:`~repro.synth.world.WorldState` and return the element versions
they produced; the session wrapper in :mod:`repro.synth.simulator`
assembles those into osmChange documents and changeset metadata.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import datetime

from repro.errors import SimulationError
from repro.geo.geometry import Point
from repro.osm.model import OSMElement, OSMNode, OSMRelation, OSMWay, RelationMember
from repro.synth.world import CountryNetwork, WorldState, choose_road_type

__all__ = ["Mapper", "MapperProfile", "PROFILES", "EDIT_OPERATIONS", "run_operation"]


@dataclass(frozen=True)
class MapperProfile:
    """Behavioral parameters for one class of mapper."""

    name: str
    session_ops: tuple[int, int]
    #: Weights over operation names in :data:`EDIT_OPERATIONS`.
    op_weights: dict[str, float]
    #: Probability a session happens in the mapper's home country.
    home_affinity: float


PROFILES: tuple[MapperProfile, ...] = (
    MapperProfile(
        name="casual",
        session_ops=(1, 4),
        op_weights={
            "retag_way": 0.35,
            "retag_node": 0.2,
            "move_node": 0.2,
            "create_poi": 0.15,
            "create_road": 0.1,
        },
        home_affinity=0.95,
    ),
    MapperProfile(
        name="surveyor",
        session_ops=(3, 12),
        op_weights={
            "create_road": 0.35,
            "extend_way": 0.2,
            "move_node": 0.2,
            "retag_way": 0.15,
            "delete_way": 0.05,
            "edit_relation": 0.05,
        },
        home_affinity=0.85,
    ),
    MapperProfile(
        name="corporate",
        session_ops=(10, 40),
        op_weights={
            "create_road": 0.3,
            "extend_way": 0.25,
            "move_node": 0.25,
            "retag_way": 0.1,
            "delete_way": 0.05,
            "edit_relation": 0.05,
        },
        home_affinity=0.2,
    ),
    MapperProfile(
        name="importer",
        session_ops=(20, 60),
        op_weights={
            "create_road": 0.7,
            "create_poi": 0.2,
            "retag_way": 0.1,
        },
        home_affinity=0.6,
    ),
)

#: Population mix: most mappers are casual, few are bulk editors.
PROFILE_POPULATION_WEIGHTS: tuple[float, ...] = (0.62, 0.25, 0.08, 0.05)


@dataclass(frozen=True)
class Mapper:
    """One simulated OSM user."""

    uid: int
    user: str
    profile: MapperProfile
    home_country: str


def _jitter(point_lat: float, point_lon: float, rng: random.Random, scale: float = 0.01):
    return (
        min(90.0, max(-90.0, point_lat + rng.uniform(-scale, scale))),
        min(180.0, max(-180.0, point_lon + rng.uniform(-scale, scale))),
    )


def _random_network_point(
    world: WorldState, network: CountryNetwork, rng: random.Random
) -> tuple[float, float]:
    """Coordinates near a live node of the network (or zone center)."""
    live = [
        node_id
        for node_id in network.node_ids
        if world.current.get(("node", node_id)) is not None
        and world.current[("node", node_id)].visible
    ]
    if live:
        anchor = world.get("node", rng.choice(live))
        assert isinstance(anchor, OSMNode)
        return _jitter(anchor.lat, anchor.lon, rng, scale=0.05)
    center = network.zone.bbox.center
    return center.lat, center.lon


# -- primitive operations -------------------------------------------------
# Each returns (action, [element versions]) where action is the osmChange
# block the *first* element belongs to; helper creations are returned as
# separate entries by the caller convention below: every element version
# pairs with its own action, so ops return a list of (action, element).

Op = list[tuple[str, OSMElement]]


def op_create_road(
    world: WorldState,
    network: CountryNetwork,
    rng: random.Random,
    timestamp: datetime,
    changeset: int,
    mapper: Mapper,
) -> Op:
    """Create a short new road: 2-3 new nodes plus the connecting way."""
    lat, lon = _random_network_point(world, network, rng)
    produced: Op = []
    node_ids: list[int] = []
    for _ in range(rng.randint(2, 3)):
        lat, lon = _jitter(lat, lon, rng, scale=0.02)
        node_id = world.allocate_id("node")
        node = OSMNode(
            id=node_id,
            version=1,
            timestamp=timestamp,
            changeset=changeset,
            uid=mapper.uid,
            user=mapper.user,
            lat=lat,
            lon=lon,
        )
        world.apply(node)
        network.node_ids.append(node_id)
        node_ids.append(node_id)
        produced.append(("create", node))
    way_id = world.allocate_id("way")
    way = OSMWay(
        id=way_id,
        version=1,
        timestamp=timestamp,
        changeset=changeset,
        uid=mapper.uid,
        user=mapper.user,
        refs=tuple(node_ids),
        tags={"highway": choose_road_type(rng)},
    )
    world.apply(way)
    network.way_ids.append(way_id)
    produced.append(("create", way))
    return produced


def op_create_poi(
    world: WorldState,
    network: CountryNetwork,
    rng: random.Random,
    timestamp: datetime,
    changeset: int,
    mapper: Mapper,
) -> Op:
    """Create a point of interest node (bus stop, signal, shop)."""
    lat, lon = _random_network_point(world, network, rng)
    node_id = world.allocate_id("node")
    kind = rng.choice(
        [
            {"highway": "bus_stop"},
            {"highway": "traffic_signals"},
            {"amenity": "cafe"},
            {"highway": "stop"},
        ]
    )
    node = OSMNode(
        id=node_id,
        version=1,
        timestamp=timestamp,
        changeset=changeset,
        uid=mapper.uid,
        user=mapper.user,
        lat=lat,
        lon=lon,
        tags=dict(kind),
    )
    world.apply(node)
    network.node_ids.append(node_id)
    return [("create", node)]


def _pick_live(
    world: WorldState, network: CountryNetwork, kind: str, rng: random.Random
) -> OSMElement | None:
    pool = {
        "node": network.node_ids,
        "way": network.way_ids,
        "relation": network.relation_ids,
    }[kind]
    live = [
        eid
        for eid in pool
        if (kind, eid) in world.current and world.current[(kind, eid)].visible
    ]
    if not live:
        return None
    return world.get(kind, rng.choice(live))


def op_move_node(
    world: WorldState,
    network: CountryNetwork,
    rng: random.Random,
    timestamp: datetime,
    changeset: int,
    mapper: Mapper,
) -> Op:
    """Nudge a node's coordinates — a geometry update."""
    node = _pick_live(world, network, "node", rng)
    if node is None:
        return op_create_poi(world, network, rng, timestamp, changeset, mapper)
    assert isinstance(node, OSMNode)
    lat, lon = _jitter(node.lat, node.lon, rng, scale=0.002)
    moved = node.next_version(
        timestamp, changeset, lat=lat, lon=lon, uid=mapper.uid, user=mapper.user
    )
    world.apply(moved)
    return [("modify", moved)]


def op_retag_way(
    world: WorldState,
    network: CountryNetwork,
    rng: random.Random,
    timestamp: datetime,
    changeset: int,
    mapper: Mapper,
) -> Op:
    """Change a way's tags only — a metadata update."""
    way = _pick_live(world, network, "way", rng)
    if way is None:
        return op_create_road(world, network, rng, timestamp, changeset, mapper)
    assert isinstance(way, OSMWay)
    tags = dict(way.tags)
    choice = rng.random()
    if choice < 0.4:
        tags["name"] = f"Street {rng.randint(1, 9999)}"
    elif choice < 0.7:
        tags["surface"] = rng.choice(["asphalt", "gravel", "paved", "dirt"])
    else:
        tags["maxspeed"] = str(rng.choice([30, 50, 60, 80, 100]))
    new_way = way.next_version(
        timestamp, changeset, tags=tags, uid=mapper.uid, user=mapper.user
    )
    world.apply(new_way)
    return [("modify", new_way)]


def op_retag_node(
    world: WorldState,
    network: CountryNetwork,
    rng: random.Random,
    timestamp: datetime,
    changeset: int,
    mapper: Mapper,
) -> Op:
    """Change a node's tags only — a metadata update."""
    node = _pick_live(world, network, "node", rng)
    if node is None:
        return op_create_poi(world, network, rng, timestamp, changeset, mapper)
    tags = dict(node.tags)
    tags["note"] = rng.choice(["survey", "verified", "check", "gps trace"])
    new_node = node.next_version(
        timestamp, changeset, tags=tags, uid=mapper.uid, user=mapper.user
    )
    world.apply(new_node)
    return [("modify", new_node)]


def op_extend_way(
    world: WorldState,
    network: CountryNetwork,
    rng: random.Random,
    timestamp: datetime,
    changeset: int,
    mapper: Mapper,
) -> Op:
    """Add a new node into a way's geometry — way geometry update."""
    way = _pick_live(world, network, "way", rng)
    if way is None or not isinstance(way, OSMWay) or not way.refs:
        return op_create_road(world, network, rng, timestamp, changeset, mapper)
    tail = world.current.get(("node", way.refs[-1]))
    if tail is None or not isinstance(tail, OSMNode):
        return op_create_road(world, network, rng, timestamp, changeset, mapper)
    lat, lon = _jitter(tail.lat, tail.lon, rng, scale=0.02)
    node_id = world.allocate_id("node")
    node = OSMNode(
        id=node_id,
        version=1,
        timestamp=timestamp,
        changeset=changeset,
        uid=mapper.uid,
        user=mapper.user,
        lat=lat,
        lon=lon,
    )
    world.apply(node)
    network.node_ids.append(node_id)
    new_way = way.next_version(
        timestamp,
        changeset,
        refs=way.refs + (node_id,),
        uid=mapper.uid,
        user=mapper.user,
    )
    world.apply(new_way)
    return [("create", node), ("modify", new_way)]


def op_delete_way(
    world: WorldState,
    network: CountryNetwork,
    rng: random.Random,
    timestamp: datetime,
    changeset: int,
    mapper: Mapper,
) -> Op:
    """Tombstone a way — a delete update."""
    way = _pick_live(world, network, "way", rng)
    if way is None:
        return op_retag_node(world, network, rng, timestamp, changeset, mapper)
    tombstone = way.next_version(
        timestamp, changeset, visible=False, uid=mapper.uid, user=mapper.user
    )
    world.apply(tombstone)
    return [("delete", tombstone)]


def op_edit_relation(
    world: WorldState,
    network: CountryNetwork,
    rng: random.Random,
    timestamp: datetime,
    changeset: int,
    mapper: Mapper,
) -> Op:
    """Add or drop a relation member — a relation geometry update."""
    relation = _pick_live(world, network, "relation", rng)
    if relation is None or not isinstance(relation, OSMRelation):
        return op_retag_way(world, network, rng, timestamp, changeset, mapper)
    members = list(relation.members)
    way = _pick_live(world, network, "way", rng)
    if way is not None and (rng.random() < 0.7 or len(members) <= 1):
        members.append(RelationMember("way", way.id, ""))
    else:
        members.pop(rng.randrange(len(members)))
    new_relation = relation.next_version(
        timestamp,
        changeset,
        members=tuple(members),
        uid=mapper.uid,
        user=mapper.user,
    )
    world.apply(new_relation)
    return [("modify", new_relation)]


EDIT_OPERATIONS = {
    "create_road": op_create_road,
    "create_poi": op_create_poi,
    "move_node": op_move_node,
    "retag_way": op_retag_way,
    "retag_node": op_retag_node,
    "extend_way": op_extend_way,
    "delete_way": op_delete_way,
    "edit_relation": op_edit_relation,
}


def run_operation(
    name: str,
    world: WorldState,
    network: CountryNetwork,
    rng: random.Random,
    timestamp: datetime,
    changeset: int,
    mapper: Mapper,
) -> Op:
    """Dispatch one named operation."""
    try:
        operation = EDIT_OPERATIONS[name]
    except KeyError:
        raise SimulationError(f"unknown edit operation {name!r}") from None
    return operation(world, network, rng, timestamp, changeset, mapper)
