"""The OSM conceptual data model: nodes, ways, and relations.

Mirrors the paper's Section II-A: OSM data is a list of elements, each
a *Node* (a point with coordinates), a *Way* (an ordered list of node
ids forming road segments), or a *Relation* (typed references to other
elements).  Every element version carries the OSM editing metadata the
update pipeline consumes — version number, timestamp, changeset id,
user — plus free-form tags.

Road-ness follows OSM convention: an element is part of the road
network when it carries a ``highway=*`` tag; the tag's value is the
*RoadType* attribute of the ``UpdateList``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from typing import ClassVar

from repro.types.dimensions import ELEMENT_NODE, ELEMENT_RELATION, ELEMENT_WAY
from repro.errors import ConfigError

__all__ = [
    "OSMElement",
    "OSMNode",
    "OSMWay",
    "OSMRelation",
    "RelationMember",
    "check_element",
    "check_member_type",
    "is_road_element",
    "road_type_of",
    "UNKNOWN_ROAD_TYPE",
]

#: RoadType recorded for updates that touch no ``highway`` tag (e.g.
#: bare nodes).  The real RASED tracks non-road elements too; giving
#: them a dedicated class keeps cube totals equal to update totals.
UNKNOWN_ROAD_TYPE = "residential"


def check_element(element_id: int, version: int, lat: float = 0.0, lon: float = 0.0) -> None:
    """An element version's rules, for the model and the diff reader alike:
    a positive id and version, and a node's coordinates in range."""
    if element_id <= 0 or version <= 0:
        raise ConfigError(f"element id and version must be positive, got {element_id}, {version}")
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        raise ConfigError(f"node coordinates out of range: {lat}, {lon}")


def check_member_type(member_type: str) -> None:
    """A relation member names a node, a way or a relation."""
    if member_type not in (ELEMENT_NODE, ELEMENT_WAY, ELEMENT_RELATION):
        raise ConfigError(f"invalid member type {member_type!r}")


def _utc(dt: datetime) -> datetime:
    if dt.tzinfo is None:
        return dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


@dataclass(frozen=True)
class OSMElement:
    """Common header shared by all element kinds.

    ``visible=False`` marks a deletion tombstone, as in the OSM full
    history dump where a deleted element's last version has
    ``visible="false"``.
    """

    id: int
    version: int
    timestamp: datetime
    changeset: int
    uid: int = 0
    user: str = ""
    visible: bool = True
    tags: dict[str, str] = field(default_factory=dict)
    #: The ElementType attribute value: node, way, or relation.
    kind: ClassVar[str]

    def __post_init__(self) -> None:
        check_element(self.id, self.version, getattr(self, "lat", 0.0), getattr(self, "lon", 0.0))
        if self.timestamp.tzinfo is not timezone.utc:
            object.__setattr__(self, "timestamp", _utc(self.timestamp))

    def next_version(self, timestamp: datetime, changeset: int, **changes) -> "OSMElement":
        """A successor version of this element with bumped version number."""
        return replace(
            self,
            version=self.version + 1,
            timestamp=_utc(timestamp),
            changeset=changeset,
            **changes,
        )

    def deleted(self, timestamp: datetime, changeset: int) -> "OSMElement":
        """The deletion tombstone version of this element."""
        return self.next_version(timestamp, changeset, visible=False)


@dataclass(frozen=True)
class OSMNode(OSMElement):
    """A point element: intersections, traffic lights, PoIs, ..."""

    kind = ELEMENT_NODE
    lat: float = 0.0
    lon: float = 0.0

    def moved(self, lat: float, lon: float, timestamp: datetime, changeset: int) -> "OSMNode":
        return self.next_version(timestamp, changeset, lat=lat, lon=lon)  # type: ignore[return-value]


@dataclass(frozen=True)
class OSMWay(OSMElement):
    """An ordered list of node ids forming connected road segments."""

    kind = ELEMENT_WAY
    refs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if type(self.refs) is not tuple:
            object.__setattr__(self, "refs", tuple(self.refs))


@dataclass(frozen=True)
class RelationMember:
    """One member reference within a relation."""

    type: str
    ref: int
    role: str = ""

    def __post_init__(self) -> None:
        check_member_type(self.type)


@dataclass(frozen=True)
class OSMRelation(OSMElement):
    """A typed grouping of elements (multi-part roads, routes, ...)."""

    kind = ELEMENT_RELATION
    members: tuple[RelationMember, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if type(self.members) is not tuple:
            object.__setattr__(self, "members", tuple(self.members))


def is_road_element(element: OSMElement) -> bool:
    """True when the element is part of the road network."""
    return "highway" in element.tags or element.tags.get("type") == "route"


def road_type_of(element: OSMElement) -> str:
    """The RoadType attribute: the ``highway`` tag, with a default.

    Nodes that belong to roads (e.g. geometry vertices) usually carry
    no highway tag themselves; RASED still counts their updates, so we
    fall back to :data:`UNKNOWN_ROAD_TYPE`.
    """
    return element.tags.get("highway", UNKNOWN_ROAD_TYPE)
