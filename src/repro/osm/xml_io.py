"""Reading and writing OSM XML: ``.osm`` snapshots and ``.osc`` diffs.

RASED's daily crawler consumes OSM *diff* files in the osmChange
format — ``<osmChange>`` documents with ``<create>``, ``<modify>``, and
``<delete>`` blocks holding element after-images (paper, Section II-B).
The monthly crawler consumes full-history dumps, which are plain
``<osm>`` documents carrying *every* version of every element.

This module implements both formats with the real OSM attribute
vocabulary (``id``, ``version``, ``timestamp``, ``changeset``, ``uid``,
``user``, ``visible``; ``lat``/``lon`` on nodes; ``<nd ref=..>`` on
ways; ``<member type=.. ref=.. role=..>`` on relations), so the
crawlers here would parse genuine planet diff files unchanged.

Reading is streaming (``iterparse`` with element eviction) because real
diff files run to gigabytes.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Iterable, Iterator

from repro.errors import ParseError
from repro.osm.model import (
    OSMElement,
    OSMNode,
    OSMRelation,
    OSMWay,
    RelationMember,
)

__all__ = [
    "OsmChange",
    "write_osm",
    "iter_osm",
    "read_osm",
    "write_osc",
    "read_osc",
    "iter_osc",
    "format_timestamp",
    "parse_timestamp",
    "GENERATOR",
]

GENERATOR = "rased-repro"
_ACTIONS = ("create", "modify", "delete")
_KINDS = ("node", "way", "relation")


def format_timestamp(dt: datetime) -> str:
    """OSM's ISO-8601 Zulu format: ``2021-03-05T12:00:00Z``."""
    return dt.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def parse_timestamp(text: str) -> datetime:
    # The canonical form is read by position; anything else, out-of-range
    # fields included, takes the ``strptime`` route: it alone says "error".
    if len(text) == 20 and text[4::3] == "--T::Z" and text.isascii():
        fields = text[0:4], text[5:7], text[8:10], text[11:13], text[14:16], text[17:19]
        if "".join(fields).isdigit():
            try:
                return datetime(*map(int, fields), tzinfo=timezone.utc)
            except ValueError:
                pass
    try:
        return datetime.strptime(text, "%Y-%m-%dT%H:%M:%SZ").replace(
            tzinfo=timezone.utc
        )
    except ValueError as exc:
        raise ParseError(f"bad OSM timestamp {text!r}") from exc


# -- element <-> xml ----------------------------------------------------


def element_to_xml(element: OSMElement) -> ET.Element:
    """Build the ``<node>``/``<way>``/``<relation>`` XML element."""
    attrs = {
        "id": str(element.id),
        "version": str(element.version),
        "timestamp": format_timestamp(element.timestamp),
        "changeset": str(element.changeset),
        "uid": str(element.uid),
        "user": element.user,
        "visible": "true" if element.visible else "false",
    }
    if isinstance(element, OSMNode):
        node = ET.Element("node", attrs)
        if element.visible:
            node.set("lat", f"{element.lat:.7f}")
            node.set("lon", f"{element.lon:.7f}")
        _append_tags(node, element)
        return node
    if isinstance(element, OSMWay):
        way = ET.Element("way", attrs)
        for ref in element.refs:
            ET.SubElement(way, "nd", {"ref": str(ref)})
        _append_tags(way, element)
        return way
    if isinstance(element, OSMRelation):
        rel = ET.Element("relation", attrs)
        for member in element.members:
            ET.SubElement(
                rel,
                "member",
                {"type": member.type, "ref": str(member.ref), "role": member.role},
            )
        _append_tags(rel, element)
        return rel
    raise ParseError(f"cannot serialize element of type {type(element).__name__}")


def _append_tags(parent: ET.Element, element: OSMElement) -> None:
    for key in sorted(element.tags):
        ET.SubElement(parent, "tag", {"k": key, "v": element.tags[key]})


def parse_element(xml_element: ET.Element) -> OSMElement:
    """Parse one ``<node>``/``<way>``/``<relation>`` element."""
    kind = xml_element.tag
    if kind not in _KINDS:
        raise ParseError(f"unexpected element tag <{kind}>")
    try:
        common = dict(
            id=int(xml_element.attrib["id"]),
            version=int(xml_element.attrib.get("version", "1")),
            timestamp=parse_timestamp(xml_element.attrib["timestamp"]),
            changeset=int(xml_element.attrib.get("changeset", "0")),
            uid=int(xml_element.attrib.get("uid", "0")),
            user=xml_element.attrib.get("user", ""),
            visible=xml_element.attrib.get("visible", "true") == "true",
        )
    except KeyError as exc:
        raise ParseError(f"<{kind}> missing required attribute {exc}") from None
    except ValueError as exc:
        raise ParseError(f"<{kind}> has malformed attribute: {exc}") from None
    tags = {
        tag.attrib["k"]: tag.attrib.get("v", "")
        for tag in xml_element.iterfind("tag")
    }
    if kind == "node":
        # Deleted nodes legitimately omit coordinates.
        lat = float(xml_element.attrib.get("lat", "0"))
        lon = float(xml_element.attrib.get("lon", "0"))
        return OSMNode(**common, tags=tags, lat=lat, lon=lon)
    if kind == "way":
        refs = tuple(int(nd.attrib["ref"]) for nd in xml_element.iterfind("nd"))
        return OSMWay(**common, tags=tags, refs=refs)
    members = tuple(
        RelationMember(
            type=m.attrib["type"],
            ref=int(m.attrib["ref"]),
            role=m.attrib.get("role", ""),
        )
        for m in xml_element.iterfind("member")
    )
    return OSMRelation(**common, tags=tags, members=members)


# -- .osm snapshots / history dumps -------------------------------------


def write_osm(
    target: str | Path | IO[bytes],
    elements: Iterable[OSMElement],
    generator: str = GENERATOR,
) -> None:
    """Write a ``<osm>`` document (snapshot or full-history dump)."""
    root = ET.Element("osm", {"version": "0.6", "generator": generator})
    for element in elements:
        root.append(element_to_xml(element))
    ET.ElementTree(root).write(target, encoding="utf-8", xml_declaration=True)


def iter_osm(source: str | Path | IO[bytes]) -> Iterator[OSMElement]:
    """Stream elements out of a ``<osm>`` document.

    Uses ``iterparse`` and clears consumed elements so memory stays
    bounded for multi-gigabyte dumps.
    """
    try:
        for _, xml_element in ET.iterparse(source, events=("end",)):
            if xml_element.tag in _KINDS:
                yield parse_element(xml_element)
                xml_element.clear()
    except ET.ParseError as exc:
        raise ParseError(f"malformed OSM XML: {exc}") from exc


def read_osm(source: str | Path | IO[bytes]) -> list[OSMElement]:
    return list(iter_osm(source))


# -- .osc diffs ----------------------------------------------------------


@dataclass
class OsmChange:
    """One osmChange document: after-images grouped by action."""

    create: list[OSMElement] = field(default_factory=list)
    modify: list[OSMElement] = field(default_factory=list)
    delete: list[OSMElement] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.create) + len(self.modify) + len(self.delete)

    def actions(self) -> Iterator[tuple[str, OSMElement]]:
        """Yield (action, element) pairs in document order."""
        for element in self.create:
            yield "create", element
        for element in self.modify:
            yield "modify", element
        for element in self.delete:
            yield "delete", element

    def extend(self, other: "OsmChange") -> None:
        self.create.extend(other.create)
        self.modify.extend(other.modify)
        self.delete.extend(other.delete)


def write_osc(
    target: str | Path | IO[bytes],
    change: OsmChange,
    generator: str = GENERATOR,
) -> None:
    """Write an ``<osmChange>`` diff document."""
    root = ET.Element("osmChange", {"version": "0.6", "generator": generator})
    for action in _ACTIONS:
        elements: list[OSMElement] = getattr(change, action)
        if not elements:
            continue
        block = ET.SubElement(root, action)
        for element in elements:
            block.append(element_to_xml(element))
    ET.ElementTree(root).write(target, encoding="utf-8", xml_declaration=True)


def iter_osc(source: str | Path | IO[bytes]) -> Iterator[tuple[str, OSMElement]]:
    """Stream (action, element) pairs from an osmChange document."""
    action: str | None = None
    try:
        for event, xml_element in ET.iterparse(source, events=("start", "end")):
            if event == "start":
                if xml_element.tag in _ACTIONS:
                    action = xml_element.tag
                continue
            if xml_element.tag in _KINDS:
                if action is None:
                    raise ParseError(
                        f"<{xml_element.tag}> outside any create/modify/delete block"
                    )
                yield action, parse_element(xml_element)
                xml_element.clear()
            elif xml_element.tag in _ACTIONS:
                action = None
    except ET.ParseError as exc:
        raise ParseError(f"malformed osmChange XML: {exc}") from exc


def read_osc(source: str | Path | IO[bytes]) -> OsmChange:
    change = OsmChange()
    for action, element in iter_osc(source):
        getattr(change, action).append(element)
    return change
