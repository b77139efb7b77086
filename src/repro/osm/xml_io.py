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

Reading is streaming because real diff files run to gigabytes: the
document is fed to expat in chunks, and an ``XMLParser`` target builds
each element from its own start/end callbacks — no tree, no per-event
generator step, no throw-away kwargs dict.  At OSM scale these
per-element constants are the whole cost of a day's crawl.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path
from typing import IO, Iterable, Iterator

from repro.errors import ConfigError, ParseError
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


@lru_cache(maxsize=1 << 14)
def parse_timestamp(text: str) -> datetime:
    # Memoized: a diff repeats each changeset's few stamps across its
    # elements, and a datetime is immutable, so sharing one is safe.
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


#: Bytes handed to expat per ``feed`` call.
_CHUNK_BYTES = 1 << 16

#: An XML element's tag and attributes.
_Tagged = tuple[str, dict[str, str]]


class _ElementBuilder:
    """``XMLParser`` target: each element is built from expat's callbacks.

    An element's attributes and its direct children's are kept until its
    ``end``, then converted in one place (:func:`_build`); finished
    ``(action, element)`` pairs collect in :attr:`done`.
    """

    def __init__(self, in_change: bool) -> None:
        self.in_change = in_change  # osmChange: elements sit in action blocks
        self.action = ""  # the enclosing create/modify/delete block, if any
        self.done: list[tuple[str, OSMElement]] = []
        self.depth = 0
        #: The open element: kind, depth, attributes, direct children.
        self.open: tuple[str, int, dict[str, str], list[_Tagged]] | None = None

    def start(self, tag: str, attrib: dict[str, str]) -> None:
        self.depth += 1
        if self.open is not None:
            if tag in _KINDS:
                raise ParseError(f"<{tag}> inside <{self.open[0]}>")
            if self.depth == self.open[1] + 1:
                self.open[3].append((tag, attrib))
        elif tag in _KINDS:
            if self.in_change and not self.action:
                raise ParseError(f"<{tag}> outside any create/modify/delete block")
            self.open = (tag, self.depth, attrib, [])
        elif tag in _ACTIONS:
            self.action = tag

    def end(self, tag: str) -> None:
        self.depth -= 1
        if self.open is None:
            if tag in _ACTIONS:
                self.action = ""
        elif self.depth < self.open[1]:
            kind, _, attrs, children = self.open
            self.done.append((self.action, _build(kind, attrs, children)))
            self.open = None


def _build(kind: str, attrs: dict[str, str], children: list[_Tagged]) -> OSMElement:
    """One element from its attributes and direct children.  Every
    malformed form — a missing or non-numeric attribute, a non-positive
    id, an out-of-range coordinate, an unknown member type — is one
    :class:`ParseError` naming the element."""
    try:
        common = (
            int(attrs["id"]),
            int(attrs.get("version", "1")),
            parse_timestamp(attrs["timestamp"]),
            int(attrs.get("changeset", "0")),
            int(attrs.get("uid", "0")),
            attrs.get("user", ""),
            attrs.get("visible", "true") == "true",
            {a["k"]: a.get("v", "") for t, a in children if t == "tag"},
        )
        if kind == "node":
            # Deleted nodes legitimately omit coordinates.
            return OSMNode(*common, float(attrs.get("lat", "0")), float(attrs.get("lon", "0")))
        if kind == "way":
            return OSMWay(*common, tuple([int(a["ref"]) for t, a in children if t == "nd"]))
        return OSMRelation(*common, tuple([
            RelationMember(a["type"], int(a["ref"]), a.get("role", ""))
            for t, a in children if t == "member"
        ]))
    except (KeyError, ValueError, ConfigError, ParseError) as exc:
        problem = "is missing attribute" if isinstance(exc, KeyError) else "is malformed:"
        raise ParseError(f"<{kind} id={attrs.get('id', '?')}> {problem} {exc}") from None


def _stream(
    source: str | Path | IO[bytes], in_change: bool
) -> Iterator[list[tuple[str, OSMElement]]]:
    """Feed ``source`` to expat chunk by chunk; after each chunk, yield
    the ``(action, element)`` pairs it completed."""
    builder = _ElementBuilder(in_change)
    parser = ET.XMLParser(target=builder)
    handle = open(source, "rb") if isinstance(source, (str, Path)) else source
    try:
        while chunk := handle.read(_CHUNK_BYTES):
            parser.feed(chunk)
            if builder.done:
                yield builder.done
                builder.done = []
        parser.close()
    except ET.ParseError as exc:
        kind = "osmChange" if in_change else "OSM"
        raise ParseError(f"malformed {kind} XML: {exc}") from exc
    finally:
        if handle is not source:
            handle.close()
    if builder.done:
        yield builder.done


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

    Memory stays bounded by one read chunk's elements, so
    multi-gigabyte dumps stream.
    """
    for batch in _stream(source, in_change=False):
        for _, element in batch:
            yield element


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
    for batch in _stream(source, in_change=True):
        yield from batch


def read_osc(source: str | Path | IO[bytes]) -> OsmChange:
    change = OsmChange()
    for action, element in iter_osc(source):
        getattr(change, action).append(element)
    return change
