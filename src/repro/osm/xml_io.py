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
document is fed to expat in chunks, and an ``XMLParser`` target checks
each element from its own start/end callbacks — no tree, no per-event
generator step.  Both crawlers read the checked fields and build no
element object: a diff through :class:`OsmChange`, a full-history dump
through :func:`repro.osm.history.iter_history`.  At OSM scale these
per-element constants are the whole cost of a crawl.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from datetime import date, datetime, timezone
from functools import lru_cache
from pathlib import Path
from typing import IO, Any, Iterable, Iterator

from repro.errors import ConfigError, ParseError
from repro.osm.model import (
    UNKNOWN_ROAD_TYPE,
    OSMElement,
    OSMNode,
    OSMRelation,
    OSMWay,
    RelationMember,
    check_element,
    check_member_type,
    road_type_of,
)

__all__ = [
    "OsmChange",
    "write_osm",
    "iter_osm",
    "write_osc",
    "read_osc",
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
#: An element's checked fields: the ``OSMElement`` header (id, version,
#: timestamp, changeset, uid, user, visible, tags), lat and lon (0 unless
#: a node), then a way's refs, a relation's ``(type, ref, role)`` members,
#: or ``None`` for a node.
_Fields = tuple[tuple[Any, ...], float, float, Any]
#: One diff element as the daily crawler reads it: action, kind,
#: changeset, UTC date, visible, lat, lon, and its road type
#: (:func:`~repro.osm.model.road_type_of`).
Row = tuple[str, str, int, date, bool, float, float, str]


class _ElementBuilder:
    """``XMLParser`` target: each element is checked from expat's callbacks.

    An element's attributes and its direct children's are kept until its
    ``end``, then checked in one place (:func:`_check`); finished
    ``(action, kind, fields)`` triples collect in :attr:`done`.
    """

    def __init__(self, in_change: bool) -> None:
        self.in_change = in_change  # osmChange: elements sit in action blocks
        self.action = ""  # the enclosing create/modify/delete block, if any
        self.done: list[tuple[str, str, _Fields]] = []
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
            self.done.append((self.action, kind, _check(kind, attrs, children)))
            self.open = None


def _check(kind: str, attrs: dict[str, str], children: list[_Tagged]) -> _Fields:
    """One element's fields from its attributes and direct children.  Every
    malformed form — a missing or non-numeric attribute, a non-positive
    id, an out-of-range coordinate, an unknown member type, a ``<tag>``
    without ``k`` — is one :class:`ParseError` naming the element."""
    try:
        header = (
            int(attrs["id"]),
            int(attrs.get("version", "1")),
            parse_timestamp(attrs["timestamp"]),
            int(attrs.get("changeset", "0")),
            int(attrs.get("uid", "0")),
            attrs.get("user", ""),
            attrs.get("visible", "true") == "true",
            {a["k"]: a.get("v", "") for t, a in children if t == "tag"},
        )
        lat = lon = 0.0
        if kind == "node":  # a deleted node legitimately omits coordinates
            lat, lon = float(attrs.get("lat", "0")), float(attrs.get("lon", "0"))
        check_element(header[0], header[1], lat, lon)
        if kind == "node":
            return header, lat, lon, None
        if kind == "way":
            return header, lat, lon, tuple([int(a["ref"]) for t, a in children if t == "nd"])
        members = [(a["type"], int(a["ref"]), a.get("role", "")) for t, a in children if t == "member"]
        for member in members:
            check_member_type(member[0])
        return header, lat, lon, members
    except (KeyError, ValueError, ConfigError, ParseError) as exc:
        problem = "is missing attribute" if isinstance(exc, KeyError) else "is malformed:"
        raise ParseError(f"<{kind} id={attrs.get('id', '?')}> {problem} {exc}") from None


def _construct(kind: str, fields: _Fields) -> OSMElement:
    header, lat, lon, children = fields
    if kind == "node":
        return OSMNode(*header, lat, lon)
    if kind == "way":
        return OSMWay(*header, children)
    return OSMRelation(*header, tuple([RelationMember(*member) for member in children]))


def _stream(
    source: str | Path | IO[bytes], in_change: bool
) -> Iterator[list[tuple[str, str, _Fields]]]:
    """Feed ``source`` to expat chunk by chunk; after each chunk, yield
    the ``(action, kind, fields)`` triples it completed."""
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
    """Stream element objects out of a ``<osm>`` document.

    Memory stays bounded by one read chunk's elements, so
    multi-gigabyte dumps stream.
    """
    batches = _stream(source, in_change=False)
    return (_construct(kind, fields) for batch in batches for _, kind, fields in batch)


# -- .osc diffs ----------------------------------------------------------


class OsmChange:
    """One osmChange document: after-images grouped by action.

    A document :func:`read_osc` parsed keeps each element's checked fields
    and builds the ``OSMElement`` objects only when :attr:`create`,
    :attr:`modify` or :attr:`delete` is first read; :meth:`rows` reads
    the fields as they are.
    """

    def __init__(
        self,
        create: Iterable[OSMElement] = (),
        modify: Iterable[OSMElement] = (),
        delete: Iterable[OSMElement] = (),
    ) -> None:
        self._elements = {"create": list(create), "modify": list(modify), "delete": list(delete)}
        #: A parsed document's ``(action, kind, fields)`` per element in
        #: :meth:`actions` order, until its elements are built.
        self._parsed: list[tuple[str, str, _Fields]] | None = None

    def _built(self) -> dict[str, list[OSMElement]]:
        if self._parsed is not None:
            for action, kind, fields in self._parsed:
                self._elements[action].append(_construct(kind, fields))
            self._parsed = None
        return self._elements

    create = property(lambda self: self._built()["create"])
    modify = property(lambda self: self._built()["modify"])
    delete = property(lambda self: self._built()["delete"])

    def __len__(self) -> int:
        if self._parsed is not None:
            return len(self._parsed)
        return sum(map(len, self._elements.values()))

    def actions(self) -> Iterator[tuple[str, OSMElement]]:
        """Yield (action, element) pairs: creates, modifies, then deletes,
        each in document order."""
        for action, elements in self._built().items():
            for element in elements:
                yield action, element

    def rows(self) -> list[Row]:
        """Every element's :data:`Row`, in :meth:`actions` order; a parsed
        document builds no element object for them."""
        if self._parsed is None:
            return [
                (action, e.kind, e.changeset, e.timestamp.date(), e.visible,
                 getattr(e, "lat", 0.0), getattr(e, "lon", 0.0), road_type_of(e))
                for action, e in self.actions()
            ]
        return [
            (action, kind, header[3], header[2].date(), header[6], lat, lon,
             header[7].get("highway", UNKNOWN_ROAD_TYPE))
            for action, kind, (header, lat, lon, _) in self._parsed
        ]

    def extend(self, other: "OsmChange") -> None:
        for action, elements in other._built().items():
            self._built()[action].extend(elements)


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


def read_osc(source: str | Path | IO[bytes]) -> OsmChange:
    """Parse and check an osmChange document; no element object is built
    until one is asked for (see :class:`OsmChange`)."""
    parsed = [checked for batch in _stream(source, in_change=True) for checked in batch]
    # Stable: each action's elements stay in document order.
    parsed.sort(key=lambda checked: _ACTIONS.index(checked[0]))
    change = OsmChange()
    change._parsed = parsed
    return change
