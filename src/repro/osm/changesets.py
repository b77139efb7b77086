"""OSM changesets: metadata about map-update sessions.

A changeset groups all updates one user submitted in one session (max
24 hours) and carries metadata — user, bounding box, comment, source
(paper, Section II-B).  OSM publishes them as sequentially numbered
small files, one new file per 1,000 changesets; RASED's daily crawler
joins diff elements to their changeset via ``ChangesetID`` to recover
the *Country*, *Latitude*, and *Longitude* attributes for ways and
relations.

This module provides the :class:`Changeset` record, its XML format
(the real ``<changeset>`` vocabulary), and :class:`ChangesetStore`: a
directory of numbered files exactly 1,000 changesets wide, with an
in-memory id lookup for the crawler's joins.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import IO, Iterable, Iterator

from repro.errors import ConfigError, ParseError
from repro.geo.geometry import BBox
from repro.osm.xml_io import format_timestamp, parse_timestamp

__all__ = ["Changeset", "ChangesetStore", "write_changesets", "read_changesets",
           "CHANGESETS_PER_FILE"]

CHANGESETS_PER_FILE = 1000


@dataclass(frozen=True)
class Changeset:
    """Metadata for one editing session."""

    id: int
    created_at: datetime
    closed_at: datetime
    uid: int
    user: str
    bbox: BBox | None = None
    tags: dict[str, str] = field(default_factory=dict)
    changes_count: int = 0

    @property
    def comment(self) -> str:
        return self.tags.get("comment", "")

    @property
    def source(self) -> str:
        return self.tags.get("source", "")


def _changeset_to_xml(changeset: Changeset) -> ET.Element:
    attrs = {
        "id": str(changeset.id),
        "created_at": format_timestamp(changeset.created_at),
        "closed_at": format_timestamp(changeset.closed_at),
        "open": "false",
        "uid": str(changeset.uid),
        "user": changeset.user,
        "changes_count": str(changeset.changes_count),
    }
    if changeset.bbox is not None:
        attrs.update(
            min_lat=f"{changeset.bbox.min_lat:.7f}",
            min_lon=f"{changeset.bbox.min_lon:.7f}",
            max_lat=f"{changeset.bbox.max_lat:.7f}",
            max_lon=f"{changeset.bbox.max_lon:.7f}",
        )
    element = ET.Element("changeset", attrs)
    for key in sorted(changeset.tags):
        ET.SubElement(element, "tag", {"k": key, "v": changeset.tags[key]})
    return element


def _parse_changeset(xml_element: ET.Element) -> Changeset:
    attrib = xml_element.attrib
    try:
        bbox = None
        if "min_lat" in attrib:
            bbox = BBox(
                min_lon=float(attrib["min_lon"]),
                min_lat=float(attrib["min_lat"]),
                max_lon=float(attrib["max_lon"]),
                max_lat=float(attrib["max_lat"]),
            )
        return Changeset(
            id=int(attrib["id"]),
            created_at=parse_timestamp(attrib["created_at"]),
            closed_at=parse_timestamp(attrib["closed_at"]),
            uid=int(attrib.get("uid", "0")),
            user=attrib.get("user", ""),
            bbox=bbox,
            tags={
                tag.attrib["k"]: tag.attrib.get("v", "")
                for tag in xml_element
                if tag.tag == "tag"
            },
            changes_count=int(attrib.get("changes_count", "0")),
        )
    except KeyError as exc:
        raise ParseError(
            f"<changeset id={attrib.get('id', '?')}> missing attribute {exc}"
        ) from None
    except (ValueError, ConfigError) as exc:
        # ConfigError: a degenerate bbox (min above max).
        raise ParseError(
            f"<changeset id={attrib.get('id', '?')}> malformed attribute: {exc}"
        ) from None


def write_changesets(
    target: str | Path | IO[bytes], changesets: Iterable[Changeset]
) -> None:
    """Write one changeset file (an ``<osm>`` document)."""
    root = ET.Element("osm", {"version": "0.6", "generator": "rased-repro"})
    for changeset in changesets:
        root.append(_changeset_to_xml(changeset))
    ET.ElementTree(root).write(
        str(target) if isinstance(target, Path) else target,
        encoding="utf-8",
        xml_declaration=True,
    )


def read_changesets(source: str | Path | IO[bytes]) -> Iterator[Changeset]:
    """Stream changesets out of a changeset file."""
    try:
        for _, xml_element in ET.iterparse(
            str(source) if isinstance(source, Path) else source, events=("end",)
        ):
            if xml_element.tag == "changeset":
                yield _parse_changeset(xml_element)
                xml_element.clear()
    except ET.ParseError as exc:
        raise ParseError(f"malformed changeset XML: {exc}") from exc


class ChangesetStore:
    """Sequentially numbered changeset files under one directory.

    File ``NNNNNNN.xml`` holds changesets with
    ``id // CHANGESETS_PER_FILE == NNNNNNN``, mirroring OSM's "new file
    for every 1K new changesets".  ``lookup`` keeps a lazy per-file
    cache so the daily crawler's id joins don't reparse files.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: block -> its changesets and the (size, mtime) of the file read.
        self._cache: dict[int, tuple[dict[int, Changeset], tuple[int, int] | None]] = {}
        self._pending: dict[int, dict[int, Changeset]] = {}

    def _file_for(self, block: int) -> Path:
        return self.root / f"{block:07d}.xml"

    def add(self, changeset: Changeset) -> None:
        """Buffer a changeset as its file will hold it (a bbox to 7
        decimals, times to the second), so a crawler sharing this store
        joins the values one reading the file does; call :meth:`flush`
        to persist."""
        block = changeset.id // CHANGESETS_PER_FILE
        self._pending.setdefault(block, {})[changeset.id] = _parse_changeset(
            _changeset_to_xml(changeset)
        )

    def flush(self) -> int:
        """Write buffered changesets into their numbered files.

        Returns the number of files written.  Existing file contents
        are merged (a block file may fill up across several days).
        """
        written = 0
        for block, pending in sorted(self._pending.items()):
            merged = dict(self._load_block(block, refresh=True))
            merged.update(pending)
            path = self._file_for(block)
            write_changesets(path, [merged[cid] for cid in sorted(merged)])
            self._cache[block] = (merged, _stamp(path))
            written += 1
        self._pending.clear()
        return written

    def _load_block(self, block: int, refresh: bool = False) -> dict[int, Changeset]:
        """A block's changesets, read once; with ``refresh``, read again if
        its file changed size or mtime since (another store flushed it)."""
        path = self._file_for(block)
        if block in self._cache:
            cached, seen = self._cache[block]
            if not refresh or _stamp(path) == seen:
                return cached
        stamp = _stamp(path)
        loaded: dict[int, Changeset] = {}
        if stamp is not None:
            loaded = {c.id: c for c in read_changesets(path)}
        self._cache[block] = (loaded, stamp)
        return loaded

    def lookup(self, changeset_id: int) -> Changeset | None:
        """Fetch a changeset by id, or ``None`` when unknown (after one
        re-read of its block, should another store have flushed it)."""
        block = changeset_id // CHANGESETS_PER_FILE
        pending = self._pending.get(block, {})
        if changeset_id in pending:
            return pending[changeset_id]
        found = self._load_block(block).get(changeset_id)
        return found if found is not None else self._load_block(block, True).get(changeset_id)

    def __iter__(self) -> Iterator[Changeset]:
        blocks = {
            int(path.stem) for path in self.root.glob("*.xml")
        } | set(self._pending)
        for block in sorted(blocks):
            merged = dict(self._load_block(block))
            merged.update(self._pending.get(block, {}))
            for cid in sorted(merged):
                yield merged[cid]


def _stamp(path: Path) -> tuple[int, int] | None:
    stat = path.stat() if path.exists() else None
    return None if stat is None else (stat.st_size, stat.st_mtime_ns)
