"""Full-history dumps and update-type classification.

The OSM *full history* file contains every version of every element —
unlike diffs, it includes each update's previous state (paper, Section
II-B).  RASED's monthly crawler walks consecutive version pairs and
classifies each update as *create*, *delete*, *geometry* update, or
*metadata* update (Section V):

* a newly created element is always version 1;
* a deleted element's last version is the tombstone
  (``visible="false"``);
* a **geometry** update changes a node's coordinates or a way's /
  relation's member list;
* a **metadata** update changes only the element's tags.

The dump format here is a plain ``<osm>`` document whose elements are
sorted by (kind, id, version) — the same convention as
``planet-history.osm``.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Any, Iterable, Iterator

from repro.types.dimensions import (
    UPDATE_CREATE,
    UPDATE_DELETE,
    UPDATE_GEOMETRY,
    UPDATE_METADATA,
)
from repro.errors import ParseError
from repro.osm import xml_io
from repro.osm.model import OSMElement, OSMNode, OSMRelation, OSMWay
from repro.osm.xml_io import _Fields, write_osm

__all__ = [
    "Version",
    "classify_update",
    "element_version",
    "iter_history",
    "write_history",
]

_KIND_ORDER = {"node": 0, "way": 1, "relation": 2}

#: One element version as :func:`classify_update` reads it: kind, id,
#: version, visible, and its geometry — a node's ``(lat, lon)``, a way's
#: refs, a relation's ``(type, ref, role)`` members.
Version = tuple[str, int, int, bool, Any]


def classify_update(previous: Version | None, current: Version) -> str:
    """Classify one version transition into the four update types.

    ``previous`` is the same element's previous version, ``None`` for
    its first.  Where a single version changes both geometry and tags,
    geometry wins — geometry changes are what road-network stability
    analysis cares about, and the daily crawler's coarse classification
    folds into the same slot.
    """
    kind, element_id, version, visible, geometry = current
    if previous is None:
        # History files can be truncated at an extract boundary; treat
        # a first-seen later version as a modification.
        return UPDATE_CREATE if version == 1 else UPDATE_GEOMETRY
    if previous[0] != kind or previous[1] != element_id:
        raise ParseError(
            f"version pair mismatch: {previous[0]}/{previous[1]} vs {kind}/{element_id}"
        )
    if version <= previous[2]:
        raise ParseError(
            f"non-increasing versions for {kind}/{element_id}: {previous[2]} then {version}"
        )
    if not visible:
        return UPDATE_DELETE
    if previous[4] != geometry:
        return UPDATE_GEOMETRY
    return UPDATE_METADATA


def element_version(element: OSMElement) -> Version:
    """An element object's :data:`Version` (the simulator classifies its
    truth rows through it)."""
    if isinstance(element, OSMNode):
        geometry: Any = (element.lat, element.lon)
    elif isinstance(element, OSMWay):
        geometry = element.refs
    else:
        assert isinstance(element, OSMRelation)
        geometry = [(m.type, m.ref, m.role) for m in element.members]
    return element.kind, element.id, element.version, element.visible, geometry


def iter_history(
    source: str | Path | IO[bytes],
) -> Iterator[tuple[str, _Fields, _Fields | None, str]]:
    """Stream a full-history dump's versions, each as ``(kind, fields,
    the element's previous version's fields or None, update type)``.

    One streaming parse (:func:`~repro.osm.xml_io._stream`) with the
    diff reader's checks; no element object is built.  Raises
    :class:`ParseError` when the dump violates its (kind, id, version)
    sort order or repeats a version, since a mis-sorted history file
    would silently mis-classify every update.
    """
    last: Version | None = None
    last_fields: _Fields | None = None
    for batch in xml_io._stream(source, in_change=False):
        for _, kind, fields in batch:
            header, lat, lon, children = fields
            version = (kind, header[0], header[1], header[6], (lat, lon) if children is None else children)
            if last is not None and (last[1] != version[1] or last[0] != kind):
                if (_KIND_ORDER[kind], version[1]) < (_KIND_ORDER[last[0]], last[1]):
                    raise ParseError(
                        f"history dump not sorted: {last[0]}/{last[1]} followed by {kind}/{version[1]}"
                    )
                last = last_fields = None
            yield kind, fields, last_fields, classify_update(last, version)
            last, last_fields = version, fields


def _sort_key(element: OSMElement) -> tuple[int, int, int]:
    return (_KIND_ORDER[element.kind], element.id, element.version)


def write_history(
    target: str | Path | IO[bytes], elements: Iterable[OSMElement]
) -> None:
    """Write a full-history dump, enforcing the canonical sort order."""
    ordered = sorted(elements, key=_sort_key)
    write_osm(target, ordered)
