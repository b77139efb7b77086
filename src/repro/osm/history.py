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
from typing import IO, Iterable, Iterator

from repro.types.dimensions import (
    UPDATE_CREATE,
    UPDATE_DELETE,
    UPDATE_GEOMETRY,
    UPDATE_METADATA,
)
from repro.errors import ParseError
from repro.osm.model import OSMElement, OSMNode, OSMRelation, OSMWay, element_kind
from repro.osm.xml_io import iter_osm, write_osm

__all__ = [
    "classify_update",
    "iter_version_pairs",
    "iter_history_updates",
    "write_history",
    "HistoryUpdate",
]

_KIND_ORDER = {"node": 0, "way": 1, "relation": 2}


def classify_update(previous: OSMElement | None, current: OSMElement) -> str:
    """Classify one version transition into the four update types.

    ``previous`` is ``None`` for the element's first version.  Where a
    single version changes both geometry and tags, geometry wins —
    geometry changes are what road-network stability analysis cares
    about, and the daily crawler's coarse classification folds into the
    same slot.
    """
    if previous is None:
        if current.version != 1:
            # History files can be truncated at an extract boundary;
            # treat a first-seen later version as a modification.
            return UPDATE_GEOMETRY
        return UPDATE_CREATE
    if element_kind(previous) != element_kind(current) or previous.id != current.id:
        raise ParseError(
            f"version pair mismatch: {element_kind(previous)}/{previous.id} "
            f"vs {element_kind(current)}/{current.id}"
        )
    if not current.visible:
        return UPDATE_DELETE
    if _geometry_changed(previous, current):
        return UPDATE_GEOMETRY
    return UPDATE_METADATA


def _geometry_changed(previous: OSMElement, current: OSMElement) -> bool:
    if isinstance(current, OSMNode):
        assert isinstance(previous, OSMNode)
        return (previous.lat, previous.lon) != (current.lat, current.lon)
    if isinstance(current, OSMWay):
        assert isinstance(previous, OSMWay)
        return previous.refs != current.refs
    assert isinstance(current, OSMRelation) and isinstance(previous, OSMRelation)
    return previous.members != current.members


class HistoryUpdate:
    """One classified update from the full-history walk."""

    __slots__ = ("element", "previous", "update_type")

    def __init__(
        self, element: OSMElement, previous: OSMElement | None, update_type: str
    ) -> None:
        self.element = element
        self.previous = previous
        self.update_type = update_type

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"HistoryUpdate({element_kind(self.element)}/{self.element.id} "
            f"v{self.element.version} {self.update_type})"
        )


def iter_version_pairs(
    elements: Iterable[OSMElement],
) -> Iterator[tuple[OSMElement | None, OSMElement]]:
    """Yield (previous, current) for a (kind, id, version)-sorted stream.

    Raises :class:`ParseError` when the stream violates the dump's
    sort order or repeats a version, since a mis-sorted history file
    would silently mis-classify every update.
    """
    prev: OSMElement | None = None
    for current in elements:
        if prev is not None and (
            element_kind(prev) == element_kind(current) and prev.id == current.id
        ):
            if current.version <= prev.version:
                raise ParseError(
                    f"non-increasing versions for {element_kind(current)}/"
                    f"{current.id}: {prev.version} then {current.version}"
                )
            yield prev, current
        else:
            if prev is not None and _sort_key(current) < _sort_key(prev):
                raise ParseError(
                    f"history dump not sorted: {element_kind(prev)}/{prev.id} "
                    f"followed by {element_kind(current)}/{current.id}"
                )
            yield None, current
        prev = current


def _sort_key(element: OSMElement) -> tuple[int, int, int]:
    return (_KIND_ORDER[element_kind(element)], element.id, element.version)


def iter_history_updates(
    source: str | Path | IO[bytes] | Iterable[OSMElement],
) -> Iterator[HistoryUpdate]:
    """Stream classified updates from a full-history dump.

    Accepts a path/file (parsed as OSM XML) or an already-materialized
    element stream (used by the simulator to skip serialization in
    tests).
    """
    for previous, current in iter_version_pairs(iter_osm(source)):
        yield HistoryUpdate(current, previous, classify_update(previous, current))


def write_history(
    target: str | Path | IO[bytes], elements: Iterable[OSMElement]
) -> None:
    """Write a full-history dump, enforcing the canonical sort order."""
    ordered = sorted(elements, key=_sort_key)
    write_osm(target, ordered)
