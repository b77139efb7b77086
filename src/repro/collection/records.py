"""The ``UpdateList`` relation: RASED's central data product.

The Data Collection module reduces every OSM update to one tuple of
eight attributes (paper, Section III):

    ⟨ElementType, Date, Country, Latitude, Longitude, RoadType,
      UpdateType, ChangesetID⟩

``Country`` is the update's primary country; the continent and (for US
updates) state zones are *derived* from the coordinates at cube-build
time via the :class:`~repro.geo.zones.ZoneAtlas`, so the stored
relation stays exactly the paper's eight columns.

:class:`UpdateList` holds the relation as those eight columns and adds
the consumers' views: bulk cube coordinates (for the Storage & Indexing
module) and a TSV serialization of the rows.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from datetime import date as date_type
from functools import lru_cache
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from repro.types.dimensions import CubeSchema, Dimension, ELEMENT_TYPES, UPDATE_TYPES
from repro.errors import ParseError
from repro.geo.geometry import Point
from repro.geo.zones import ZoneAtlas

__all__ = ["UpdateRecord", "UpdateList"]


def _codes(
    lookup: Callable[[str], int | None], values: list[str], missing: int = -1
) -> np.ndarray:
    """``lookup`` of every value, called once per distinct value in
    first-seen order (a raise names the first bad one); ``None`` is
    ``missing``."""
    table: dict[str, int] = {}
    for value in dict.fromkeys(values):
        code = lookup(value)
        table[value] = missing if code is None else code
    return np.fromiter(map(table.__getitem__, values), dtype=np.int64, count=len(values))


@lru_cache(maxsize=8)
def _zone_codes(atlas: ZoneAtlas, zones: Dimension) -> np.ndarray:
    """``zone_names()`` index -> code in ``zones`` (-1 where absent), plus
    a last -1 that a "no zone" index of -1 reads; read-only, shared."""
    codes = np.append(_codes(zones.code_or_none, atlas.zone_names()), -1)
    codes.flags.writeable = False
    return codes


@dataclass(frozen=True)
class UpdateRecord:
    """One row of the UpdateList relation."""

    element_type: str
    date: date_type
    country: str
    latitude: float
    longitude: float
    road_type: str
    update_type: str
    changeset_id: int

    def __post_init__(self) -> None:
        if self.element_type not in ELEMENT_TYPES:
            raise ParseError(f"bad ElementType {self.element_type!r}")
        if self.update_type not in UPDATE_TYPES:
            raise ParseError(f"bad UpdateType {self.update_type!r}")

    @property
    def point(self) -> Point:
        return Point(lon=self.longitude, lat=self.latitude)

    def to_tsv(self) -> str:
        return "\t".join(
            (
                self.element_type,
                self.date.isoformat(),
                self.country,
                f"{self.latitude:.7f}",
                f"{self.longitude:.7f}",
                self.road_type,
                self.update_type,
                str(self.changeset_id),
            )
        )


#: UpdateRecord's fields, in order: the UpdateList's columns.
_FIELDS = tuple(f.name for f in fields(UpdateRecord))
_VALUES = attrgetter(*_FIELDS)


class UpdateList:
    """The relation as columns: one list per :class:`UpdateRecord` field, row
    ``i`` at position ``i`` of each.  A row becomes an
    :class:`UpdateRecord` only when one is asked for.  A list the
    geocoder built keeps its rows' ``ZoneAtlas.zone_indexes`` in
    :attr:`zones` (with that atlas) for :meth:`cube_coordinates`.
    """

    def __init__(
        self,
        records: Iterable[UpdateRecord] = (),
        columns: Iterable[list[Any]] | None = None,
        zones: tuple[ZoneAtlas, np.ndarray] | None = None,
    ) -> None:
        self.columns: tuple[list[Any], ...] = (
            tuple([] for _ in _FIELDS) if columns is None else tuple(columns)
        )
        self.extend(records)
        self.zones = zones

    def column(self, name: str) -> list[Any]:
        return self.columns[_FIELDS.index(name)]

    @property
    def records(self) -> list[UpdateRecord]:
        """The rows as a new list of records (appending to it adds no row)."""
        return list(self)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self) -> Iterator[UpdateRecord]:
        return (UpdateRecord(*values) for values in zip(*self.columns))

    def __getitem__(self, index: int) -> UpdateRecord:
        return UpdateRecord(*(column[index] for column in self.columns))

    def append(self, record: UpdateRecord) -> None:
        self.extend((record,))

    def extend(self, records: Iterable[UpdateRecord]) -> None:
        """Append rows; extending an empty list by a geocoded one keeps
        its zones."""
        zones = records.zones if isinstance(records, UpdateList) and not len(self) else None
        added = records.columns if isinstance(records, UpdateList) else zip(*map(_VALUES, records))
        for column, values in zip(self.columns, added):
            column.extend(values)
        self.zones = zones

    def by_date(self) -> dict[date_type, "UpdateList"]:
        """The rows split by date, in date order; each date's rows keep
        their order here and a geocoded list's zones.  One stable sort of
        the columns, then a column slice per date."""
        if not len(self):
            return {}
        ordinals = np.fromiter(map(date_type.toordinal, self.column("date")), np.int64, len(self))
        order = np.argsort(ordinals, kind="stable")
        picked = order.tolist()
        columns = [[column[i] for i in picked] for column in self.columns]
        zones = None if self.zones is None else (self.zones[0], self.zones[1][order])
        cuts = [0, *(np.flatnonzero(np.diff(ordinals[order])) + 1).tolist(), len(picked)]
        return {
            columns[1][a]: UpdateList(
                columns=[column[a:b] for column in columns],
                zones=None if zones is None else (zones[0], zones[1][a:b]),
            )
            for a, b in zip(cuts, cuts[1:])
        }

    # -- cube view -------------------------------------------------------

    def cube_coordinates(
        self, schema: CubeSchema, atlas: ZoneAtlas | None = None
    ) -> np.ndarray:
        """Encode rows into an ``(n, 4)`` array of cube coordinates.

        With an ``atlas``, each row is expanded to every zone it counts
        toward (country + continent + state), the paper's "countries
        plus selected zones of interest"; without one, only the stored
        country is used.  Rows whose road type is unknown to a reduced
        schema are folded into the schema's last road-type slot rather
        than dropped, so cube totals remain exact.

        Rows come out row by row, zones in ``zones_for_point`` order; all
        zones come from one ``ZoneAtlas.zone_indexes`` call — the
        geocoder's, when it located the rows under this atlas.
        """
        if not len(self):
            return np.empty((0, 4), dtype=np.int64)
        column = self.column
        element = _codes(schema.element_type.code, column("element_type"))
        update = _codes(schema.update_type.code, column("update_type"))
        road = _codes(
            schema.road_type.code_or_none,
            column("road_type"),
            missing=len(schema.road_type) - 1,
        )
        if atlas is None:
            zones = _codes(schema.country.code_or_none, column("country"))[:, None]
        else:
            if self.zones is not None and self.zones[0] is atlas:
                found = self.zones[1]
            else:
                lon, lat = column("longitude"), column("latitude")
                found = atlas.zone_indexes(
                    np.array(lon, dtype=np.float64), np.array(lat, dtype=np.float64)
                )
                outside = np.flatnonzero(found[:, 0] < 0)
                if len(outside):
                    # Raise what the per-point lookup raises for this row.
                    at = int(outside[0])
                    atlas.zones_for_point(Point(lon=lon[at], lat=lat[at]))
            zones = _zone_codes(atlas, schema.country)[found]
        keep = zones >= 0
        rows = np.nonzero(keep)[0]
        return np.column_stack((element[rows], zones[keep], road[rows], update[rows]))
