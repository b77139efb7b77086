"""Dimension schemas for RASED data cubes.

Each index node in RASED is a four-dimensional data cube over the
``UpdateList`` attributes *ElementType*, *Country*, *RoadType*, and
*UpdateType* (paper, Section VI-A).  This module defines:

* :class:`Dimension` — an ordered, immutable mapping between dimension
  values (strings) and dense integer codes used as numpy axis indices.
* :class:`CubeSchema` — the ordered tuple of the four dimensions, with
  helpers to encode/decode update records into cube coordinates.
* Canonical value sets: the three OSM element types, the four update
  types, and builders for country/road-type dimensions at both the
  paper's full scale (300+ zones x 150 road types) and reduced scales
  used by fast tests.

Update-type semantics
---------------------
The paper's monthly crawler distinguishes four update types: *create*,
*delete*, *geometry* update, and *metadata* update.  The daily crawler
can only tell "new" from "updated" (Section V), so daily cubes populate
only the *create* and *geometry* slots — the paper's "270,000 aggregate
values, while putting zeros in the rest".  We record coarse modifies
under ``geometry`` and tag such cubes with ``resolution='coarse'`` (see
:mod:`repro.types.cube`); the monthly rebuild replaces them with fully
classified cubes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from repro.errors import DimensionError

__all__ = [
    "Dimension",
    "CubeSchema",
    "ELEMENT_TYPES",
    "UPDATE_TYPES",
    "ELEMENT_NODE",
    "ELEMENT_WAY",
    "ELEMENT_RELATION",
    "UPDATE_CREATE",
    "UPDATE_DELETE",
    "UPDATE_GEOMETRY",
    "UPDATE_METADATA",
    "element_dimension",
    "update_dimension",
    "road_type_dimension",
    "PAPER_ROAD_TYPES",
    "ROAD_TYPE_OTHER",
    "default_schema",
    "paper_scale_schema",
]

ELEMENT_NODE = "node"
ELEMENT_WAY = "way"
ELEMENT_RELATION = "relation"
ELEMENT_TYPES: tuple[str, ...] = (ELEMENT_NODE, ELEMENT_WAY, ELEMENT_RELATION)

UPDATE_CREATE = "create"
UPDATE_DELETE = "delete"
UPDATE_GEOMETRY = "geometry"
UPDATE_METADATA = "metadata"
UPDATE_TYPES: tuple[str, ...] = (
    UPDATE_CREATE,
    UPDATE_DELETE,
    UPDATE_GEOMETRY,
    UPDATE_METADATA,
)

#: The highway= values the paper counts as road types (150 in the real
#: system).  This is the curated core list; :func:`road_type_dimension`
#: pads it with numbered service classes to reach any requested size.
PAPER_ROAD_TYPES: tuple[str, ...] = (
    "residential",
    "service",
    "track",
    "footway",
    "path",
    "unclassified",
    "primary",
    "secondary",
    "tertiary",
    "motorway",
    "trunk",
    "motorway_link",
    "trunk_link",
    "primary_link",
    "secondary_link",
    "tertiary_link",
    "living_street",
    "pedestrian",
    "bus_guideway",
    "escape",
    "raceway",
    "road",
    "busway",
    "bridleway",
    "steps",
    "corridor",
    "cycleway",
    "construction",
    "proposed",
    "platform",
)


@dataclass(frozen=True)
class Dimension:
    """An ordered, immutable set of values for one cube axis.

    Values are mapped to dense codes ``0 .. size-1`` in declaration
    order.  Dimensions are hashable on ``(name, values)`` so schemas
    can be compared for cube compatibility.
    """

    name: str
    values: tuple[str, ...]
    _index: Mapping[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.values:
            raise DimensionError(f"dimension {self.name!r} has no values")
        index = {value: code for code, value in enumerate(self.values)}
        if len(index) != len(self.values):
            raise DimensionError(f"dimension {self.name!r} has duplicate values")
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[str]:
        return iter(self.values)

    def __contains__(self, value: object) -> bool:
        return value in self._index

    def code(self, value: str) -> int:
        """Return the dense integer code for ``value``.

        Raises :class:`DimensionError` for unknown values — unknown
        update attributes indicate a crawler bug and must not be
        silently dropped into a wrong cell.
        """
        try:
            return self._index[value]
        except KeyError:
            raise DimensionError(
                f"unknown {self.name} value {value!r}; "
                f"known values include {self.values[:5]!r}..."
            ) from None

    def code_or_none(self, value: str) -> int | None:
        """Return the code for ``value`` or ``None`` if unknown."""
        return self._index.get(value)

    def value(self, code: int) -> str:
        """Return the value string for a dense code."""
        try:
            return self.values[code]
        except IndexError:
            raise DimensionError(
                f"code {code} out of range for dimension {self.name!r} "
                f"of size {len(self.values)}"
            ) from None

    def codes(self, values: Iterable[str] | None) -> list[int]:
        """Encode a list of values; ``None`` means *all* values."""
        if values is None:
            return list(range(len(self.values)))
        return [self.code(v) for v in values]


@dataclass(frozen=True)
class CubeSchema:
    """The ordered four dimensions of a RASED data cube.

    Axis order is fixed as (element_type, country, road_type,
    update_type), matching the paper's description and giving a cube
    shape of ``(3, |countries|, |road_types|, 4)``.
    """

    element_type: Dimension
    country: Dimension
    road_type: Dimension
    update_type: Dimension

    #: Axis names in storage order; used by queries for group-by.
    AXES: tuple[str, ...] = ("element_type", "country", "road_type", "update_type")

    @property
    def dimensions(self) -> tuple[Dimension, Dimension, Dimension, Dimension]:
        return (self.element_type, self.country, self.road_type, self.update_type)

    # Computed once per schema: the decoder and the aggregation kernel
    # read both several times per page.  (``cached_property`` stores
    # into the instance ``__dict__``, which a frozen dataclass allows.)
    @cached_property
    def shape(self) -> tuple[int, int, int, int]:
        return tuple(len(d) for d in self.dimensions)  # type: ignore[return-value]

    @cached_property
    def cell_count(self) -> int:
        """Total number of precomputed values per cube (paper: 540,000)."""
        return math.prod(self.shape)

    def axis(self, name: str) -> int:
        """Return the numpy axis index for a dimension name."""
        try:
            return self.AXES.index(name)
        except ValueError:
            raise DimensionError(
                f"unknown axis {name!r}; expected one of {self.AXES}"
            ) from None

    def dimension(self, name: str) -> Dimension:
        """Return the :class:`Dimension` for an axis name."""
        return self.dimensions[self.axis(name)]

    def encode(
        self, element_type: str, country: str, road_type: str, update_type: str
    ) -> tuple[int, int, int, int]:
        """Encode one update's attributes into cube coordinates."""
        return (
            self.element_type.code(element_type),
            self.country.code(country),
            self.road_type.code(road_type),
            self.update_type.code(update_type),
        )

    def decode(self, coords: Sequence[int]) -> tuple[str, str, str, str]:
        """Decode cube coordinates back into attribute values."""
        if len(coords) != 4:
            raise DimensionError(f"expected 4 coordinates, got {len(coords)}")
        return (
            self.element_type.value(coords[0]),
            self.country.value(coords[1]),
            self.road_type.value(coords[2]),
            self.update_type.value(coords[3]),
        )


def element_dimension() -> Dimension:
    """The fixed three-valued OSM element-type dimension."""
    return Dimension("element_type", ELEMENT_TYPES)


def update_dimension() -> Dimension:
    """The fixed four-valued update-type dimension."""
    return Dimension("update_type", UPDATE_TYPES)


#: Catch-all road-type slot for highway values outside the schema
#: (OSM's long tail of rare tags, plus PoI values like ``bus_stop``).
ROAD_TYPE_OTHER = "other"


def road_type_dimension(size: int = len(PAPER_ROAD_TYPES) + 1) -> Dimension:
    """Build a road-type dimension of ``size`` values.

    The first values come from :data:`PAPER_ROAD_TYPES` (padded with
    synthetic ``special_NN`` classes when ``size`` exceeds the curated
    list — the paper uses 150 road types); the final slot is always
    :data:`ROAD_TYPE_OTHER`, the catch-all for values outside the
    schema so reduced schemas never misattribute counts to a real
    road class.
    """
    if size < 2:
        raise DimensionError("road-type dimension needs at least two values")
    values = list(PAPER_ROAD_TYPES[: size - 1])
    next_id = 0
    while len(values) < size - 1:
        values.append(f"special_{next_id:03d}")
        next_id += 1
    values.append(ROAD_TYPE_OTHER)
    return Dimension("road_type", tuple(values))


def default_schema(countries: Sequence[str], road_types: int | None = None) -> CubeSchema:
    """Build a :class:`CubeSchema` for a given zone list.

    ``countries`` is the ordered list of zone names produced by
    :mod:`repro.geo.zones` (countries plus continents and US states).
    """
    road_dim = (
        road_type_dimension()
        if road_types is None
        else road_type_dimension(road_types)
    )
    return CubeSchema(
        element_type=element_dimension(),
        country=Dimension("country", tuple(countries)),
        road_type=road_dim,
        update_type=update_dimension(),
    )


def paper_scale_schema() -> CubeSchema:
    """A schema at the paper's full scale: 3 x 300 x 150 x 4 = 540,000 cells.

    Zone names are synthetic (``zone_000``..) — this schema exists for
    storage-accounting experiments (Fig. 8) where only cube *size*
    matters, not zone identity.
    """
    countries = tuple(f"zone_{i:03d}" for i in range(300))
    return default_schema(countries, road_types=150)
