"""The synthetic world atlas: countries, continents, and US states.

The real RASED geocodes updates against 300+ zones — "all countries
plus some selected zones of interest (e.g., continents and US states)"
(paper, Section VI-A).  With no network access we substitute a
deterministic synthetic world that preserves everything the pipeline
exercises:

* a complete tiling of the (synthetic) land area by **250 countries**,
  laid out on a 25 x 10 grid so point-to-country lookup is O(1);
* **6 continents**, each a contiguous block of grid columns;
* **50 US states** subdividing the ``united_states`` cell;
* per-country **activity weights** with a heavy skew mirroring real OSM
  editing (US, India, Germany, ... lead), so synthetic workloads have
  realistic hot/cold zones — the countries shown in the paper's
  Figs. 2-5 all exist here under their real names.

Total: 306 zones, matching the paper's "300+ values" for the cube's
country dimension.  Zone *membership is overlapping by design*: an
update in Minnesota belongs to ``minnesota``, ``united_states``, and
``north_america``, and the cube counts it under each (see
:meth:`ZoneAtlas.zones_for_point`).  Analysis queries group or filter
over same-kind zones, so overlap never double-counts within a result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ConfigError, GeocodeError
from repro.geo.geometry import BBox, Point

__all__ = ["Zone", "ZoneAtlas", "build_world", "CONTINENTS", "US_STATES"]

KIND_COUNTRY = "country"
KIND_CONTINENT = "continent"
KIND_STATE = "state"

#: Continent name -> half-open range of grid columns on the 25-wide grid.
CONTINENTS: dict[str, tuple[int, int]] = {
    "north_america": (0, 4),
    "south_america": (4, 8),
    "europe": (8, 13),
    "africa": (13, 17),
    "asia": (17, 23),
    "oceania": (23, 25),
}

#: Real country names seeded into each continent, ordered by (real-world
#: approximate) OSM edit activity within the continent.  The remainder
#: of each continent's grid cells get synthetic ``<continent>_NNN``
#: names.
REAL_COUNTRIES: dict[str, tuple[str, ...]] = {
    "north_america": ("united_states", "mexico", "canada", "cuba", "guatemala",
                      "honduras", "panama", "costa_rica", "jamaica", "haiti"),
    "south_america": ("brazil", "argentina", "colombia", "peru", "chile",
                      "ecuador", "venezuela", "bolivia", "paraguay", "uruguay"),
    "europe": ("germany", "france", "united_kingdom", "italy", "poland",
               "russia", "spain", "netherlands", "ukraine", "austria",
               "belgium", "czechia", "sweden", "norway", "finland",
               "switzerland", "portugal", "greece", "hungary", "romania"),
    "africa": ("nigeria", "egypt", "south_africa", "kenya", "tanzania",
               "ethiopia", "ghana", "morocco", "algeria", "uganda"),
    "asia": ("india", "vietnam", "indonesia", "japan", "china",
             "philippines", "thailand", "south_korea", "qatar", "singapore",
             "malaysia", "pakistan", "bangladesh", "turkey", "iran",
             "iraq", "saudi_arabia", "israel", "nepal", "sri_lanka"),
    "oceania": ("australia", "new_zealand", "fiji", "papua_new_guinea",
                "samoa", "tonga"),
}

#: Global activity ranking; drives per-country edit weights.  The head
#: matches the paper's Fig. 3 ordering (US > India > Germany > Brazil >
#: Mexico > France > Vietnam).
ACTIVITY_RANKING: tuple[str, ...] = (
    "united_states", "india", "germany", "brazil", "mexico", "france",
    "vietnam", "indonesia", "russia", "united_kingdom", "italy", "poland",
    "japan", "canada", "spain", "china", "philippines", "netherlands",
    "argentina", "nigeria", "australia", "ukraine", "colombia", "thailand",
    "austria", "turkey", "egypt", "peru", "belgium", "czechia",
    "south_korea", "sweden", "chile", "singapore", "qatar",
)

US_STATES: tuple[str, ...] = (
    "alabama", "alaska", "arizona", "arkansas", "california", "colorado",
    "connecticut", "delaware", "florida", "georgia", "hawaii", "idaho",
    "illinois", "indiana", "iowa", "kansas", "kentucky", "louisiana",
    "maine", "maryland", "massachusetts", "michigan", "minnesota",
    "mississippi", "missouri", "montana", "nebraska", "nevada",
    "new_hampshire", "new_jersey", "new_mexico", "new_york",
    "north_carolina", "north_dakota", "ohio", "oklahoma", "oregon",
    "pennsylvania", "rhode_island", "south_carolina", "south_dakota",
    "tennessee", "texas", "utah", "vermont", "virginia", "washington",
    "west_virginia", "wisconsin", "wyoming",
)

_GRID_COLS = 25
_GRID_ROWS = 10
_WORLD = BBox(min_lon=-180.0, min_lat=-60.0, max_lon=180.0, max_lat=75.0)
#: The one country subdivided into the atlas's states.
_SUBDIVIDED = "united_states"


@dataclass(frozen=True)
class Zone:
    """One named zone of interest with its bounding box.

    All synthetic zones are axis-aligned rectangles, so the bbox *is*
    the exact zone geometry; the geocoder still goes through the same
    containment interface real polygons would use.
    """

    name: str
    kind: str
    bbox: BBox
    parent: str | None = None
    activity_weight: float = 1.0

    def contains_point(self, p: Point) -> bool:
        return self.bbox.contains_point(p)


class ZoneAtlas:
    """All zones plus O(1) point-to-country resolution.

    The atlas is the single source of truth for the cube's country
    dimension: :meth:`zone_names` returns the 306 names in a stable
    order (countries, then continents, then states) that the schema
    builder consumes.
    """

    def __init__(self, countries: list[Zone], continents: list[Zone], states: list[Zone]):
        self.countries = countries
        self.continents = continents
        self.states = states
        self._by_name: dict[str, Zone] = {}
        for zone in self.all_zones():
            if zone.name in self._by_name:
                raise ConfigError(f"duplicate zone name {zone.name!r}")
            self._by_name[zone.name] = zone
        self._cell_w = _WORLD.width / _GRID_COLS
        self._cell_h = _WORLD.height / _GRID_ROWS
        cells: dict[int, Zone] = {}
        for zone in countries:
            col = int(round((zone.bbox.min_lon - _WORLD.min_lon) / self._cell_w))
            row = int(round((zone.bbox.min_lat - _WORLD.min_lat) / self._cell_h))
            cells[col * _GRID_ROWS + row] = zone
        #: Grid cell (col * rows + row) -> its country (every cell has
        #: one), and -> the zone_names() indexes of it and its continent.
        self._cells = [cells[cell] for cell in range(_GRID_COLS * _GRID_ROWS)]
        index = {name: i for i, name in enumerate(self._by_name)}
        self._cell_zones = np.array(
            [(index[z.name], index[z.parent] if z.parent else -1) for z in self._cells]
        )
        self._subdivided_cell = self._cells.index(self._by_name[_SUBDIVIDED])
        #: Each state's bbox (rows: min_lon, min_lat, max_lon, max_lat) and
        #: zone_names() index, in atlas order.
        self._state_boxes = np.array([
            (s.bbox.min_lon, s.bbox.min_lat, s.bbox.max_lon, s.bbox.max_lat) for s in states
        ]).reshape(-1, 4).T
        self._state_indexes = np.array([index[s.name] for s in states], dtype=np.int64)

    # -- enumeration ----------------------------------------------------

    def all_zones(self) -> Iterator[Zone]:
        yield from self.countries
        yield from self.continents
        yield from self.states

    def zone_names(self) -> list[str]:
        """Stable ordered names for the cube's country dimension."""
        return [z.name for z in self.all_zones()]

    def __len__(self) -> int:
        return len(self.countries) + len(self.continents) + len(self.states)

    def zone(self, name: str) -> Zone:
        try:
            return self._by_name[name]
        except KeyError:
            raise GeocodeError(f"unknown zone {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def countries_of(self, continent: str) -> list[Zone]:
        zone = self.zone(continent)
        if zone.kind != KIND_CONTINENT:
            raise GeocodeError(f"{continent!r} is not a continent")
        return [c for c in self.countries if c.parent == continent]

    # -- geocoding ------------------------------------------------------

    def country_at(self, p: Point) -> Zone:
        """The country containing ``p`` (O(1) grid lookup)."""
        if not _WORLD.contains_point(p):
            raise GeocodeError(f"point {p} is outside the synthetic world")
        col = min(int((p.lon - _WORLD.min_lon) / self._cell_w), _GRID_COLS - 1)
        row = min(int((p.lat - _WORLD.min_lat) / self._cell_h), _GRID_ROWS - 1)
        return self._cells[col * _GRID_ROWS + row]

    def state_at(self, p: Point) -> Zone | None:
        """The US state containing ``p``, if any; on a border, the first
        in atlas order."""
        return next((state for state in self.states if state.contains_point(p)), None)

    def zones_for_point(self, p: Point) -> list[Zone]:
        """All zones an update at ``p`` counts toward.

        Always the country and its continent; plus the state when the
        country is subdivided.  This is the overlap described in the
        module docstring.
        """
        country = self.country_at(p)
        zones = [country, self.zone(country.parent)] if country.parent else [country]
        state = self.state_at(p) if country.name == _SUBDIVIDED else None
        if state is not None:
            zones.append(state)
        return zones

    def zone_indexes(self, lon: np.ndarray, lat: np.ndarray) -> np.ndarray:
        """:meth:`zones_for_point` for many points at once.

        Returns an ``(n, 3)`` array of :meth:`zone_names` indexes —
        country, continent, state — with ``-1`` for none.  Every point's
        cell is :meth:`country_at`'s arithmetic in numpy and its country
        and continent are read from a per-cell table; a point in the
        subdivided cell is tested against every state's box at once and
        takes the first that contains it, as :meth:`state_at` does.  A
        point outside the world gets ``-1`` throughout; the caller
        decides how to fail.
        """
        lon = np.asarray(lon, dtype=np.float64)
        lat = np.asarray(lat, dtype=np.float64)
        out = np.full((len(lon), 3), -1, dtype=np.int64)
        inside = np.flatnonzero(
            (lon >= _WORLD.min_lon) & (lon <= _WORLD.max_lon)
            & (lat >= _WORLD.min_lat) & (lat <= _WORLD.max_lat)
        )
        col = ((lon[inside] - _WORLD.min_lon) / self._cell_w).astype(np.int64)
        row = ((lat[inside] - _WORLD.min_lat) / self._cell_h).astype(np.int64)
        cell = np.minimum(col, _GRID_COLS - 1) * _GRID_ROWS + np.minimum(row, _GRID_ROWS - 1)
        out[inside, :2] = self._cell_zones[cell]
        sub = inside[cell == self._subdivided_cell]
        x, y = lon[sub, None], lat[sub, None]
        min_lon, min_lat, max_lon, max_lat = self._state_boxes
        hit = (min_lon <= x) & (x <= max_lon) & (min_lat <= y) & (y <= max_lat)
        first = hit.argmax(axis=1)
        found = hit[np.arange(len(sub)), first]
        out[sub[found], 2] = self._state_indexes[first[found]]
        return out


def _activity_weight(name: str) -> float:
    """Zipf-like weight from the global ranking; tail countries ~0.01."""
    try:
        rank = ACTIVITY_RANKING.index(name)
    except ValueError:
        return 0.01
    return 1.0 / (1.0 + rank) ** 0.7


def build_world() -> ZoneAtlas:
    """Construct the deterministic 306-zone synthetic world."""
    countries: list[Zone] = []
    continents: list[Zone] = []
    cell_w = _WORLD.width / _GRID_COLS
    cell_h = _WORLD.height / _GRID_ROWS

    for continent, (col_lo, col_hi) in CONTINENTS.items():
        cont_bbox = BBox(
            min_lon=_WORLD.min_lon + col_lo * cell_w,
            min_lat=_WORLD.min_lat,
            max_lon=_WORLD.min_lon + col_hi * cell_w,
            max_lat=_WORLD.max_lat,
        )
        continents.append(
            Zone(name=continent, kind=KIND_CONTINENT, bbox=cont_bbox)
        )
        names = list(REAL_COUNTRIES[continent])
        cell_index = 0
        for col in range(col_lo, col_hi):
            for row in range(_GRID_ROWS):
                if cell_index < len(names):
                    name = names[cell_index]
                else:
                    name = f"{continent}_{cell_index - len(names):03d}"
                cell_index += 1
                bbox = BBox(
                    min_lon=_WORLD.min_lon + col * cell_w,
                    min_lat=_WORLD.min_lat + row * cell_h,
                    max_lon=_WORLD.min_lon + (col + 1) * cell_w,
                    max_lat=_WORLD.min_lat + (row + 1) * cell_h,
                )
                countries.append(
                    Zone(
                        name=name,
                        kind=KIND_COUNTRY,
                        bbox=bbox,
                        parent=continent,
                        activity_weight=_activity_weight(name),
                    )
                )

    states = _build_us_states(countries)
    return ZoneAtlas(countries=countries, continents=continents, states=states)


def _build_us_states(countries: list[Zone]) -> list[Zone]:
    usa = next(c for c in countries if c.name == "united_states")
    cols, rows = 10, 5
    w = usa.bbox.width / cols
    h = usa.bbox.height / rows
    states: list[Zone] = []
    for index, name in enumerate(US_STATES):
        col, row = index % cols, index // cols
        bbox = BBox(
            min_lon=usa.bbox.min_lon + col * w,
            min_lat=usa.bbox.min_lat + row * h,
            max_lon=usa.bbox.min_lon + (col + 1) * w,
            max_lat=usa.bbox.min_lat + (row + 1) * h,
        )
        states.append(
            Zone(name=name, kind=KIND_STATE, bbox=bbox, parent="united_states")
        )
    return states
