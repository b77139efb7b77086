"""Ground truth: a brute-force GROUP BY over the generated UpdateLists.

The benchmark does not trust the cube index to check itself.  Expected
``rows`` of a request are computed here by scanning the generated
rows directly — no cube, no rollup, no page — with the counting rule
the paper states for zones of interest: a row counts once toward every
zone that contains its point (its country, that country's continent
and, inside the United States, its state), and a query that neither
filters nor groups by country counts each row once, through its
country.
"""

from __future__ import annotations

from datetime import date
from typing import Iterable, Mapping

import numpy as np

from repro.collection.records import UpdateList
from repro.core.calendar import series_periods
from repro.core.query import AnalysisQuery
from repro.geo.zones import ZoneAtlas

__all__ = ["GroundTruth", "rows_of_response"]

_ATTRIBUTES = ("element_type", "country", "road_type", "update_type")


class _Vocabulary:
    """Stable string <-> small-int codes for one attribute."""

    def __init__(self) -> None:
        self.codes: dict[str, int] = {}
        self.names: list[str] = []

    def code(self, name: str) -> int:
        code = self.codes.get(name)
        if code is None:
            code = self.codes[name] = len(self.names)
            self.names.append(name)
        return code


class GroundTruth:
    """The generated rows as integer columns, one row per (update, zone)."""

    def __init__(
        self,
        updates_by_day: Mapping[date, UpdateList],
        atlas: ZoneAtlas,
        days: Iterable[date] | None = None,
    ) -> None:
        self.vocab = {name: _Vocabulary() for name in _ATTRIBUTES}
        country_kind = {zone.name for zone in atlas.countries}
        wanted = sorted(updates_by_day) if days is None else sorted(set(days))
        ordinals: list[int] = []
        columns: dict[str, list[int]] = {name: [] for name in _ATTRIBUTES}
        is_country: list[bool] = []
        element, country, road, update = (self.vocab[name] for name in _ATTRIBUTES)
        for day in wanted:
            ordinal = day.toordinal()
            for record in updates_by_day.get(day, ()):
                e = element.code(record.element_type)
                r = road.code(record.road_type)
                u = update.code(record.update_type)
                for zone in atlas.zones_for_point(record.point):
                    ordinals.append(ordinal)
                    columns["element_type"].append(e)
                    columns["country"].append(country.code(zone.name))
                    columns["road_type"].append(r)
                    columns["update_type"].append(u)
                    is_country.append(zone.name in country_kind)
        self.ordinal = np.asarray(ordinals, dtype=np.int64)
        self.columns = {
            name: np.asarray(values, dtype=np.int64) for name, values in columns.items()
        }
        self.is_country = np.asarray(is_country, dtype=bool)

    def rows(self, query: AnalysisQuery) -> dict[tuple[str, ...], int]:
        """Expected non-zero ``{group cells: count}`` of one count query."""
        mask = (self.ordinal >= query.start.toordinal()) & (
            self.ordinal <= query.end.toordinal()
        )
        filters = {
            "element_type": query.element_types,
            "country": query.countries,
            "road_type": query.road_types,
            "update_type": query.update_types,
        }
        for name, allowed in filters.items():
            if allowed is None:
                continue
            vocab = self.vocab[name]
            codes = [vocab.codes[v] for v in allowed if v in vocab.codes]
            mask &= np.isin(self.columns[name], codes)
        if query.countries is None and "country" not in query.group_by:
            mask &= self.is_country
        # One integer key per row: mixed-radix over the group-by columns.
        key = np.zeros(int(mask.sum()), dtype=np.int64)
        decoders: list[tuple[int, list[str]]] = []
        for attribute in query.group_by:
            if attribute == "date":
                periods = series_periods(query.start, query.end, query.date_granularity)
                starts = np.asarray([p[0].toordinal() for p in periods], dtype=np.int64)
                codes = np.searchsorted(starts, self.ordinal[mask], side="right") - 1
                names = [p[0].isoformat() for p in periods]
            else:
                codes = self.columns[attribute][mask]
                names = self.vocab[attribute].names
            radix = max(1, len(names))
            key = key * radix + codes
            decoders.append((radix, names))
        values, counts = np.unique(key, return_counts=True)
        rows: dict[tuple[str, ...], int] = {}
        for value, count in zip(values.tolist(), counts.tolist()):
            cells: list[str] = []
            for radix, names in reversed(decoders):
                value, code = divmod(value, radix)
                cells.append(names[code])
            rows[tuple(reversed(cells))] = count
        return rows


def rows_of_response(document: dict) -> dict[tuple[str, ...], int] | None:
    """The ``rows`` of an ``/analysis`` response in ``GroundTruth`` form.

    ``None`` when a group repeats (a dict would silently hide it).
    """
    rows: dict[tuple[str, ...], int] = {}
    for row in document["rows"]:
        group = tuple(str(cell) for cell in row["group"])
        if group in rows:
            return None
        rows[group] = row["value"]
    return rows
