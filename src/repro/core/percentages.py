"""Road-network sizes: the ``Percentage(*)`` denominators.

RASED can present analysis results "as either absolute numbers or
percentages of the country's road network size" (paper, Section IV-A).
A root keeps those sizes as dated records (pages
``meta/network_sizes/YYYY-MM-DD``, :mod:`repro.osm.snapshot`), and one
read rule applies: a percentage divides by the newest record dated at
or before the window's end; no such record is an error, never a number.
A record's countries derive every zone of interest: a continent sums
its countries; a US state gets an even share of the US network (the
synthetic states partition the US cell uniformly).
"""

from __future__ import annotations

import bisect
from datetime import date
from typing import TYPE_CHECKING, Mapping

from repro.core.query import AnalysisQuery
from repro.errors import QueryError
from repro.geo.zones import US_STATES, ZoneAtlas
from repro.osm.snapshot import SIZES_PREFIX, decode_sizes

if TYPE_CHECKING:
    from repro.core.resultcache import EpochCounter
    from repro.storage.pages import PageStore

__all__ = ["NetworkSizeRegistry", "SizeRecord", "to_percentages"]


class SizeRecord:
    """Every zone's road-network size as of one day."""

    def __init__(self, atlas: ZoneAtlas, as_of: date, countries: Mapping[str, int]) -> None:
        self.as_of = as_of
        sizes = {z.name: int(countries.get(z.name, 0)) for z in atlas.countries}
        #: The world: countries only (continents and states would double count).
        self.world = max(1, sum(sizes.values()))
        for zone in atlas.continents:
            sizes[zone.name] = sum(sizes[c.name] for c in atlas.countries_of(zone.name))
        for state in US_STATES:
            sizes[state] = max(1, sizes["united_states"] // len(US_STATES))
        self._by_zone = sizes

    def size(self, zone_name: str) -> int:
        try:
            return self._by_zone[zone_name]
        except KeyError:
            raise QueryError(f"no network size recorded for {zone_name!r}") from None

    def denominator(self, zone_names: tuple[str, ...] | None) -> int:
        """The denominator for a zone filter; ``None`` is the world."""
        if zone_names is None:
            return self.world
        return max(1, sum(self.size(name) for name in zone_names))


class NetworkSizeRegistry:
    """A root's dated size records (``records``: day -> country sizes).

    The record tuple is replaced whole, so a reader sees the old set or
    the new one.  :meth:`add` bumps ``epoch`` over ``[as_of, date.max]``
    for percentage answers only: counts and answers ending before the
    record keep their memo.
    """

    def __init__(
        self,
        atlas: ZoneAtlas,
        records: Mapping[date, Mapping[str, int]] | None = None,
        epoch: "EpochCounter | None" = None,
    ) -> None:
        self.atlas = atlas
        self.epoch = epoch
        self._records = tuple(
            SizeRecord(atlas, as_of, countries) for as_of, countries in sorted((records or {}).items())
        )

    def load(self, store: "PageStore") -> None:
        """(Re)read every record the store holds."""
        self._records = tuple(
            SizeRecord(
                self.atlas, date.fromisoformat(page.rpartition("/")[2]), decode_sizes(store.read(page))
            )
            for page in sorted(store.list_pages(SIZES_PREFIX))
        )

    def add(self, as_of: date, countries: Mapping[str, int]) -> None:
        """Take a record a committed batch wrote."""
        kept = [record for record in self._records if record.as_of != as_of]
        kept.append(SizeRecord(self.atlas, as_of, countries))
        self._records = tuple(sorted(kept, key=lambda record: record.as_of))
        if self.epoch is not None:
            self.epoch.bump(as_of, date.max, percentages_only=True)

    @property
    def dates(self) -> list[date]:
        return [record.as_of for record in self._records]

    def as_of(self, end: date) -> SizeRecord:
        """The newest record dated at or before ``end``."""
        records = self._records
        at = bisect.bisect_right([record.as_of for record in records], end)
        if at == 0:
            raise QueryError(
                f"no road-network sizes recorded on or before {end.isoformat()}: a "
                "percentage needs a size record (ingest writes one at each month end)"
            )
        return records[at - 1]


def to_percentages(
    registry: NetworkSizeRegistry | None, query: AnalysisQuery, rows: Mapping[tuple, float]
) -> tuple[dict[tuple, float], date]:
    """Counts as percentages of the network as of ``query.end``, and the
    date of the size record they divide by."""
    if registry is None:
        raise QueryError("percentage queries need a NetworkSizeRegistry (network_sizes=...)")
    record = registry.as_of(query.end)
    at = query.group_by.index("country") if "country" in query.group_by else None
    default = record.denominator(query.countries)
    return {
        key: 100.0 * value / (default if at is None else max(1, record.size(str(key[at]))))
        for key, value in rows.items()
    }, record.as_of
