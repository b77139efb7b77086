"""Road-network sizes: the ``Percentage(*)`` denominators.

RASED can present analysis results "as either absolute numbers or
percentages of the country's road network size" (paper, Section IV-A).
The percentage view needs one denominator per zone: the number of road
segments in that zone's network.

:class:`NetworkSizeRegistry` holds per-country sizes (road-segment
counts, from the simulator or from a snapshot scan) and derives zone-
of-interest denominators: a continent is the sum of its countries; a
US state is apportioned an even share of the US network (the synthetic
states partition the US cell uniformly).
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import QueryError
from repro.geo.zones import US_STATES, ZoneAtlas

__all__ = ["NetworkSizeRegistry"]


class NetworkSizeRegistry:
    """Per-zone road-network sizes for percentage metrics."""

    def __init__(self, atlas: ZoneAtlas, country_sizes: Mapping[str, int]) -> None:
        self.atlas = atlas
        self._sizes: dict[str, int] = {}
        for zone in atlas.countries:
            self._sizes[zone.name] = int(country_sizes.get(zone.name, 0))
        for zone in atlas.continents:
            members = atlas.countries_of(zone.name)
            self._sizes[zone.name] = sum(self._sizes[c.name] for c in members)
        usa_size = self._sizes.get("united_states", 0)
        for state in US_STATES:
            self._sizes[state] = max(1, usa_size // len(US_STATES))

    def size(self, zone_name: str) -> int:
        """Road segments in one zone's network."""
        try:
            return self._sizes[zone_name]
        except KeyError:
            raise QueryError(f"no network size recorded for {zone_name!r}") from None

    def denominator(self, zone_names: tuple[str, ...] | None) -> int:
        """The Percentage(*) denominator for a zone filter.

        ``None`` (no country filter) sums the whole world — continents
        and states are skipped to avoid double counting.
        """
        if zone_names is None:
            return max(1, sum(self._sizes[z.name] for z in self.atlas.countries))
        return max(1, sum(self.size(name) for name in zone_names))

    def update_country(self, country: str, size: int) -> None:
        """Refresh one country after maintenance (re-derives rollups)."""
        if country not in self._sizes:
            raise QueryError(f"unknown country {country!r}")
        self._sizes[country] = int(size)
        zone = self.atlas.zone(country)
        if zone.parent is not None:
            members = self.atlas.countries_of(zone.parent)
            self._sizes[zone.parent] = sum(self._sizes[c.name] for c in members)
        if country == "united_states":
            for state in US_STATES:
                self._sizes[state] = max(1, size // len(US_STATES))
