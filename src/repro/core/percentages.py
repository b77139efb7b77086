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

import threading
from typing import Callable, Mapping

from repro.errors import QueryError
from repro.geo.zones import US_STATES, ZoneAtlas

__all__ = ["NetworkSizeRegistry"]


class NetworkSizeRegistry:
    """Per-zone road-network sizes for percentage metrics.

    ``country_sizes`` returns the road segments per country; it is
    called on first use, so a process that answers no percentage
    computes no size.
    """

    def __init__(
        self, atlas: ZoneAtlas, country_sizes: Callable[[], Mapping[str, int]]
    ) -> None:
        self.atlas = atlas
        self._country_sizes = country_sizes
        self._lock = threading.Lock()
        self._by_zone: dict[str, int] = {}  # guarded-by: _lock

    def _sizes(self) -> dict[str, int]:
        """Every zone's size, derived from the country sizes on first use.
        ``country_sizes`` runs outside the lock: it may build a simulator."""
        if not self._by_zone:
            given = self._country_sizes()
            sizes = {z.name: int(given.get(z.name, 0)) for z in self.atlas.countries}
            for zone in self.atlas.continents:
                members = self.atlas.countries_of(zone.name)
                sizes[zone.name] = sum(sizes[c.name] for c in members)
            for state in US_STATES:
                sizes[state] = max(1, sizes.get("united_states", 0) // len(US_STATES))
            with self._lock:
                if not self._by_zone:
                    self._by_zone = sizes
        return self._by_zone

    def size(self, zone_name: str) -> int:
        """Road segments in one zone's network."""
        try:
            return self._sizes()[zone_name]
        except KeyError:
            raise QueryError(f"no network size recorded for {zone_name!r}") from None

    def denominator(self, zone_names: tuple[str, ...] | None) -> int:
        """The Percentage(*) denominator for a zone filter.

        ``None`` (no country filter) sums the whole world — continents
        and states are skipped to avoid double counting.
        """
        if zone_names is None:
            sizes = self._sizes()
            return max(1, sum(sizes[z.name] for z in self.atlas.countries))
        return max(1, sum(self.size(name) for name in zone_names))

    def update_country(self, country: str, size: int) -> None:
        """Refresh one country after maintenance (re-derives rollups)."""
        sizes = self._sizes()
        if country not in sizes:
            raise QueryError(f"unknown country {country!r}")
        sizes[country] = int(size)
        zone = self.atlas.zone(country)
        if zone.parent is not None:
            members = self.atlas.countries_of(zone.parent)
            sizes[zone.parent] = sum(sizes[c.name] for c in members)
        if country == "united_states":
            for state in US_STATES:
                sizes[state] = max(1, size // len(US_STATES))
