"""The edit simulator: drives the world and emits OSM's update files.

One :class:`EditSimulator` owns a :class:`~repro.synth.world.WorldState`
and advances it day by day.  Each simulated day:

1. draws a number of editing sessions (Poisson around a base rate,
   scaled by a weekday factor and year-over-year growth — OSM's
   activity grows steadily);
2. runs each session: a mapper picks a country (home-biased, activity-
   weighted) and performs profile-distributed edit operations, all
   under one changeset with a bounding box spanning the touched
   locations (max session length 24h, per the OSM changeset contract);
3. emits the day's artifacts — an osmChange diff for the replication
   feed, the day's changeset metadata, and *truth* update rows the
   test suite uses to validate the crawlers end to end.

Truth rows follow exactly the paper's geocoding rule (Section V): a
node update is located at the node; a way/relation update is located
at its changeset's bbox center.  The classification is the full 4-way
one, computed from consecutive versions — i.e. the truth matches what
the *monthly* crawler should reconstruct, while the daily crawler's
coarse output should match it after coarsening.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta, timezone
from pathlib import Path

from repro.geo.geometry import BBox, Point
from repro.geo.zones import ZoneAtlas, build_world
from repro.osm.changesets import Changeset
from repro.osm.history import classify_update, element_version, write_history
from repro.osm.model import OSMElement, OSMNode
from repro.osm.xml_io import OsmChange
from repro.collection.records import UpdateList, UpdateRecord
from repro.synth.editors import (
    Mapper,
    PROFILE_POPULATION_WEIGHTS,
    PROFILES,
    run_operation,
)
from repro.synth.world import WorldState, build_initial_world
from repro.types.simulation import SimulationConfig

__all__ = ["SimulationConfig", "DayOutput", "EditSimulator"]

_FIRST_NAMES = (
    "alex", "maria", "chen", "fatima", "joao", "olga", "ravi", "sara",
    "tom", "yuki", "lena", "omar", "ivan", "nina", "kofi", "anna",
)


@dataclass
class DayOutput:
    """Everything the simulator publishes for one day."""

    day: date
    change: OsmChange
    changesets: list[Changeset]
    truth: UpdateList = field(default_factory=UpdateList)


class EditSimulator:
    """Deterministic generator of the OSM update stream."""

    def __init__(
        self,
        atlas: ZoneAtlas | None = None,
        config: SimulationConfig | None = None,
    ) -> None:
        self.config = config or SimulationConfig()
        self.rng = random.Random(self.config.seed)
        self.atlas = atlas or build_world()
        self.world = build_initial_world(
            self.atlas, self.rng, self.config.nodes_per_country
        )
        self.mappers = self._build_mappers()
        self._country_names = [z.name for z in self.atlas.countries]
        self._country_weights = [z.activity_weight for z in self.atlas.countries]
        self._epoch_year: int | None = None

    def _build_mappers(self) -> list[Mapper]:
        """Build the mapper population.

        Home countries are assigned by *deterministic weighted
        quantiles* over the activity weights rather than independent
        random draws: mapper ``i`` homes at the country whose
        cumulative weight bucket contains ``(i + 0.5) / count``.  This
        guarantees the paper's Fig. 3 skew (US > India > Germany > ...)
        holds even for small mapper populations, where independent
        sampling is too noisy.
        """
        mappers: list[Mapper] = []
        countries = self.atlas.countries
        weights = [z.activity_weight for z in countries]
        total_weight = sum(weights)
        cumulative: list[float] = []
        running = 0.0
        for weight in weights:
            running += weight
            cumulative.append(running / total_weight)
        # Profiles cycle through a fixed population pattern (62% casual,
        # 25% surveyor, 8% corporate, 5% importer) so no single country
        # block is dominated by one heavy-editing profile by chance.
        pattern: list[int] = []
        for index, share in enumerate(PROFILE_POPULATION_WEIGHTS):
            pattern.extend([index] * max(1, round(share * 20)))
        for uid in range(1, self.config.mapper_count + 1):
            profile = PROFILES[pattern[(uid * 7) % len(pattern)]]
            quantile = (uid - 0.5) / self.config.mapper_count
            position = 0
            while cumulative[position] < quantile:
                position += 1
            home = countries[position]
            name = (
                f"{self.rng.choice(_FIRST_NAMES)}_"
                f"{profile.name[:4]}{uid:04d}"
            )
            mappers.append(
                Mapper(uid=uid + 1000, user=name, profile=profile, home_country=home.name)
            )
        return mappers

    # -- rates -----------------------------------------------------------

    def _sessions_for(self, day: date) -> int:
        if self._epoch_year is None:
            self._epoch_year = day.year
        years_elapsed = day.year - self._epoch_year + (day.timetuple().tm_yday / 366.0)
        rate = self.config.base_sessions_per_day * (
            self.config.growth_per_year ** max(0.0, years_elapsed)
        )
        if day.weekday() >= 5:
            rate *= self.config.weekend_factor
        return max(1, self._poisson(rate))

    def _poisson(self, lam: float) -> int:
        """Knuth's algorithm for small lambda; normal approx for large."""
        if lam > 60:
            return max(0, int(self.rng.gauss(lam, math.sqrt(lam)) + 0.5))
        threshold = math.exp(-lam)
        k, product = 0, 1.0
        while True:
            product *= self.rng.random()
            if product <= threshold:
                return k
            k += 1

    # -- session ----------------------------------------------------------

    def _pick_country(self, mapper: Mapper) -> str:
        if self.rng.random() < mapper.profile.home_affinity:
            return mapper.home_country
        return self.rng.choices(
            self._country_names, weights=self._country_weights, k=1
        )[0]

    def _run_session(
        self, mapper: Mapper, timestamp: datetime
    ) -> tuple[OsmChange, Changeset, list[tuple[str, OSMElement]]]:
        country = self._pick_country(mapper)
        network = self.world.network(country)
        changeset_id = self.world.allocate_changeset_id()
        op_names = list(mapper.profile.op_weights)
        op_weights = list(mapper.profile.op_weights.values())
        count = self.rng.randint(*mapper.profile.session_ops)
        produced: list[tuple[str, OSMElement]] = []
        for _ in range(count):
            op = self.rng.choices(op_names, weights=op_weights, k=1)[0]
            produced.extend(
                run_operation(
                    op, self.world, network, self.rng, timestamp, changeset_id, mapper
                )
            )
        change = OsmChange()
        for action, element in produced:
            getattr(change, action).append(element)
        bbox = self._session_bbox(produced, country)
        closed = timestamp + timedelta(minutes=self.rng.randint(1, 120))
        changeset = Changeset(
            id=changeset_id,
            created_at=timestamp,
            closed_at=closed,
            uid=mapper.uid,
            user=mapper.user,
            bbox=bbox,
            tags={
                "comment": f"{mapper.profile.name} edits in {country}",
                "created_by": "rased-repro-simulator",
            },
            changes_count=len(produced),
        )
        return change, changeset, produced

    def _session_bbox(
        self, produced: list[tuple[str, OSMElement]], country: str
    ) -> BBox:
        points: list[Point] = []
        for _, element in produced:
            points.extend(self._element_points(element))
        if not points:
            center = self.atlas.zone(country).bbox.center
            points = [center]
        return BBox.of_points(points)

    def _element_points(self, element: OSMElement) -> list[Point]:
        if isinstance(element, OSMNode):
            return [Point(lon=element.lon, lat=element.lat)]
        # Ways/relations: locate via their member nodes' current coords.
        points: list[Point] = []
        refs: list[int] = []
        if hasattr(element, "refs"):
            refs = list(element.refs)  # type: ignore[attr-defined]
        elif hasattr(element, "members"):
            refs = [
                m.ref for m in element.members if m.type == "node"  # type: ignore[attr-defined]
            ]
        for ref in refs[:8]:
            node = self.world.current.get(("node", ref))
            if isinstance(node, OSMNode) and node.visible:
                points.append(Point(lon=node.lon, lat=node.lat))
        return points

    # -- day loop ----------------------------------------------------------

    def simulate_day(self, day: date) -> DayOutput:
        """Advance the world by one day and return its artifacts."""
        sessions = self._sessions_for(day)
        change = OsmChange()
        changesets: list[Changeset] = []
        truth = UpdateList()
        produced_all: list[tuple[str, OSMElement, Changeset]] = []
        for _ in range(sessions):
            mapper = self.rng.choice(self.mappers)
            moment = datetime.combine(
                day,
                time(hour=self.rng.randint(0, 23), minute=self.rng.randint(0, 59)),
                tzinfo=timezone.utc,
            )
            session_change, changeset, produced = self._run_session(mapper, moment)
            change.extend(session_change)
            changesets.append(changeset)
            produced_all.extend(
                (action, element, changeset) for action, element in produced
            )
        for action, element, changeset in produced_all:
            truth.append(self._truth_record(element, changeset))
        return DayOutput(day=day, change=change, changesets=changesets, truth=truth)

    def _truth_record(self, element: OSMElement, changeset: Changeset) -> UpdateRecord:
        previous = self.world.previous_version(element)
        update_type = classify_update(
            None if previous is None else element_version(previous), element_version(element)
        )
        if isinstance(element, OSMNode) and element.visible:
            point = Point(lon=element.lon, lat=element.lat)
        else:
            assert changeset.bbox is not None
            point = changeset.bbox.center
        country = self.atlas.country_at(point)
        road_type = element.tags.get("highway", "residential")
        return UpdateRecord(
            element_type=element.kind,
            date=element.timestamp.date(),
            country=country.name,
            latitude=point.lat,
            longitude=point.lon,
            road_type=road_type,
            update_type=update_type,
            changeset_id=changeset.id,
        )

    # -- dumps --------------------------------------------------------------

    def write_history_dump(self, target: str | Path) -> int:
        """Write the full-history file (all versions so far); returns count."""
        write_history(target, self.world.history)
        return len(self.world.history)

    def road_network_sizes(self) -> dict[str, int]:
        """Live road-segment count per country (Percentage denominators)."""
        return {
            zone.name: self.world.road_network_size(zone.name)
            for zone in self.atlas.countries
        }
