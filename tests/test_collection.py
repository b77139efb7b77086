"""Tests for the Data Collection module: records, geocoding, crawlers.

The key integration checks validate both crawlers against the
simulator's ground truth: the daily crawler must recover every truth
row up to the documented coarsening of UpdateType, and the monthly
crawler must recover the exact 4-way classification.
"""

from __future__ import annotations

import io
import math
import random
import re
from collections import Counter
from dataclasses import dataclass
from datetime import date, datetime, timezone

import numpy as np
import pytest

from repro.types.temporal import month_key
from repro.types.dimensions import default_schema
from repro.errors import ConfigError, GeocodeError, ParseError
from repro.geo.geometry import BBox, Point
from repro.geo.zones import Zone
from repro.collection.daily import DailyCrawler, coarse_update_type
from repro.collection.geocode import Geocoder
from repro.collection.monthly import MonthlyCrawler
from repro.collection.records import UpdateList, UpdateRecord
from repro.obs import Tracer
from repro.osm.changesets import Changeset, ChangesetStore
from repro.osm.model import OSMNode
from repro.osm.replication import ReplicationFeed
from repro.synth.simulator import EditSimulator, SimulationConfig
from tests.support.synth import simulate_range


def small_config(**overrides):
    defaults = dict(
        seed=9, mapper_count=20, base_sessions_per_day=5, nodes_per_country=8
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def make_record(**overrides) -> UpdateRecord:
    defaults = dict(
        element_type="way",
        date=date(2021, 3, 5),
        country="germany",
        latitude=50.0,
        longitude=10.0,
        road_type="residential",
        update_type="create",
        changeset_id=42,
    )
    defaults.update(overrides)
    return UpdateRecord(**defaults)


def record_from_tsv(line: str) -> UpdateRecord:
    """Parse one row as ``UpdateRecord.to_tsv`` writes it: the row
    format ``/samples`` and ``/analysis/samples`` send."""
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 8:
        raise ParseError(f"UpdateList row has {len(parts)} fields, expected 8")
    try:
        return UpdateRecord(
            element_type=parts[0],
            date=date.fromisoformat(parts[1]),
            country=parts[2],
            latitude=float(parts[3]),
            longitude=float(parts[4]),
            road_type=parts[5],
            update_type=parts[6],
            changeset_id=int(parts[7]),
        )
    except ValueError as exc:
        raise ParseError(f"malformed UpdateList row {line!r}: {exc}") from None


class TestUpdateRecord:
    def test_valid_record(self):
        record = make_record()
        assert record.point == Point(lon=10.0, lat=50.0)

    def test_bad_element_type_rejected(self):
        with pytest.raises(ParseError):
            make_record(element_type="building")

    def test_bad_update_type_rejected(self):
        with pytest.raises(ParseError):
            make_record(update_type="vandalism")

    def test_tsv_roundtrip(self):
        record = make_record()
        assert record_from_tsv(record.to_tsv()) == record

    def test_tsv_wrong_arity_rejected(self):
        with pytest.raises(ParseError):
            record_from_tsv("a\tb\tc")

    def test_tsv_bad_number_rejected(self):
        fields = make_record().to_tsv().split("\t")
        fields[3] = "not-a-float"
        with pytest.raises(ParseError):
            record_from_tsv("\t".join(fields))


class TestUpdateList:
    def test_file_roundtrip(self, tmp_path):
        updates = UpdateList([make_record(changeset_id=i) for i in range(5)])
        path = tmp_path / "updates.tsv"
        path.write_text("".join(r.to_tsv() + "\n" for r in updates), encoding="utf-8")
        restored = UpdateList(
            record_from_tsv(line) for line in path.read_text(encoding="utf-8").splitlines()
        )
        assert list(restored) == list(updates)

    def test_stream_roundtrip(self):
        updates = UpdateList([make_record()])
        buffer = io.StringIO("".join(r.to_tsv() + "\n" for r in updates))
        assert [record_from_tsv(line) for line in buffer] == list(updates)

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError):
            record_from_tsv("wrong\theader\n")

    def test_cube_coordinates_without_atlas(self, tiny_schema):
        updates = UpdateList([make_record(), make_record(country="qatar")])
        coords = updates.cube_coordinates(tiny_schema)
        assert coords.shape == (2, 4)

    def test_cube_coordinates_zone_expansion(self, atlas, small_schema):
        germany = atlas.zone("germany").bbox.center
        updates = UpdateList(
            [make_record(latitude=germany.lat, longitude=germany.lon)]
        )
        coords = updates.cube_coordinates(small_schema, atlas)
        zones = {small_schema.country.value(int(c[1])) for c in coords}
        assert zones == {"germany", "europe"}

    def test_cube_coordinates_us_state_expansion(self, atlas, small_schema):
        minnesota = atlas.zone("minnesota").bbox.center
        updates = UpdateList(
            [
                make_record(
                    country="united_states",
                    latitude=minnesota.lat,
                    longitude=minnesota.lon,
                )
            ]
        )
        coords = updates.cube_coordinates(small_schema, atlas)
        zones = {small_schema.country.value(int(c[1])) for c in coords}
        assert zones == {"united_states", "north_america", "minnesota"}

    def test_unknown_road_type_folds_into_last_slot(self, atlas, small_schema):
        germany = atlas.zone("germany").bbox.center
        updates = UpdateList(
            [
                make_record(
                    road_type="bus_guideway",  # outside the 8-type schema
                    latitude=germany.lat,
                    longitude=germany.lon,
                )
            ]
        )
        coords = updates.cube_coordinates(small_schema, atlas)
        assert len(coords) == 2  # still counted (germany + europe)
        assert all(int(c[2]) == len(small_schema.road_type) - 1 for c in coords)

    def test_empty_list_coordinates(self, tiny_schema):
        assert UpdateList().cube_coordinates(tiny_schema).shape == (0, 4)

    def test_by_date_keeps_each_days_rows_in_order_and_their_zones(self, atlas, small_schema):
        days = [date(2021, 3, d) for d in (5, 2, 5, 9, 2, 5)]
        records = [make_record(date=day, changeset_id=i) for i, day in enumerate(days)]
        rows = [("way", r.date, r.changeset_id, True, 0.0, 0.0, "residential", "create") for r in records]
        bbox = atlas.zone("germany").bbox
        store = _Changesets({
            r.changeset_id: Changeset(
                id=r.changeset_id, created_at=datetime(2021, 3, 1, tzinfo=timezone.utc),
                closed_at=datetime(2021, 3, 1, tzinfo=timezone.utc), uid=1, user="x", bbox=bbox,
            )
            for r in records
        })
        located, _ = Geocoder(atlas).locate(rows, store)
        split = located.by_date()
        assert list(split) == [date(2021, 3, 2), date(2021, 3, 5), date(2021, 3, 9)]
        assert {day: part.column("changeset_id") for day, part in split.items()} == {
            date(2021, 3, 2): [1, 4], date(2021, 3, 5): [0, 2, 5], date(2021, 3, 9): [3],
        }
        for part in split.values():
            assert part.zones is not None and part.zones[0] is atlas and len(part.zones[1]) == len(part)
            stripped = UpdateList(part)
            stripped.zones = None
            assert (part.cube_coordinates(small_schema, atlas) == stripped.cube_coordinates(small_schema, atlas)).all()
        assert UpdateList().by_date() == {}


def _scan_state(atlas, p: Point):
    """The linear state scan: the first state, in atlas order, holding p."""
    for state in atlas.states:
        if state.contains_point(p):
            return state
    return None


def _brute_force_coordinates(records, schema, atlas) -> np.ndarray:
    """Per record, per zone: what ``cube_coordinates`` must return."""
    fallback_road = len(schema.road_type) - 1
    coords = []
    for record in records:
        element = schema.element_type.code(record.element_type)
        update = schema.update_type.code(record.update_type)
        road = schema.road_type.code_or_none(record.road_type)
        road = fallback_road if road is None else road
        if atlas is None:
            names = [record.country]
        else:
            country = atlas.country_at(record.point)
            zones = [country, atlas.zone(country.parent)]
            if country.name == "united_states":
                state = _scan_state(atlas, record.point)
                zones += [state] if state is not None else []
            names = [zone.name for zone in zones]
        for name in names:
            code = schema.country.code_or_none(name)
            if code is not None:
                coords.append((element, code, road, update))
    return np.asarray(coords, dtype=np.int64).reshape(-1, 4)


def _probe_points(atlas) -> list[tuple[float, float]]:
    """A seeded sample plus every border the lookups could disagree on."""
    rng = random.Random(25)
    usa = atlas.zone("united_states").bbox
    points = [(rng.uniform(-180, 180), rng.uniform(-60, 75)) for _ in range(1500)]
    points += [
        (rng.uniform(usa.min_lon, usa.max_lon), rng.uniform(usa.min_lat, usa.max_lat))
        for _ in range(1500)
    ]
    for box in [state.bbox for state in atlas.states] + [usa]:
        xs = (box.min_lon, (box.min_lon + box.max_lon) / 2, box.max_lon)
        ys = (box.min_lat, (box.min_lat + box.max_lat) / 2, box.max_lat)
        for x in xs:  # corners and edge midpoints, and one ulp either side
            for y in ys:
                for dx in (-math.inf, 0, math.inf):
                    for dy in (-math.inf, 0, math.inf):
                        px = x if dx == 0 else math.nextafter(x, dx)
                        py = y if dy == 0 else math.nextafter(y, dy)
                        points.append((px, py))
    points += [(180.0, 75.0), (180.0, -60.0), (-180.0, 75.0), (-180.0, -60.0)]
    points += [(180.0, 0.0), (0.0, 75.0)]
    return [(x, y) for x, y in points if -180 <= x <= 180]


class TestZoneLookupAgreesWithBruteForce:
    """The vectorized ``cube_coordinates`` and the O(1) ``state_at``
    against the per-record loop with the linear state scan."""

    def test_state_at_matches_the_linear_scan(self, atlas):
        points = _probe_points(atlas)
        in_a_state = 0
        for lon, lat in points:
            p = Point(lon=lon, lat=lat)
            expected = _scan_state(atlas, p)
            assert atlas.state_at(p) is expected, (lon, lat)
            in_a_state += expected is not None
        assert in_a_state > 1500

    @pytest.mark.parametrize("schema_name", ["small_schema", "tiny_schema"])
    def test_cube_coordinates_match_the_per_record_loop(self, atlas, schema_name, request):
        schema = request.getfixturevalue(schema_name)
        rng = random.Random(26)
        # The schema has 8 road types; the last two are ones it lacks.
        road_types = list(schema.road_type.values) + ["bus_guideway", "raceway"]
        records = [
            make_record(
                element_type=rng.choice(("node", "way", "relation")),
                update_type=rng.choice(("create", "delete", "geometry", "metadata")),
                road_type=rng.choice(road_types),
                country=rng.choice(("united_states", "germany", "qatar", "atlantis")),
                latitude=lat,
                longitude=lon,
            )
            for lon, lat in _probe_points(atlas)
            if -60 <= lat <= 75 and -180 <= lon <= 180
        ]
        rng.shuffle(records)
        updates = UpdateList(records)
        for with_atlas in (atlas, None):
            got = updates.cube_coordinates(schema, with_atlas)
            expected = _brute_force_coordinates(records, schema, with_atlas)
            assert got.dtype == np.int64 and np.array_equal(got, expected)

    @pytest.mark.parametrize("lat, lon", [(80.0, 10.0), (-61.0, 10.0), (95.0, 10.0)])
    def test_a_point_outside_the_world_raises_as_before(self, atlas, small_schema, lat, lon):
        inside = make_record()
        outside = make_record(latitude=lat, longitude=lon)
        with pytest.raises((GeocodeError, ConfigError)) as expected:
            atlas.zones_for_point(outside.point)
        with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
            UpdateList([inside, outside, inside]).cube_coordinates(small_schema, atlas)


@dataclass(frozen=True)
class Location:
    """A resolved update location: representative point plus country."""

    point: Point
    country: Zone


def locate_node(atlas, node):
    """The node rule, one update at a time: the node's own coordinates."""
    point = Point(lon=node.lon, lat=node.lat)
    return Location(point=point, country=atlas.country_at(point))


def locate_changeset(atlas, changeset):
    """The way/relation rule, one update at a time: the changeset's bbox
    centre (paper, Section V)."""
    if changeset.bbox is None:
        raise GeocodeError(f"changeset {changeset.id} has no bounding box")
    center = changeset.bbox.center
    return Location(point=center, country=atlas.zones_for_point(center)[0])


def _locate(atlas, element, changesets):
    """The crawlers' location rule, one element at a time: a visible node
    at its own coordinates, anything else at its changeset's bbox centre;
    ``None`` when neither resolves."""
    try:
        if element.kind == "node" and element.visible:
            return locate_node(atlas, element)
        changeset = changesets.lookup(element.changeset)
        return None if changeset is None else locate_changeset(atlas, changeset)
    except GeocodeError:
        return None


class _Changesets(dict):
    """A changeset store over a dict: ``lookup`` by id."""

    lookup = dict.get


def _geocoded(atlas, kind, lat, lon, changeset):
    """``Geocoder.locate`` of one visible update: (country, lat, lon), or
    ``None`` when it was skipped."""
    row = (kind, date(2021, 1, 1), changeset.id if changeset else 1, True, lat, lon, "residential", "create")
    store = _Changesets({changeset.id: changeset} if changeset else {})
    updates, skipped = Geocoder(atlas).locate([row], store)
    if skipped:
        return None
    return updates.column("country")[0], updates.column("latitude")[0], updates.column("longitude")[0]


class TestGeocoder:
    def test_locate_node(self, atlas):
        center = atlas.zone("qatar").bbox.center
        node = OSMNode(
            id=1,
            version=1,
            timestamp=datetime(2021, 1, 1, tzinfo=timezone.utc),
            changeset=1,
            lat=center.lat,
            lon=center.lon,
        )
        location = locate_node(atlas, node)
        assert location.country.name == "qatar"
        assert _geocoded(atlas, "node", node.lat, node.lon, None) == ("qatar", node.lat, node.lon)

    def test_locate_changeset_uses_bbox_center(self, atlas):
        bbox = atlas.zone("brazil").bbox
        changeset = Changeset(
            id=1,
            created_at=datetime(2021, 1, 1, tzinfo=timezone.utc),
            closed_at=datetime(2021, 1, 1, tzinfo=timezone.utc),
            uid=1,
            user="x",
            bbox=bbox,
        )
        location = locate_changeset(atlas, changeset)
        assert location.country.name == "brazil"
        assert location.point == bbox.center
        center = bbox.center
        assert _geocoded(atlas, "way", 0.0, 0.0, changeset) == ("brazil", center.lat, center.lon)

    def test_changeset_without_bbox_raises(self, atlas):
        changeset = Changeset(
            id=1,
            created_at=datetime(2021, 1, 1, tzinfo=timezone.utc),
            closed_at=datetime(2021, 1, 1, tzinfo=timezone.utc),
            uid=1,
            user="x",
            bbox=None,
        )
        with pytest.raises(GeocodeError):
            locate_changeset(atlas, changeset)
        assert _geocoded(atlas, "way", 0.0, 0.0, changeset) is None  # skipped, not raised


class TestCoarseUpdateType:
    def test_mapping(self):
        assert coarse_update_type("create") == "create"
        assert coarse_update_type("delete") == "delete"
        assert coarse_update_type("modify") == "geometry"


@pytest.fixture(scope="module")
def crawl_setup(atlas, tmp_path_factory):
    """Five simulated days published to real feed files, then crawled."""
    root = tmp_path_factory.mktemp("feeds")
    sim = EditSimulator(atlas=atlas, config=small_config())
    feed = ReplicationFeed(root / "replication", "day")
    changesets = ChangesetStore(root / "changesets")
    truth_by_day = {}
    for output in simulate_range(sim, date(2021, 3, 1), date(2021, 3, 5)):
        for changeset in output.changesets:
            changesets.add(changeset)
        changesets.flush()
        stamp = datetime.combine(
            output.day, datetime.min.time(), tzinfo=timezone.utc
        )
        feed.publish(output.change, stamp)
        truth_by_day[output.day] = output.truth
    history_path = root / "history.osm"
    sim.write_history_dump(history_path)
    return sim, feed, changesets, truth_by_day, history_path


class TestDailyCrawler:
    def test_crawl_recovers_every_update(self, atlas, crawl_setup):
        _, feed, changesets, truth_by_day, _ = crawl_setup
        crawler = DailyCrawler(feed, changesets, Geocoder(atlas))
        results = list(crawler.crawl_new())
        assert len(results) == 5
        for result in results:
            truth = truth_by_day[result.day]
            assert len(result.updates) == len(truth)
            assert result.skipped == 0

    def test_crawled_attributes_match_truth_exactly_except_update_type(
        self, atlas, crawl_setup
    ):
        _, feed, changesets, truth_by_day, _ = crawl_setup
        crawler = DailyCrawler(feed, changesets, Geocoder(atlas))
        result = next(iter(crawler.crawl_new()))
        truth = truth_by_day[result.day]

        def strip(record):
            # Coordinates pass through 7-decimal XML formatting; compare
            # at 5 decimals (~1 m) to stay clear of the rounding edge.
            return (
                record.element_type,
                record.date,
                record.country,
                round(record.latitude, 5),
                round(record.longitude, 5),
                record.road_type,
                record.changeset_id,
            )

        assert Counter(map(strip, result.updates)) == Counter(map(strip, truth))

    def test_update_types_are_coarse(self, atlas, crawl_setup):
        _, feed, changesets, truth_by_day, _ = crawl_setup
        crawler = DailyCrawler(feed, changesets, Geocoder(atlas))
        result = next(iter(crawler.crawl_new()))
        types = {r.update_type for r in result.updates}
        assert types <= {"create", "delete", "geometry"}
        assert "metadata" not in types

    def test_coarse_counts_match_coarsened_truth(self, atlas, crawl_setup):
        _, feed, changesets, truth_by_day, _ = crawl_setup
        crawler = DailyCrawler(feed, changesets, Geocoder(atlas))
        for result in crawler.crawl_new():
            truth = truth_by_day[result.day]
            coarsened = Counter(
                "geometry" if r.update_type == "metadata" else r.update_type
                for r in truth
            )
            crawled = Counter(r.update_type for r in result.updates)
            assert crawled == coarsened

    def test_crawl_new_is_incremental(self, atlas, crawl_setup):
        _, feed, changesets, _, _ = crawl_setup
        crawler = DailyCrawler(feed, changesets, Geocoder(atlas))
        first = list(crawler.crawl_new())
        assert len(first) == 5
        assert list(crawler.crawl_new()) == []

    def test_each_changeset_is_geocoded_once_per_diff(self, atlas, crawl_setup):
        _, feed, changesets, _, _ = crawl_setup

        class CountingStore:
            calls = 0

            def lookup(self, changeset_id):
                CountingStore.calls += 1
                return changesets.lookup(changeset_id)

        crawler = DailyCrawler(feed, CountingStore(), Geocoder(atlas))
        result = next(crawler.crawl_new())
        change = feed.fetch(result.sequence)
        by_changeset = {
            e.changeset for _, e in change.actions() if not (e.kind == "node" and e.visible)
        }
        assert CountingStore.calls == len(by_changeset) < len(change)
        # ... and the rows are where an element-by-element lookup puts them.
        locations = [_locate(atlas, e, changesets) for _, e in change.actions()]
        assert [(r.country, r.latitude, r.longitude) for r in result.updates] == [
            (loc.country.name, loc.point.lat, loc.point.lon)
            for loc in locations
            if loc is not None
        ]

    def test_each_day_has_a_fetch_span_and_a_crawl_span(self, atlas, crawl_setup):
        _, feed, changesets, truth_by_day, _ = crawl_setup

        class Sink:
            def __init__(self):
                self.traces = []

            def record(self, trace):
                self.traces.append(trace)

        sink = Sink()
        crawler = DailyCrawler(feed, changesets, Geocoder(atlas))
        with Tracer(recorder=sink).trace("ingest"):
            results = list(crawler.crawl_new())
        [trace] = sink.traces
        fetches = [s for s in trace.spans if s.name == "feed.fetch"]
        crawls = [s for s in trace.spans if s.name == "feed.crawl"]
        assert len(fetches) == len(crawls) == len(results) == 5
        for fetch, crawl, result in zip(fetches, crawls, results):
            assert fetch.attributes == {
                "sequence": result.sequence,
                "elements": len(feed.fetch(result.sequence)),
            }
            assert crawl.attributes["rows"] == len(result.updates)
            assert fetch.offset_seconds + fetch.duration_seconds <= crawl.offset_seconds

    def test_crawl_specific_sequence(self, atlas, crawl_setup):
        _, feed, changesets, truth_by_day, _ = crawl_setup
        crawler = DailyCrawler(feed, changesets, Geocoder(atlas))
        crawler.last_sequence = 1  # resume after it: the next diff is #2
        result = next(crawler.crawl_new())
        assert result.sequence == 2
        assert result.day == date(2021, 3, 3)

    def test_missing_changeset_counts_skipped(self, atlas, tmp_path):
        """A way whose changeset is unknown is skipped, not mislocated."""
        from repro.osm.model import OSMWay
        from repro.osm.xml_io import OsmChange

        feed = ReplicationFeed(tmp_path / "repl", "day")
        way = OSMWay(
            id=1,
            version=1,
            timestamp=datetime(2021, 1, 1, tzinfo=timezone.utc),
            changeset=777,  # never registered
            refs=(1, 2),
            tags={"highway": "residential"},
        )
        feed.publish(
            OsmChange(create=[way]),
            datetime(2021, 1, 1, tzinfo=timezone.utc),
        )
        crawler = DailyCrawler(
            feed, ChangesetStore(tmp_path / "cs"), Geocoder(__import__("repro.geo.zones", fromlist=["build_world"]).build_world())
        )
        result = next(iter(crawler.crawl_new()))
        assert result.skipped == 1
        assert len(result.updates) == 0


class TestMonthlyCrawler:
    def test_monthly_matches_truth_exactly(self, atlas, crawl_setup):
        _, _, changesets, truth_by_day, history_path = crawl_setup
        crawler = MonthlyCrawler(changesets, Geocoder(atlas))
        result = crawler.crawl(history_path, [month_key(2021, 3)])
        truth_all = [r for rows in truth_by_day.values() for r in rows]

        def strip(record):
            return (
                record.element_type,
                record.date,
                record.country,
                record.road_type,
                record.update_type,
                record.changeset_id,
            )

        assert Counter(map(strip, result.updates)) == Counter(map(strip, truth_all))
        assert result.skipped == 0

    def test_monthly_filters_to_target_month(self, atlas, crawl_setup):
        _, _, changesets, _, history_path = crawl_setup
        crawler = MonthlyCrawler(changesets, Geocoder(atlas))
        result = crawler.crawl(history_path, [month_key(2021, 2)])
        assert len(result.updates) == 0
        assert result.scanned_versions > 0

    def test_monthly_has_all_four_update_types(self, atlas, crawl_setup):
        _, _, changesets, truth_by_day, history_path = crawl_setup
        crawler = MonthlyCrawler(changesets, Geocoder(atlas))
        result = crawler.crawl(history_path, [month_key(2021, 3)])
        types = {r.update_type for r in result.updates}
        assert "metadata" in types
        assert "create" in types
