"""Tests for geometry primitives and the synthetic zone atlas."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, GeocodeError
from repro.geo.geometry import BBox, Point, Polygon, haversine_km
from repro.geo.zones import CONTINENTS, US_STATES, build_world

LONS = st.floats(min_value=-179.0, max_value=179.0)
LATS = st.floats(min_value=-59.0, max_value=74.0)


def box_around(p: Point, half_size_deg: float) -> BBox:
    """A box centred on ``p``, clamped to the world."""
    return BBox(
        min_lon=max(-180.0, p.lon - half_size_deg),
        min_lat=max(-90.0, p.lat - half_size_deg),
        max_lon=min(180.0, p.lon + half_size_deg),
        max_lat=min(90.0, p.lat + half_size_deg),
    )


def polygon_of(box: BBox) -> Polygon:
    """The box as a four-vertex polygon."""
    return Polygon(
        [
            Point(box.min_lon, box.min_lat),
            Point(box.max_lon, box.min_lat),
            Point(box.max_lon, box.max_lat),
            Point(box.min_lon, box.max_lat),
        ]
    )


class TestPoint:
    def test_valid_point(self):
        p = Point(lon=10.0, lat=20.0)
        assert (p.lon, p.lat) == (10.0, 20.0)

    @pytest.mark.parametrize("lon,lat", [(181, 0), (-181, 0), (0, 91), (0, -91)])
    def test_out_of_range_rejected(self, lon, lat):
        with pytest.raises(ConfigError):
            Point(lon=lon, lat=lat)


class TestBBox:
    def test_degenerate_rejected(self):
        with pytest.raises(ConfigError):
            BBox(min_lon=1, min_lat=0, max_lon=0, max_lat=1)

    def test_center(self):
        box = BBox(min_lon=0, min_lat=0, max_lon=10, max_lat=20)
        assert box.center == Point(lon=5.0, lat=10.0)

    def test_contains_point_inclusive_edges(self):
        box = BBox(min_lon=0, min_lat=0, max_lon=1, max_lat=1)
        assert box.contains_point(Point(0, 0))
        assert box.contains_point(Point(1, 1))
        assert not box.contains_point(Point(1.01, 1))

    def test_intersects_and_intersection(self):
        a = BBox(0, 0, 10, 10)
        b = BBox(5, 5, 15, 15)
        c = BBox(11, 11, 12, 12)
        assert a.intersects(b) and b.intersects(a)
        assert not a.intersects(c) and not c.intersects(a)
        # Touching edges intersect: the box is closed.
        assert a.intersects(BBox(10, 10, 12, 12))

    def test_union(self):
        corners = [Point(0, 0), Point(1, 1), Point(5, 5), Point(6, 6)]
        assert BBox.of_points(corners) == BBox(0, 0, 6, 6)

    def test_contains_bbox(self):
        outer = BBox(0, 0, 10, 10)
        for inner, inside in ((BBox(1, 1, 2, 2), True), (BBox(1, 1, 12, 2), False)):
            corners = (Point(inner.min_lon, inner.min_lat), Point(inner.max_lon, inner.max_lat))
            assert all(outer.contains_point(p) for p in corners) is inside

    def test_of_points(self):
        box = BBox.of_points([Point(1, 2), Point(-1, 5), Point(0, 0)])
        assert box == BBox(min_lon=-1, min_lat=0, max_lon=1, max_lat=5)

    def test_of_points_empty_rejected(self):
        with pytest.raises(ConfigError):
            BBox.of_points([])

    def test_around_clamps_to_world(self):
        box = box_around(Point(lon=179.5, lat=89.5), half_size_deg=2.0)
        assert box.max_lon == 180.0
        assert box.max_lat == 90.0

    @given(LONS, LATS)
    def test_center_is_inside(self, lon, lat):
        box = box_around(Point(lon, lat), half_size_deg=1.0)
        assert box.contains_point(box.center)


class TestPolygon:
    def test_needs_three_vertices(self):
        with pytest.raises(ConfigError):
            Polygon([Point(0, 0), Point(1, 1)])

    def test_from_bbox_matches_bbox_membership(self):
        box = BBox(0, 0, 10, 5)
        poly = polygon_of(box)
        for p in (Point(5, 2), Point(0, 0), Point(10, 5)):
            assert poly.contains_point(p)
        assert not poly.contains_point(Point(11, 2))

    def test_triangle_containment(self):
        triangle = Polygon([Point(0, 0), Point(10, 0), Point(5, 10)])
        assert triangle.contains_point(Point(5, 3))
        assert not triangle.contains_point(Point(0.5, 8))

    def test_point_on_edge_is_inside(self):
        triangle = Polygon([Point(0, 0), Point(10, 0), Point(5, 10)])
        assert triangle.contains_point(Point(5, 0))

    def test_area(self):
        poly = polygon_of(BBox(0, 0, 4, 3))
        assert poly.bbox == BBox(0, 0, 4, 3)
        assert poly.bbox.width * poly.bbox.height == pytest.approx(12.0)

    @given(LONS, LATS, st.floats(min_value=0.5, max_value=5.0))
    @settings(max_examples=40)
    def test_bbox_polygon_equivalence(self, lon, lat, half):
        box = box_around(Point(lon, lat), half_size_deg=half)
        poly = polygon_of(box)
        probe = box.center
        assert poly.contains_point(probe) == box.contains_point(probe)


class TestHaversine:
    def test_zero_distance(self):
        p = Point(10, 20)
        assert haversine_km(p, p) == 0.0

    def test_equator_degree(self):
        d = haversine_km(Point(0, 0), Point(1, 0))
        assert d == pytest.approx(111.19, rel=0.01)

    def test_symmetry(self):
        a, b = Point(10, 20), Point(30, -40)
        assert haversine_km(a, b) == pytest.approx(haversine_km(b, a))


class TestZoneAtlas:
    def test_zone_inventory(self, atlas):
        assert len(atlas.countries) == 250
        assert len(atlas.continents) == 6
        assert len(atlas.states) == 50
        assert len(atlas) == 306

    def test_zone_names_are_unique_and_stable(self, atlas):
        names = atlas.zone_names()
        assert len(names) == len(set(names))
        assert names == build_world().zone_names()

    def test_paper_countries_exist(self, atlas):
        for name in (
            "united_states", "india", "germany", "brazil", "mexico",
            "france", "vietnam", "singapore", "qatar",
        ):
            assert name in atlas

    def test_unknown_zone_raises(self, atlas):
        with pytest.raises(GeocodeError):
            atlas.zone("atlantis")

    def test_countries_of_continent(self, atlas):
        europe = atlas.countries_of("europe")
        assert len(europe) == 50
        assert any(c.name == "germany" for c in europe)

    def test_countries_of_non_continent_raises(self, atlas):
        with pytest.raises(GeocodeError):
            atlas.countries_of("germany")

    def test_country_at_matches_bbox(self, atlas):
        for zone in atlas.countries[::25]:
            assert atlas.country_at(zone.bbox.center).name == zone.name

    def test_country_at_outside_world_raises(self, atlas):
        with pytest.raises(GeocodeError):
            atlas.country_at(Point(lon=0.0, lat=85.0))

    def test_zones_for_point_includes_continent(self, atlas):
        center = atlas.zone("germany").bbox.center
        names = [z.name for z in atlas.zones_for_point(center)]
        assert names[0] == "germany"
        assert "europe" in names

    def test_us_point_includes_state(self, atlas):
        minnesota = atlas.zone("minnesota")
        names = [z.name for z in atlas.zones_for_point(minnesota.bbox.center)]
        assert set(names) == {"united_states", "north_america", "minnesota"}

    def test_states_tile_usa(self, atlas):
        usa = atlas.zone("united_states")
        assert len(US_STATES) == 50
        total_area = sum(s.bbox.width * s.bbox.height for s in atlas.states)
        assert total_area == pytest.approx(usa.bbox.width * usa.bbox.height)

    def test_resolve_bbox_uses_center(self, atlas):
        qatar = atlas.zone("qatar")
        zones = atlas.zones_for_point(qatar.bbox.center)
        assert zones[0].name == "qatar"

    def test_activity_ranking_head(self, atlas):
        """The paper's Fig. 3 ordering is encoded in the weights."""
        weights = [
            atlas.zone(n).activity_weight
            for n in ("united_states", "india", "germany", "brazil", "mexico")
        ]
        assert weights == sorted(weights, reverse=True)

    def test_continent_column_ranges_cover_grid(self):
        columns = sorted(r for ranges in CONTINENTS.values() for r in range(*ranges))
        assert columns == list(range(25))

    @given(LONS, LATS)
    @settings(max_examples=60)
    def test_every_world_point_has_exactly_one_country(self, lon, lat):
        atlas = build_world()
        point = Point(lon=lon, lat=lat)
        country = atlas.country_at(point)
        assert country.contains_point(point)
        # Only that country's bbox (among sampled neighbors) contains it
        # strictly in its interior; shared borders resolve to one owner.
        owners = [
            z for z in atlas.countries if z.contains_point(point)
        ]
        assert country.name in {z.name for z in owners}
        assert len(owners) <= 4  # at most a corner-point overlap
