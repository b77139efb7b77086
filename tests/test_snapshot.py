"""Tests for road-network sizes folded from full history, as of a day."""

from __future__ import annotations

import io
from datetime import date, datetime, timezone

import pytest

from repro.errors import ParseError
from repro.osm.history import iter_history
from repro.osm.model import OSMNode, OSMWay
from repro.osm.snapshot import RoadNetworkFold, decode_sizes, encode_sizes
from repro.osm.xml_io import write_osm
from repro.synth.simulator import EditSimulator, SimulationConfig
from tests.support.synth import simulate_range

T0 = datetime(2021, 3, 1, tzinfo=timezone.utc)
T1 = datetime(2021, 3, 2, tzinfo=timezone.utc)


def node(eid, lat=10.0, lon=20.0, version=1, visible=True, at=T0):
    return OSMNode(
        id=eid, version=version, timestamp=at, changeset=1,
        lat=lat, lon=lon, visible=visible,
    )


def way(eid, refs, version=1, visible=True, highway="residential", at=T0):
    tags = {"highway": highway} if highway else {}
    return OSMWay(
        id=eid, version=version, timestamp=at, changeset=1,
        refs=refs, visible=visible, tags=tags,
    )


def network_sizes_as_of(source, atlas, as_of=date.max):
    """The fold over one dump, as the monthly crawl's pass feeds it; an
    empty history folds no version, so the rebuild writes no record."""
    fold = RoadNetworkFold(as_of)
    for kind, fields, _, _ in iter_history(source):
        fold.add(kind, fields)
    if not fold.versions:
        raise ParseError("history stream holds no version to fold")
    return fold.counts(atlas)


def _dump(elements):
    """A full-history document holding ``elements`` in the order given."""
    buffer = io.BytesIO()
    write_osm(buffer, elements)
    buffer.seek(0)
    return buffer


@pytest.fixture(scope="module")
def spots(atlas):
    """One point inside each of two countries."""
    return {name: atlas.zone(name).bbox.center for name in ("germany", "qatar")}


def _node_at(eid, point, **kwargs):
    return node(eid, lat=point.lat, lon=point.lon, **kwargs)


class TestBuildSnapshot:
    def test_latest_version_wins(self, atlas, spots):
        """A node moved by version 2 locates its way where version 2 is."""
        elements = [
            _node_at(1, spots["germany"]),
            _node_at(1, spots["qatar"], version=2),
            way(10, (1,)),
        ]
        sizes = network_sizes_as_of(_dump(elements), atlas)
        assert (sizes["germany"], sizes["qatar"]) == (0, 1)

    def test_order_independent(self, atlas, spots):
        """Versions stamped after the day are ignored, whatever the
        dump's order; a dump out of (kind, id, version) order is
        refused, never folded."""
        elements = [
            _node_at(1, spots["germany"]),
            _node_at(1, spots["qatar"], version=2, at=T1),
            way(10, (1,)),
        ]
        assert network_sizes_as_of(_dump(elements), atlas, T0.date())["germany"] == 1
        assert network_sizes_as_of(_dump(elements), atlas, T1.date())["qatar"] == 1
        with pytest.raises(ParseError):
            network_sizes_as_of(_dump(elements[1::-1] + elements[2:]), atlas)

    def test_tombstones_removed(self, atlas, spots):
        versions = [
            _node_at(1, spots["germany"]),
            way(2, (1,)),
            way(2, (1,), version=2, visible=False, at=T1),
        ]
        assert network_sizes_as_of(_dump(versions), atlas, T0.date())["germany"] == 1
        assert network_sizes_as_of(_dump(versions), atlas)["germany"] == 0

    def test_recreated_element_survives(self, atlas, spots):
        versions = [
            _node_at(1, spots["germany"]),
            _node_at(1, spots["germany"], version=2, visible=False),
            _node_at(1, spots["qatar"], version=3),
            way(10, (1,)),
        ]
        assert network_sizes_as_of(_dump(versions), atlas)["qatar"] == 1

    def test_mixed_kinds(self, atlas, spots):
        """Nodes alone are no road; only highway ways count."""
        elements = [_node_at(1, spots["germany"]), way(1, (1,)), way(2, (1,), highway=None)]
        assert sum(network_sizes_as_of(_dump(elements), atlas).values()) == 1


class TestRoadSegmentCounts:
    def test_counts_highway_ways_by_first_node(self, atlas, spots):
        elements = [
            _node_at(1, spots["germany"]),
            _node_at(2, spots["qatar"]),
            way(10, (1,)),
            way(11, (1,)),
            way(12, (2, 1)),
            way(13, (2,), highway=None),  # not a road
        ]
        counts = network_sizes_as_of(_dump(elements), atlas)
        assert counts["germany"] == 2
        assert counts["qatar"] == 1

    def test_way_with_missing_nodes_skipped(self, atlas, spots):
        """A way is located by its first *live* member node; with none
        (a truncated extract), or anchored in the ocean, it is skipped."""
        elements = [
            _node_at(1, spots["germany"], visible=False),
            _node_at(2, spots["qatar"]),
            node(3, lat=-89.9, lon=-179.9),  # outside every zone
            way(10, (999,)),
            way(11, (1, 2)),
            way(12, (3,)),
        ]
        counts = network_sizes_as_of(_dump(elements), atlas)
        assert sum(counts.values()) == 1 and counts["qatar"] == 1

    def test_deleted_way_not_counted(self, atlas, spots):
        elements = [
            _node_at(1, spots["germany"]),
            way(10, (1,)),
            way(10, (1,), version=2, visible=False),
        ]
        assert network_sizes_as_of(_dump(elements), atlas)["germany"] == 0


class TestEndToEnd:
    def test_sizes_from_history_match_simulator(self, atlas, tmp_path):
        """The OSM-native denominator path agrees with the simulator's
        own bookkeeping, at the end and as of an earlier day."""
        sim = EditSimulator(
            atlas=atlas,
            config=SimulationConfig(
                seed=13, mapper_count=15, base_sessions_per_day=5, nodes_per_country=8
            ),
        )
        midway = None
        for output in simulate_range(sim, date(2021, 4, 1), date(2021, 4, 10)):
            if output.day == date(2021, 4, 5):
                midway = sim.road_network_sizes()
        path = tmp_path / "history.osm"
        sim.write_history_dump(path)

        assert network_sizes_as_of(path, atlas) == sim.road_network_sizes()
        assert network_sizes_as_of(path, atlas, date(2021, 4, 5)) == midway
        assert midway != sim.road_network_sizes()
        assert decode_sizes(encode_sizes(midway)) == midway

    def test_empty_history_rejected(self, atlas):
        with pytest.raises(ParseError):
            network_sizes_as_of(_dump([]), atlas)
