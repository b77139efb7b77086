"""Tests for snapshot reconstruction from full history."""

from __future__ import annotations

import io
from datetime import date, datetime, timezone

import pytest

from repro.errors import ParseError
from repro.osm.model import OSMNode, OSMWay
from repro.osm.snapshot import (
    build_snapshot,
    network_sizes_from_history,
    road_segment_counts,
)
from repro.osm.xml_io import write_osm
from repro.synth.simulator import EditSimulator, SimulationConfig
from tests.support.synth import simulate_range

T0 = datetime(2021, 3, 1, tzinfo=timezone.utc)
T1 = datetime(2021, 3, 2, tzinfo=timezone.utc)


def node(eid, lat=10.0, lon=20.0, version=1, visible=True):
    return OSMNode(
        id=eid, version=version, timestamp=T0, changeset=1,
        lat=lat, lon=lon, visible=visible,
    )


def way(eid, refs, version=1, visible=True, highway="residential"):
    tags = {"highway": highway} if highway else {}
    return OSMWay(
        id=eid, version=version, timestamp=T0, changeset=1,
        refs=refs, visible=visible, tags=tags,
    )


def _dump(elements):
    """A full-history document holding ``elements`` in the order given."""
    buffer = io.BytesIO()
    write_osm(buffer, elements)
    buffer.seek(0)
    return buffer


class TestBuildSnapshot:
    def test_latest_version_wins(self):
        snapshot = build_snapshot(_dump([node(1), node(1, lat=11.0, version=2)]))
        assert snapshot[("node", 1)].lat == 11.0

    def test_order_independent(self):
        forward = build_snapshot(_dump([node(1), node(1, lat=11.0, version=2)]))
        backward = build_snapshot(_dump([node(1, lat=11.0, version=2), node(1)]))
        assert forward == backward

    def test_tombstones_removed(self):
        versions = [way(2, (1,)), way(2, (1,), version=2, visible=False)]
        snapshot = build_snapshot(_dump(versions))
        assert ("way", 2) not in snapshot

    def test_recreated_element_survives(self):
        versions = [
            node(1),
            node(1, version=2, visible=False),
            node(1, version=3, lat=12.0),
        ]
        snapshot = build_snapshot(_dump(versions))
        assert snapshot[("node", 1)].lat == 12.0

    def test_mixed_kinds(self):
        snapshot = build_snapshot(_dump([node(1), way(1, (1,))]))
        assert ("node", 1) in snapshot
        assert ("way", 1) in snapshot


class TestRoadSegmentCounts:
    def test_counts_highway_ways_by_first_node(self, atlas):
        germany = atlas.zone("germany").bbox.center
        qatar = atlas.zone("qatar").bbox.center
        elements = [
            node(1, lat=germany.lat, lon=germany.lon),
            node(2, lat=qatar.lat, lon=qatar.lon),
            way(10, (1,)),
            way(11, (1,)),
            way(12, (2,)),
            way(13, (2,), highway=None),  # not a road
        ]
        counts = road_segment_counts(build_snapshot(_dump(elements)), atlas)
        assert counts["germany"] == 2
        assert counts["qatar"] == 1

    def test_way_with_missing_nodes_skipped(self, atlas):
        counts = road_segment_counts(build_snapshot(_dump([way(10, (999,))])), atlas)
        assert sum(counts.values()) == 0

    def test_deleted_way_not_counted(self, atlas):
        germany = atlas.zone("germany").bbox.center
        elements = [
            node(1, lat=germany.lat, lon=germany.lon),
            way(10, (1,)),
            way(10, (1,), version=2, visible=False),
        ]
        counts = road_segment_counts(build_snapshot(_dump(elements)), atlas)
        assert counts["germany"] == 0


class TestEndToEnd:
    def test_sizes_from_history_match_simulator(self, atlas, tmp_path):
        """The OSM-native denominator path agrees with the simulator's
        own bookkeeping — two implementations, same answer."""
        sim = EditSimulator(
            atlas=atlas,
            config=SimulationConfig(
                seed=13, mapper_count=15, base_sessions_per_day=5, nodes_per_country=8
            ),
        )
        for _ in simulate_range(sim, date(2021, 4, 1), date(2021, 4, 10)):
            pass
        path = tmp_path / "history.osm"
        sim.write_history_dump(path)

        from_history = network_sizes_from_history(path, atlas)
        from_simulator = sim.road_network_sizes()
        assert from_history == from_simulator

    def test_empty_history_rejected(self, atlas):
        with pytest.raises(ParseError):
            network_sizes_from_history(_dump([]), atlas)
