"""Tests for the synthetic world, mappers, and the edit simulator."""

from __future__ import annotations

import random
from collections import Counter
from datetime import date

import pytest

from repro.errors import SimulationError
from repro.osm.history import iter_history
from repro.osm.model import OSMNode, OSMWay
from repro.synth.editors import PROFILES, Mapper, run_operation
from repro.synth.simulator import EditSimulator, SimulationConfig
from repro.synth.workload import QueryWorkload
from repro.synth.world import (
    WorldState,
    build_initial_world,
    choose_road_type,
)
from tests.support.synth import simulate_range, single_cell


def small_config(**overrides):
    defaults = dict(
        seed=3, mapper_count=20, base_sessions_per_day=5, nodes_per_country=8
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


@pytest.fixture(scope="module")
def world(atlas):
    return build_initial_world(atlas, random.Random(1), base_nodes_per_country=8)


class TestWorldConstruction:
    def test_every_country_has_a_network(self, atlas, world):
        assert set(world.networks) == {z.name for z in atlas.countries}

    def test_networks_have_nodes_and_ways(self, world):
        for network in list(world.networks.values())[::40]:
            assert len(network.node_ids) >= 6
            assert len(network.way_ids) >= 1

    def test_hot_countries_are_denser(self, world):
        usa = world.networks["united_states"]
        cold = world.networks["africa_003"]
        assert len(usa.node_ids) > len(cold.node_ids)

    def test_all_elements_version_1(self, world):
        assert all(e.version == 1 for e in world.current.values())

    def test_ways_reference_existing_nodes(self, world):
        for network in list(world.networks.values())[::40]:
            for way_id in network.way_ids:
                way = world.get("way", way_id)
                assert isinstance(way, OSMWay)
                for ref in way.refs:
                    assert isinstance(world.get("node", ref), OSMNode)

    def test_nodes_are_inside_their_country(self, atlas, world):
        for zone in atlas.countries[::40]:
            network = world.networks[zone.name]
            for node_id in network.node_ids[:5]:
                node = world.get("node", node_id)
                assert zone.bbox.contains_point(
                    type(zone.bbox.center)(lon=node.lon, lat=node.lat)
                )

    def test_road_network_size_counts_live_ways(self, world):
        name = "germany"
        before = world.road_network_size(name)
        way_id = world.networks[name].way_ids[0]
        way = world.get("way", way_id)
        world.apply(way.deleted(way.timestamp, 999))
        assert world.road_network_size(name) == before - 1

    def test_determinism(self, atlas):
        a = build_initial_world(atlas, random.Random(5), 8)
        b = build_initial_world(atlas, random.Random(5), 8)
        assert len(a.history) == len(b.history)
        assert a.history[100] == b.history[100]


class TestWorldStateBookkeeping:
    def test_version_skew_rejected(self, atlas):
        world = build_initial_world(atlas, random.Random(2), 6)
        element = next(iter(world.current.values()))
        bad = element.next_version(element.timestamp, 1).next_version(
            element.timestamp, 1
        )
        with pytest.raises(SimulationError, match="version skew"):
            world.apply(bad)

    def test_first_version_must_be_one(self, atlas):
        world = WorldState(atlas)
        from datetime import datetime, timezone

        orphan = OSMNode(
            id=99999,
            version=2,
            timestamp=datetime(2021, 1, 1, tzinfo=timezone.utc),
            changeset=1,
            lat=0,
            lon=0,
        )
        with pytest.raises(SimulationError, match="must be 1"):
            world.apply(orphan)

    def test_previous_version_lookup(self, atlas):
        world = build_initial_world(atlas, random.Random(2), 6)
        element = next(iter(world.current.values()))
        successor = element.next_version(element.timestamp, 7)
        world.apply(successor)
        assert world.previous_version(successor) == element
        assert world.previous_version(element) is None

    def test_get_missing_raises(self, atlas):
        world = WorldState(atlas)
        with pytest.raises(SimulationError):
            world.get("node", 12345)

    def test_id_allocation_monotonic(self, atlas):
        world = WorldState(atlas)
        ids = [world.allocate_id("node") for _ in range(5)]
        assert ids == [1, 2, 3, 4, 5]


class TestRoadTypeSampling:
    def test_only_known_values(self):
        rng = random.Random(4)
        values = {choose_road_type(rng) for _ in range(300)}
        from repro.types.dimensions import PAPER_ROAD_TYPES

        assert values <= set(PAPER_ROAD_TYPES)

    def test_residential_most_common(self):
        rng = random.Random(4)
        counts = Counter(choose_road_type(rng) for _ in range(3000))
        assert counts.most_common(1)[0][0] == "residential"


class TestEditOperations:
    @pytest.fixture()
    def setup(self, atlas):
        world = build_initial_world(atlas, random.Random(7), 8)
        mapper = Mapper(uid=1001, user="tester", profile=PROFILES[1], home_country="germany")
        network = world.network("germany")
        from datetime import datetime, timezone

        stamp = datetime(2021, 5, 1, 10, tzinfo=timezone.utc)
        return world, network, mapper, stamp

    @pytest.mark.parametrize(
        "op,expected_actions",
        [
            ("create_road", {"create"}),
            ("create_poi", {"create"}),
            ("move_node", {"modify"}),
            ("retag_way", {"modify"}),
            ("retag_node", {"modify"}),
            ("extend_way", {"create", "modify"}),
            ("delete_way", {"delete"}),
            ("edit_relation", {"modify"}),
        ],
    )
    def test_operations_produce_expected_actions(self, setup, op, expected_actions):
        world, network, mapper, stamp = setup
        produced = run_operation(op, world, network, random.Random(1), stamp, 500, mapper)
        assert produced
        assert {action for action, _ in produced} <= expected_actions | {"create"}

    def test_operations_apply_to_world(self, setup):
        world, network, mapper, stamp = setup
        before = len(world.history)
        produced = run_operation(
            "create_road", world, network, random.Random(1), stamp, 500, mapper
        )
        assert len(world.history) == before + len(produced)

    def test_move_node_bumps_version(self, setup):
        world, network, mapper, stamp = setup
        produced = run_operation(
            "move_node", world, network, random.Random(1), stamp, 500, mapper
        )
        _, element = produced[0]
        assert element.version >= 2
        assert world.previous_version(element) is not None

    def test_delete_way_makes_tombstone(self, setup):
        world, network, mapper, stamp = setup
        produced = run_operation(
            "delete_way", world, network, random.Random(1), stamp, 500, mapper
        )
        action, element = produced[0]
        assert action == "delete"
        assert not element.visible

    def test_unknown_operation_raises(self, setup):
        world, network, mapper, stamp = setup
        with pytest.raises(SimulationError):
            run_operation("paint", world, network, random.Random(1), stamp, 500, mapper)


class TestSimulator:
    def test_determinism(self, atlas):
        a = EditSimulator(atlas=atlas, config=small_config())
        b = EditSimulator(atlas=atlas, config=small_config())
        day_a = a.simulate_day(date(2021, 1, 1))
        day_b = b.simulate_day(date(2021, 1, 1))
        assert len(day_a.change) == len(day_b.change)
        assert [r.to_tsv() for r in day_a.truth] == [r.to_tsv() for r in day_b.truth]

    def test_truth_matches_change_size(self, atlas):
        sim = EditSimulator(atlas=atlas, config=small_config())
        output = sim.simulate_day(date(2021, 1, 1))
        assert len(output.truth) == len(output.change)

    def test_changesets_cover_all_updates(self, atlas):
        sim = EditSimulator(atlas=atlas, config=small_config())
        output = sim.simulate_day(date(2021, 1, 1))
        changeset_ids = {c.id for c in output.changesets}
        for _, element in output.change.actions():
            assert element.changeset in changeset_ids

    def test_changesets_have_bboxes(self, atlas):
        sim = EditSimulator(atlas=atlas, config=small_config())
        output = sim.simulate_day(date(2021, 1, 1))
        assert all(c.bbox is not None for c in output.changesets)

    def test_update_dates_match_day(self, atlas):
        sim = EditSimulator(atlas=atlas, config=small_config())
        day = date(2021, 2, 14)
        output = sim.simulate_day(day)
        assert all(r.date == day for r in output.truth)

    def test_activity_grows_over_years(self, atlas):
        sim = EditSimulator(
            atlas=atlas, config=small_config(base_sessions_per_day=20)
        )
        early = sum(
            sim._sessions_for(date(2010, 3, 1 + i)) for i in range(10)
        )
        late = sum(
            sim._sessions_for(date(2018, 3, 1 + i)) for i in range(10)
        )
        assert late > early

    def test_history_dump_parses_and_classifies(self, atlas, tmp_path):
        sim = EditSimulator(atlas=atlas, config=small_config())
        for output in simulate_range(sim, date(2021, 1, 1), date(2021, 1, 5)):
            pass
        path = tmp_path / "full.osm"
        count = sim.write_history_dump(path)
        updates = list(iter_history(path))
        assert len(updates) == count

    def test_simulate_range_rejects_inverted(self, atlas):
        sim = EditSimulator(atlas=atlas, config=small_config())
        with pytest.raises(SimulationError):
            list(simulate_range(sim, date(2021, 1, 2), date(2021, 1, 1)))

    def test_road_network_sizes_positive(self, atlas):
        sim = EditSimulator(atlas=atlas, config=small_config())
        sizes = sim.road_network_sizes()
        assert len(sizes) == 250
        assert all(size >= 0 for size in sizes.values())
        assert sizes["united_states"] > 0

    def test_config_validation(self):
        with pytest.raises(SimulationError):
            SimulationConfig(base_sessions_per_day=0)
        with pytest.raises(SimulationError):
            SimulationConfig(mapper_count=0)


class TestQueryWorkload:
    @pytest.fixture()
    def workload(self, small_schema):
        return QueryWorkload(
            schema=small_schema,
            coverage_start=date(2020, 1, 1),
            coverage_end=date(2021, 12, 31),
            seed=5,
        )

    def test_single_cell_queries_have_one_value_per_axis(self, workload):
        queries = single_cell(workload, span_days=30, count=20)
        assert len(queries) == 20
        for query in queries:
            assert len(query.element_types) == 1
            assert len(query.countries) == 1
            assert len(query.road_types) == 1
            assert len(query.update_types) == 1

    def test_windows_respect_span_and_coverage(self, workload):
        for query in single_cell(workload, span_days=90, count=30):
            assert (query.end - query.start).days + 1 == 90
            assert query.start >= date(2020, 1, 1)
            assert query.end <= date(2021, 12, 31)

    def test_deterministic(self, workload, small_schema):
        other = QueryWorkload(
            schema=small_schema,
            coverage_start=date(2020, 1, 1),
            coverage_end=date(2021, 12, 31),
            seed=5,
        )
        assert single_cell(workload, 30, 10) == single_cell(other, 30, 10)

    def test_span_clamped_to_coverage(self, small_schema):
        workload = QueryWorkload(
            schema=small_schema,
            coverage_start=date(2021, 1, 1),
            coverage_end=date(2021, 1, 10),
        )
        for query in single_cell(workload, span_days=400, count=5):
            assert query.start == date(2021, 1, 1)
            assert query.end == date(2021, 1, 10)

    def test_dashboard_mix_shapes(self, workload):
        queries = workload.dashboard_mix(span_days=60, count=40)
        group_bys = {q.group_by for q in queries}
        assert ("country", "element_type") in group_bys
        assert ("road_type", "element_type") in group_bys
        assert ("country", "date") in group_bys

    def test_recency_bias_skews_recent(self, workload):
        uniform = single_cell(workload, 30, count=60, recent_bias=0.0)
        recent = single_cell(workload, 30, count=60, recent_bias=1.0)
        mean_uniform = sum(q.start.toordinal() for q in uniform) / 60
        mean_recent = sum(q.start.toordinal() for q in recent) / 60
        assert mean_recent > mean_uniform
