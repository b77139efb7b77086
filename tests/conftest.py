"""Shared fixtures for the RASED reproduction test suite.

The expensive fixtures (the zone atlas and a fully ingested system)
are session-scoped; tests must treat them as read-only.  Tests that
mutate state build their own small instances.
"""

from __future__ import annotations

from datetime import date

import pytest

from repro.types.dimensions import default_schema
from repro.geo.zones import build_world
from repro.storage.disk import InMemoryDisk
from repro.synth.simulator import SimulationConfig
from repro.system import RasedSystem, SystemConfig

#: The span every session-scoped system has ingested.
INGESTED_START = date(2021, 1, 1)
INGESTED_END = date(2021, 2, 28)


@pytest.fixture(scope="session")
def atlas():
    """The deterministic 306-zone synthetic world (read-only)."""
    return build_world()


@pytest.fixture(scope="session")
def small_schema(atlas):
    """A reduced-road-type schema over the full zone set (read-only)."""
    return default_schema(atlas.zone_names(), road_types=8)


@pytest.fixture(scope="session")
def tiny_schema():
    """A 3-country schema for unit tests that don't need the atlas."""
    return default_schema(["united_states", "germany", "qatar"], road_types=8)


def build_test_system(atlas, *, seed=11, cache_slots=16, monthly_rebuild=False):
    """A small fully ingested deployment over INGESTED_START..END."""
    system = RasedSystem.create(
        atlas=atlas,
        store=InMemoryDisk(read_latency=0.0005, write_latency=0.0005),
        config=SystemConfig(
            road_types=8,
            cache_slots=cache_slots,
            simulation=SimulationConfig(
                seed=seed,
                mapper_count=25,
                base_sessions_per_day=6,
                nodes_per_country=8,
            ),
        ),
    )
    system.simulate_and_ingest(
        INGESTED_START, INGESTED_END, monthly_rebuild=monthly_rebuild
    )
    system.warm_cache()
    return system


@pytest.fixture(scope="session")
def ingested_system(atlas):
    """Two months of simulated history, daily-crawled (read-only)."""
    return build_test_system(atlas)


@pytest.fixture(scope="session")
def rebuilt_system(atlas):
    """Like ingested_system but with the monthly rebuild applied."""
    return build_test_system(atlas, seed=13, monthly_rebuild=True)
