"""Shared fixtures for the RASED reproduction test suite.

The expensive fixtures (the zone atlas and a fully ingested system)
are session-scoped; tests must treat them as read-only.  Tests that
mutate state build their own small instances.

A bare ``RasedSystem.create()`` (no ``root``) makes a temporary feed
directory that only ``close()`` removes.  The systems a test makes are
closed when it ends (:func:`close_the_tests_systems`); a fixture broader
than one test closes its own; and the session ends by checking that no
such directory is left (:func:`bare_creates`).
"""

from __future__ import annotations

from datetime import date
from pathlib import Path

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


class _BareCreates:
    """The feed directories bare creates made this session, and the
    systems the running test made."""

    def __init__(self) -> None:
        self.roots: list[Path] = []
        self.in_test: list[RasedSystem] | None = None


@pytest.fixture(scope="session", autouse=True)
def bare_creates():
    """Wraps ``RasedSystem.create`` for the session to note each feed
    directory a bare create makes; at the end, every one must be gone."""
    seen = _BareCreates()
    create = RasedSystem.__dict__["create"]

    def noting(cls, *args, **kwargs):
        system = create.__func__(cls, *args, **kwargs)
        if system._owned_root is not None:
            seen.roots.append(system._owned_root)
            if seen.in_test is not None:
                seen.in_test.append(system)
        return system

    RasedSystem.create = classmethod(noting)
    try:
        yield seen
    finally:
        RasedSystem.create = create
    left = [root for root in seen.roots if root.exists()]
    assert not left, f"{len(left)} feed directories left behind, e.g. {left[0]}"


@pytest.fixture(autouse=True)
def close_the_tests_systems(bare_creates):
    """Close, when the test ends, every system a bare create made in it."""
    bare_creates.in_test = made = []
    yield
    bare_creates.in_test = None
    for system in made:
        system.close()


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
    system = build_test_system(atlas)
    yield system
    system.close()


@pytest.fixture(scope="session")
def rebuilt_system(atlas):
    """Like ingested_system but with the monthly rebuild applied."""
    system = build_test_system(atlas, seed=13, monthly_rebuild=True)
    yield system
    system.close()
