"""Shared deployment builder for the example scripts.

Each example needs a populated dashboard; this module builds one
deployment (four simulated months, daily-crawled, with the monthly
rebuild applied) and caches it per process so running an example costs
one simulation, not several.
"""

from __future__ import annotations

import atexit
from datetime import date

from repro import RasedSystem, SystemConfig
from repro.storage.disk import InMemoryDisk
from repro.synth.publisher import FeedPublisher
from repro.synth.simulator import SimulationConfig

SPAN_START = date(2021, 1, 1)
SPAN_END = date(2021, 4, 30)

_SYSTEM: RasedSystem | None = None


def example_system() -> RasedSystem:
    """A populated deployment covering SPAN_START .. SPAN_END."""
    global _SYSTEM
    if _SYSTEM is not None:
        return _SYSTEM
    print("Simulating four months of OSM edits (one-time setup)...")
    system = RasedSystem.create(
        store=InMemoryDisk(read_latency=0.005, write_latency=0.006),
        config=SystemConfig(road_types=12, cache_slots=48),
    )
    atexit.register(system.close)  # removes its temporary feed directory
    publisher = FeedPublisher(
        system.feed_root,
        system.atlas,
        SimulationConfig(seed=2021, mapper_count=60, base_sessions_per_day=14, nodes_per_country=10),
    )
    report = publisher.publish_and_ingest(system.pipeline, SPAN_START, SPAN_END, monthly_rebuild=True)
    system.warm_cache()
    print(
        f"  ingested {report.updates_indexed:,} updates over "
        f"{report.days_processed} days\n"
    )
    _SYSTEM = system
    return system
