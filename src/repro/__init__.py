"""RASED reproduction: a scalable dashboard for monitoring OSM road updates.

This package reimplements, from scratch, the system described in
*"A Demonstration of RASED: A Scalable Dashboard for Monitoring Road
Network Updates in OSM"* (Musleh & Mokbel, ICDE 2022) and its full
companion paper — including every substrate it depends on: the OSM
data model and file formats, a synthetic planet-edit simulator (the
stand-in for real OSM feeds), the hierarchical temporal data-cube
index, the recency cache and level optimizer, the sample-update
warehouse, a DBMS baseline, and the dashboard query surface.

Quick start::

    from datetime import date
    from repro import RasedSystem, AnalysisQuery

    system = RasedSystem.create()
    system.simulate_and_ingest(date(2021, 1, 1), date(2021, 3, 31))
    system.warm_cache()
    result = system.dashboard.analysis(
        AnalysisQuery(
            start=date(2021, 1, 1),
            end=date(2021, 3, 31),
            group_by=("country", "element_type"),
        )
    )
    print(result.sorted_rows()[:10])
    system.close()  # removes the temporary feed directory

See ``DESIGN.md`` for the module inventory and ``EXPERIMENTS.md`` for
the paper-vs-measured record of every reproduced table and figure.
"""

from repro.types.temporal import Level, TemporalKey
from repro.types.cube import AnyCube, DataCube, SparseCube
from repro.types.dimensions import CubeSchema, default_schema, paper_scale_schema
from repro.core.query import AnalysisQuery, QueryResult, QueryStats
from repro.dashboard.api import Dashboard
from repro.errors import RasedError
from repro.obs import MetricsRegistry, get_registry
from repro.geo.zones import ZoneAtlas, build_world
from repro.collection.records import UpdateList, UpdateRecord
from repro.system import RasedSystem, SystemConfig

__version__ = "1.0.0"

__all__ = [
    "AnalysisQuery",
    "AnyCube",
    "CubeSchema",
    "Dashboard",
    "DataCube",
    "SparseCube",
    "Level",
    "MetricsRegistry",
    "QueryResult",
    "QueryStats",
    "get_registry",
    "RasedError",
    "RasedSystem",
    "SystemConfig",
    "TemporalKey",
    "UpdateList",
    "UpdateRecord",
    "ZoneAtlas",
    "build_world",
    "default_schema",
    "paper_scale_schema",
    "__version__",
]
