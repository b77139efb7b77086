"""Section VI-A — index-maintenance cost with daily updates.

The paper reports: building the daily cube is an offline scan of the
day's UpdateList; "normally, we would need only one I/O for daily
cubes.  If it is the end of the week/month/year, we would need up to
8, 6, and 13 I/Os, respectively."  This bench ingests a full synthetic
year day by day and tallies the page I/Os per boundary class, plus the
wall time of the daily build itself.

Run: ``pytest benchmarks/bench_maintenance.py --benchmark-only -s``
"""

from __future__ import annotations

import random
from datetime import date, timedelta

import pytest

from repro.types.temporal import completed_units
from repro.core.hierarchy import HierarchicalIndex
from repro.storage.disk import InMemoryDisk

from common import make_schema, print_table, synthetic_day_updates


@pytest.fixture(scope="module")
def year_of_updates():
    schema = make_schema()
    rng = random.Random(3)
    day = date(2021, 1, 1)
    updates = {}
    while day <= date(2021, 12, 31):
        updates[day] = synthetic_day_updates(day, rng, 40, schema)
        day += timedelta(days=1)
    return schema, updates


def bench_maintenance_io(benchmark, year_of_updates):
    schema, updates = year_of_updates

    def ingest_year():
        disk = InMemoryDisk(read_latency=0.0, write_latency=0.0)
        index = HierarchicalIndex(schema, disk)
        io_by_class: dict[str, list[int]] = {
            "plain day": [],
            "week end": [],
            "month end": [],
            "year end": [],
        }
        for day in sorted(updates):
            before = disk.stats.snapshot()
            index.ingest_day(day, updates[day])
            ios = disk.stats.delta(before).total_ios
            finished = completed_units(day)
            if not finished:
                io_by_class["plain day"].append(ios)
            elif any(k.level.label == "year" for k in finished):
                io_by_class["year end"].append(ios)
            elif any(k.level.label == "month" for k in finished):
                io_by_class["month end"].append(ios)
            else:
                io_by_class["week end"].append(ios)
        return io_by_class

    io_by_class = benchmark.pedantic(ingest_year, iterations=1, rounds=1)

    header = ["day class", "days", "min I/O", "max I/O", "paper bound"]
    bounds = {"plain day": 1, "week end": 8, "month end": 8 + 6, "year end": 8 + 6 + 13}
    rows = []
    for label, ios in io_by_class.items():
        rows.append(
            [
                label,
                str(len(ios)),
                str(min(ios)),
                str(max(ios)),
                str(bounds[label]),
            ]
        )
    print_table("Sec. VI-A: maintenance I/O per ingested day", header, rows)

    assert set(io_by_class["plain day"]) == {1}
    assert max(io_by_class["week end"]) == 8
    assert max(io_by_class["month end"]) <= 8 + 6
    assert max(io_by_class["year end"]) <= 8 + 6 + 13
    benchmark.extra_info["section"] = "VI-A"


def bench_daily_cube_build(benchmark, year_of_updates):
    """Wall time of one daily cube construction (the offline scan)."""
    schema, updates = year_of_updates
    disk = InMemoryDisk(read_latency=0.0, write_latency=0.0)
    index = HierarchicalIndex(schema, disk)
    day = date(2021, 6, 15)

    cube = benchmark(lambda: index.build_day_cube(day, updates[day]))
    assert cube.total > 0
