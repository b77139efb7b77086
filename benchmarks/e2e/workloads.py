"""The four workloads: their system configuration, data and requests.

Everything a run feeds the program is made here from ``--seed``: the
history (``repro.synth.scale.scaled_day_updates``, the fast-path
generator ``benchmarks/common.py`` already uses) and the request list;
the OSM feed of the ingest workload (``EditSimulator`` through
``RasedSystem.publish_day``) is generated too, from a seed of its own
(``FEED_SEED``).  The serving process (``child.py``) receives only these
generated inputs plus the literal ``SystemConfig`` written in the
workload's definition below.

``--seconds`` sizes the request list — the nominal time the run spends
sending measured requests, at the speed of the commit that defined the
benchmark; the list is sent ``ROUNDS`` x ``PASSES`` times, so it holds
rate x seconds / (ROUNDS x PASSES) requests — and is not a stopwatch: the same
seed and seconds replay the same requests on every commit, because a
duration-based run would mix cheap and expensive shapes differently
from run to run.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import shutil
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path
from typing import Any

from repro.collection.records import UpdateList
from repro.core.query import AnalysisQuery
from repro.dashboard.admission import AdmissionConfig
from repro.geo.zones import ZoneAtlas, build_world
from repro.osm.replication import sequence_path
from repro.synth.scale import scaled_day_updates
from repro.synth.simulator import SimulationConfig
from repro.synth.workload import QueryWorkload
from repro.system import RasedSystem, SystemConfig
from repro.types.dimensions import CubeSchema, default_schema

__all__ = [
    "Inputs",
    "Request",
    "SizeProfile",
    "Workload",
    "WORKLOADS",
    "FULL",
    "SMOKE",
    "NOMINAL_SECONDS",
    "ROUNDS",
    "PASSES",
    "FEED_SEED",
    "INGEST_BATCH_DAYS",
    "build_inputs",
    "publish_through",
    "query_body",
]

#: One HTTP request: (method, path, body).
Request = tuple[str, str, bytes]

#: ``run_seconds`` of ``BENCHMARK.json``.
NOMINAL_SECONDS = 12.0
#: Serving processes an end-to-end run sets up one after the other; each
#: is sent the whole request list ``PASSES`` times (``ingest_mixed``:
#: ingests the whole feed once, the reader cycling the list meanwhile).
ROUNDS = 3
PASSES = 2
#: The feed is published to the ingest workload this many days at a
#: time, each batch followed by one ``pipeline.run_daily()``: the host's
#: slowness is sampled between batches.
INGEST_BATCH_DAYS = 5
#: The OSM feed of ``ingest_mixed`` is the same on every run, whatever
#: ``--seed`` (which still draws the history and the requests): the
#: simulator's days hold 31 000-38 000 updates per 60 days depending on
#: its seed, so a feed drawn from ``--seed`` made days per second and
#: bytes per update differ from run to run by what was fed, not by what
#: the program did with it.
FEED_SEED = 13


@dataclass(frozen=True)
class SizeProfile:
    """Data sizes; ``SMOKE`` is the ~1/20 scale of ``FULL``."""

    name: str
    history_start: date
    history_end: date
    rows_per_day: int
    seconds: float


FULL = SizeProfile("full", date(2018, 1, 1), date(2021, 12, 31), 200, NOMINAL_SECONDS)
SMOKE = SizeProfile("smoke", date(2021, 1, 1), date(2021, 12, 31), 40, 0.5)

#: The deployment configuration of every workload (what
#: ``benchmarks/common.py`` calls the deployment config: sparse cubes in
#: v3 pages), 64 statically preloaded cache slots against 1 705 cube
#: pages, tracing/SLO/recorder on as ``rased-repro serve`` runs them.
_BASE = dict(
    road_types=12,
    page_version=3,
    sparse_cubes=True,
    cache_slots=64,
    fetch_parallelism=4,
    tracing=True,
)

#: Admission switched on but sized never to refuse.
_OPEN_DOOR = AdmissionConfig(
    rate_limit=1e6, burst=1e6, shed_threshold=256, default_deadline_ms=30000
)


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line, repeated in ``BENCHMARK.json``.
    why: str
    clients: int
    config: SystemConfig
    #: Requests per second of ``--seconds`` (list length = rate x seconds
    #: / (ROUNDS x PASSES)); ingest_mixed's reader cycles its list for as
    #: long as the writer runs.
    request_rate: int
    #: ``ProcessPoolDispatcher`` workers (0 = in-process compute).
    workers: int = 0
    #: ingest_mixed only: days published per second of ``--seconds``.
    ingest_day_rate: int = 0
    #: Bulk-load only the last year of the history (ingest_mixed).
    last_year_only: bool = False


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="dash_cold",
            why="un-memoized dashboard queries, 1 client, data (1705 pages) far "
            "larger than the 64-slot cube cache: plan, page read, v3 decode, "
            "aggregate, row shaping, JSON",
            clients=1,
            config=SystemConfig(**_BASE, result_cache_slots=0),
            request_rate=100,
        ),
        Workload(
            name="dash_hot",
            why="32 popular queries drawn Zipf(1) by 2 clients, all in the result "
            "cache: only HTTP, admission, memo and threading work; a cube-layer "
            "speed-up must show no change",
            clients=2,
            config=SystemConfig(
                **_BASE, result_cache_slots=256, admission=_OPEN_DOOR
            ),
            request_rate=500,
        ),
        Workload(
            name="scatter_procpool",
            why="the dash_cold questions through 4 shards and a 2-worker process "
            "pool: scatter/merge and the pickle hop are the delta over dash_cold",
            clients=2,
            config=SystemConfig(
                **_BASE, result_cache_slots=0, shards=4, scatter_threads=4
            ),
            request_rate=200,
            workers=2,
        ),
        Workload(
            name="ingest_mixed",
            why="durable daily ingest (WAL, rollups, warehouse, indexes, epoch "
            "bumps) beside 1 reader: write amplification, lock hold time and "
            "memo churn show as ingest rate and reader stall tail",
            clients=1,
            config=SystemConfig(
                **_BASE, result_cache_slots=256, durable_ingest=True
            ),
            request_rate=250,
            ingest_day_rate=5,
            last_year_only=True,
        ),
    )
}


@dataclass
class Inputs:
    """Everything one run feeds the program, plus what checks it."""

    workload: str
    seed: int
    updates_by_day: dict[date, UpdateList]
    requests: list[Request]
    #: The AnalysisQuery behind each POST in ``requests`` (None for GETs).
    queries: list[AnalysisQuery | None]
    #: ingest_mixed: directory holding the published OSM feed, the
    #: simulator's row count per published day, and the days published.
    feed_root: str | None = None
    truth_day_rows: dict[date, int] = field(default_factory=dict)

    @property
    def days_asked(self) -> int:
        """Days of history the list's analysis requests ask about, summed."""
        return sum((q.end - q.start).days + 1 for q in self.queries if q is not None)

    def write_for_child(self, path: Path) -> None:
        """Write the part the serving process is given.

        One pickle of the requests and feed location, then the history
        as one pickle per calendar month: the serving process loads
        month by month, so its peak memory is its own and not the
        size of its input file.
        """
        months: dict[tuple[int, int], dict[date, UpdateList]] = {}
        for day, updates in self.updates_by_day.items():
            months.setdefault((day.year, day.month), {})[day] = updates
        with open(path, "wb") as handle:
            pickle.dump(
                {"requests": self.requests, "feed_root": self.feed_root},
                handle,
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            for month in sorted(months):
                pickle.dump(months[month], handle, protocol=pickle.HIGHEST_PROTOCOL)


def query_body(query: AnalysisQuery) -> bytes:
    """The ``POST /analysis`` body of one query (stable key order)."""
    payload: dict[str, Any] = {
        "start": query.start.isoformat(),
        "end": query.end.isoformat(),
        "group_by": list(query.group_by),
        "metric": query.metric,
        "date_granularity": query.date_granularity.label,
    }
    for key in ("element_types", "countries", "road_types", "update_types"):
        values = getattr(query, key)
        if values is not None:
            payload[key] = list(values)
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def world() -> tuple[ZoneAtlas, CubeSchema]:
    atlas = build_world()
    return atlas, default_schema(atlas.zone_names(), road_types=_BASE["road_types"])


def _history(
    seed: int, schema: CubeSchema, start: date, end: date, rows_per_day: int
) -> dict[date, UpdateList]:
    rng = random.Random(seed)
    updates_by_day: dict[date, UpdateList] = {}
    day = start
    while day <= end:
        updates_by_day[day] = scaled_day_updates(day, rng, schema, rows_per_day)
        day += timedelta(days=1)
    return updates_by_day


def _cold_queries(mix: QueryWorkload, count: int, rng: random.Random) -> list[AnalysisQuery]:
    """``dashboard_mix(30)`` ∪ ``dashboard_mix(365)``, shuffled.

    Each half holds the mix's three shapes in exactly the mix's own
    40/30/30 shares: a list of a few hundred requests that left the
    shares to chance moved its median with the seed.
    """
    half = max(1, count // 2)
    queries: list[AnalysisQuery] = []
    for span, wanted in ((30, half), (365, max(1, count - half))):
        quota = [round(0.4 * wanted), round(0.3 * wanted)]
        quota.append(wanted - sum(quota))
        for query in mix.dashboard_mix(span, count=3 * wanted + 30, recent_bias=0.7):
            if quota[_shape(query)] > 0:
                quota[_shape(query)] -= 1
                queries.append(query)
    rng.shuffle(queries)
    return queries


def _shape(query: AnalysisQuery) -> int:
    """0 country analysis, 1 road-type analysis, 2 comparative time series."""
    if "date" in query.group_by:
        return 2
    return 0 if "country" in query.group_by else 1


def _hot_queries(mix: QueryWorkload, count: int, rng: random.Random) -> list[AnalysisQuery]:
    """``count`` draws, Zipf(1), from 32 popular recent queries.

    The 32 are the first 6 country, 5 road-type and 5 time-series
    queries of ``dashboard_mix(30)`` and of ``dashboard_mix(365)``
    (the mix's own 40/30/30 shares), ranked in a fixed interleaving of
    those six classes.  Which windows and zones are popular depends on
    the seed; how much of the Zipf mass each shape carries does not —
    left to chance, the share of the (largest) country answers swung
    between 17 % and 54 % from seed to seed, and the latency with it.
    """
    classes: list[list[AnalysisQuery]] = []
    for shape, take in ((0, 6), (1, 5), (2, 5)):
        for span in (30, 365):
            pool = dict.fromkeys(mix.dashboard_mix(span, count=96, recent_bias=1.0))
            classes.append([q for q in pool if _shape(q) == shape][:take])
    popular = [
        queries[position]
        for position in range(6)
        for queries in classes
        if position < len(queries)
    ]
    weights = [1.0 / (rank + 1) for rank in range(len(popular))]
    return rng.choices(popular, weights=weights, k=count)


def build_inputs(
    workload: Workload,
    seed: int,
    seconds: float,
    profile: SizeProfile,
    scratch: Path,
) -> Inputs:
    """Generate one run's inputs; ``scratch`` receives the OSM feed."""
    atlas, schema = world()
    start = profile.history_start
    if workload.last_year_only:
        start = max(start, date(profile.history_end.year, 1, 1))
    updates_by_day = _history(seed, schema, start, profile.history_end, profile.rows_per_day)
    mix = QueryWorkload(
        schema=schema, coverage_start=start, coverage_end=profile.history_end, seed=seed
    )
    rng = random.Random(seed * 7919 + 1)

    def length(of: Workload) -> int:
        return max(8, round(of.request_rate * seconds / (ROUNDS * PASSES)))

    if workload.name == "dash_cold":
        queries: list[AnalysisQuery | None] = list(_cold_queries(mix, length(workload), rng))
    elif workload.name == "scatter_procpool":
        once = _cold_queries(mix, length(WORKLOADS["dash_cold"]), rng)
        queries = list(once + once)
    else:
        queries = list(_hot_queries(mix, length(workload), rng))
    requests: list[Request] = [
        ("POST", "/analysis", query_body(q)) for q in queries if q is not None
    ]
    inputs = Inputs(workload.name, seed, updates_by_day, requests, queries)
    if workload.ingest_day_rate:
        # One request in ten becomes a sample-update query (Section IV-B).
        zones = [zone.name for zone in atlas.countries]
        for position in range(9, len(requests), 10):
            zone = rng.choice(zones)
            requests[position] = ("GET", f"/samples?zone={zone}&n=100", b"")
            queries[position] = None
        days = max(2, round(workload.ingest_day_rate * seconds))
        _publish_feed(inputs, profile, days, scratch)
    return inputs


def publish_through(feed_root: str | Path, days: int) -> None:
    """Make the first ``days`` diffs of a generated feed the published ones.

    What a publisher does after writing a diff: the top-level
    ``state.txt`` becomes (atomically) a copy of that diff's own state
    file.  With ``days=0`` nothing is published yet.
    """
    feed = Path(feed_root) / "replication" / "day"
    state = feed / "state.txt"
    if days == 0:
        state.unlink(missing_ok=True)
        return
    shutil.copyfile(feed / f"{sequence_path(days - 1)}.state.txt", feed / "state.txt.tmp")
    os.replace(feed / "state.txt.tmp", state)


def _publish_feed(inputs: Inputs, profile: SizeProfile, days: int, scratch: Path) -> None:
    """Simulate and publish ``days`` days of OSM edits into a feed directory.

    The simulator is the input generator, so it runs here, once per
    run, and not in the serving process: a set-up that re-simulated the
    feed would spend most of ``setup_s`` in the generator.
    """
    feed_root = scratch / "feed"
    generator = RasedSystem.create(
        root=feed_root,
        config=SystemConfig(
            road_types=_BASE["road_types"], simulation=SimulationConfig(seed=FEED_SEED)
        ),
    )
    day = profile.history_end + timedelta(days=1)
    for _ in range(days):
        generator.publish_day(day)
        inputs.truth_day_rows[day] = len(generator.truth_by_day[day])
        day += timedelta(days=1)
    inputs.feed_root = str(feed_root)
