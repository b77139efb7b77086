"""Simulator and workload helpers the tests share.

Neither is a path the package serves: the CLI and the system simulate
one day at a time, and the benchmarks draw their queries from
:meth:`~repro.synth.workload.QueryWorkload.dashboard_mix` and
:meth:`~repro.synth.workload.QueryWorkload.daily_series`.
"""

from __future__ import annotations

from datetime import date, timedelta
from typing import Iterator

from repro.core.query import AnalysisQuery
from repro.errors import SimulationError
from repro.synth.simulator import DayOutput, EditSimulator
from repro.synth.workload import QueryWorkload
from repro.types.dimensions import ELEMENT_TYPES, UPDATE_TYPES


def simulate_range(sim: EditSimulator, start: date, end: date) -> Iterator[DayOutput]:
    """Yield one :class:`DayOutput` per day from start to end inclusive."""
    if end < start:
        raise SimulationError(f"end {end} precedes start {start}")
    day = start
    while day <= end:
        yield sim.simulate_day(day)
        day += timedelta(days=1)


def single_cell(
    workload: QueryWorkload, span_days: int, count: int = 100, recent_bias: float = 0.7
) -> list[AnalysisQuery]:
    """The paper's Section VIII default: one-cube-cell queries (one
    element type, country, road type and update type) over random
    windows of ``span_days``."""
    rng = workload._rng(span_days)
    queries: list[AnalysisQuery] = []
    for _ in range(count):
        start, end = workload._window(rng, span_days, recent_bias)
        queries.append(
            AnalysisQuery(
                start=start,
                end=end,
                element_types=(rng.choice(ELEMENT_TYPES),),
                countries=(rng.choice(workload.schema.country.values),),
                road_types=(rng.choice(workload.schema.road_type.values),),
                update_types=(rng.choice(UPDATE_TYPES),),
            )
        )
    return queries
