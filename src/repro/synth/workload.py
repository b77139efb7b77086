"""Query workload generators for the experiments.

The paper's performance experiments (Section VIII) average each point
over 100 query executions; queries are parameterized by their temporal
window (1 month .. 16 years) and, unless stated otherwise, "each query
retrieves only one data cube cell to focus ... on the disk retrieval
time".  This module generates those workloads deterministically:

* :meth:`QueryWorkload.daily_series` — per-day time series over the
  most recent windows (the Fig. 7 cache-size load);
* :meth:`QueryWorkload.dashboard_mix` — realistic dashboard queries
  (the paper's example shapes: country analysis, road-type analysis,
  comparative time series) with recency-skewed windows, used by the
  cache experiments where hit rates matter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import date, timedelta

from repro.types.temporal import Level
from repro.types.dimensions import ELEMENT_TYPES, CubeSchema
from repro.core.query import AnalysisQuery
from repro.errors import ConfigError

__all__ = ["QueryWorkload"]


@dataclass(frozen=True)
class QueryWorkload:
    """Deterministic query generator over one indexed coverage span."""

    schema: CubeSchema
    coverage_start: date
    coverage_end: date
    seed: int = 17

    def __post_init__(self) -> None:
        if self.coverage_end < self.coverage_start:
            raise ConfigError("coverage end precedes start")

    def _rng(self, salt: int = 0) -> random.Random:
        return random.Random(self.seed * 1_000_003 + salt)

    def _window(
        self, rng: random.Random, span_days: int, recent_bias: float = 0.0
    ) -> tuple[date, date]:
        """A random in-coverage window of ``span_days``.

        ``recent_bias`` in [0, 1]: 0 = uniform start; 1 = strongly
        recency-skewed (dashboards ask about recent periods).
        """
        total = (self.coverage_end - self.coverage_start).days + 1
        span = min(span_days, total)
        slack = total - span
        if slack <= 0:
            offset = 0
        elif recent_bias <= 0:
            offset = rng.randint(0, slack)
        else:
            # Power-law pull toward the most recent possible offset.
            u = rng.random() ** (1.0 + 4.0 * recent_bias)
            offset = slack - int(u * slack)
        start = self.coverage_start + timedelta(days=offset)
        return start, start + timedelta(days=span - 1)

    # -- paper workloads -----------------------------------------------------

    def daily_series(
        self,
        span_days: int,
        count: int = 100,
        end_jitter_days: int = 15,
    ) -> list[AnalysisQuery]:
        """Daily time-series queries over recent windows (Fig. 7 load).

        A per-day series cannot be answered from weekly/monthly rollups
        — it needs every daily cube in its window — which is exactly
        the load whose response time saturates once the cache's daily
        allotment covers the span.  Windows end at (or a few days
        before) the newest covered day.
        """
        rng = self._rng(span_days * 7 + 3)
        queries: list[AnalysisQuery] = []
        total = (self.coverage_end - self.coverage_start).days + 1
        span = min(span_days, total)
        for _ in range(count):
            end = self.coverage_end - timedelta(
                days=rng.randint(0, min(end_jitter_days, total - span))
            )
            start = end - timedelta(days=span - 1)
            queries.append(
                AnalysisQuery(
                    start=start,
                    end=end,
                    element_types=(rng.choice(ELEMENT_TYPES),),
                    countries=(rng.choice(self.schema.country.values),),
                    group_by=("date",),
                    date_granularity=Level.DAY,
                )
            )
        return queries

    def dashboard_mix(
        self, span_days: int, count: int = 100, recent_bias: float = 0.7
    ) -> list[AnalysisQuery]:
        """Realistic mixed shapes after the paper's Examples 1-3."""
        rng = self._rng(span_days * 31 + 1)
        queries: list[AnalysisQuery] = []
        for _ in range(count):
            start, end = self._window(rng, span_days, recent_bias)
            shape = rng.random()
            if shape < 0.4:
                # Example 1: country analysis.
                queries.append(
                    AnalysisQuery(
                        start=start,
                        end=end,
                        update_types=("create", "geometry"),
                        group_by=("country", "element_type"),
                    )
                )
            elif shape < 0.7:
                # Example 2: road-type analysis for one country.
                queries.append(
                    AnalysisQuery(
                        start=start,
                        end=end,
                        countries=(rng.choice(self.schema.country.values),),
                        update_types=("create", "geometry"),
                        group_by=("road_type", "element_type"),
                    )
                )
            else:
                # Example 3: comparative time series.
                zones = rng.sample(list(self.schema.country.values), k=3)
                queries.append(
                    AnalysisQuery(
                        start=start,
                        end=end,
                        countries=tuple(zones),
                        group_by=("country", "date"),
                        date_granularity=Level.WEEK
                        if span_days > 120
                        else Level.DAY,
                    )
                )
        return queries
