"""Road-network stability analysis on top of the query engine.

The paper's motivation is that RASED "gives an idea about road network
stability anywhere in the world" and provides "the necessary
infrastructure immensely needed by map analyzers to understand and
assess the map quality" (Section I).  The dashboard ships the raw
counts; this module computes the derived stability measures an analyst
would build from them:

* **churn rate** — updates per road segment per day, the normalized
  editing intensity (comparable across differently sized networks);
* **geometry share** — the fraction of updates that change geometry
  (vs. metadata): geometry-heavy churn means the map *shape* is still
  settling;
* **stability score** — ``1 / (1 + churn)`` in (0, 1]: 1.0 is a
  perfectly quiet network;
* **trend** — the least-squares slope of the weekly update series,
  i.e. is editing accelerating or calming;
* **anomalous days** — days whose update count is a z-score outlier
  against the zone's own history (mass imports, vandalism bursts,
  mapping parties).

Everything is computed through ordinary analysis queries, so it runs
in milliseconds against the cube index like any dashboard view.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date

import numpy as np

from repro.types.temporal import Level
from repro.core.executor import QueryExecutor
from repro.core.percentages import NetworkSizeRegistry
from repro.core.query import AnalysisQuery
from repro.errors import QueryError

__all__ = ["StabilityMetrics", "StabilityAnalyzer", "AnomalousDay"]


@dataclass(frozen=True)
class StabilityMetrics:
    """Derived stability measures for one zone over one window."""

    zone: str
    start: date
    end: date
    total_updates: int
    network_size: int
    daily_mean: float
    daily_std: float
    churn_rate: float
    geometry_share: float
    trend_slope: float

    @property
    def stability_score(self) -> float:
        """1.0 = fully stable; approaches 0 under heavy churn."""
        return 1.0 / (1.0 + self.churn_rate)

    @property
    def days(self) -> int:
        return (self.end - self.start).days + 1


@dataclass(frozen=True)
class AnomalousDay:
    """One day whose activity is an outlier for its zone."""

    zone: str
    day: date
    count: int
    z_score: float


class StabilityAnalyzer:
    """Computes stability measures through the query executor."""

    def __init__(
        self, executor: QueryExecutor, network_sizes: NetworkSizeRegistry
    ) -> None:
        self.executor = executor
        self.network_sizes = network_sizes

    # -- per-zone metrics ---------------------------------------------------

    def zone_metrics(self, zone: str, start: date, end: date) -> StabilityMetrics:
        """All stability measures for one zone."""
        series = self._daily_series(zone, start, end)
        counts = np.array(list(series.values()), dtype=float)
        total = int(counts.sum())
        network_size = max(1, self.network_sizes.size(zone))
        days = len(counts)
        daily_mean = float(counts.mean()) if days else 0.0
        daily_std = float(counts.std()) if days else 0.0
        churn = daily_mean / network_size

        by_type = self.executor.execute(
            AnalysisQuery(
                start=start,
                end=end,
                countries=(zone,),
                group_by=("update_type",),
            )
        ).rows
        geometry = by_type.get(("geometry",), 0) + by_type.get(("create",), 0)
        classified = sum(by_type.values())
        geometry_share = geometry / classified if classified else 0.0

        return StabilityMetrics(
            zone=zone,
            start=start,
            end=end,
            total_updates=total,
            network_size=network_size,
            daily_mean=daily_mean,
            daily_std=daily_std,
            churn_rate=churn,
            geometry_share=geometry_share,
            trend_slope=self._trend(start, end, zone),
        )

    def _daily_series(self, zone: str, start: date, end: date) -> dict[date, int]:
        result = self.executor.execute(
            AnalysisQuery(
                start=start,
                end=end,
                countries=(zone,),
                group_by=("date",),
                date_granularity=Level.DAY,
            )
        )
        series = {key[0]: int(value) for key, value in result.rows.items()}
        # The executor keeps zero days only for scalar series; make the
        # series dense so statistics see quiet days.
        from datetime import timedelta

        day = start
        while day <= end:
            series.setdefault(day, 0)
            day += timedelta(days=1)
        return dict(sorted(series.items()))

    def _trend(self, start: date, end: date, zone: str) -> float:
        """Least-squares slope of the weekly series (updates/week^2)."""
        result = self.executor.execute(
            AnalysisQuery(
                start=start,
                end=end,
                countries=(zone,),
                group_by=("date",),
                date_granularity=Level.WEEK,
            )
        )
        if len(result.rows) < 3:
            return 0.0
        points = sorted((key[0], value) for key, value in result.rows.items())
        y = np.array([value for _, value in points], dtype=float)
        x = np.arange(len(y), dtype=float)
        slope, _ = np.polyfit(x, y, 1)
        return float(slope)

    # -- rankings -------------------------------------------------------------

    def rank_zones(
        self,
        zones: list[str],
        start: date,
        end: date,
        most_stable_first: bool = True,
    ) -> list[StabilityMetrics]:
        """Zones ordered by stability score."""
        if not zones:
            raise QueryError("rank_zones needs at least one zone")
        metrics = [self.zone_metrics(zone, start, end) for zone in zones]
        return sorted(
            metrics,
            key=lambda m: m.stability_score,
            reverse=most_stable_first,
        )

    # -- anomaly detection -------------------------------------------------------

    def detect_anomalies(
        self,
        zone: str,
        start: date,
        end: date,
        z_threshold: float = 3.0,
        min_count: int = 5,
    ) -> list[AnomalousDay]:
        """Days whose activity is a z-score outlier for this zone.

        ``min_count`` suppresses flagging tiny absolute spikes in very
        quiet zones.  The mean/std are computed *excluding* each
        candidate day (leave-one-out) so a single massive import does
        not mask itself by inflating the baseline.
        """
        series = self._daily_series(zone, start, end)
        counts = np.array(list(series.values()), dtype=float)
        if len(counts) < 7:
            raise QueryError("anomaly detection needs at least a week of data")
        anomalies: list[AnomalousDay] = []
        total = counts.sum()
        total_sq = (counts**2).sum()
        n = len(counts)
        for index, (day, count) in enumerate(series.items()):
            rest_mean = (total - count) / (n - 1)
            rest_var = max(
                0.0, (total_sq - count**2) / (n - 1) - rest_mean**2
            )
            rest_std = rest_var**0.5
            if rest_std == 0:
                # A constant baseline (often all-zero): any day above
                # it by min_count is an unambiguous anomaly — this is
                # the strongest possible signal, not a skip case.
                if count >= rest_mean + min_count:
                    anomalies.append(
                        AnomalousDay(
                            zone=zone,
                            day=day,
                            count=int(count),
                            z_score=float("inf"),
                        )
                    )
                continue
            z = (count - rest_mean) / rest_std
            if z >= z_threshold and count >= min_count:
                anomalies.append(
                    AnomalousDay(zone=zone, day=day, count=int(count), z_score=float(z))
                )
        return anomalies

    # -- report -----------------------------------------------------------------

    def render_report(
        self, zones: list[str], start: date, end: date, anomaly_z: float = 3.0
    ) -> str:
        """A text stability report for a set of zones."""
        lines = [
            f"Road-network stability report  {start} .. {end}",
            "=" * 64,
        ]
        for metrics in self.rank_zones(zones, start, end):
            lines.append(
                f"{metrics.zone:<18} score={metrics.stability_score:.3f}  "
                f"churn={metrics.churn_rate * 100:.2f}%/day  "
                f"geometry={metrics.geometry_share * 100:.0f}%  "
                f"trend={metrics.trend_slope:+.1f}/wk  "
                f"updates={metrics.total_updates:,}"
            )
            try:
                anomalies = self.detect_anomalies(
                    metrics.zone, start, end, z_threshold=anomaly_z
                )
            except QueryError:
                anomalies = []
            for anomaly in anomalies:
                lines.append(
                    f"    !! {anomaly.day}: {anomaly.count:,} updates "
                    f"(z={anomaly.z_score:.1f})"
                )
        return "\n".join(lines)
