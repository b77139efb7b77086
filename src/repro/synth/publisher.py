"""The synthetic OSM source: what a deployment crawls, published to disk.

A :class:`FeedPublisher` owns one :class:`EditSimulator` and writes what
planet.openstreetmap.org would: each simulated day's diff into the day
replication feed (and, split by hour, into the hour feed the live
monitor tails), its changesets, and on request the full-history dump.
Beside each daily diff it writes the day's road-network sizes, which
the daily ingest copies into the root's size records; a real OSM feed
has no such file.  The serving system never imports this package.
"""

from __future__ import annotations

import tempfile
from datetime import date, datetime, time, timedelta, timezone
from pathlib import Path

from repro.collection.pipeline import IngestionPipeline, IngestReport
from repro.collection.records import UpdateList
from repro.geo.zones import ZoneAtlas
from repro.osm.changesets import ChangesetStore
from repro.osm.replication import ReplicationFeed
from repro.osm.snapshot import encode_sizes
from repro.osm.xml_io import OsmChange
from repro.synth.simulator import DayOutput, EditSimulator
from repro.types.simulation import SimulationConfig
from repro.types.temporal import month_key

__all__ = ["FeedPublisher", "split_change_by_hour"]


def split_change_by_hour(change: OsmChange) -> list[tuple[int, OsmChange]]:
    """One day's osmChange as per-hour documents, empty hours omitted
    (OSM publishes empty diffs; skipping them keeps the feed compact)."""
    by_hour: dict[int, OsmChange] = {}
    for action, element in change.actions():
        getattr(by_hour.setdefault(element.timestamp.hour, OsmChange()), action).append(element)
    return sorted(by_hour.items())


class FeedPublisher:
    """Simulates days and publishes their feeds under ``feed_root``."""

    def __init__(
        self,
        feed_root: str | Path,
        atlas: ZoneAtlas | None = None,
        config: SimulationConfig | None = None,
        changesets: ChangesetStore | None = None,
    ) -> None:
        root = Path(feed_root)
        self.simulator = EditSimulator(atlas=atlas, config=config)
        self.day_feed = ReplicationFeed(root / "replication", "day")
        self.hour_feed = ReplicationFeed(root / "replication", "hour")
        #: A crawler in the same process may pass its own store: it then
        #: joins against the published changesets themselves, not their
        #: XML re-read (whose parsed floats can differ in the last bit).
        self.changesets = changesets or ChangesetStore(root / "changesets")
        #: The simulator's ground-truth UpdateList per published day, so
        #: tests (and EXPERIMENTS.md) can check a crawler's output
        #: against what actually happened.
        self.truth_by_day: dict[date, UpdateList] = {}

    def _simulate(self, day: date) -> DayOutput:
        """Simulate ``day``: its changesets are published, its truth kept."""
        output = self.simulator.simulate_day(day)
        for changeset in output.changesets:
            self.changesets.add(changeset)
        self.changesets.flush()
        self.truth_by_day[day] = output.truth
        return output

    def publish_day(self, day: date, hourly: bool = False) -> int:
        """Simulate one day and publish its diff, its changesets and its
        road-network sizes; returns the diff's sequence number.

        With ``hourly=True`` the day's edits are also split by hour and
        published to the hour feed (OSM publishes minute/hour/day
        diffs in parallel; we model hour + day).
        """
        output = self._simulate(day)
        if hourly:
            self._publish_hours(day, output, through_hour=23)
        stamp = datetime.combine(day, time(23, 59), tzinfo=timezone.utc)
        sizes = encode_sizes(self.simulator.road_network_sizes())
        return self.day_feed.publish(output.change, stamp, sizes=sizes)

    def publish_days(self, first: date, last: date, hourly: bool = False) -> list[date]:
        """:meth:`publish_day` for every day from ``first`` to ``last``
        inclusive; returns the days published."""
        days = [first + timedelta(days=n) for n in range((last - first).days + 1)]
        for day in days:
            self.publish_day(day, hourly)
        return days

    def publish_and_ingest(
        self,
        pipeline: IngestionPipeline,
        first: date,
        last: date,
        monthly_rebuild: bool = False,
    ) -> IngestReport:
        """Publish ``first``..``last`` and run ``pipeline``'s daily cycle
        over it.  With ``monthly_rebuild``, every calendar month the
        days complete is then rebuilt from a full-history dump, all in
        one ``run_monthly`` (the dump is read once)."""
        days = self.publish_days(first, last)
        report = pipeline.run_daily()
        months = [month_key(d.year, d.month) for d in days if d == month_key(d.year, d.month).end]
        if monthly_rebuild and months:
            with tempfile.TemporaryDirectory(prefix="rased-history-") as scratch:
                history = Path(scratch) / "history.osm"
                self.write_history_dump(history)
                monthly = pipeline.run_monthly(history, months)
            report.cubes_written.extend(monthly.cubes_written)
            report.sizes_recorded.extend(monthly.sizes_recorded)
        return report

    def publish_partial_day(self, day: date, through_hour: int) -> int:
        """Simulate ``day`` but publish only its hourly diffs up to an hour.

        Models "today": the daily diff does not exist yet, so only the
        live monitor can see these updates.  Returns updates published.
        """
        return self._publish_hours(day, self._simulate(day), through_hour)

    def _publish_hours(self, day: date, output: DayOutput, through_hour: int) -> int:
        published = 0
        for hour, change in split_change_by_hour(output.change):
            if hour <= through_hour:
                stamp = datetime.combine(day, time(hour, 59), tzinfo=timezone.utc)
                self.hour_feed.publish(change, stamp)
                published += len(change)
        return published

    def write_history_dump(self, target: str | Path) -> int:
        """Write the full-history file (all versions so far); returns count."""
        return self.simulator.write_history_dump(target)
