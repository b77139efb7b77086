#!/usr/bin/env python3
"""Live monitoring: intra-day statistics from hourly diffs (extension).

The deployed RASED refreshes daily; OSM also publishes hourly diffs.
This example runs a deployment where yesterday is fully ingested but
*today* exists only as hourly diffs — and shows the dashboard serving
up-to-the-hour numbers by overlaying the live monitor's in-memory cube
on the persisted index. It also shows the contributor analytics built
from changeset metadata.

Run:  python examples/live_monitoring.py
"""

import tempfile
from datetime import date

from repro import AnalysisQuery, RasedSystem, SystemConfig
from repro.storage.disk import InMemoryDisk
from repro.synth.publisher import FeedPublisher
from repro.synth.simulator import SimulationConfig


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="rased-live-") as feeds:
        publisher = FeedPublisher(
            feeds,
            config=SimulationConfig(
                seed=99, mapper_count=30, base_sessions_per_day=10, nodes_per_country=8
            ),
        )
        system = RasedSystem.create(
            root=feeds,
            store=InMemoryDisk(read_latency=0.005, write_latency=0.006),
            config=SystemConfig(road_types=12, cache_slots=16),
        )
        print("Publishing and ingesting a complete week (daily + hourly feeds)...")
        publisher.publish_days(date(2021, 8, 1), date(2021, 8, 7), hourly=True)
        report = system.pipeline.run_daily()
        print(f"  ingested {report.updates_indexed:,} updates over {report.days_processed} days")

        print("Publishing 'today' (Aug 8) as hourly diffs only, through 14:59...")
        published = publisher.publish_partial_day(date(2021, 8, 8), through_hour=14)
        print(f"  {published} updates visible only to the live monitor")
        hours = system.poll_live()
        print(f"  live monitor consumed {hours} hourly diffs; "
              f"live days: {system.live_monitor.partial_days()}")

        query = AnalysisQuery(
            start=date(2021, 8, 1),
            end=date(2021, 8, 8),
            group_by=("element_type",),
        )
        stale = system.dashboard.analysis(query)
        live = system.dashboard.analysis_live(query)
        print()
        print(f"Window {query.start}..{query.end}, grouped by element type:")
        print(f"  persisted index only: {int(stale.total):>7,} updates")
        print(f"  with live overlay:    {int(live.total):>7,} updates "
              f"(+{int(live.total - stale.total):,} from today's hourly diffs)")
        print()
        for key, value in live.sorted_rows():
            print(f"  {key[0]:<10} {int(value):>7,}")

        print()
        print("Top contributors (from changeset metadata):")
        for contributor in system.dashboard.top_contributors(5):
            print(
                f"  {contributor.user:<22} {contributor.session_count:>4} sessions  "
                f"{contributor.change_count:>7,} changes  "
                f"{contributor.bulk_session_count:>3} bulk"
            )


if __name__ == "__main__":
    main()
