#!/usr/bin/env python3
"""Quickstart: stand up a RASED deployment and ask it questions.

This drives the complete pipeline from the paper's Fig. 1:

1. a synthetic OSM world is created (306 zones, per-country road
   networks) and two months of edits are simulated, published as real
   osmChange diffs + changeset files by a :class:`FeedPublisher`;
2. the daily crawler of a separate deployment ingests them into the
   hierarchical cube index and the sample-update warehouse, and keeps
   the road-network sizes the feed publishes as dated records;
3. the dashboard answers analysis queries in milliseconds, as counts
   or as percentages of a country's road network.

Run:  python examples/quickstart.py
"""

import tempfile
from datetime import date

from repro import AnalysisQuery, RasedSystem, SystemConfig
from repro.synth.publisher import FeedPublisher
from repro.synth.simulator import SimulationConfig


def main() -> None:
    start, end = date(2021, 1, 1), date(2021, 2, 28)
    with tempfile.TemporaryDirectory(prefix="rased-quickstart-") as feeds:
        print(f"Simulating and publishing {start} .. {end} (synthetic world)...")
        publisher = FeedPublisher(
            feeds,
            config=SimulationConfig(
                seed=42, mapper_count=40, base_sessions_per_day=10, nodes_per_country=8
            ),
        )
        publisher.publish_days(start, end)

        print("Ingesting the feed into a RASED deployment (in-memory pages)...")
        system = RasedSystem.create(root=feeds, config=SystemConfig(road_types=12, cache_slots=32))
        report = system.pipeline.run_daily()
        print(
            f"  {report.days_processed} days, {report.updates_indexed:,} updates, "
            f"{len(report.cubes_written)} cubes written, "
            f"{report.warehouse_rows:,} warehouse rows, "
            f"road-network sizes recorded as of {', '.join(map(str, report.sizes_recorded))}"
        )
        system.warm_cache()

        # --- analysis query: who edited the most? ---------------------------
        query = AnalysisQuery(
            start=start,
            end=end,
            group_by=("country", "element_type"),
            update_types=("create", "geometry"),
        )
        print()
        print("Query (the paper's SQL form):")
        print(system.dashboard.sql_of(query))
        result = system.dashboard.analysis(query)
        print()
        print(f"Answered from {result.stats.cube_count} cubes "
              f"({result.stats.cache_hits} cached, {result.stats.disk_reads} disk) "
              f"in {result.stats.simulated_ms:.2f} ms (modeled)")
        print()
        print("Top rows:")
        for key, value in result.sorted_rows()[:8]:
            print(f"  {key[0]:<16} {key[1]:<9} {value:>8,}")

        # --- the same question as a share of each road network -------------
        share = system.dashboard.analysis(
            AnalysisQuery(start=start, end=end, countries=("germany",), metric="percentage")
        )
        print()
        print(
            f"Germany's updates as a percentage of its road network "
            f"(sizes as of {share.sizes_as_of}): {share.rows[()]:.1f}%"
        )

        # --- sample-update query --------------------------------------------
        print()
        samples = system.dashboard.sample_updates("germany", n=5)
        print(f"Sample updates in germany ({len(samples)} shown):")
        for record in samples:
            print(
                f"  {record.date} {record.element_type:<8} {record.road_type:<12} "
                f"{record.update_type:<9} @({record.latitude:.3f},{record.longitude:.3f}) "
                f"changeset={record.changeset_id}"
            )

        # --- drill into one changeset (the third-party hook) -----------------
        if samples:
            changeset_id = samples[0].changeset_id
            rows = system.dashboard.changeset_updates(changeset_id)
            print()
            print(f"Changeset {changeset_id} touched {len(rows)} elements.")


if __name__ == "__main__":
    main()
