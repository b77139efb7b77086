"""``Percentage(*)`` divides by the root's dated road-network size records.

Every entry point reads the same records: the in-process path that
publishes and ingests, and a root made by ``simulate`` then ``ingest``
and opened afresh (the serving path).  A percentage divides by the
newest record dated at or before its window's end.
"""

from __future__ import annotations

import json
from datetime import date
from random import Random

import pytest

from repro import cli
from repro.core.query import AnalysisQuery
from repro.dashboard.server import run_analysis_request
from repro.osm.snapshot import SIZES_PREFIX, sizes_page_id
from repro.storage.disk import InMemoryDisk
from repro.synth.scale import scaled_day_updates
from repro.synth.publisher import FeedPublisher
from repro.system import RasedSystem, SimulationConfig, SystemConfig
from tests.support import CrashPoint, FaultPlan, FaultyPageStore

JAN_1, JAN_31, FEB_28 = date(2021, 1, 1), date(2021, 1, 31), date(2021, 2, 28)


def _germany(start: date, end: date, metric: str = "percentage") -> AnalysisQuery:
    return AnalysisQuery(start=start, end=end, countries=("germany",), metric=metric)


@pytest.fixture(scope="module")
def cli_root(tmp_path_factory):
    """``simulate --seed 42`` then ``ingest`` over 1 Jan - 28 Feb 2021."""
    root = str(tmp_path_factory.mktemp("cli") / "deploy")
    assert cli.main(["simulate", "--root", root, "--start", "2021-01-01", "--end", "2021-02-28"]) == 0
    assert cli.main(["ingest", "--root", root]) == 0
    return root


@pytest.fixture(scope="module")
def in_process():
    """The same days published and ingested by one process."""
    system = RasedSystem.create(
        config=SystemConfig.serving(simulation=SimulationConfig(seed=42))
    )
    system.simulate_and_ingest(JAN_1, FEB_28)
    yield system
    system.close()


class TestTwoPaths:
    def test_both_paths_divide_by_the_same_record(self, cli_root, in_process):
        served = cli._open_system(cli_root)
        for system in (served, in_process):
            count = system.dashboard.analysis(_germany(JAN_1, FEB_28, "count"))
            assert count.rows == {(): 1098} and not count.stats.partial
            result = system.dashboard.analysis(_germany(JAN_1, FEB_28))
            assert result.rows == {(): pytest.approx(100.0 * 1098 / 198)}
            assert round(result.rows[()], 1) == 554.5
            assert result.sizes_as_of == FEB_28
        records = [JAN_1, JAN_31, FEB_28]
        assert served.network_sizes.dates == in_process.network_sizes.dates == records

    def test_a_window_divides_by_the_record_at_its_end(self, cli_root):
        system = cli._open_system(cli_root)
        windows = {JAN_31: JAN_31, FEB_28: FEB_28, date(2021, 2, 27): JAN_31, date(2021, 1, 20): JAN_1}
        for end, as_of in windows.items():
            count = system.dashboard.analysis(_germany(JAN_1, end, "count")).rows[()]
            result = system.dashboard.analysis(_germany(JAN_1, end))
            size = system.network_sizes.as_of(end).size("germany")
            assert result.sizes_as_of == as_of
            assert result.rows[()] == pytest.approx(100.0 * count / size)
        assert system.network_sizes.as_of(JAN_31).size("germany") == 129
        assert system.network_sizes.as_of(FEB_28).size("germany") == 198

    def test_a_count_answer_carries_no_sizes(self, cli_root):
        system = cli._open_system(cli_root)
        body = b'{"start": "2021-01-01", "end": "2021-02-28", "metric": "%s"}'
        status, counted = run_analysis_request(system.dashboard, "analysis", body % b"count")
        assert status == 200 and "sizes_as_of" not in json.loads(counted)
        status, shared = run_analysis_request(system.dashboard, "analysis", body % b"percentage")
        assert status == 200 and json.loads(shared)["sizes_as_of"] == "2021-02-28"


def _bulk_system(**config) -> RasedSystem:
    system = RasedSystem.create(store=InMemoryDisk(0, 0), config=SystemConfig(road_types=8, **config))
    system.index.bulk_load(
        {
            date(2021, 1, d): scaled_day_updates(date(2021, 1, d), Random(d), system.schema, 30)
            for d in range(1, 11)
        }
    )
    return system


class TestNoRecord:
    def test_a_root_without_sizes_answers_400(self):
        system = _bulk_system()
        assert system.network_sizes.dates == []
        body = b'{"start": "2021-01-01", "end": "2021-01-10", "metric": "%s"}'
        status, answer = run_analysis_request(system.dashboard, "analysis", body % b"percentage")
        assert status == 400
        assert "no road-network sizes recorded" in json.loads(answer)["error"]
        status, _ = run_analysis_request(system.dashboard, "analysis", body % b"count")
        assert status == 200

    def test_a_window_ending_before_the_first_record_answers_400(self, cli_root):
        system = cli._open_system(cli_root)
        status, answer = run_analysis_request(
            system.dashboard,
            "analysis",
            b'{"start": "2020-12-01", "end": "2020-12-31", "metric": "percentage"}',
        )
        assert status == 400 and "2020-12-31" in json.loads(answer)["error"]


SMALL = SimulationConfig(seed=21, mapper_count=20, base_sessions_per_day=5, nodes_per_country=8)


class TestMemo:
    def test_a_new_record_recomputes_only_the_percentages_it_covers(self, atlas):
        system = RasedSystem.create(
            atlas=atlas,
            store=InMemoryDisk(0, 0),
            config=SystemConfig(road_types=8, result_cache_slots=32, simulation=SMALL),
        )
        dec_1, dec_31 = date(2020, 12, 1), date(2020, 12, 31)
        system.publisher.publish_days(dec_1, date(2021, 1, 30))
        system.pipeline.run_daily()
        assert system.network_sizes.dates == [dec_1, dec_31]
        # Windows clear of what the 31 Jan batch rewrites (that day, its
        # week and January's rollup), so only its record can touch them.
        dec, feb = (dec_1, date(2020, 12, 20)), (date(2021, 2, 1), date(2021, 2, 5))
        queries = {
            "early %": _germany(*dec),
            "late %": _germany(*feb),
            "early count": _germany(*dec, "count"),
            "late count": _germany(*feb, "count"),
        }
        before = {name: system.dashboard.analysis(q) for name, q in queries.items()}
        assert before["late %"].sizes_as_of == dec_31

        system.publisher.publish_day(JAN_31)
        assert system.pipeline.run_daily().sizes_recorded == [JAN_31]
        after = {name: system.dashboard.analysis(q) for name, q in queries.items()}
        kept = {name for name, result in after.items() if result.stats.memo_hit}
        assert kept == {"early %", "early count", "late count"}
        assert after["early %"].sizes_as_of == dec_1
        assert after["late %"].sizes_as_of == JAN_31
        system.close()


class TestCrash:
    def test_a_rolled_back_month_end_leaves_no_record(self, atlas, tmp_path):
        jan_29 = date(2021, 1, 29)
        FeedPublisher(tmp_path, atlas, SMALL).publish_days(jan_29, JAN_31)
        disk = InMemoryDisk(0, 0)
        # Killed right after the month end's record lands, inside its batch.
        plan = FaultPlan.single(
            "store.write", kind="crash", page_prefix=sizes_page_id(JAN_31), when="after"
        )
        faulty = FaultyPageStore(disk, plan)
        config = SystemConfig(road_types=8)
        system = RasedSystem.create(root=tmp_path, atlas=atlas, store=faulty, config=config)
        with pytest.raises(CrashPoint):
            system.pipeline.run_daily()
        assert plan.fired and sizes_page_id(JAN_31) in disk
        assert system.network_sizes.dates == [jan_29]  # only a commit hands a record over

        def stored() -> list[date]:
            return [date.fromisoformat(p.rpartition("/")[2]) for p in sorted(disk.list_pages(SIZES_PREFIX))]

        faulty.plan = None
        system.pipeline.recover()  # rolls the batch back, then _resync
        assert stored() == system.network_sizes.dates == [jan_29]
        assert system.pipeline.run_daily().sizes_recorded == [JAN_31]
        assert stored() == system.network_sizes.dates == [jan_29, JAN_31]
        reopened = RasedSystem.create(root=tmp_path, atlas=atlas, store=disk, config=config)
        assert reopened.network_sizes.dates == [jan_29, JAN_31]
