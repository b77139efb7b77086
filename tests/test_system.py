"""End-to-end integration tests for the assembled RASED deployment."""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from collections import Counter
from datetime import date, timedelta
from pathlib import Path

import pytest

from repro import cli
from repro.types.temporal import month_key
from repro.core.query import AnalysisQuery
from repro.storage.disk import DirectoryDisk, InMemoryDisk
from repro.synth.publisher import FeedPublisher
from repro.synth.simulator import SimulationConfig
from repro.system import RasedSystem, SystemConfig
from tests.conftest import INGESTED_END, INGESTED_START


def fast_config(**sim_overrides):
    sim = dict(seed=21, mapper_count=20, base_sessions_per_day=5, nodes_per_country=8)
    sim.update(sim_overrides)
    return SystemConfig(
        road_types=8, cache_slots=12, simulation=SimulationConfig(**sim)
    )


class TestIngestedSystem:
    def test_daily_cubes_cover_span(self, ingested_system):
        coverage = ingested_system.index.coverage()
        assert coverage == (INGESTED_START, INGESTED_END)

    def test_rollups_materialized(self, ingested_system):
        assert ingested_system.index.has(month_key(2021, 1))
        assert ingested_system.index.has(month_key(2021, 2))

    def test_index_totals_match_truth(self, ingested_system):
        query = AnalysisQuery(start=INGESTED_START, end=INGESTED_END)
        total = ingested_system.dashboard.analysis(query).rows[()]
        truth_total = sum(
            len(rows) for rows in ingested_system.truth_by_day.values()
        )
        assert total == truth_total

    def test_warehouse_row_count_matches_truth(self, ingested_system):
        truth_total = sum(
            len(rows) for rows in ingested_system.truth_by_day.values()
        )
        assert ingested_system.warehouse.row_count == truth_total

    def test_pipeline_rerun_is_idempotent(self, ingested_system):
        """crawl_new() after everything is ingested does nothing."""
        report = ingested_system.pipeline.run_daily()
        assert report.days_processed == 0
        assert report.updates_indexed == 0


class TestMonthlyRebuildIntegration:
    def test_rebuilt_cubes_are_full_resolution(self, rebuilt_system):
        cube = rebuilt_system.index.get(month_key(2021, 1))
        assert cube.resolution == "full"

    def test_rebuild_preserves_totals(self, rebuilt_system):
        """Reclassification changes update types, never counts."""
        query = AnalysisQuery(start=INGESTED_START, end=INGESTED_END)
        total = rebuilt_system.dashboard.analysis(query).rows[()]
        truth_total = sum(
            len(rows) for rows in rebuilt_system.truth_by_day.values()
        )
        assert total == truth_total

    def test_rebuilt_types_match_truth(self, rebuilt_system):
        from collections import Counter

        query = AnalysisQuery(
            start=INGESTED_START, end=INGESTED_END, group_by=("update_type",)
        )
        rows = rebuilt_system.dashboard.analysis(query).rows
        truth = Counter(
            record.update_type
            for rows_ in rebuilt_system.truth_by_day.values()
            for record in rows_
        )
        assert {k[0]: v for k, v in rows.items()} == dict(truth)


def _partly_ingested(atlas, tmp_path):
    """The conftest deployment at seed 17 with 1-14 Jan 2021 ingested, and
    its full-history dump."""
    system = RasedSystem.create(
        atlas=atlas,
        store=InMemoryDisk(read_latency=0, write_latency=0),
        config=SystemConfig(
            road_types=8,
            cache_slots=16,
            simulation=SimulationConfig(
                seed=17, mapper_count=25, base_sessions_per_day=6, nodes_per_country=8
            ),
        ),
    )
    system.simulate_and_ingest(date(2021, 1, 1), date(2021, 1, 14))
    history = tmp_path / "history.osm"
    system.publisher.write_history_dump(history)
    return system, history


class TestPartialMonthRebuild:
    def test_a_rebuild_never_invents_a_day(self, atlas, tmp_path):
        system, history = _partly_ingested(atlas, tmp_path)
        late = AnalysisQuery(start=date(2021, 1, 15), end=date(2021, 1, 31))
        early = AnalysisQuery(start=date(2021, 1, 1), end=date(2021, 1, 14), group_by=("update_type",))
        assert system.dashboard.analysis(late).stats.missing_days == 17
        report = system.pipeline.run_monthly(history, [month_key(2021, 1)])
        assert system.index.coverage() == (date(2021, 1, 1), date(2021, 1, 14))
        result = system.dashboard.analysis(late)
        assert result.stats.missing_days == 17
        assert result.rows == {}
        assert report.days_processed == 14
        # The ingested half is rebuilt, with its two weeks; the month and
        # its other weeks stay unwritten, as the daily path leaves them.
        assert [str(key) for key in report.cubes_written[14:]] == ["W2021-01.0", "W2021-01.1"]
        assert not system.index.has(month_key(2021, 1))
        answered = system.dashboard.analysis(early)
        assert answered.stats.missing_days == 0
        truth = [r for day, rows in system.truth_by_day.items() if day.day <= 14 for r in rows]
        assert {k[0]: v for k, v in answered.rows.items() if v} == dict(
            Counter(r.update_type for r in truth)
        )

    def test_twelve_months_rebuild_from_one_parse(self, atlas, tmp_path, monkeypatch):
        from repro.osm import xml_io

        system, history = _partly_ingested(atlas, tmp_path)
        parses, batches = [], []
        stream, begin = xml_io._stream, system.wal.begin
        monkeypatch.setattr(xml_io, "_stream", lambda *a, **k: parses.append(a) or stream(*a, **k))
        monkeypatch.setattr(system.wal, "begin", lambda meta: batches.append(meta) or begin(meta))
        months = [month_key(2021, m) for m in range(1, 13)]
        report = system.pipeline.run_monthly(history, months)
        assert len(parses) == 1
        assert batches == [{"kind": "monthly", "month": str(month)} for month in months]
        assert report.days_processed == 14
        assert system.index.coverage() == (date(2021, 1, 1), date(2021, 1, 14))


class TestPersistence:
    def test_directory_backed_system_survives_restart(self, atlas, tmp_path):
        disk = DirectoryDisk(tmp_path / "pages", read_latency=0, write_latency=0)
        system = RasedSystem.create(
            root=tmp_path / "feeds",
            atlas=atlas,
            store=disk,
            config=fast_config(),
        )
        system.simulate_and_ingest(date(2021, 1, 1), date(2021, 1, 14))
        query = AnalysisQuery(
            start=date(2021, 1, 1), end=date(2021, 1, 14), group_by=("element_type",)
        )
        before = system.dashboard.analysis(query).rows

        # "Restart": a fresh system over the same page directory.
        disk2 = DirectoryDisk(tmp_path / "pages", read_latency=0, write_latency=0)
        reopened = RasedSystem.create(
            root=tmp_path / "feeds",
            atlas=atlas,
            store=disk2,
            config=fast_config(),
        )
        assert reopened.dashboard.analysis(query).rows == before
        # Warehouse-backed sample queries also survive.
        samples = reopened.dashboard.sample_updates("germany", n=3)
        assert isinstance(samples, list)

    def test_incremental_catchup_after_restart(self, atlas, tmp_path):
        disk = DirectoryDisk(tmp_path / "pages", read_latency=0, write_latency=0)
        system = RasedSystem.create(
            root=tmp_path / "feeds", atlas=atlas, store=disk, config=fast_config()
        )
        system.simulate_and_ingest(date(2021, 1, 1), date(2021, 1, 7))

        # New diffs arrive while the dashboard is down.
        for offset in range(7, 10):
            system.publish_day(date(2021, 1, 1 + offset))

        reopened = RasedSystem.create(
            root=tmp_path / "feeds",
            atlas=atlas,
            store=DirectoryDisk(tmp_path / "pages", read_latency=0, write_latency=0),
            config=fast_config(),
        )
        report = reopened.pipeline.run_daily()
        assert report.days_processed == 3
        assert reopened.index.coverage() == (date(2021, 1, 1), date(2021, 1, 10))


class TestCacheFreshness:
    def test_maintenance_refreshes_cached_cubes(self, atlas):
        system = RasedSystem.create(
            atlas=atlas,
            store=InMemoryDisk(read_latency=0, write_latency=0),
            config=fast_config(seed=33),
        )
        system.simulate_and_ingest(date(2021, 1, 1), date(2021, 1, 31))
        system.warm_cache()
        january = AnalysisQuery(start=date(2021, 1, 1), end=date(2021, 1, 31))
        before = system.dashboard.analysis(january).rows[()]

        # A monthly rebuild rewrites cubes the cache holds; answers must
        # reflect the rebuilt (identical-total) cubes, not stale ones.
        system.simulate_and_ingest(
            date(2021, 2, 1), date(2021, 2, 1), monthly_rebuild=False
        )
        import tempfile
        from pathlib import Path

        history = Path(tempfile.mkstemp(suffix=".osm")[1])
        try:
            system.publisher.write_history_dump(history)
            system.pipeline.run_monthly(history, [month_key(2021, 1)])
        finally:
            history.unlink()
        after = system.dashboard.analysis(january).rows[()]
        assert after == before

    def test_warm_cache_reports_resident_count(self, ingested_system):
        loaded = ingested_system.warm_cache()
        assert loaded == ingested_system.cache.cached_count > 0


PARITY_QUERIES = [
    AnalysisQuery(start=date(2021, 1, 1), end=date(2021, 2, 14)),
    AnalysisQuery(
        start=date(2021, 1, 1),
        end=date(2021, 2, 14),
        group_by=("country", "update_type"),
    ),
    AnalysisQuery(
        start=date(2021, 1, 5),
        end=date(2021, 2, 9),
        group_by=("date",),
    ),
    AnalysisQuery(
        start=date(2021, 1, 1),
        end=date(2021, 1, 31),
        countries=("germany",),
        group_by=("element_type", "road_type"),
    ),
]


class TestColumnarKernelParity:
    """The paper profile and the serving profile run one cube engine;
    the serving profile adds only the result memo, which must never
    change an answer — asked cold or answered from the memo."""

    @pytest.fixture(scope="class")
    def system_pair(self, atlas):
        def build(serving=False):
            sim = SimulationConfig(
                seed=27, mapper_count=20, base_sessions_per_day=5, nodes_per_country=8
            )
            settings = {"road_types": 8, "cache_slots": 12, "simulation": sim}
            system = RasedSystem.create(
                atlas=atlas,
                store=InMemoryDisk(read_latency=0, write_latency=0),
                config=(SystemConfig.serving if serving else SystemConfig)(**settings),
            )
            system.simulate_and_ingest(date(2021, 1, 1), date(2021, 2, 14))
            system.warm_cache()
            return system

        default = build()
        columnar = build(serving=True)
        assert columnar.result_cache is not None and default.result_cache is None
        yield default, columnar
        default.close()
        columnar.close()

    @pytest.mark.parametrize("query", PARITY_QUERIES)
    def test_answers_identical(self, system_pair, query):
        default, columnar = system_pair
        expected = default.dashboard.analysis(query).rows
        cold = columnar.dashboard.analysis(query)
        memoized = columnar.dashboard.analysis(query)
        assert memoized.stats.memo_hit and not cold.stats.memo_hit
        assert cold.rows == memoized.rows == expected

    def test_sparse_store_is_smaller(self, system_pair):
        """Both profiles write the same v3 pages, together far smaller
        than the raw pages the paper stores (one per cube)."""
        from repro.storage.serializer import cube_page_size

        default, columnar = system_pair
        assert columnar.store.stored_bytes == default.store.stored_bytes
        raw = default.index.total_pages() * cube_page_size(default.schema)
        assert default.store.stored_bytes < raw / 3


class TestProfiles:
    def test_serving_profile_is_what_the_benchmark_measures(self, monkeypatch):
        """``benchmarks/e2e/workloads.py`` spells its deployment
        configuration literally (``_BASE``); ``serving()`` must be that
        literal, or the ledger describes a system nobody can start."""
        import importlib.util
        import sys
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "benchmarks/e2e/workloads.py"
        spec = importlib.util.spec_from_file_location("e2e_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses
        spec.loader.exec_module(workloads)
        serving = SystemConfig.serving()
        assert workloads._BASE
        for name, value in workloads._BASE.items():
            assert getattr(serving, name) == value, name
        assert serving.result_cache_slots == 256

    def test_paper_profile_defaults_are_pinned(self):
        """The bare config reproduces the paper figures: the serving
        engine minus memo and admission (thirteen fields, five of them
        shims that accept only what the frozen harness spells)."""
        from dataclasses import asdict

        from repro.dashboard.admission import AdmissionConfig
        from repro.obs import SLOConfig

        assert asdict(SystemConfig()) == dict(
            road_types=12,
            cache_slots=64,
            page_version=3,
            sparse_cubes=True,
            simulation=None,
            shards=1,
            scatter_threads=None,
            fetch_parallelism=4,
            result_cache_slots=0,
            durable_ingest=True,
            admission=asdict(AdmissionConfig()),
            tracing=True,
            slo=asdict(SLOConfig()),
        )

    def test_serving_overrides(self):
        config = SystemConfig.serving(shards=4, result_cache_slots=0)
        assert (config.shards, config.result_cache_slots) == (4, 0)
        assert config.sparse_cubes and config.page_version == 3


class TestCubeFormShim:
    """``page_version``/``sparse_cubes``/``durable_ingest`` are fields
    only because the frozen benchmark harness spells them: one value
    each is accepted."""

    @pytest.mark.parametrize(
        "fields",
        [
            dict(page_version=1),
            dict(sparse_cubes=False),
            dict(page_version=2),
            dict(durable_ingest=False),
        ],
        ids=["v1", "dense", "v2", "journal-less"],
    )
    def test_other_cube_forms_raise(self, fields):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="not settable"):
            SystemConfig(**fields)
        with pytest.raises(ConfigError):
            SystemConfig.serving(**fields)

    @pytest.mark.parametrize(
        "fields",
        [dict(fetch_parallelism=1), dict(fetch_parallelism=8), dict(scatter_threads=16)],
        ids=["fetch1", "fetch8", "scatter16"],
    )
    def test_pool_widths_accept_only_the_harness_values(self, fields):
        """``fetch_parallelism``/``scatter_threads`` size no pool any
        more: the values the harness spells (4, and None or 4) open,
        anything else raises."""
        from repro.errors import ConfigError

        SystemConfig(fetch_parallelism=4, scatter_threads=4)
        with pytest.raises(ConfigError, match="not settable"):
            SystemConfig(**fields)

    def test_bare_config_writes_only_v3_day_pages(self, atlas):
        from repro.storage.serializer import page_version

        system = RasedSystem.create(
            atlas=atlas,
            store=InMemoryDisk(read_latency=0, write_latency=0),
            config=SystemConfig(),
        )
        system.simulate_and_ingest(date(2021, 1, 1), date(2021, 1, 10))
        day_pages = list(system.store.list_pages("cubes/D"))
        assert len(day_pages) == 10
        assert {page_version(system.store.read(page)) for page in day_pages} == {3}


class TestMixedFormatRoot:
    """A root an older build filled with raw v1 pages keeps serving
    when reopened, and simply grows v3 pages."""

    SIM = SimulationConfig(
        seed=27, mapper_count=20, base_sessions_per_day=5, nodes_per_country=8
    )

    @pytest.fixture(scope="class")
    def root_pair(self, atlas, tmp_path_factory):
        """(all-raw system, mixed system, mixed root): Jan 1-20 is
        ingested with every cube page written by the serializer's raw
        (v1) writer, then the same root is reopened for Jan 21 - Feb 10
        — still raw for the all-raw root, v3 under the serving profile
        for the mixed one."""
        from datetime import timedelta

        import repro.core.hierarchy as hierarchy
        from repro.storage.serializer import serialize_raw

        def two_stage(root, second_config, raw_second_stage):
            def open_with(config):
                return RasedSystem.create(
                    root=root / "feeds",
                    atlas=atlas,
                    store=DirectoryDisk(
                        root / "pages", read_latency=0, write_latency=0
                    ),
                    config=config,
                )

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(hierarchy, "serialize_cube", serialize_raw)
                first = open_with(SystemConfig(road_types=8, simulation=self.SIM))
                first.simulate_and_ingest(date(2021, 1, 1), date(2021, 1, 20))
            day = date(2021, 1, 21)
            while day <= date(2021, 2, 10):
                first.publish_day(day)
                day += timedelta(days=1)
            second = open_with(second_config)
            with pytest.MonkeyPatch.context() as patch:
                if raw_second_stage:
                    patch.setattr(hierarchy, "serialize_cube", serialize_raw)
                assert second.pipeline.run_daily().days_processed == 21
            second.warm_cache()
            return second

        base = tmp_path_factory.mktemp("mixed-format")
        dense = two_stage(
            base / "dense", SystemConfig(road_types=8, simulation=self.SIM), True
        )
        mixed = two_stage(
            base / "mixed",
            SystemConfig.serving(road_types=8, simulation=self.SIM),
            False,
        )
        return dense, mixed, base

    @pytest.mark.parametrize("query", PARITY_QUERIES)
    def test_answers_match_the_all_dense_root(self, root_pair, query):
        dense, mixed, _ = root_pair
        assert (
            mixed.dashboard.analysis(query).rows
            == dense.dashboard.analysis(query).rows
        )

    def test_both_page_versions_on_disk(self, root_pair):
        from repro.storage.serializer import page_version

        _, _, base = root_pair

        def versions(name):
            day_pages = (base / name / "pages" / "cubes").glob("D*.page")
            return {page_version(page.read_bytes()) for page in day_pages}

        assert versions("mixed") == {1, 3}
        assert versions("dense") == {1}


class TestIngestReports:
    def test_report_aggregates_across_days(self, atlas):
        system = RasedSystem.create(
            atlas=atlas,
            store=InMemoryDisk(read_latency=0, write_latency=0),
            config=fast_config(seed=44),
        )
        report = system.simulate_and_ingest(date(2021, 3, 1), date(2021, 3, 7))
        assert report.days_processed == 7
        assert report.updates_indexed > 0
        assert report.warehouse_rows == report.updates_indexed
        assert len(report.cubes_written) >= 8  # 7 dailies + 1 weekly


class TestServingWithoutSimulator:
    def test_a_served_root_answers_percentages_without_repro_synth(self, atlas, tmp_path):
        """Open a prepared root the way ``serve`` does, with the whole
        ``repro.synth`` package made unimportable (a ``None`` entry in
        ``sys.modules``), and answer a percentage from its records."""
        publisher = FeedPublisher(
            tmp_path / "feeds",
            atlas,
            SimulationConfig(seed=21, mapper_count=20, base_sessions_per_day=8),
        )
        for day in range(1, 6):
            publisher.publish_day(date(2021, 1, day))
        opened = cli._open_system(str(tmp_path))
        assert opened.pipeline.run_daily().sizes_recorded == [date(2021, 1, 1)]
        query = AnalysisQuery(
            start=date(2021, 1, 1), end=date(2021, 1, 5), countries=("japan",), metric="percentage"
        )
        expected = opened.dashboard.analysis(query)
        assert expected.sizes_as_of == date(2021, 1, 1) and expected.rows[()] > 0
        script = (
            "import sys\n"
            "sys.modules['repro.synth'] = None\n"
            "from datetime import date\n"
            "from repro import cli\n"
            "from repro.core.query import AnalysisQuery\n"
            f"system = cli._open_system({str(tmp_path)!r}, cli.SystemConfig.serving())\n"
            "system.warm_cache()\n"
            "query = AnalysisQuery(start=date(2021, 1, 1), end=date(2021, 1, 5),"
            " countries=('japan',), metric='percentage')\n"
            "result = system.dashboard.analysis(query)\n"
            "print(result.sizes_as_of, round(result.rows[()], 6))\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.synth')))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            f"2021-01-01 {round(expected.rows[()], 6)}",
            "['repro.synth']",
        ]


def _feed_dirs() -> set[Path]:
    return set(Path(tempfile.gettempdir()).glob("rased-*"))


class TestOwnedFeedRoot:
    """A bare ``create()`` owns the feed directory it makes; ``close()``
    removes that and nothing else."""

    def test_a_create_close_pair_leaves_no_directory(self, atlas):
        before = _feed_dirs()
        system = RasedSystem.create(atlas=atlas, store=InMemoryDisk(0, 0))
        (made,) = _feed_dirs() - before
        system.publish_day(date(2021, 1, 4))  # the feed lands in it
        assert any(made.rglob("*.osc*"))
        system.close()
        assert not made.exists()
        assert before <= _feed_dirs()  # nobody else's directory went
        system.close()  # idempotent

    def test_a_given_root_is_the_callers(self, atlas, tmp_path):
        before = _feed_dirs()
        system = RasedSystem.create(root=tmp_path / "feeds", atlas=atlas, store=InMemoryDisk(0, 0))
        system.publish_day(date(2021, 1, 4))
        system.close()
        assert any((tmp_path / "feeds").rglob("*.osc*"))
        assert _feed_dirs() == before

    def test_the_shared_fixtures_directories_are_checked_at_the_end(
        self, bare_creates, ingested_system, rebuilt_system
    ):
        """They close at the session's end, which ``bare_creates`` then
        checks for every directory a bare create made this session."""
        for system in (ingested_system, rebuilt_system):
            assert system._owned_root in bare_creates.roots
            assert system._owned_root.exists()
