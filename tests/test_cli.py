"""Tests for the command-line interface (simulate → ingest → query)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def deployment_root(tmp_path_factory):
    """A small simulated + ingested deployment on disk."""
    root = tmp_path_factory.mktemp("cli-deploy")
    assert (
        main(
            [
                "simulate",
                "--root",
                str(root),
                "--start",
                "2021-01-01",
                "--end",
                "2021-01-14",
                "--seed",
                "5",
            ]
        )
        == 0
    )
    assert main(["ingest", "--root", str(root)]) == 0
    return root


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_present(self):
        parser = build_parser()
        for command in (
            "simulate",
            "ingest",
            "info",
            "query",
            "samples",
            "stats",
            "serve",
        ):
            args = parser.parse_args(
                [command, "--root", "/tmp/x"]
                + (["--start", "2021-01-01", "--end", "2021-01-02"] if command == "simulate" else [])
                + (["--sql", "x"] if command == "query" else [])
                + (["--zone", "germany"] if command == "samples" else [])
            )
            assert args.command == command


class TestServeConfig:
    def test_worker_config_derives_from_the_front_door(self):
        """Pool workers run the front door's engine: same profile and
        flags, minus what belongs to the serving process alone.  The shard count is not a
        flag: both read it back from the root when they open it."""
        import dataclasses

        from repro.cli import _serve_configs
        from repro.dashboard.admission import AdmissionConfig
        from repro.system import SystemConfig

        args = build_parser().parse_args(
            [
                "serve", "--root", "/tmp/x", "--workers", "2",
                "--cache-slots", "32", "--result-cache-slots", "8",
                "--rate-limit", "5", "--slo-latency-ms", "100",
            ]
        )
        config, worker = _serve_configs(args)
        assert config == SystemConfig.serving(
            cache_slots=32,
            result_cache_slots=8,
            admission=AdmissionConfig(rate_limit=5.0),
            slo=dataclasses.replace(config.slo, latency_threshold_ms=100.0),
        )
        assert config.admission.any_enabled() and config.tracing
        differing = {
            field.name
            for field in dataclasses.fields(SystemConfig)
            if getattr(worker, field.name) != getattr(config, field.name)
        }
        assert differing == {"tracing", "admission"}
        assert not worker.tracing
        assert not worker.admission.any_enabled()
        for gone in (
            ["serve", "--root", "/tmp/x", "--scatter-threads", "16"],
            ["serve", "--root", "/tmp/x", "--durable"],
            ["ingest", "--root", "/tmp/x", "--durable"],
        ):
            with pytest.raises(SystemExit):  # the flag is gone
                build_parser().parse_args(gone)


class TestCommands:
    def test_ingest_writes_sparse_v3_pages(self, deployment_root):
        from repro.storage.serializer import page_version

        days = list((deployment_root / "pages" / "cubes").glob("D*.page"))
        assert len(days) == 14
        assert {page_version(page.read_bytes()) for page in days} == {3}

    def test_simulate_publishes_feeds(self, deployment_root):
        state = deployment_root / "feeds" / "replication" / "day" / "state.txt"
        assert state.exists()
        assert "sequenceNumber=13" in state.read_text()

    def test_ingest_is_incremental(self, deployment_root, capsys):
        assert main(["ingest", "--root", str(deployment_root)]) == 0
        out = capsys.readouterr().out
        assert "ingested 0 days" in out

    def test_info_reports_coverage(self, deployment_root, capsys):
        assert main(["info", "--root", str(deployment_root)]) == 0
        out = capsys.readouterr().out
        assert "2021-01-01 .. 2021-01-14" in out
        assert "day" in out
        assert "warehouse" in out
        # The first day ingested recorded its sizes; no month end since.
        assert "sizes:     as of 2021-01-01 (1 record(s))" in out

    def test_info_on_a_root_without_sizes(self, tmp_path, capsys):
        assert main(["info", "--root", str(tmp_path / "empty")]) == 0
        out = capsys.readouterr().out
        assert "coverage:  (empty)" in out
        assert "sizes:     none (percentages unavailable)" in out

    def test_query_table(self, deployment_root, capsys):
        sql = (
            "SELECT U.ElementType, COUNT(*) FROM UpdateList U "
            "WHERE U.Date BETWEEN 2021-01-01 AND 2021-01-14 "
            "GROUP BY U.ElementType"
        )
        assert main(["query", "--root", str(deployment_root), "--sql", sql]) == 0
        out = capsys.readouterr().out
        assert "element_type" in out
        assert "way" in out
        assert "ms modeled" in out

    def test_query_bar_chart(self, deployment_root, capsys):
        sql = (
            "SELECT U.Country, COUNT(*) FROM UpdateList U "
            "WHERE U.Date BETWEEN 2021-01-01 AND 2021-01-14 "
            "GROUP BY U.Country"
        )
        assert (
            main(
                ["query", "--root", str(deployment_root), "--sql", sql, "--chart", "bar"]
            )
            == 0
        )
        assert "#" in capsys.readouterr().out

    def test_query_with_after_uses_coverage_end(self, deployment_root, capsys):
        sql = (
            "SELECT COUNT(*) FROM UpdateList U WHERE U.Date AFTER 2021-01-10"
        )
        assert main(["query", "--root", str(deployment_root), "--sql", sql]) == 0
        assert "value" in capsys.readouterr().out

    def test_query_bad_sql_is_error_exit(self, deployment_root, capsys):
        assert (
            main(["query", "--root", str(deployment_root), "--sql", "DROP TABLE"]) == 2
        )
        assert "error:" in capsys.readouterr().err

    def test_samples(self, deployment_root, capsys):
        assert (
            main(["samples", "--root", str(deployment_root), "--zone", "germany", "-n", "3"])
            == 0
        )
        captured = capsys.readouterr()
        lines = [line for line in captured.out.splitlines() if line.strip()]
        assert len(lines) <= 3
        for line in lines:
            assert line.split("\t")[2] == "germany"

    def test_samples_unknown_zone_is_error(self, deployment_root, capsys):
        assert (
            main(["samples", "--root", str(deployment_root), "--zone", "atlantis"]) == 2
        )
        assert "error:" in capsys.readouterr().err

    def test_query_trace_prints_phase_breakdown(self, deployment_root, capsys):
        sql = (
            "SELECT U.ElementType, COUNT(*) FROM UpdateList U "
            "WHERE U.Date BETWEEN 2021-01-01 AND 2021-01-14 "
            "GROUP BY U.ElementType"
        )
        assert (
            main(["query", "--root", str(deployment_root), "--sql", sql, "--trace"])
            == 0
        )
        out = capsys.readouterr().out
        assert "trace:" in out
        assert "phase1.plan" in out
        assert "phase2.aggregate" in out


class TestStatsCommand:
    SQL = (
        "SELECT U.Country, COUNT(*) FROM UpdateList U "
        "WHERE U.Date BETWEEN 2021-01-01 AND 2021-01-14 "
        "GROUP BY U.Country"
    )

    def test_table_lists_core_series(self, deployment_root, capsys):
        assert (
            main(["stats", "--root", str(deployment_root), "--sql", self.SQL]) == 0
        )
        out = capsys.readouterr().out
        assert "trace:" in out
        assert "rased_queries_total" in out
        assert "rased_disk_reads_total" in out
        assert "rased_query_wall_seconds" in out

    def test_prometheus_format(self, deployment_root, capsys):
        assert (
            main(
                [
                    "stats",
                    "--root", str(deployment_root),
                    "--sql", self.SQL,
                    "--format", "prometheus",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "# TYPE rased_queries_total counter" in out
        assert "# TYPE rased_query_wall_seconds summary" in out
        assert 'rased_query_wall_seconds{quantile="0.5"}' in out

    def test_json_format(self, deployment_root, capsys):
        import json

        assert (
            main(
                [
                    "stats",
                    "--root", str(deployment_root),
                    "--format", "json",
                ]
            )
            == 0
        )
        snapshot = json.loads(capsys.readouterr().out)
        assert "counters" in snapshot and "histograms" in snapshot
        # Even without --sql, warming the cache touches the disk.
        assert "rased_disk_reads_total" in snapshot["counters"]


class TestRebuildCommand:
    def test_simulate_ingest_rebuild_cycle(self, tmp_path, capsys):
        root = tmp_path / "deploy"
        history = tmp_path / "history.osm"
        assert (
            main(
                [
                    "simulate",
                    "--root", str(root),
                    "--start", "2021-02-01",
                    "--end", "2021-02-28",
                    "--seed", "9",
                    "--history-out", str(history),
                ]
            )
            == 0
        )
        assert history.exists()
        assert not (root / "pages").exists()  # simulate opens only the publisher
        assert main(["ingest", "--root", str(root)]) == 0
        capsys.readouterr()

        # Before the rebuild, update types are coarse (no metadata).
        sql = (
            "SELECT U.UpdateType, COUNT(*) FROM UpdateList U "
            "WHERE U.Date BETWEEN 2021-02-01 AND 2021-02-28 "
            "GROUP BY U.UpdateType"
        )
        assert main(["query", "--root", str(root), "--sql", sql]) == 0
        before = capsys.readouterr().out
        assert "metadata" not in before

        assert (
            main(
                [
                    "rebuild",
                    "--root", str(root),
                    "--history", str(history),
                    "--month", "2021-02",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "rebuilt M2021-02" in out
        assert "recorded road-network sizes as of 2021-02-28" in out

        assert main(["query", "--root", str(root), "--sql", sql]) == 0
        after = capsys.readouterr().out
        assert "metadata" in after


    @pytest.mark.parametrize(
        "month",
        ["jan", "2021", "2021-13", "2021-00", "2021-1", "0000-01", "2021-03..2021-01", "2021-01..2021-02..2021-03"],
    )
    def test_a_malformed_month_exits_2_and_creates_nothing(self, tmp_path, capsys, month):
        root = tmp_path / "deploy"
        argv = ["rebuild", "--root", str(root), "--history", str(tmp_path / "h.osm"), "--month", month]
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert "argument --month" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_a_month_range_rebuilds_the_ingested_days_from_one_dump(self, tmp_path, capsys):
        root = tmp_path / "deploy"
        history = tmp_path / "history.osm"
        simulate = [
            "simulate", "--root", str(root), "--seed", "9", "--history-out", str(history),
            "--start", "2021-01-29", "--end", "2021-02-03",
        ]
        assert main(simulate) == 0
        assert main(["ingest", "--root", str(root)]) == 0
        capsys.readouterr()
        rebuild = ["rebuild", "--root", str(root), "--history", str(history), "--month", "2020-12..2021-03"]
        assert main(rebuild) == 0
        out = capsys.readouterr().out
        assert "rebuilt M2020-12..M2021-03: " in out
        assert "across 6 days" in out
        # The dump ends on 3 Feb: it vouches for no size after that day.
        assert "recorded road-network sizes as of 2021-02-03" in out
        sql = (
            "SELECT U.UpdateType, COUNT(*) FROM UpdateList U "
            "WHERE U.Date BETWEEN 2021-01-29 AND 2021-02-03 GROUP BY U.UpdateType"
        )
        assert main(["query", "--root", str(root), "--sql", sql]) == 0
        assert "metadata" in capsys.readouterr().out
        assert main(["info", "--root", str(root)]) == 0
        assert "coverage:  2021-01-29 .. 2021-02-03" in capsys.readouterr().out


class TestIngestRecovery:
    def test_ingest_reports_and_counts_the_rollback_of_a_crashed_root(
        self, tmp_path, monkeypatch, capsys
    ):
        """The opener that repairs a crashed root is the one whose
        ``ingest`` prints the repair and counts it."""
        from repro import cli
        from tests.support import CrashPoint

        root = tmp_path / "deploy"
        simulate = [
            "simulate", "--root", str(root), "--seed", "5",
            "--start", "2021-01-01", "--end", "2021-01-03",
        ]
        assert main(simulate) == 0
        crashed = cli._open_system(str(root))
        append = crashed.store.append

        def dying(page_id: str, data: bytes, at: int) -> None:
            if page_id.startswith("warehouse/heap/"):
                raise CrashPoint("warehouse.write", page_id)
            append(page_id, data, at)

        crashed.store.append = dying
        with pytest.raises(CrashPoint):
            crashed.pipeline.run_daily()
        assert (root / "pages" / "wal" / "intent.page").exists()
        capsys.readouterr()

        opened = []
        real_open = cli._open_system

        def open_system(*args, **kwargs):
            opened.append(real_open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(cli, "_open_system", open_system)
        assert main(["ingest", "--root", str(root)]) == 0
        out = capsys.readouterr().out
        assert "recovered: rolled back incomplete batch" in out
        assert "'day': '2021-01-01'" in out
        assert "ingested 3 days" in out
        metrics = opened[0].metrics
        assert metrics.value("rased_ingest_batches_rolled_back_total") == 1
        assert not (root / "pages" / "wal" / "intent.page").exists()

    def test_a_root_with_the_older_96_byte_heap_is_refused(self, tmp_path, capsys):
        """A heap written before rows stored value codes is never misread:
        every command exits 2 naming the old layout and the fix."""
        import struct
        from datetime import date

        heap = tmp_path / "deploy" / "pages" / "warehouse" / "heap"
        heap.mkdir(parents=True)
        row = struct.pack(
            "<BBxxi d d Q 32s 32s", 0, 2, date(2021, 1, 5).toordinal(), 52.5, 13.4, 1000,
            b"germany", b"residential",
        )
        (heap / "00000000.page").write_bytes(row * 3)
        assert main(["info", "--root", str(tmp_path / "deploy")]) == 2
        err = capsys.readouterr().err
        assert "older 96-byte row layout" in err and "re-ingest" in err


class TestShardedRoot:
    """The shard count is a property of the root: ``ingest --shards``
    lays a new root out, every later command reads the count back."""

    @staticmethod
    def _cube_pages(directory):
        return sorted(p.name for p in (directory / "cubes").glob("*.page"))

    def test_every_command_sees_a_sharded_root(self, tmp_path, capsys):
        root = tmp_path / "deploy"
        history = tmp_path / "history.osm"
        simulate = [
            "simulate", "--root", str(root), "--seed", "9",
            "--start", "2021-02-01", "--end", "2021-02-28",
            "--history-out", str(history),
        ]
        assert main(simulate) == 0
        assert main(["ingest", "--root", str(root), "--shards", "2"]) == 0
        assert "ingested 28 days" in capsys.readouterr().out
        shard_pages = [
            self._cube_pages(root / f"pages-shard{i}") for i in range(2)
        ]
        assert all(shard_pages) and sum(map(len, shard_pages)) == 28 + 4 + 1
        assert self._cube_pages(root / "pages") == []

        assert main(["info", "--root", str(root)]) == 0
        out = capsys.readouterr().out
        assert "2021-02-01 .. 2021-02-28" in out and "(empty)" not in out

        sql = (
            "SELECT U.UpdateType, COUNT(*) FROM UpdateList U "
            "WHERE U.Date BETWEEN 2021-02-01 AND 2021-02-28 "
            "GROUP BY U.UpdateType"
        )
        assert main(["query", "--root", str(root), "--sql", sql]) == 0
        before = capsys.readouterr().out
        assert "create" in before and "metadata" not in before

        # A later ingest without the flag stays on the root's layout...
        assert main(["ingest", "--root", str(root)]) == 0
        assert "ingested 0 days" in capsys.readouterr().out
        # ...and one that contradicts it is refused, not obeyed.
        assert main(["ingest", "--root", str(root), "--shards", "3"]) == 2
        assert "laid out as 2 shard store(s)" in capsys.readouterr().err
        assert not (root / "pages-shard2").exists()

        rebuild = [
            "rebuild", "--root", str(root),
            "--history", str(history), "--month", "2021-02",
        ]
        assert main(rebuild) == 0
        assert "rebuilt M2021-02" in capsys.readouterr().out
        assert self._cube_pages(root / "pages") == []
        assert main(["query", "--root", str(root), "--sql", sql]) == 0
        assert "metadata" in capsys.readouterr().out

    def test_layout_detection_and_mismatch(self, tmp_path):
        from repro.core.shard import detect_shard_count
        from repro.errors import ConfigError
        from repro.storage.disk import DirectoryDisk, InMemoryDisk
        from repro.system import RasedSystem, SystemConfig

        assert detect_shard_count(InMemoryDisk()) is None
        store = DirectoryDisk(tmp_path / "pages")
        assert detect_shard_count(store) is None  # nothing written yet
        store.write("meta/cursor", b"x")
        assert detect_shard_count(store) is None  # still no cube
        store.write("cubes/D2021-01-01", b"x")
        assert detect_shard_count(store) == 1
        with pytest.raises(ConfigError, match="laid out as 1 shard store"):
            RasedSystem.create(
                root=tmp_path / "feeds",
                store=store,
                config=SystemConfig.serving(shards=2),
            )
        assert not (tmp_path / "pages-shard0").exists()
