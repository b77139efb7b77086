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
                "serve", "--root", "/tmp/x", "--workers", "2", "--durable",
                "--cache-slots", "32", "--result-cache-slots", "8",
                "--rate-limit", "5", "--slo-latency-ms", "100",
            ]
        )
        config, worker = _serve_configs(args)
        assert config == SystemConfig.serving(
            simulation=config.simulation,
            cache_slots=32,
            result_cache_slots=8,
            durable_ingest=True,
            admission=AdmissionConfig(rate_limit=5.0),
            slo=dataclasses.replace(config.slo, latency_threshold_ms=100.0),
        )
        assert config.admission.any_enabled() and config.tracing
        differing = {
            field.name
            for field in dataclasses.fields(SystemConfig)
            if getattr(worker, field.name) != getattr(config, field.name)
        }
        assert differing == {"tracing", "durable_ingest", "admission"}
        assert not (worker.tracing or worker.durable_ingest)
        assert not worker.admission.any_enabled()
        with pytest.raises(SystemExit):  # the flag is gone
            build_parser().parse_args(
                ["serve", "--root", "/tmp/x", "--scatter-threads", "16"]
            )


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

        assert main(["query", "--root", str(root), "--sql", sql]) == 0
        after = capsys.readouterr().out
        assert "metadata" in after


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
