"""The fault-injection harness's own contract.

A deterministic harness is only as good as its determinism: these
tests pin the injection-point classification, the per-spec trigger
arithmetic, the seed-replayability of every random draw, and — most
importantly for the benchmarks — that an absent plan is a strict
no-op passthrough.
"""

from __future__ import annotations

import pytest

from repro.errors import StorageError
from repro.storage.disk import InMemoryDisk
from tests.support import (
    CrashPoint,
    FaultPlan,
    FaultSpec,
    FaultyPageStore,
    FaultyReplicationFeed,
    InjectedFault,
    classify_page_op,
)


def _disk() -> InMemoryDisk:
    return InMemoryDisk(read_latency=0, write_latency=0)


class TestClassification:
    @pytest.mark.parametrize(
        ("op", "page_id", "expected"),
        [
            ("write", "wal/intent", "wal.append"),
            ("delete", "wal/intent", "checkpoint"),  # commit point
            ("write", "wal/checkpoint", "checkpoint"),
            ("write", "wal/undo/00000001/000000", "wal.undo"),
            ("write", "warehouse/heap/00000042", "warehouse.write"),
            ("write", "warehouse/hash/0007", "warehouse.index"),
            ("write", "warehouse/grid/12/34", "warehouse.index"),
            ("write", "warehouse/hash/seg/00000003", "warehouse.index"),
            ("delete", "warehouse/hash/seg/00000003", "warehouse.index"),
            ("write", "warehouse/grid/seg/00000000", "warehouse.index"),
            ("delete", "warehouse/grid/seg/00000000", "warehouse.index"),
            ("write", "cubes/D2021-01-01", "index.put"),
            ("write", "cubes/W2021-W03", "rollup"),
            ("write", "cubes/M2021-01", "rollup"),
            ("write", "cubes/Y2021", "rollup"),
            ("write", "meta/daily_cursor", "cursor"),
        ],
    )
    def test_named_points_from_page_ids(self, op, page_id, expected):
        points = classify_page_op(op, page_id)
        assert expected in points
        assert f"store.{op}" in points

    def test_reads_only_classify_as_store_read(self):
        assert classify_page_op("read", "cubes/D2021-01-01") == ("store.read",)

    @pytest.mark.parametrize(
        ("page_id", "expected"),
        [
            ("warehouse/heap/00000042", "warehouse.write"),
            ("warehouse/hash/00007", "warehouse.index"),
            ("warehouse/grid/003_004", "warehouse.index"),
        ],
    )
    def test_an_append_is_its_family_point_and_a_store_write(self, page_id, expected):
        assert classify_page_op("append", page_id) == (expected, "store.write")


class TestSpecValidation:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="injection point"):
            FaultSpec(point="nonsense")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="fault kind"):
            FaultSpec(point="rollup", kind="explode")

    def test_unknown_when_rejected(self):
        with pytest.raises(ValueError, match="before"):
            FaultSpec(point="rollup", when="during")


class TestTriggerArithmetic:
    def test_after_skips_matches(self):
        plan = FaultPlan.single("store.write", kind="error", after=2)
        store = FaultyPageStore(_disk(), plan)
        store.write("a", b"1")
        store.write("b", b"2")
        with pytest.raises(InjectedFault):
            store.write("c", b"3")

    def test_count_bounds_firings(self):
        plan = FaultPlan(specs=[FaultSpec(point="store.write", kind="error", count=2)])
        store = FaultyPageStore(_disk(), plan)
        for _ in range(2):
            with pytest.raises(InjectedFault):
                store.write("a", b"1")
        store.write("a", b"1")  # spec exhausted
        assert len(plan.fired) == 2

    def test_page_prefix_narrows_the_target(self):
        plan = FaultPlan(
            specs=[
                FaultSpec(
                    point="store.write", kind="error", page_prefix="warehouse/"
                )
            ]
        )
        store = FaultyPageStore(_disk(), plan)
        store.write("cubes/D2021-01-01", b"fine")
        with pytest.raises(InjectedFault):
            store.write("warehouse/heap/00000000", b"boom")


class TestDeterminism:
    def test_same_seed_same_draws(self):
        a, b = FaultPlan(seed=42), FaultPlan(seed=42)
        assert [a.torn_length(100) for _ in range(5)] == [
            b.torn_length(100) for _ in range(5)
        ]
        assert a.corrupt_bytes(b"payload") == b.corrupt_bytes(b"payload")

    def test_different_seed_diverges(self):
        draws_a = [FaultPlan(seed=1).torn_length(10_000) for _ in range(3)]
        draws_b = [FaultPlan(seed=2).torn_length(10_000) for _ in range(3)]
        assert draws_a != draws_b

    def test_randomized_plans_replay_from_seed(self):
        assert FaultPlan.randomized(7).specs == FaultPlan.randomized(7).specs

    def test_corrupt_flip_is_a_single_byte(self):
        corrupted = FaultPlan(seed=3).corrupt_bytes(b"abcdef")
        assert len(corrupted) == 6
        assert sum(x != y for x, y in zip(corrupted, b"abcdef")) == 1


class TestFaultyPageStore:
    def test_no_plan_is_pure_passthrough(self):
        disk = _disk()
        store = FaultyPageStore(disk)
        store.write("cubes/D2021-01-01", b"x")
        assert store.read("cubes/D2021-01-01") == b"x"
        assert "cubes/D2021-01-01" in store
        store.delete("cubes/D2021-01-01")
        assert "cubes/D2021-01-01" not in disk
        # Stats remain the inner store's single source of truth.
        assert store.stats is disk.stats

    def test_error_is_a_typed_storage_error(self):
        store = FaultyPageStore(_disk(), FaultPlan.single("store.read", kind="error"))
        store.inner.write("a", b"1")
        with pytest.raises(StorageError):
            store.read("a")

    def test_crash_before_leaves_page_unwritten(self):
        disk = _disk()
        store = FaultyPageStore(disk, FaultPlan.single("index.put", kind="crash"))
        with pytest.raises(CrashPoint):
            store.write("cubes/D2021-01-01", b"cube")
        assert "cubes/D2021-01-01" not in disk

    def test_crash_after_leaves_page_written(self):
        disk = _disk()
        plan = FaultPlan.single("index.put", kind="crash", when="after")
        store = FaultyPageStore(disk, plan)
        with pytest.raises(CrashPoint):
            store.write("cubes/D2021-01-01", b"cube")
        assert disk.read("cubes/D2021-01-01") == b"cube"

    def test_crash_is_not_an_exception(self):
        """`except Exception` recovery code must not swallow a kill."""
        store = FaultyPageStore(_disk(), FaultPlan.single("store.write"))
        with pytest.raises(CrashPoint):
            try:
                store.write("a", b"1")
            except Exception:  # noqa: BLE001 - the point of the test
                pytest.fail("CrashPoint was caught by `except Exception`")

    def test_torn_write_persists_a_strict_prefix(self):
        disk = _disk()
        plan = FaultPlan.single("store.write", kind="torn", seed=5)
        store = FaultyPageStore(disk, plan)
        data = bytes(range(200))
        with pytest.raises(CrashPoint):
            store.write("warehouse/heap/00000000", data)
        landed = disk.read("warehouse/heap/00000000")
        assert len(landed) < len(data)
        assert data.startswith(landed)

    @pytest.mark.parametrize(
        ("point", "page_id"),
        [("warehouse.write", "warehouse/heap/00000000"), ("warehouse.index", "warehouse/hash/00007")],
    )
    def test_an_append_crashes_before_tears_or_crashes_after(self, point, page_id):
        outcomes = {}
        for kind, when in (("crash", "before"), ("torn", "before"), ("crash", "after")):
            disk = _disk()
            disk.write(page_id, b"old")
            plan = FaultPlan.single(point, kind=kind, when=when, seed=3)
            store = FaultyPageStore(disk, plan)
            with pytest.raises(CrashPoint):
                store.append(page_id, bytes(range(1, 200)), 3)
            assert [fired.op for fired in plan.fired] == ["append"]
            outcomes[kind, when] = disk.read(page_id)
        assert outcomes["crash", "before"] == b"old"
        assert outcomes["crash", "after"] == b"old" + bytes(range(1, 200))
        torn = outcomes["torn", "before"]
        assert torn.startswith(b"old") and 3 <= len(torn) < 3 + 199
        assert bytes(range(1, 200)).startswith(torn[3:])

    def test_an_unplanned_append_passes_through(self):
        disk = _disk()
        store = FaultyPageStore(disk, FaultPlan.single("index.put", kind="crash"))
        store.append("warehouse/heap/00000000", b"rows", 0)
        assert disk.read("warehouse/heap/00000000") == b"rows"

    def test_corrupt_read_flips_without_touching_disk(self):
        disk = _disk()
        disk.write("cubes/D2021-01-01", b"cube-bytes")
        plan = FaultPlan.single("store.read", kind="corrupt", seed=9)
        store = FaultyPageStore(disk, plan)
        assert store.read("cubes/D2021-01-01") != b"cube-bytes"
        assert disk.read("cubes/D2021-01-01") == b"cube-bytes"

    def test_delay_charges_the_virtual_clock(self):
        disk = _disk()
        slept: list[float] = []
        plan = FaultPlan(
            specs=[
                FaultSpec(
                    point="store.read", kind="delay", delay_seconds=0.25
                )
            ],
            sleep=slept.append,
        )
        store = FaultyPageStore(disk, plan)
        disk.write("a", b"1")
        before = disk.stats.simulated_seconds
        assert store.read("a") == b"1"
        assert disk.stats.simulated_seconds == pytest.approx(before + 0.25)
        assert slept == [0.25]

    def test_fired_log_records_the_injection(self):
        plan = FaultPlan.single("index.put", kind="error")
        store = FaultyPageStore(_disk(), plan)
        with pytest.raises(InjectedFault):
            store.write("cubes/D2021-01-01", b"x")
        assert len(plan.fired) == 1
        fired = plan.fired[0]
        assert (fired.point, fired.op, fired.target) == (
            "index.put",
            "write",
            "cubes/D2021-01-01",
        )


class TestFaultyReplicationFeed:
    @pytest.fixture()
    def feed(self, tmp_path):
        from datetime import datetime, timezone

        from repro.osm.replication import ReplicationFeed
        from repro.osm.xml_io import OsmChange

        feed = ReplicationFeed(tmp_path, "day")
        for day in (1, 2):
            feed.publish(
                OsmChange(), datetime(2021, 1, day, tzinfo=timezone.utc)
            )
        return feed

    def test_no_plan_is_passthrough(self, feed):
        faulty = FaultyReplicationFeed(feed)
        assert faulty.current_sequence() == feed.current_sequence()
        assert faulty.granularity == "day"
        assert len(list(faulty.iter_since(None))) == 2

    def test_fetch_error_is_injected(self, feed):
        faulty = FaultyReplicationFeed(
            feed, FaultPlan.single("feed.fetch", kind="error")
        )
        with pytest.raises(InjectedFault):
            faulty.fetch(0)
        faulty.fetch(0)  # spec exhausted; upstream works again

    def test_state_crash_is_injected(self, feed):
        faulty = FaultyReplicationFeed(
            feed, FaultPlan.single("feed.state", kind="crash")
        )
        with pytest.raises(CrashPoint):
            faulty.current_sequence()

    def test_stale_state_freezes_current_sequence(self, feed):
        from datetime import datetime, timezone

        from repro.osm.xml_io import OsmChange

        plan = FaultPlan(
            specs=[FaultSpec(point="feed.state", kind="stale", count=10)]
        )
        faulty = FaultyReplicationFeed(feed, plan)
        first = faulty.current_sequence()
        feed.publish(OsmChange(), datetime(2021, 1, 3, tzinfo=timezone.utc))
        # Upstream advanced, but the stale state file still answers the
        # old sequence...
        assert faulty.current_sequence() == first
        # ...until the spec expires (count exhausted), when it catches up.
        plan.specs.clear()
        assert faulty.current_sequence() == first + 1
