"""Self-tests of the benchmark harness (not of the program).

Run with ``python -m pytest benchmarks/e2e -q``.  Tier-1 does not
collect this file: its ``testpaths`` is ``tests``.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import compare  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
import trace as spans  # noqa: E402
import workloads  # noqa: E402
from metrics import MOVES, benchmark  # noqa: E402
from truth import GroundTruth  # noqa: E402


@pytest.fixture()
def scratch():
    path = HERE / "results" / "tmp-test"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def smoke_inputs(name: str, seed: int, scratch: Path) -> workloads.Inputs:
    return workloads.build_inputs(
        workloads.WORKLOADS[name], seed, workloads.SMOKE.seconds, workloads.SMOKE, scratch
    )


# -- inputs --------------------------------------------------------------------


def test_same_seed_same_bytes_other_seed_other_bytes(scratch):
    first = smoke_inputs("dash_cold", 13, scratch)
    again = smoke_inputs("dash_cold", 13, scratch)
    other = smoke_inputs("dash_cold", 14, scratch)
    assert first.requests == again.requests
    assert [u.records for u in first.updates_by_day.values()] == [
        u.records for u in again.updates_by_day.values()
    ]
    assert first.requests != other.requests


def test_scatter_replays_the_cold_list_twice(scratch):
    cold = smoke_inputs("dash_cold", 13, scratch).requests
    scatter = smoke_inputs("scatter_procpool", 13, scratch).requests
    assert scatter == cold + cold


def test_cold_list_holds_the_three_shapes_in_the_mix_shares(scratch):
    cold = workloads.build_inputs(
        workloads.WORKLOADS["dash_cold"], 13, workloads.NOMINAL_SECONDS, workloads.SMOKE, scratch
    )
    assert len(cold.queries) == 200
    for seed_independent in (cold, smoke_inputs("dash_cold", 14, scratch)):
        shapes = [workloads._shape(q) for q in seed_independent.queries]
        total = len(shapes)
        assert [shapes.count(s) / total for s in (0, 1, 2)] == pytest.approx(
            [0.4, 0.3, 0.3], abs=1.5 / total
        )


def test_the_feed_does_not_depend_on_the_seed(scratch):
    first = smoke_inputs("ingest_mixed", 13, scratch)
    other = smoke_inputs("ingest_mixed", 14, scratch)
    assert len(first.truth_day_rows) >= 2
    assert first.truth_day_rows == other.truth_day_rows
    assert first.requests != other.requests


def test_the_feed_is_published_batch_by_batch(scratch):
    from repro.osm.replication import ReplicationFeed

    inputs = smoke_inputs("ingest_mixed", 13, scratch)
    days = len(inputs.truth_day_rows)
    feed = ReplicationFeed(Path(inputs.feed_root) / "replication", "day")
    assert feed.current_sequence() == days - 1
    workloads.publish_through(inputs.feed_root, 0)
    assert feed.current_sequence() is None
    workloads.publish_through(inputs.feed_root, 1)
    assert feed.current_sequence() == 0
    workloads.publish_through(inputs.feed_root, days)
    assert feed.current_sequence() == days - 1


def test_hot_list_has_at_most_32_distinct_requests(scratch):
    hot = smoke_inputs("dash_hot", 13, scratch).requests
    assert 16 <= len(set(hot)) <= 32


def test_benchmark_json_matches_the_workloads_and_the_moves_table():
    tables = benchmark()
    assert tables["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in tables["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [m["name"] for m in tables["per_layer"]] == list(MOVES)
    known = {m["name"] for m in tables["end_to_end"]} | set(MOVES) | set(workloads.WORKLOADS)
    for moves in MOVES.values():
        assert set(moves.on) | set(moves.not_on) <= set(workloads.WORKLOADS)
        # Every metric or workload the prose names exists.
        assert set(re.findall(r"[a-z][a-z0-9.]*_[a-z0-9_]+", moves.moves)) <= known
    assert tables["run_seconds"] == workloads.NOMINAL_SECONDS


# -- load generator ------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert loadgen.percentile(values, 0.50) == 50.0
    assert loadgen.percentile(values, 0.95) == 95.0
    assert loadgen.percentile(values, 0.99) == 99.0
    assert loadgen.percentile(values, 1.0) == 100.0
    assert loadgen.percentile([7.0], 0.95) == 7.0
    assert loadgen.percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    with pytest.raises(ValueError):
        loadgen.percentile([], 0.5)


def test_a_pass_divides_each_segment_by_the_hosts_slowness():
    # Two segments of two requests; the host ran the second twice as slowly.
    segments = [
        run.Segment([0.001, 0.003], seconds=0.004, cpu_seconds=0.002, slowness=1.0),
        run.Segment([0.004, 0.008], seconds=0.012, cpu_seconds=0.006, slowness=2.0),
    ]
    metrics = run.pass_metrics(segments)
    assert metrics["req_p50_ms"] == pytest.approx(2.0)  # of 1, 3, 2, 4
    assert metrics["req_p95_ms"] == pytest.approx(4.0)
    assert metrics["req_rps"] == pytest.approx(4 / (0.004 + 0.006))
    assert metrics["cpu_ms_per_req"] == pytest.approx(1000 * (0.002 + 0.003) / 4)


def test_calibrator_samples_and_restores_the_callers_cpus():
    import os

    from calibrate import REFERENCE_MS, Calibrator

    mine = os.sched_getaffinity(0)
    calibrator = Calibrator(sorted(mine)[:1])
    slowness = calibrator.sample()
    assert 0.05 < slowness < 50.0
    assert calibrator.samples == [slowness]
    assert os.sched_getaffinity(0) == mine
    assert set(calibrator._kernels) == set(REFERENCE_MS)


def test_a_wrong_or_partial_answer_counts_as_failed():
    request = ("POST", "/analysis", b"{}")
    expected = {("a", "b"): 2}
    good = json.dumps(
        {"partial": False, "rows": [{"group": ["a", "b"], "value": 2}]}
    ).encode()
    wrong = good.replace(b'"value": 2', b'"value": 3')
    partial = good.replace(b"false", b"true")
    assert loadgen._check(request, 200, good, expected) == (None, True)
    assert loadgen._check(request, 200, wrong, expected)[0] is not None
    assert loadgen._check(request, 200, partial, expected)[0] is not None
    assert loadgen._check(request, 503, good, expected)[0] is not None


# -- spans ---------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    S = spans.Span
    tree = [
        S(1, 0, 0, "root", 0.0, 10.0),
        # Two overlapping children cover [1, 6]; a third covers [8, 9].
        S(2, 1, 0, "a", 1.0, 4.0),
        S(3, 1, 0, "b", 3.0, 6.0),
        S(4, 1, 0, "c", 8.0, 9.0),
        # A grandchild, and a child that outlives its parent (clipped).
        S(5, 2, 0, "a.inner", 2.0, 3.0),
        S(6, 4, 0, "c.late", 8.5, 12.0),
    ]
    selfs = spans.self_times(tree)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0 - 0.5)


def test_pool_thread_spans_parent_to_the_open_fanout_span():
    recorder = spans.SpanRecorder()
    work = recorder.timed(lambda: None, "hierarchy.get")
    recorder.begin_unit(traced=True, name="request")
    with recorder.span("iosched.fetch_many"):
        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    recorder.end_unit()
    by_name = {span.name: span for span in recorder.spans}
    assert by_name["hierarchy.get"].parent_id == by_name["iosched.fetch_many"].span_id
    assert by_name["iosched.fetch_many"].parent_id == by_name["request"].span_id
    assert by_name["hierarchy.get"].unit == by_name["request"].unit == 0


def test_disabled_recorder_records_nothing():
    recorder = spans.SpanRecorder()
    work = recorder.timed(lambda: 5, "x")
    recorder.begin_unit(traced=False)
    assert work() == 5
    with recorder.span("y"):
        pass
    recorder.end_unit()
    assert recorder.spans == []
    assert [unit[3] for unit in recorder.units] == [False]


def _wrapped_targets():
    import repro.core.hierarchy as hierarchy
    from repro.collection.daily import DailyCrawler
    from repro.core.cache import CacheManager
    from repro.core.executor import QueryExecutor
    from repro.core.iosched import IOScheduler
    from repro.core.optimizer import LevelOptimizer
    from repro.core.resultcache import ResultCache
    from repro.core.shard import ShardedIndex
    from repro.storage.disk import InMemoryDisk
    from repro.storage.wal import IngestWAL
    from repro.storage.warehouse import Warehouse
    from repro.types.cube import DataCube, SparseCube

    return [
        (QueryExecutor, "execute"), (ResultCache, "get"), (LevelOptimizer, "plan"),
        (CacheManager, "get"), (IOScheduler, "fetch_many"),
        (hierarchy.HierarchicalIndex, "get"), (hierarchy.HierarchicalIndex, "ingest_day"),
        (hierarchy, "deserialize_cube"), (hierarchy, "serialize_cube"),
        (hierarchy, "sum_cubes"), (InMemoryDisk, "read"), (InMemoryDisk, "write"),
        (DataCube, "aggregate_array"), (SparseCube, "aggregate_array"),
        (ShardedIndex, "shard_for"), (DailyCrawler, "process_change"),
        (Warehouse, "append"), (IngestWAL, "begin"), (IngestWAL, "commit"),
    ]  # fmt: skip


@pytest.mark.parametrize("install", [spans.install_read_path, spans.install_ingest_path])
def test_wrappers_are_fully_removed(install):
    targets = _wrapped_targets()
    before = [vars(owner)[name] for owner, name in targets]
    wrappers = install(spans.SpanRecorder())
    during = [vars(owner)[name] for owner, name in targets]
    wrappers.remove()
    after = [vars(owner)[name] for owner, name in targets]
    assert any(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, after))
    wrappers.remove()  # idempotent


# -- the program under the harness, at smoke size ------------------------------


def _traced_counts(system, requests) -> dict[str, float]:
    recorder = spans.SpanRecorder()
    with spans.install_read_path(recorder):
        plain, traced, refused = child.replay_paired(system, requests, recorder)
    assert refused == 0 and len(plain) == len(traced) == len(requests)
    layers = spans.summarize(recorder)
    ratios = spans.attribution(recorder)
    # One client, no overlap: self times add up to the request exactly.
    assert ratios["self_sum_over_root_median"] == pytest.approx(1.0, abs=0.05)
    return {
        name: layers[name]
        for name in (
            "pages.reads_per_req",
            "pages.read_bytes_per_req",
            "optimizer.keys_per_req",
            "optimizer.plans_per_req",
            "cache.hit_ratio",
        )
    } | {
        # Responses carry wall-clock stats, so their size repeats only to
        # within the digits of a few floats.
        "server.response_bytes": pytest.approx(layers["server.response_bytes"], rel=0.01)
    }


def test_single_client_replays_repeat_their_counts_and_match_truth(scratch):
    workload = workloads.WORKLOADS["dash_cold"]
    inputs = smoke_inputs("dash_cold", 13, scratch)
    inputs_path = scratch / "inputs.pickle"
    inputs.write_for_child(inputs_path)
    system, header, load = child.build_system(workload, inputs_path, scratch)
    try:
        assert load["days_loaded"] == len(inputs.updates_by_day)
        first = _traced_counts(system, header["requests"])
        second = _traced_counts(system, header["requests"])
        assert first == second
        assert first["pages.reads_per_req"] > 0
        # Ground truth against the program, without HTTP in between.
        atlas, _ = workloads.world()
        truth = GroundTruth(inputs.updates_by_day, atlas)
        for query in inputs.queries[:12]:
            rows = system.dashboard.analysis(query).rows
            got = {
                tuple(c.isoformat() if hasattr(c, "isoformat") else str(c) for c in key): v
                for key, v in rows.items()
            }
            assert got == truth.rows(query)
    finally:
        if system.iosched is not None:
            system.iosched.shutdown()


# -- compare -------------------------------------------------------------------


def test_verdicts():
    steady_base = [10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(steady_base, [10.2, 10.3, 10.1, 10.2], "lower", 0.10)[0] == "ok"
    assert compare.verdict(steady_base, [12.0, 12.1, 11.9, 12.0], "lower", 0.10)[0] == "worse"
    assert compare.verdict(steady_base, [8.0, 8.1, 7.9, 8.0], "higher", 0.10)[0] == "worse"
    noisy = [10.0, 14.0, 7.0, 12.0]
    assert compare.verdict(noisy, [11.0, 13.0, 8.0, 10.0], "lower", 0.10)[0] == "unresolved"
    # Wide spread, but every new run beats every base run.
    assert compare.verdict(noisy, [5.0, 6.0, 4.0, 6.5], "lower", 0.10)[0] == "ok"
    # A single run per side: no spread to speak of, the ratio decides.
    assert compare.verdict([10.0], [10.5], "lower", 0.10)[0] == "ok"
    assert compare.verdict([10.0], [11.5], "lower", 0.10)[0] == "worse"


def test_spread_is_the_interquartile_share_of_the_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert compare.spread(values) == pytest.approx((8.25 - 2.75) / 5.5)
    assert compare.spread([4.0]) is None
