"""Concurrency stress: mixed queries, ingestion, and live polling
through one system."""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import Counter
from datetime import date, timedelta

import pytest

from repro.core.executor import QueryExecutor
from repro.core.query import AnalysisQuery
from repro.dashboard.server import DashboardServer
from repro.storage.disk import InMemoryDisk
from repro.synth.simulator import SimulationConfig
from repro.system import RasedSystem, SystemConfig
from tests.test_front_door import answer_of, get, post, stats_of

pytestmark = pytest.mark.stress


JULY = date(2021, 7, 1)
WINDOW = AnalysisQuery(
    start=date(2021, 7, 1), end=date(2021, 7, 31), group_by=("country",)
)


def build_stress_system(atlas, shards: int = 1) -> RasedSystem:
    system = RasedSystem.create(
        atlas=atlas,
        store=InMemoryDisk(read_latency=0.0002, write_latency=0.0002, parallelism=4),
        config=SystemConfig(
            road_types=8,
            cache_slots=16,
            shards=shards,
            result_cache_slots=32,
            simulation=SimulationConfig(
                seed=31, mapper_count=20, base_sessions_per_day=6, nodes_per_country=8
            ),
        ),
    )
    for day in (1, 2, 3):
        system.publish_day(date(2021, 7, day), hourly=True)
    system.pipeline.run_daily()
    # "Today" exists only as hourly diffs; the live thread absorbs it.
    system.publish_partial_day(date(2021, 7, 8), through_hour=10)
    return system


class TestMixedWorkloadStress:
    def test_queries_ingest_and_live_poll_race_safely(self, atlas):
        self._race(build_stress_system(atlas))

    def test_sharded_queries_ingest_and_live_poll_race_safely(self, atlas):
        """The same race through the scatter engine, whose shard
        gathers share the one catalog and the one cache (a short switch
        interval makes the interleavings dense)."""
        system = build_stress_system(atlas, shards=4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            self._race(system)
        finally:
            sys.setswitchinterval(interval)
            system.iosched.shutdown()

    def _race(self, system: RasedSystem) -> None:
        before_total = system.dashboard.analysis(WINDOW).total
        errors: list[BaseException] = []
        stop = threading.Event()

        def guarded(fn):
            def runner():
                try:
                    fn()
                except BaseException as exc:  # noqa: BLE001 - collected
                    errors.append(exc)
                    stop.set()
            return runner

        def query_identical():
            while not stop.is_set():
                result = system.dashboard.analysis(WINDOW)
                assert result.total >= before_total

        def query_distinct(offset: int):
            def run():
                day = 1 + offset
                while not stop.is_set():
                    query = AnalysisQuery(
                        start=date(2021, 7, 1),
                        end=date(2021, 7, 1 + (day % 28)),
                        group_by=("element_type",),
                    )
                    system.dashboard.analysis(query)
                    system.dashboard.analysis_live(WINDOW)
                    day += 3
            return run

        def ingest():
            for day in (4, 5, 6):
                system.publish_day(date(2021, 7, day), hourly=True)
                system.pipeline.run_daily()
                time.sleep(0.01)
            stop.set()  # ingestion finishing bounds the test's runtime

        def live_poll():
            while not stop.is_set():
                system.poll_live()
                time.sleep(0.005)

        threads = [
            threading.Thread(target=guarded(query_identical), name=f"q-same-{i}")
            for i in range(3)
        ]
        threads += [
            threading.Thread(target=guarded(query_distinct(i)), name=f"q-mix-{i}")
            for i in range(3)
        ]
        threads.append(threading.Thread(target=guarded(ingest), name="ingest"))
        threads.append(threading.Thread(target=guarded(live_poll), name="live"))
        assert len(threads) == 8
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

        # No lost updates: the served result equals a fresh, cache-free,
        # memo-free executor reading the same index.
        final = system.dashboard.analysis(WINDOW)
        bare = QueryExecutor(system.index).execute(WINDOW)
        assert final.rows == bare.rows
        assert final.total > before_total  # days 4-6 landed

        # The pre-ingest memo entry did not survive the epoch bumps:
        # a post-ingest execution was real (it saw the new days).
        assert system.result_cache is not None
        assert system.result_cache.cached_count <= 32
        memo_hit = system.dashboard.analysis(WINDOW)
        assert memo_hit.stats.memo_hit
        assert memo_hit.rows == bare.rows
        assert system.iosched is not None  # one scheduler at any shard count


class TestServedBytesUnderWrites:
    """A memoized answer is re-sent as stored bytes; a write must never
    let one epoch's bytes answer another epoch's request."""

    BODIES = [
        dict(start="2021-07-01", end="2021-07-31", group_by=group_by)
        for group_by in (["country"], ["element_type"], ["update_type"], ["date"])
    ]

    @staticmethod
    def _answer(server: DashboardServer, body: dict) -> bytes:
        """The response up to its per-request ``stats``."""
        status, sent, _ = post(server, "/analysis", body)
        assert status == 200, sent
        return answer_of(sent)

    def test_every_response_is_one_epochs_document(self, atlas):
        system = build_stress_system(atlas)
        errors: list[BaseException] = []
        #: (query position, sent at, answered at, answer bytes)
        answers: list[tuple[int, float, float, bytes]] = []
        stop = threading.Event()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            with DashboardServer(system.dashboard) as server:
                before = [self._answer(server, body) for body in self.BODIES]

                def client(offset: int) -> None:
                    try:
                        turn = offset
                        while not stop.is_set():
                            position = turn % len(self.BODIES)
                            sent_at = time.monotonic()
                            answer = self._answer(server, self.BODIES[position])
                            answers.append(
                                (position, sent_at, time.monotonic(), answer)
                            )
                            turn += 1
                    except BaseException as exc:  # noqa: BLE001 - collected
                        errors.append(exc)
                        stop.set()

                clients = [
                    threading.Thread(target=client, args=(i,), name=f"client-{i}")
                    for i in range(8)
                ]
                for thread in clients:
                    thread.start()
                # Bumps alone drop every entry (and its bytes) without
                # changing an answer; the ingest changes the answers.
                for _ in range(25):
                    system.epoch.bump()
                    time.sleep(0.004)
                write_began = time.monotonic()
                system.publish_day(date(2021, 7, 4))
                system.pipeline.run_daily()
                write_ended = time.monotonic()
                for _ in range(25):
                    system.epoch.bump()
                    time.sleep(0.004)
                stop.set()
                for thread in clients:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in clients)
                after = [self._answer(server, body) for body in self.BODIES]
        finally:
            sys.setswitchinterval(interval)
            system.iosched.shutdown()
        assert errors == []
        assert all(old != new for old, new in zip(before, after))  # day 4 shows
        early = late = 0
        for position, sent_at, answered_at, answer in answers:
            # Never a blend...
            assert answer in (before[position], after[position])
            # ...and never the other epoch's bytes.
            if answered_at < write_began:
                assert answer == before[position]
                early += 1
            if sent_at > write_ended:
                assert answer == after[position]
                late += 1
        assert early and late, (early, late, len(answers))
        assert system.metrics.value("rased_http_encoded_reused_total") > 0

    def test_out_of_window_answers_stay_memoized_through_an_ingest(self, atlas):
        """July 2021's answers keep hitting while a January 2022 day is
        ingested; January's own answer is the pre- or post-batch
        document, never a blend."""
        system = build_stress_system(atlas)
        system.publish_day(date(2022, 1, 3))
        system.pipeline.run_daily()
        january = dict(start="2022-01-01", end="2022-01-31", group_by=["country"])
        bodies = self.BODIES + [january]
        errors: list[BaseException] = []
        #: (query position, answer bytes, stats)
        answers: list[tuple[int, bytes, dict]] = []
        stop = threading.Event()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            with DashboardServer(system.dashboard) as server:
                before = [self._answer(server, body) for body in bodies]
                hits_before = system.metrics.value("rased_resultcache_hits_total")

                def client(offset: int) -> None:
                    try:
                        turn = offset
                        while not stop.is_set():
                            position = turn % len(bodies)
                            status, sent, _ = post(server, "/analysis", bodies[position])
                            assert status == 200, sent
                            answers.append((position, answer_of(sent), stats_of(sent)))
                            turn += 1
                    except BaseException as exc:  # noqa: BLE001 - collected
                        errors.append(exc)
                        stop.set()

                clients = [
                    threading.Thread(target=client, args=(i,), name=f"client-{i}")
                    for i in range(4)
                ]
                for thread in clients:
                    thread.start()
                system.publish_day(date(2022, 1, 4))
                system.pipeline.run_daily()
                # Let the clients cycle the bodies about twice more each.
                wanted = len(answers) + 2 * len(bodies) * len(clients)
                give_up = time.monotonic() + 30
                while len(answers) < wanted and time.monotonic() < give_up:
                    time.sleep(0.01)
                stop.set()
                for thread in clients:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in clients)
                after = [self._answer(server, body) for body in bodies]
        finally:
            sys.setswitchinterval(interval)
            system.iosched.shutdown()
        assert errors == []
        assert before[:-1] == after[:-1]  # July did not change...
        assert before[-1] != after[-1]  # ...January did
        in_july = 0
        for position, answer, stats in answers:
            assert answer in (before[position], after[position])  # never a blend
            if position < len(self.BODIES):
                assert stats["cube_count"] == 0, stats  # every one a memo hit
                in_july += 1
        assert in_july and len(answers) > in_july, len(answers)
        hits = system.metrics.value("rased_resultcache_hits_total") - hits_before
        assert hits >= in_july + len(self.BODIES)  # the race's and `after`'s
        assert system.metrics.value("rased_resultcache_kept_total") >= len(self.BODIES)


class TestWarehouseReadsUnderIngest:
    """``/samples`` and ``/changeset/<id>`` read the two warehouse
    indexes with no lock beside the writer's segment flushes and its
    month-end fold: whenever a request lands, it finds each row at most
    once and nothing the heap does not hold.  The writer ends each day
    only after taking one reader answer that carried rows (waiting up to
    10 s), so at least one answer a day lands mid-ingest however the
    host schedules the threads."""

    FIRST_DAY = date(2021, 7, 20)
    DAYS = 36  # through Aug 24: Jul 31 folds, August accumulates again

    def test_every_row_exactly_once_across_a_month_end(self, atlas):
        system = RasedSystem.create(
            atlas=atlas,
            store=InMemoryDisk(read_latency=0.0, write_latency=0.0),
            config=SystemConfig(
                road_types=8,
                cache_slots=8,
                durable_ingest=True,
                simulation=SimulationConfig(
                    seed=23, mapper_count=6, base_sessions_per_day=3, nodes_per_country=2
                ),
            ),
        )
        for offset in range(self.DAYS):
            system.publish_day(self.FIRST_DAY + timedelta(days=offset))
        changesets = sorted(
            {row.changeset_id for rows in system.truth_by_day.values() for row in rows}
        )
        zones = system.atlas.zone_names()
        paths = [f"/changeset/{changeset_id}" for changeset_id in changesets]
        paths += [f"/samples?zone={zone}&n=10000" for zone in zones]
        errors: list[BaseException] = []
        answers: list[tuple[str, list[tuple[str, ...]]]] = []
        stop = threading.Event()
        with_rows = threading.Semaphore(0)
        save_cursor = system.pipeline._save_cursor

        def paced_save_cursor() -> None:
            with_rows.acquire(timeout=10)
            save_cursor()

        system.pipeline._save_cursor = paced_save_cursor  # type: ignore[method-assign]

        def rows_of(server: DashboardServer, path: str) -> list[tuple[str, ...]]:
            status, body, _ = get(server, path)
            assert status == 200, body
            (rows,) = json.loads(body).values()
            return [tuple(row) for row in rows]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            with DashboardServer(system.dashboard) as server:

                def reader(offset: int) -> None:
                    try:
                        turn = offset
                        while not stop.is_set():
                            path = paths[turn % len(paths)]
                            rows = rows_of(server, path)
                            answers.append((path, rows))
                            if rows:
                                with_rows.release()
                            turn += 7
                    except BaseException as exc:  # noqa: BLE001 - collected
                        errors.append(exc)
                        stop.set()
                        with_rows.release(self.DAYS)  # the writer waits no more

                readers = [
                    threading.Thread(target=reader, args=(i,), name=f"reader-{i}")
                    for i in range(4)
                ]
                for thread in readers:
                    thread.start()
                try:
                    report = system.pipeline.run_daily()
                finally:
                    stop.set()
                    for thread in readers:
                        thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in readers)
                final = {path: rows_of(server, path) for path in paths}
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert report.days_processed == self.DAYS
        # July folded into bucket pages; August's days are segments.
        for index in (system.hash_index, system.spatial_index):
            assert len(index.buckets.segments) == 24
            pages = list(system.store.list_pages(index.prefix + "/"))
            assert len(pages) > 24

        # Ground truth: a brute-force pass over the heap.
        truth: dict[str, Counter] = {path: Counter() for path in paths}
        boxes = {zone: system.atlas.zone(zone).bbox for zone in zones}
        for row in system.warehouse.scan():
            fields = tuple(row.to_tsv().split("\t"))
            truth[f"/changeset/{row.changeset_id}"][fields] += 1
            for zone, box in boxes.items():
                if (
                    box.min_lon <= row.longitude <= box.max_lon
                    and box.min_lat <= row.latitude <= box.max_lat
                ):
                    truth[f"/samples?zone={zone}&n=10000"][fields] += 1
        assert sum(truth[path].total() for path in paths[: len(changesets)]) == (
            system.warehouse.row_count
        )
        for path in paths:
            assert Counter(final[path]) == truth[path], path
        raced = 0
        for path, rows in answers:
            assert Counter(rows) <= truth[path], path
            raced += bool(rows)
        assert raced >= self.DAYS, (raced, len(answers))
