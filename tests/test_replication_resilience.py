"""Retry policy, circuit breaker, and the armored replication feed.

Everything time-like is injected (fake clocks, recording sleeps) and
everything random is seeded, so the retry schedules asserted here are
exact, not statistical.
"""

from __future__ import annotations

import random
from datetime import datetime, timezone

import pytest

from repro.errors import CircuitOpenError, StorageError
from repro.osm.replication import (
    CircuitBreaker,
    ReplicationFeed,
    ResilientFeed,
    RetryPolicy,
)
from repro.obs import MetricsRegistry
from repro.osm.xml_io import OsmChange
from tests.support import FaultPlan, FaultSpec, FaultyReplicationFeed, InjectedFault


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestRetryPolicy:
    def test_exponential_growth_capped_at_max(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0)
        rng = random.Random(0)
        delays = [policy.delay(attempt, rng) for attempt in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_is_seeded_and_bounded(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.25)
        a = [policy.delay(i, random.Random(7)) for i in range(4)]
        b = [policy.delay(i, random.Random(7)) for i in range(4)]
        assert a == b  # replayable
        for attempt, delay in enumerate(a):
            raw = min(0.1 * 2.0**attempt, policy.max_delay)
            assert raw * 0.75 <= delay <= raw * 1.25


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, cooldown=30.0, clock=clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        assert breaker.opens == 1

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_cooldown_grants_a_single_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=10.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(10.0)
        assert breaker.state == "half_open"
        assert breaker.allow()       # the probe slot
        assert not breaker.allow()   # a concurrent caller is rejected

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_probe_failure_reopens_full_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, cooldown=5.0, clock=clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()  # one probe failure is enough
        assert breaker.state == "open"
        clock.advance(4.9)
        assert not breaker.allow()
        assert breaker.opens == 2

    def test_zero_threshold_rejected(self):
        with pytest.raises(StorageError):
            CircuitBreaker(failure_threshold=0)


def _published_feed(tmp_path, days: int = 2) -> ReplicationFeed:
    feed = ReplicationFeed(tmp_path, "day")
    for day in range(1, days + 1):
        feed.publish(OsmChange(), datetime(2021, 1, day, tzinfo=timezone.utc))
    return feed


def _resilient(feed, *, attempts=4, breaker=None, metrics=None, clock=None):
    slept: list[float] = []
    armored = ResilientFeed(
        feed,
        policy=RetryPolicy(attempts=attempts, base_delay=0.01, jitter=0.0),
        breaker=breaker,
        seed=1,
        sleep=slept.append,
        clock=clock or FakeClock(),
        metrics=metrics,
    )
    return armored, slept


class TestResilientFeed:
    def test_transient_failures_are_retried_through(self, tmp_path):
        flaky = FaultyReplicationFeed(
            _published_feed(tmp_path),
            FaultPlan(specs=[FaultSpec(point="feed.fetch", kind="error", count=2)]),
        )
        armored, slept = _resilient(flaky)
        change = armored.fetch(0)
        assert change is not None
        assert len(slept) == 2  # two failures, two backoffs, then success

    def test_exhausted_attempts_surface_the_typed_error(self, tmp_path):
        flaky = FaultyReplicationFeed(
            _published_feed(tmp_path),
            FaultPlan(specs=[FaultSpec(point="feed.state", kind="error", count=99)]),
        )
        armored, slept = _resilient(flaky, attempts=3)
        with pytest.raises(InjectedFault):
            armored.current_sequence()
        assert len(slept) == 2  # attempts - 1 backoffs

    def test_backoff_schedule_is_deterministic(self, tmp_path):
        def run() -> list[float]:
            flaky = FaultyReplicationFeed(
                _published_feed(tmp_path / str(len(schedules)), days=1),
                FaultPlan(
                    specs=[FaultSpec(point="feed.fetch", kind="error", count=3)]
                ),
            )
            armored = ResilientFeed(
                flaky,
                policy=RetryPolicy(attempts=5, base_delay=0.01, jitter=0.25),
                seed=42,
                sleep=slept.append,
                clock=FakeClock(),
            )
            armored.fetch(0)
            return list(slept)

        schedules: list[list[float]] = []
        for _ in range(2):
            slept: list[float] = []
            schedules.append(run())
        assert schedules[0] == schedules[1]
        assert len(schedules[0]) == 3

    def test_breaker_opens_and_fails_fast(self, tmp_path):
        clock = FakeClock()
        flaky = FaultyReplicationFeed(
            _published_feed(tmp_path),
            FaultPlan(specs=[FaultSpec(point="feed.fetch", kind="error", count=99)]),
        )
        metrics = MetricsRegistry()
        breaker = CircuitBreaker(failure_threshold=3, cooldown=60.0, clock=clock)
        armored, _ = _resilient(
            flaky, attempts=10, breaker=breaker, metrics=metrics, clock=clock
        )
        with pytest.raises(InjectedFault):
            armored.fetch(0)  # 3 failures open the breaker mid-retry-loop
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            armored.fetch(0)  # fast-fail: upstream never touched
        counters = metrics.snapshot()["counters"]
        assert counters["rased_feed_breaker_opens_total"][0]["value"] == 1
        assert counters["rased_feed_breaker_rejected_total"][0]["value"] == 1
        assert "rased_feed_failures_total" in counters

    def test_cooldown_probe_recovers_the_feed(self, tmp_path):
        clock = FakeClock()
        flaky = FaultyReplicationFeed(
            _published_feed(tmp_path),
            FaultPlan(specs=[FaultSpec(point="feed.fetch", kind="error", count=3)]),
        )
        breaker = CircuitBreaker(failure_threshold=3, cooldown=60.0, clock=clock)
        armored, _ = _resilient(flaky, attempts=10, breaker=breaker, clock=clock)
        with pytest.raises(InjectedFault):
            armored.fetch(0)
        clock.advance(60.0)
        # The probe succeeds (the fault spec is exhausted) and closes
        # the circuit for good.
        assert armored.fetch(0) is not None
        assert breaker.state == "closed"

    def test_deadline_stops_retrying_early(self, tmp_path):
        clock = FakeClock()
        flaky = FaultyReplicationFeed(
            _published_feed(tmp_path),
            FaultPlan(specs=[FaultSpec(point="feed.state", kind="error", count=99)]),
        )
        slept: list[float] = []
        armored = ResilientFeed(
            flaky,
            policy=RetryPolicy(
                attempts=50, base_delay=1.0, jitter=0.0, deadline=2.5
            ),
            seed=0,
            sleep=lambda s: (slept.append(s), clock.advance(s)),
            clock=clock,
        )
        with pytest.raises(InjectedFault):
            armored.current_sequence()
        # 1.0 + 2.0 backoffs fit under the 2.5s deadline check; the next
        # pause would overshoot, so the loop gives up well short of 50.
        assert len(slept) <= 2

    def test_iter_since_rides_through_transients(self, tmp_path):
        flaky = FaultyReplicationFeed(
            _published_feed(tmp_path, days=3),
            FaultPlan(
                specs=[
                    FaultSpec(point="feed.fetch", kind="error", after=1, count=2)
                ]
            ),
        )
        armored, slept = _resilient(flaky)
        sequences = [seq for seq, _, _ in armored.iter_since(None)]
        assert sequences == [0, 1, 2]
        assert len(slept) == 2

    def test_publish_is_not_retried(self, tmp_path):
        """Blind re-publish could double-allocate a sequence; the write
        side surfaces its error on the first failure."""
        flaky = FaultyReplicationFeed(
            _published_feed(tmp_path),
            FaultPlan(specs=[FaultSpec(point="feed.publish", kind="error")]),
        )
        armored, slept = _resilient(flaky)
        with pytest.raises(InjectedFault):
            armored.publish(OsmChange(), datetime(2021, 1, 3, tzinfo=timezone.utc))
        assert slept == []


class TestSystemWiring:
    def test_armored_config_wraps_the_crawl_feed(self, atlas, tmp_path):
        """Feed armor is not a knob: under every config the daily crawler
        polls the day feed through the one retry policy and breaker."""
        from repro.osm.replication import (
            CRAWL_BREAKER_THRESHOLD,
            CRAWL_RETRY_POLICY,
        )
        from repro.system import RasedSystem, SystemConfig

        assert (CRAWL_RETRY_POLICY.attempts, CRAWL_BREAKER_THRESHOLD) == (3, 5)
        for name, config in (
            ("paper", SystemConfig()),
            ("serving", SystemConfig.serving(shards=2, durable_ingest=True)),
        ):
            system = RasedSystem.create(
                root=tmp_path / name, atlas=atlas, config=config
            )
            assert isinstance(system.crawl_feed, ResilientFeed)
            assert system.crawl_feed.feed is system.day_feed
            assert system.crawl_feed.policy is CRAWL_RETRY_POLICY
            breaker = system.crawl_feed.breaker
            assert breaker is not None
            assert breaker.failure_threshold == CRAWL_BREAKER_THRESHOLD
            assert system.pipeline.daily_crawler.feed is system.crawl_feed
