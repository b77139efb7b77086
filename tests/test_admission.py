"""Unit tests for the dashboard's front-door admission control.

Everything here runs against a fake clock: token refill, quota
rollover, deadline expiry, and shed hysteresis are all pure functions
of injected time, so no test sleeps.
"""

from __future__ import annotations

import json

import pytest

from repro.core.deadline import (
    Deadline,
    check_deadline,
    current_deadline,
    deadline_scope,
)
from repro.dashboard.admission import (
    AdmissionConfig,
    AdmissionController,
    DailyQuota,
    QUOTA_WINDOW_SECONDS,
    Tenant,
    TenantRegistry,
    TokenBucket,
)
from repro.errors import ConfigError, DeadlineExceededError
from repro.obs import MetricsRegistry


class FakeClock:
    """A settable monotonic clock."""

    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- token bucket ---------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_throttle(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=3.0, now=clock())
        assert [bucket.acquire(clock()) for _ in range(3)] == [0.0, 0.0, 0.0]
        wait = bucket.acquire(clock())
        assert wait == pytest.approx(1.0)

    def test_refill_restores_tokens(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2.0, now=clock())
        bucket.acquire(clock())
        bucket.acquire(clock())
        assert bucket.acquire(clock()) > 0.0
        clock.advance(0.5)  # 2 tokens/s * 0.5 s = 1 token back
        assert bucket.acquire(clock()) == 0.0
        assert bucket.acquire(clock()) > 0.0

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2.0, now=clock())
        clock.advance(100.0)
        assert bucket.available(clock()) == pytest.approx(2.0)

    def test_retry_after_reflects_deficit(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=4.0, burst=1.0, now=clock())
        bucket.acquire(clock())
        # Empty bucket at 4 tokens/s: one whole token takes 0.25 s.
        assert bucket.acquire(clock()) == pytest.approx(0.25)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigError):
            TokenBucket(rate=0.0, burst=1.0, now=0.0)
        with pytest.raises(ConfigError):
            TokenBucket(rate=1.0, burst=0.5, now=0.0)


# -- daily quota ----------------------------------------------------------


class TestDailyQuota:
    def test_exhaustion_within_window(self):
        clock = FakeClock()
        quota = DailyQuota(limit=2, now=clock())
        assert quota.consume(clock()) == 0.0
        assert quota.consume(clock()) == 0.0
        wait = quota.consume(clock())
        assert wait > 0.0
        # Retry-After points at the next window boundary.
        assert wait == pytest.approx(
            QUOTA_WINDOW_SECONDS - (clock() % QUOTA_WINDOW_SECONDS)
        )

    def test_rollover_resets_budget(self):
        clock = FakeClock()
        quota = DailyQuota(limit=1, now=clock())
        assert quota.consume(clock()) == 0.0
        assert quota.consume(clock()) > 0.0
        clock.advance(QUOTA_WINDOW_SECONDS)
        assert quota.consume(clock()) == 0.0
        assert quota.used(clock()) == 1

    def test_used_reports_zero_after_rollover(self):
        clock = FakeClock()
        quota = DailyQuota(limit=5, now=clock())
        quota.consume(clock())
        clock.advance(QUOTA_WINDOW_SECONDS)
        assert quota.used(clock()) == 0


# -- tenant registry ------------------------------------------------------


class TestTenantRegistry:
    def test_lookup(self):
        registry = TenantRegistry([Tenant(name="a", key="ka")])
        assert registry.lookup("ka").name == "a"
        assert registry.lookup("kb") is None
        assert registry.lookup(None) is None

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            TenantRegistry(
                [Tenant(name="a", key="k"), Tenant(name="b", key="k")]
            )

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "keys.json"
        path.write_text(
            json.dumps(
                {
                    "tenants": [
                        {"name": "analytics", "key": "ak-1", "rate": 50,
                         "burst": 100, "daily_quota": 1000},
                        {"name": "ops", "key": "ak-2"},
                    ]
                }
            )
        )
        registry = TenantRegistry.load(path)
        assert len(registry) == 2
        analytics = registry.lookup("ak-1")
        assert analytics.rate == 50.0
        assert analytics.daily_quota == 1000
        assert registry.lookup("ak-2").rate is None

    def test_load_rejects_bad_shape(self, tmp_path):
        path = tmp_path / "keys.json"
        path.write_text(json.dumps({"tenants": [{"name": "x"}]}))
        with pytest.raises(ConfigError):
            TenantRegistry.load(path)
        path.write_text("not json")
        with pytest.raises(ConfigError):
            TenantRegistry.load(path)
        with pytest.raises(ConfigError):
            TenantRegistry.load(tmp_path / "missing.json")


# -- deadlines ------------------------------------------------------------


class TestDeadline:
    def test_expiry_on_fake_clock(self):
        clock = FakeClock()
        deadline = Deadline(0.5, clock=clock)
        assert not deadline.expired()
        assert deadline.remaining() == pytest.approx(0.5)
        clock.advance(0.6)
        assert deadline.expired()
        with pytest.raises(DeadlineExceededError) as excinfo:
            deadline.check("phase1.fetch.disk")
        assert "phase1.fetch.disk" in str(excinfo.value)

    def test_scope_installs_and_clears(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        assert current_deadline() is None
        with deadline_scope(deadline):
            assert current_deadline() is deadline
            check_deadline("anywhere")  # not yet expired: no raise
            clock.advance(2.0)
            with pytest.raises(DeadlineExceededError):
                check_deadline("anywhere")
        assert current_deadline() is None
        check_deadline("outside")  # no ambient deadline: no-op

    def test_nested_scope_restores_outer(self):
        clock = FakeClock()
        outer = Deadline(10.0, clock=clock)
        inner = Deadline(1.0, clock=clock)
        with deadline_scope(outer):
            with deadline_scope(inner):
                assert current_deadline() is inner
            assert current_deadline() is outer

    def test_non_positive_budget_rejected(self):
        with pytest.raises(ConfigError):
            Deadline(0.0)


# -- controller -----------------------------------------------------------


def make_controller(clock=None, tenants=None, metrics=None, **overrides):
    clock = clock or FakeClock()
    return (
        AdmissionController(
            AdmissionConfig(**overrides),
            tenants=tenants,
            metrics=metrics,
            clock=clock,
        ),
        clock,
    )


class TestControllerAuth:
    def test_unknown_key_rejected(self):
        registry = TenantRegistry([Tenant(name="a", key="ka")])
        controller, _ = make_controller(tenants=registry)
        decision = controller.admit("bogus")
        assert not decision.allowed
        assert decision.status == 401
        assert decision.reason == "unauthorized"

    def test_known_key_admitted(self):
        registry = TenantRegistry([Tenant(name="a", key="ka")])
        controller, _ = make_controller(tenants=registry)
        decision = controller.admit("ka")
        assert decision.allowed
        assert decision.tenant == "a"
        controller.release()

    def test_no_registry_means_no_auth(self):
        controller, _ = make_controller(rate_limit=100.0)
        assert controller.admit(None).allowed
        controller.release()


class TestControllerRateAndQuota:
    def test_rate_limit_throttles_with_retry_after(self):
        controller, clock = make_controller(rate_limit=1.0, burst=2.0)
        assert controller.admit(None).allowed
        assert controller.admit(None).allowed
        decision = controller.admit(None)
        assert not decision.allowed
        assert decision.status == 429
        assert decision.reason == "throttled"
        assert decision.retry_after == pytest.approx(1.0)
        clock.advance(1.0)
        assert controller.admit(None).allowed

    def test_per_tenant_buckets_are_independent(self):
        registry = TenantRegistry(
            [Tenant(name="a", key="ka"), Tenant(name="b", key="kb")]
        )
        controller, _ = make_controller(
            tenants=registry, rate_limit=1.0, burst=1.0
        )
        assert controller.admit("ka").allowed
        assert not controller.admit("ka").allowed
        # Tenant b still has its own full bucket.
        assert controller.admit("kb").allowed

    def test_tenant_rate_override_beats_default(self):
        registry = TenantRegistry(
            [Tenant(name="vip", key="kv", rate=100.0, burst=100.0)]
        )
        controller, _ = make_controller(
            tenants=registry, rate_limit=1.0, burst=1.0
        )
        for _ in range(50):
            assert controller.admit("kv").allowed

    def test_quota_rollover(self):
        controller, clock = make_controller(daily_quota=2)
        assert controller.admit(None).allowed
        controller.release()
        assert controller.admit(None).allowed
        controller.release()
        decision = controller.admit(None)
        assert not decision.allowed
        assert decision.status == 429
        assert decision.reason == "quota"
        assert decision.retry_after == pytest.approx(
            QUOTA_WINDOW_SECONDS - (clock() % QUOTA_WINDOW_SECONDS)
        )
        clock.advance(QUOTA_WINDOW_SECONDS)
        assert controller.admit(None).allowed

    def test_throttled_request_does_not_consume_quota(self):
        controller, clock = make_controller(
            rate_limit=1.0, burst=1.0, daily_quota=2
        )
        assert controller.admit(None).allowed
        assert controller.admit(None).reason == "throttled"
        clock.advance(1.0)
        assert controller.admit(None).allowed
        # Quota of 2 is now exhausted; the throttled attempt did not count.
        clock.advance(1.0)
        assert controller.admit(None).reason == "quota"


class TestControllerShedding:
    def test_shed_engages_at_threshold(self):
        controller, _ = make_controller(shed_threshold=2, shed_resume=1)
        assert controller.admit(None).allowed
        assert controller.admit(None).allowed
        decision = controller.admit(None)
        assert not decision.allowed
        assert decision.status == 503
        assert decision.reason == "shed"
        assert decision.retry_after is not None

    def test_hysteresis_requires_drop_to_resume_mark(self):
        controller, _ = make_controller(shed_threshold=4, shed_resume=2)
        for _ in range(4):
            assert controller.admit(None).allowed
        assert controller.admit(None).reason == "shed"
        controller.release()  # 3 in flight: above resume, still shedding
        assert controller.admit(None).reason == "shed"
        controller.release()  # 2 in flight: at resume, door reopens
        assert controller.admit(None).allowed

    def test_default_resume_is_three_quarters(self):
        assert AdmissionConfig(shed_threshold=8).effective_shed_resume() == 6
        assert AdmissionConfig(shed_threshold=1).effective_shed_resume() == 1
        assert (
            AdmissionConfig(shed_threshold=8, shed_resume=3)
            .effective_shed_resume()
            == 3
        )


class TestControllerDeadlines:
    def test_header_builds_deadline(self):
        controller, clock = make_controller(default_deadline_ms=0)
        decision = controller.admit(None, "250")
        assert decision.allowed
        assert decision.deadline is not None
        assert decision.deadline.remaining() == pytest.approx(0.25)
        clock.advance(0.3)
        assert decision.deadline.expired()

    def test_default_applied_without_header(self):
        controller, _ = make_controller(default_deadline_ms=100)
        decision = controller.admit(None, None)
        assert decision.deadline.remaining() == pytest.approx(0.1)

    def test_header_clamped_to_max(self):
        controller, _ = make_controller(
            default_deadline_ms=0, max_deadline_ms=1_000
        )
        decision = controller.admit(None, "999999")
        assert decision.deadline.remaining() == pytest.approx(1.0)

    def test_bad_header_is_rejected_not_ignored(self):
        controller, _ = make_controller()
        for header in ("abc", "0", "-5"):
            decision = controller.admit(None, header)
            assert not decision.allowed
            assert decision.status == 400
            assert decision.reason == "bad-deadline"

    def test_no_policy_means_no_deadline(self):
        controller, _ = make_controller()
        decision = controller.admit(None)
        assert decision.allowed
        assert decision.deadline is None


class TestControllerDrain:
    def test_drain_rejects_new_arrivals(self):
        controller, _ = make_controller(shed_threshold=10)
        assert controller.admit(None).allowed
        controller.begin_drain()
        decision = controller.admit(None)
        assert not decision.allowed
        assert decision.status == 503
        assert decision.reason == "draining"

    def test_inflight_accounting(self):
        controller, _ = make_controller(shed_threshold=10)
        assert controller.inflight == 0
        controller.admit(None)
        controller.admit(None)
        assert controller.inflight == 2
        controller.release()
        assert controller.inflight == 1


class TestControllerMetrics:
    def test_decisions_and_throttles_counted(self):
        metrics = MetricsRegistry()
        registry = TenantRegistry([Tenant(name="a", key="ka")])
        controller, _ = make_controller(
            tenants=registry, metrics=metrics, rate_limit=1.0, burst=1.0
        )
        controller.admit("ka")
        controller.admit("ka")  # throttled
        controller.admit("nope")  # unauthorized
        assert metrics.value(
            "rased_admission_requests_total", decision="admitted"
        ) == 1
        assert metrics.value(
            "rased_admission_requests_total", decision="throttled"
        ) == 1
        assert metrics.value(
            "rased_admission_requests_total", decision="unauthorized"
        ) == 1
        assert metrics.value(
            "rased_admission_throttled_total", tenant="a"
        ) == 1

    def test_deadline_hits_counted_per_path(self):
        metrics = MetricsRegistry()
        controller, _ = make_controller(metrics=metrics)
        controller.record_deadline_hit("/analysis")
        controller.record_deadline_hit("/analysis")
        assert metrics.value(
            "rased_admission_deadline_hits_total", path="/analysis"
        ) == 2


class TestConfig:
    def test_default_config_disables_everything(self):
        assert not AdmissionConfig().any_enabled()

    def test_each_knob_enables(self):
        assert AdmissionConfig(key_file="x").any_enabled()
        assert AdmissionConfig(rate_limit=1.0).any_enabled()
        assert AdmissionConfig(daily_quota=1).any_enabled()
        assert AdmissionConfig(default_deadline_ms=1).any_enabled()
        assert AdmissionConfig(shed_threshold=1).any_enabled()
