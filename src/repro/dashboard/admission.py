"""Front-door admission control for the dashboard HTTP server.

RASED's pitch is a dashboard that stays responsive under heavy
concurrent traffic; this module is the serving-path generalization of
the feed armor (``RetryPolicy``/``CircuitBreaker``) into what every
production API has and a bare ``ThreadingHTTPServer`` does not:

* **auth** — per-key tenants via the ``X-API-Key`` header, loaded from
  a JSON key file (:class:`TenantRegistry`);
* **rate limits** — a per-tenant :class:`TokenBucket` (sustained
  requests/second plus a burst allowance) answering 429 with a
  ``Retry-After`` hint when drained;
* **daily quotas** — a per-tenant request budget per fixed 86 400 s
  clock window (:class:`DailyQuota`), also a 429;
* **deadlines** — a per-request budget from the ``X-Deadline-Ms``
  header (clamped to a configured maximum) or the configured default,
  handed to the executor via :mod:`repro.core.deadline` so a doomed
  query stops doing disk reads at the next phase boundary;
* **load shedding** — once in-flight admitted requests pass a
  threshold, new requests are rejected with 503 + ``Retry-After``
  until the backlog drains below a lower resume mark (hysteresis, so
  the server does not flap at the boundary);
* **graceful drain** — :meth:`AdmissionController.begin_drain` turns
  new arrivals away with 503 while the server's ``stop()`` waits for
  the requests in flight.

Everything is **off by default** (:meth:`AdmissionConfig.any_enabled`
is false for the default config), so deployments and benchmarks that
do not opt in behave bit-identically to the unarmored server.  All
time comes from one injected monotonic clock, so every policy is
testable against a fake clock.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.core.deadline import Deadline
from repro.errors import ConfigError
from repro.obs import MetricsRegistry

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionDecision",
    "DailyQuota",
    "QUOTA_WINDOW_SECONDS",
    "Tenant",
    "TenantRegistry",
    "TokenBucket",
]

# Metric names as module constants (per the metric-name lint rule).
_M_DECISIONS = "rased_admission_requests_total"
_M_SHED = "rased_admission_shed_total"
_M_DEADLINE_HITS = "rased_admission_deadline_hits_total"
_M_THROTTLED = "rased_admission_throttled_total"
_M_QUOTA = "rased_admission_quota_exceeded_total"
_M_INFLIGHT_PEAK = "rased_admission_inflight_peak"

#: Quota windows are fixed 86 400-second spans on the injected clock —
#: "days" of a monotonic clock rather than calendar days, which keeps
#: rollover arithmetic clock-agnostic and fake-clock testable.
QUOTA_WINDOW_SECONDS = 86_400.0


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, ``burst`` capacity.

    Not self-synchronized — the :class:`AdmissionController` mutates
    buckets under its own lock.
    """

    __slots__ = ("rate", "burst", "_tokens", "_stamp")

    def __init__(self, rate: float, burst: float, now: float) -> None:
        if rate <= 0.0 or burst < 1.0:
            raise ConfigError(
                f"token bucket needs rate > 0 and burst >= 1, "
                f"got rate={rate!r} burst={burst!r}"
            )
        self.rate = rate
        self.burst = burst
        self._tokens = burst
        self._stamp = now

    def acquire(self, now: float) -> float:
        """Take one token; 0.0 on success, else seconds until the next.

        The return value is the ``Retry-After`` hint: how long the
        caller must wait for refill to make one whole token available.
        """
        elapsed = now - self._stamp
        if elapsed > 0.0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._stamp = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return 0.0
        return (1.0 - self._tokens) / self.rate

    def available(self, now: float) -> float:
        """Tokens that would be available at ``now`` (no side effects)."""
        elapsed = max(0.0, now - self._stamp)
        return min(self.burst, self._tokens + elapsed * self.rate)


class DailyQuota:
    """A per-window request budget with automatic window rollover."""

    __slots__ = ("limit", "_window", "_used")

    def __init__(self, limit: int, now: float) -> None:
        if limit < 1:
            raise ConfigError(f"quota limit must be >= 1, got {limit!r}")
        self.limit = limit
        self._window = int(now // QUOTA_WINDOW_SECONDS)
        self._used = 0

    def consume(self, now: float) -> float:
        """Spend one unit; 0.0 on success, else seconds to rollover."""
        window = int(now // QUOTA_WINDOW_SECONDS)
        if window != self._window:
            self._window = window
            self._used = 0
        if self._used >= self.limit:
            return QUOTA_WINDOW_SECONDS - (now % QUOTA_WINDOW_SECONDS)
        self._used += 1
        return 0.0

    def used(self, now: float) -> int:
        """Units spent in the window containing ``now``."""
        if int(now // QUOTA_WINDOW_SECONDS) != self._window:
            return 0
        return self._used


@dataclass(frozen=True)
class Tenant:
    """One API key's identity and (optional) per-tenant overrides."""

    name: str
    key: str
    #: Overrides of the config-wide defaults; ``None`` inherits.
    rate: float | None = None
    burst: float | None = None
    daily_quota: int | None = None


class TenantRegistry:
    """The tenant key file: ``X-API-Key`` value -> :class:`Tenant`.

    File format (JSON)::

        {"tenants": [
            {"name": "analytics", "key": "ak-1", "rate": 50,
             "burst": 100, "daily_quota": 100000},
            {"name": "ops", "key": "ak-2"}
        ]}

    ``rate``/``burst``/``daily_quota`` are optional per-tenant
    overrides of the deployment-wide defaults.
    """

    def __init__(self, tenants: list[Tenant]) -> None:
        self._by_key: dict[str, Tenant] = {}
        for tenant in tenants:
            if not tenant.key:
                raise ConfigError(f"tenant {tenant.name!r} has an empty key")
            if tenant.key in self._by_key:
                raise ConfigError(
                    f"duplicate API key for tenants "
                    f"{self._by_key[tenant.key].name!r} and {tenant.name!r}"
                )
            self._by_key[tenant.key] = tenant

    def __len__(self) -> int:
        return len(self._by_key)

    def lookup(self, key: str | None) -> Tenant | None:
        if key is None:
            return None
        return self._by_key.get(key)

    @classmethod
    def load(cls, path: str | Path) -> "TenantRegistry":
        """Parse a key file; raises :class:`ConfigError` on bad shape."""
        try:
            document = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read tenant key file {path}: {exc}") from exc
        entries = document.get("tenants")
        if not isinstance(entries, list):
            raise ConfigError(
                f'tenant key file {path} must be {{"tenants": [...]}}'
            )
        tenants: list[Tenant] = []
        for entry in entries:
            if not isinstance(entry, dict) or "name" not in entry or "key" not in entry:
                raise ConfigError(
                    f"tenant entries need at least name and key: {entry!r}"
                )
            tenants.append(
                Tenant(
                    name=str(entry["name"]),
                    key=str(entry["key"]),
                    rate=float(entry["rate"]) if "rate" in entry else None,
                    burst=float(entry["burst"]) if "burst" in entry else None,
                    daily_quota=int(entry["daily_quota"])
                    if "daily_quota" in entry
                    else None,
                )
            )
        return cls(tenants)


@dataclass(frozen=True)
class AdmissionConfig:
    """Front-door policy knobs; the default disables every feature."""

    #: Path to the tenant key file.  Set -> requests must carry a known
    #: ``X-API-Key`` (401 otherwise); unset -> no auth, and rate/quota
    #: policies apply to one shared anonymous tenant.
    key_file: str | None = None
    #: Sustained per-tenant requests/second (0 disables rate limiting).
    rate_limit: float = 0.0
    #: Burst allowance on top of the sustained rate (0 -> max(rate, 1)).
    burst: float = 0.0
    #: Per-tenant requests per 86 400 s window (0 disables quotas).
    daily_quota: int = 0
    #: Deadline applied when the client sends no ``X-Deadline-Ms``
    #: header (0 disables default deadlines).
    default_deadline_ms: int = 0
    #: Upper clamp on client-requested deadlines.
    max_deadline_ms: int = 60_000
    #: In-flight admitted requests at which new arrivals are shed with
    #: 503 (0 disables shedding).
    shed_threshold: int = 0
    #: In-flight level at which shedding disengages (hysteresis);
    #: 0 -> three quarters of ``shed_threshold``.
    shed_resume: int = 0
    #: ``Retry-After`` seconds suggested on shed/drain rejections.
    shed_retry_after: float = 1.0

    def any_enabled(self) -> bool:
        """True when any admission feature is switched on."""
        return (
            self.key_file is not None
            or self.rate_limit > 0.0
            or self.daily_quota > 0
            or self.default_deadline_ms > 0
            or self.shed_threshold > 0
        )

    def effective_shed_resume(self) -> int:
        if self.shed_threshold <= 0:
            return 0
        if self.shed_resume > 0:
            return min(self.shed_resume, self.shed_threshold)
        return max(1, (self.shed_threshold * 3) // 4)


@dataclass(frozen=True)
class AdmissionDecision:
    """The outcome of one front-door check."""

    allowed: bool
    #: Decision label on ``rased_admission_requests_total``.
    reason: str
    #: HTTP status the server should answer with when rejected.
    status: int = 200
    error: str = ""
    #: ``Retry-After`` hint (seconds) for 429/503 rejections.
    retry_after: float | None = None
    #: Tenant name ("" when auth is off).
    tenant: str = ""
    #: Deadline to install around the request's handler, if any.
    deadline: Deadline | None = None


#: The bucket/quota key used when auth is disabled.
_ANONYMOUS = "anonymous"


class AdmissionController:
    """Admission policy + in-flight accounting for the HTTP front door.

    One controller guards one server.  The handler calls :meth:`admit`
    before any work; an allowed decision **must** be paired with
    exactly one :meth:`release` after the response is written.
    """

    def __init__(
        self,
        config: AdmissionConfig,
        tenants: TenantRegistry | None = None,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config
        if tenants is None and config.key_file is not None:
            tenants = TenantRegistry.load(config.key_file)
        self.tenants = tenants
        self.metrics = metrics
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: dict[str, TokenBucket] = {}  # guarded-by: _lock
        self._quotas: dict[str, DailyQuota] = {}  # guarded-by: _lock
        self._inflight = 0  # guarded-by: _lock
        self._shedding = False  # guarded-by: _lock
        self._draining = False  # guarded-by: _lock
        self._resume = config.effective_shed_resume()

    # -- policy ---------------------------------------------------------

    def admit(
        self,
        api_key: str | None,
        deadline_header: str | None = None,
    ) -> AdmissionDecision:
        """Run every enabled check; the caller sends the rejection."""
        config = self.config
        now = self._clock()

        # Auth is lock-free: the registry is immutable after load.
        tenant: Tenant | None = None
        if self.tenants is not None:
            tenant = self.tenants.lookup(api_key)
            if tenant is None:
                return self._rejected(
                    "unauthorized",
                    401,
                    "missing or unknown X-API-Key",
                )
        tenant_name = tenant.name if tenant is not None else ""
        bucket_key = tenant.key if tenant is not None else _ANONYMOUS

        deadline, bad_deadline = self._build_deadline(deadline_header)
        if bad_deadline is not None:
            return self._rejected("bad-deadline", 400, bad_deadline)

        with self._lock:
            if self._draining:
                return self._rejected(
                    "draining",
                    503,
                    "server is draining",
                    retry_after=config.shed_retry_after,
                )
            if config.shed_threshold > 0:
                # Hysteresis: engage at the threshold, disengage only
                # once the backlog falls to the (lower) resume mark, so
                # the door does not flap open/shut around one level.
                if self._shedding and self._inflight <= self._resume:
                    self._shedding = False
                if not self._shedding and self._inflight >= config.shed_threshold:
                    self._shedding = True
                if self._shedding:
                    self._inc(_M_SHED)
                    return self._rejected(
                        "shed",
                        503,
                        f"overloaded: {self._inflight} requests in flight",
                        retry_after=config.shed_retry_after,
                    )
            if config.rate_limit > 0.0:
                bucket = self._buckets.get(bucket_key)
                if bucket is None:
                    rate = (
                        tenant.rate
                        if tenant is not None and tenant.rate is not None
                        else config.rate_limit
                    )
                    burst = (
                        tenant.burst
                        if tenant is not None and tenant.burst is not None
                        else (config.burst if config.burst > 0 else max(rate, 1.0))
                    )
                    bucket = self._buckets[bucket_key] = TokenBucket(
                        rate, burst, now
                    )
                wait = bucket.acquire(now)
                if wait > 0.0:
                    self._inc(_M_THROTTLED, tenant=tenant_name or _ANONYMOUS)
                    return self._rejected(
                        "throttled",
                        429,
                        "rate limit exceeded",
                        retry_after=wait,
                        tenant=tenant_name,
                    )
            quota_limit = (
                tenant.daily_quota
                if tenant is not None and tenant.daily_quota is not None
                else config.daily_quota
            )
            if quota_limit > 0:
                quota = self._quotas.get(bucket_key)
                if quota is None or quota.limit != quota_limit:
                    quota = self._quotas[bucket_key] = DailyQuota(
                        quota_limit, now
                    )
                wait = quota.consume(now)
                if wait > 0.0:
                    self._inc(_M_QUOTA, tenant=tenant_name or _ANONYMOUS)
                    return self._rejected(
                        "quota",
                        429,
                        f"daily quota of {quota_limit} requests exhausted",
                        retry_after=wait,
                        tenant=tenant_name,
                    )
            self._inflight += 1
            inflight = self._inflight
        self._inc(_M_DECISIONS, decision="admitted")
        if self.metrics is not None:
            self.metrics.peak(_M_INFLIGHT_PEAK, float(inflight))
        return AdmissionDecision(
            allowed=True,
            reason="admitted",
            tenant=tenant_name,
            deadline=deadline,
        )

    def release(self) -> None:
        """Pair of an allowed :meth:`admit`."""
        with self._lock:
            self._inflight -= 1

    def record_deadline_hit(self, path: str) -> None:
        """Count a request that died on its deadline (server calls this)."""
        self._inc(_M_DEADLINE_HITS, path=path)

    # -- drain ----------------------------------------------------------

    def begin_drain(self) -> None:
        """Stop admitting; new arrivals get 503 while in-flight finish."""
        with self._lock:
            self._draining = True

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    # -- internals ------------------------------------------------------

    def _build_deadline(
        self, header: str | None
    ) -> tuple[Deadline | None, str | None]:
        """(deadline, error): parse the header or apply the default."""
        config = self.config
        budget_ms = config.default_deadline_ms
        if header is not None:
            try:
                requested = int(header)
            except ValueError:
                return None, f"X-Deadline-Ms must be an integer, got {header!r}"
            if requested <= 0:
                return None, f"X-Deadline-Ms must be positive, got {requested}"
            budget_ms = min(requested, config.max_deadline_ms)
        if budget_ms <= 0:
            return None, None
        return Deadline(budget_ms / 1000.0, clock=self._clock), None

    def _rejected(
        self,
        reason: str,
        status: int,
        error: str,
        retry_after: float | None = None,
        tenant: str = "",
    ) -> AdmissionDecision:
        self._inc(_M_DECISIONS, decision=reason)
        return AdmissionDecision(
            allowed=False,
            reason=reason,
            status=status,
            error=error,
            retry_after=retry_after,
            tenant=tenant,
        )

    def _inc(self, name: str, **labels: str) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, **labels)
