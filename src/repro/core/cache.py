"""The cube cache: recent cubes preloaded across index levels.

RASED preloads the most recent cubes of every level into memory,
splitting ``N`` available slots by ratios (α, β, γ, θ) across the
daily, weekly, monthly, and yearly levels (paper, Section VII-A):

    {D_{|D|-i}}_{i=0..αN} ∪ {W_{|W|-i}}_{i=0..βN}
      ∪ {M_{|M|-i}}_{i=0..γN} ∪ {Y_{|Y|-i}}_{i=0..θN}

The rationale is recency skew: dashboards ask about recent periods far
more often than about 2008.  The ratios trade granularity against
covered time — a daily-heavy split caches fine detail over a short
window, a yearly-heavy split caches a coarse view over all of history.

The paper's deployment uses N = 2 GB of cube slots with
(α, β, γ, θ) = (0.4, 0.35, 0.2, 0.05); those are this module's
defaults.  The policy is static: contents change only when maintenance
preloads or refreshes them, never because a query missed.

Capacity is counted in cubes (slots); :attr:`CacheManager.cached_bytes`
reports what the resident cubes actually occupy, which for sparse cubes
is far below one dense page each.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.types.temporal import Level, TemporalKey
from repro.types.cube import AnyCube
from repro.core.hierarchy import HierarchicalIndex
from repro.errors import DEGRADABLE_READ_ERRORS, ConfigError
from repro.obs import MetricsRegistry, get_registry, metric_key

__all__ = ["CacheManager", "CacheRatios", "DEFAULT_RATIOS"]

# Prepared per-level registry keys.  HIT_KEYS/MISS_KEYS are public:
# the executor accounts hits and misses per query and flushes them in
# its single batched registry update, keeping ``get`` free of locking.
HIT_KEYS = {
    level: metric_key("rased_cache_hits_total", level=level.label) for level in Level
}
MISS_KEYS = {
    level: metric_key("rased_cache_misses_total", level=level.label)
    for level in Level
}
_K_PRELOADED = {
    level: metric_key("rased_cache_preloaded_cubes_total", level=level.label)
    for level in Level
}


@dataclass(frozen=True)
class CacheRatios:
    """The (α, β, γ, θ) split of cache slots across levels."""

    alpha: float = 0.4   # daily
    beta: float = 0.35   # weekly
    gamma: float = 0.2   # monthly
    theta: float = 0.05  # yearly

    def __post_init__(self) -> None:
        values = (self.alpha, self.beta, self.gamma, self.theta)
        if any(v < 0 for v in values):
            raise ConfigError("cache ratios must be non-negative")
        if abs(sum(values) - 1.0) > 1e-9:
            raise ConfigError(f"cache ratios must sum to 1, got {sum(values)}")

    def slots_per_level(self, total_slots: int) -> dict[Level, int]:
        """Integer slot allotment per level (floor; remainder to daily)."""
        allotment = {
            Level.DAY: int(self.alpha * total_slots),
            Level.WEEK: int(self.beta * total_slots),
            Level.MONTH: int(self.gamma * total_slots),
            Level.YEAR: int(self.theta * total_slots),
        }
        remainder = total_slots - sum(allotment.values())
        allotment[Level.DAY] += remainder
        return allotment


DEFAULT_RATIOS = CacheRatios()


class CacheManager:
    """Slot-budgeted cube cache with the recency preload policy."""

    def __init__(
        self,
        index: HierarchicalIndex,
        slots: int,
        ratios: CacheRatios = DEFAULT_RATIOS,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if slots < 0:
            raise ConfigError("cache slots must be non-negative")
        self.index = index
        self.slots = slots
        self.ratios = ratios
        self.metrics = metrics if metrics is not None else get_registry()
        # Dashboard queries read the cache while the ingestion pipeline
        # replaces its contents (preload/refresh_key after maintenance
        # rewrites cubes); one lock serializes the two sides.
        self._lock = threading.Lock()
        self._cubes: dict[TemporalKey, AnyCube] = {}  # guarded-by: _lock
        self._bytes = 0  # guarded-by: _lock
        self.hits = 0
        self.misses = 0

    # -- preload -----------------------------------------------------------

    def preload(self) -> int:
        """Load the most recent cubes per level; returns cubes loaded.

        Reading happens through the index (and thus charges disk I/O),
        but preloading is part of RASED's offline maintenance — callers
        benchmarking queries should reset disk stats afterwards.

        The disk reads happen *outside* ``_lock``: each one charges
        modeled latency, and holding the cache lock across a whole
        preload sweep would stall every concurrent ``get`` for the
        sweep's duration.  The fresh cube map is assembled on
        the side and swapped in under one brief acquisition.
        """
        fresh: dict[TemporalKey, AnyCube] = {}
        preloaded_per_level: list[tuple[Level, int]] = []
        for level, allotment in self.ratios.slots_per_level(self.slots).items():
            if level not in self.index.levels or allotment <= 0:
                continue
            keys = self.index.keys(level)
            taken = keys[-allotment:]
            for key in taken:
                fresh[key] = self.index.get(key)
            if taken:
                preloaded_per_level.append((level, len(taken)))
        with self._lock:
            self._cubes = fresh
            self._bytes = sum(cube.nbytes for cube in fresh.values())
            self.hits = 0
            self.misses = 0
        for level, count in preloaded_per_level:
            self.metrics.inc_key(_K_PRELOADED[level], count)
        return len(fresh)

    def refresh_key(self, key: TemporalKey) -> None:
        """Re-read one cached cube after maintenance replaced it.

        A cube that can no longer be read (quarantined or rolled back
        since it was written) is simply dropped from the cache — the
        degraded-answer machinery owns reporting, not the refresh.
        """
        if key not in self._cubes:
            return
        try:
            cube = self.index.get(key)  # disk read outside the lock
        except DEGRADABLE_READ_ERRORS:
            with self._lock:
                stale = self._cubes.pop(key, None)
                if stale is not None:
                    self._bytes -= stale.nbytes
            return
        with self._lock:
            if key in self._cubes:
                self._bytes += cube.nbytes - self._cubes[key].nbytes
                self._cubes[key] = cube
        # A query may have memoized the replaced cube since put()'s bump.
        if self.index.epoch is not None:
            self.index.epoch.bump(key.start, key.end)

    def clear(self) -> int:
        """Drop every cached cube; returns how many were resident.

        Used when the store changed wholesale underneath the index
        (WAL rollback after a crashed ingest batch) and per-key
        refreshing cannot know which entries are stale.
        """
        with self._lock:
            count = len(self._cubes)
            self._cubes.clear()
            self._bytes = 0
        return count

    # -- lookup ------------------------------------------------------------

    def contents(self) -> frozenset[TemporalKey]:
        """Immutable view of cached keys (consumed by the optimizer)."""
        with self._lock:
            return frozenset(self._cubes)

    def get(self, key: TemporalKey) -> AnyCube | None:
        """A cached cube, or ``None`` on miss (counts hit/miss stats).

        Registry series for hits/misses are recorded by the executor
        (batched per query); this method pays only the cache's own
        uncontended lock, never the registry's.
        """
        with self._lock:
            cube = self._cubes.get(key)
            if cube is not None:
                self.hits += 1
                return cube
            self.misses += 1
            return None

    @property
    def cached_count(self) -> int:
        return len(self._cubes)

    @property
    def cached_bytes(self) -> int:
        """In-memory payload bytes of every resident cube."""
        return self._bytes
