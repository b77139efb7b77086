"""Deterministic, seed-driven fault injection for storage and feeds.

The crash-recovery and degradation tests need to kill ingestion at an
exact operation ("the third cube write of the batch"), corrupt an
exact page, or make the replication feed flake an exact number of
times — and then *replay the identical failure* from nothing but a
seed.  This module provides that harness:

* :class:`FaultSpec` — one planned fault: an injection point, a fault
  kind, and trigger arithmetic (fire on the N-th matching operation,
  at most K times).
* :class:`FaultPlan` — an ordered set of specs plus one
  :class:`random.Random` seeded from a single integer; all

  nondeterminism (torn-write lengths, corrupt byte positions,
  randomized plans) draws from it, so a failing seed printed by a test
  is a complete reproduction recipe.
* :class:`FaultyPageStore` — a :class:`~repro.storage.pages.PageStoreProxy`
  that consults the plan on every read/write/append/delete.  Operations are
  classified into **named injection points** from their page ids (see
  :func:`classify_page_op`), so a test can say "crash at the roll-up
  write" without production code carrying test hooks.
* :class:`FaultyReplicationFeed` — the same idea over a
  :class:`~repro.osm.replication.ReplicationFeed`: injected fetch/state
  errors, stale ``state.txt`` reads, and delayed polls.

Fault kinds:

``error``
    Raise :class:`InjectedFault` (a :class:`~repro.errors.StorageError`)
    instead of performing the operation.
``crash``
    Raise :class:`CrashPoint` — which derives from ``BaseException``
    precisely so production ``except RasedError``/``except Exception``
    recovery code cannot accidentally swallow the simulated kill —
    either *before* the operation (it never happens) or *after* it
    (it is durable, but nothing later runs).
``torn``
    Perform a *prefix* of the write or append (length drawn from the
    plan's rng), then crash: a power-loss torn page.
``corrupt``
    Reads return the page with one rng-chosen byte flipped; writes
    persist a flipped payload.
``delay``
    Charge ``delay_seconds`` to the store's device clock, not to any
    query's modeled time (and call the plan's ``sleep`` hook, when one
    is installed) before the operation proceeds.
``stale``
    Feed-only: ``current_sequence`` keeps answering the first value it
    ever observed, simulating a stuck upstream ``state.txt``.

When the plan has no matching live spec — and in particular when no
plan is installed at all — every wrapper method is a pure
pass-through, which is what keeps fault injection a strict no-op for
benchmarks.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from datetime import datetime
from typing import TYPE_CHECKING, Callable

from repro.errors import StorageError
from repro.osm.replication import ReplicationFeed
from repro.storage.pages import PageStore, PageStoreProxy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.osm.xml_io import OsmChange

__all__ = [
    "INJECTION_POINTS",
    "CrashPoint",
    "FaultPlan",
    "FaultSpec",
    "FaultyPageStore",
    "FaultyReplicationFeed",
    "InjectedFault",
    "classify_page_op",
    "shard_fault_hook",
]


class InjectedFault(StorageError):
    """A deterministic failure raised by the fault harness."""


class CrashPoint(BaseException):
    """A simulated process kill.

    Derives from :class:`BaseException`, not :class:`Exception`: the
    whole point of a crash test is that *no* recovery code in the
    process runs — only the test harness, standing in for a restart,
    may catch it.
    """

    def __init__(self, point: str, page_id: str = "") -> None:
        super().__init__(f"simulated crash at {point} ({page_id})")
        self.point = point
        self.page_id = page_id


#: Every named injection point the harness can target.  The first
#: eight are classified from page ids (see :func:`classify_page_op`);
#: the ``store.*`` points match any page, and the ``feed.*`` points
#: live on :class:`FaultyReplicationFeed`.
INJECTION_POINTS = (
    "wal.append",
    "wal.undo",
    "checkpoint",
    "warehouse.write",
    "warehouse.index",
    "index.put",
    "rollup",
    "cursor",
    "store.read",
    "store.write",
    "store.delete",
    "feed.state",
    "feed.fetch",
    "feed.publish",
    "shard.query",
)

_ROLLUP_HEADS = ("W", "M", "Y")


def classify_page_op(op: str, page_id: str) -> tuple[str, ...]:
    """The injection-point names a page operation belongs to.

    Classification is purely syntactic over the repo's page-id
    conventions (``cubes/D…``, ``warehouse/heap/…``, ``wal/…``,
    ``meta/…``), so production code needs no instrumentation hooks for
    the harness to target precise moments of an ingest batch.
    """
    points: list[str] = []
    if op in ("write", "append", "delete"):
        if page_id == "wal/intent":
            # Writing the intent opens the batch; deleting it is the
            # commit point.
            points.append("wal.append" if op == "write" else "checkpoint")
        elif page_id == "wal/checkpoint":
            points.append("checkpoint")
        elif page_id.startswith("wal/undo/"):
            points.append("wal.undo")
        elif page_id.startswith("warehouse/heap/"):
            points.append("warehouse.write")
        elif page_id.startswith(("warehouse/hash/", "warehouse/grid/")):
            points.append("warehouse.index")
        elif page_id.startswith("cubes/"):
            head = page_id.partition("/")[2][:1]
            points.append("rollup" if head in _ROLLUP_HEADS else "index.put")
        elif page_id.startswith("meta/"):
            points.append("cursor")
    # An append writes its bytes: ``store.write`` matches both.
    points.append("store.write" if op == "append" else f"store.{op}")
    return tuple(points)


@dataclass
class FaultSpec:
    """One planned fault at one injection point.

    ``after`` skips that many matching operations before arming, and
    ``count`` bounds how many times the spec fires, so "crash on the
    third roll-up write" is ``FaultSpec(point="rollup", kind="crash",
    after=2)`` and "every heap read is slow" is
    ``FaultSpec(point="store.read", kind="delay", page_prefix=
    "warehouse/heap/", count=10**9, delay_seconds=0.01)``.
    """

    point: str
    kind: str = "error"
    after: int = 0
    count: int = 1
    page_prefix: str = ""
    when: str = "before"
    delay_seconds: float = 0.0
    message: str = ""

    def __post_init__(self) -> None:
        if self.point not in INJECTION_POINTS:
            raise ValueError(f"unknown injection point {self.point!r}")
        if self.kind not in ("error", "crash", "torn", "corrupt", "delay", "stale"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.when not in ("before", "after"):
            raise ValueError(f"when must be 'before' or 'after', not {self.when!r}")


@dataclass
class _FiredFault:
    """A record of one fault the plan actually injected."""

    point: str
    kind: str
    op: str
    target: str


class FaultPlan:
    """A seeded, replayable schedule of faults.

    All trigger counting is per-spec and thread-safe; all randomness
    (torn lengths, corrupt positions, :meth:`randomized` plans) comes
    from one ``random.Random(seed)``, so a plan is fully described —
    and fully replayable — by ``(seed, specs)``.
    """

    def __init__(
        self,
        seed: int = 0,
        specs: tuple[FaultSpec, ...] | list[FaultSpec] = (),
        sleep: Callable[[float], None] | None = None,
    ) -> None:
        self.seed = seed
        self.specs = list(specs)
        self.sleep = sleep
        self.fired: list[_FiredFault] = []
        self._rng = random.Random(seed)
        self._seen: dict[int, int] = {}
        self._shots: dict[int, int] = {}
        self._lock = threading.Lock()

    @classmethod
    def single(cls, point: str, kind: str = "crash", seed: int = 0, **kw) -> "FaultPlan":
        """A plan with exactly one spec — the crash-matrix workhorse."""
        return cls(seed=seed, specs=[FaultSpec(point=point, kind=kind, **kw)])

    @classmethod
    def randomized(
        cls,
        seed: int,
        points: tuple[str, ...] = ("store.read", "store.write"),
        kinds: tuple[str, ...] = ("error", "delay"),
        n: int = 3,
        max_after: int = 20,
    ) -> "FaultPlan":
        """Draw ``n`` specs from the seed — for fuzz-style soak tests."""
        rng = random.Random(seed)
        specs = [
            FaultSpec(
                point=rng.choice(points),
                kind=rng.choice(kinds),
                after=rng.randrange(max_after),
                delay_seconds=rng.uniform(0.0, 0.002),
            )
            for _ in range(n)
        ]
        return cls(seed=seed, specs=specs)

    # -- trigger arithmetic ---------------------------------------------------

    def match(self, op: str, target: str, points: tuple[str, ...]) -> FaultSpec | None:
        """The first armed spec matching this operation, if any.

        Increments per-spec seen/fired counters under the lock; the
        caller then *performs* the fault outside it.
        """
        if not self.specs:
            return None
        with self._lock:
            for i, spec in enumerate(self.specs):
                if spec.point not in points:
                    continue
                if spec.page_prefix and not target.startswith(spec.page_prefix):
                    continue
                seen = self._seen.get(i, 0)
                self._seen[i] = seen + 1
                if seen < spec.after:
                    continue
                if self._shots.get(i, 0) >= spec.count:
                    continue
                self._shots[i] = self._shots.get(i, 0) + 1
                self.fired.append(
                    _FiredFault(point=spec.point, kind=spec.kind, op=op, target=target)
                )
                return spec
        return None

    # -- rng-dependent fault payloads ----------------------------------------

    def torn_length(self, size: int) -> int:
        """How much of a torn write lands (at least 0, less than all)."""
        with self._lock:
            if size <= 1:
                return 0
            return self._rng.randrange(size)

    def corrupt_bytes(self, data: bytes) -> bytes:
        """``data`` with one seeded byte flipped (empty pages grow one)."""
        with self._lock:
            if not data:
                return b"\xff"
            pos = self._rng.randrange(len(data))
            flip = self._rng.randrange(1, 256)
        out = bytearray(data)
        out[pos] ^= flip
        return bytes(out)

    def do_delay(self, spec: FaultSpec, store: PageStore | None = None) -> None:
        """Apply a delay fault to the store's device clock (and sleep hook)."""
        if store is not None:
            store.stats.simulated_seconds += spec.delay_seconds
        if self.sleep is not None:
            self.sleep(spec.delay_seconds)

    def raise_for(self, spec: FaultSpec, op: str, target: str) -> None:
        """Raise the spec's error/crash for an operation."""
        point = spec.point
        if spec.kind == "crash":
            raise CrashPoint(point, target)
        message = spec.message or f"injected {op} failure at {point}: {target}"
        raise InjectedFault(message)


class FaultyPageStore(PageStoreProxy):
    """A page store that executes a :class:`FaultPlan`.

    Wrap the system's store (in-memory or :class:`DirectoryDisk`)
    before handing it to :class:`~repro.system.RasedSystem`; because
    it is a :class:`PageStoreProxy`, stats, latency accounting, and
    metrics bindings all remain the inner store's.
    """

    def __init__(self, inner: PageStore, plan: FaultPlan | None = None) -> None:
        super().__init__(inner)
        self.plan = plan

    def _check(self, op: str, page_id: str) -> FaultSpec | None:
        if self.plan is None:
            return None
        return self.plan.match(op, page_id, classify_page_op(op, page_id))

    def read(self, page_id: str) -> bytes:
        spec = self._check("read", page_id)
        if spec is None:
            return self.inner.read(page_id)
        plan = self.plan
        assert plan is not None
        if spec.kind == "delay":
            plan.do_delay(spec, self.inner)
            return self.inner.read(page_id)
        if spec.kind == "corrupt":
            return plan.corrupt_bytes(self.inner.read(page_id))
        plan.raise_for(spec, "read", page_id)
        raise AssertionError("unreachable")

    def write(self, page_id: str, data: bytes) -> None:
        self._land("write", page_id, data, lambda landed: self.inner.write(page_id, landed))

    def append(self, page_id: str, data: bytes, at: int) -> None:
        self._land("append", page_id, data, lambda landed: self.inner.append(page_id, landed, at))

    def _land(
        self, op: str, page_id: str, data: bytes, perform: Callable[[bytes], None]
    ) -> None:
        """Write or append ``data`` as the plan says: whole, late, corrupt,
        torn (a prefix, then the crash), or not at all."""
        spec = self._check(op, page_id)
        if spec is None:
            perform(data)
            return
        plan = self.plan
        assert plan is not None
        if spec.kind == "delay":
            plan.do_delay(spec, self.inner)
            perform(data)
            return
        if spec.kind == "corrupt":
            perform(plan.corrupt_bytes(data))
            return
        if spec.kind == "torn":
            perform(data[: plan.torn_length(len(data))])
            raise CrashPoint(spec.point, page_id)
        if spec.kind == "crash" and spec.when == "after":
            perform(data)
        plan.raise_for(spec, op, page_id)

    def delete(self, page_id: str) -> None:
        spec = self._check("delete", page_id)
        if spec is None:
            self.inner.delete(page_id)
            return
        plan = self.plan
        assert plan is not None
        if spec.kind == "delay":
            plan.do_delay(spec, self.inner)
            self.inner.delete(page_id)
            return
        if spec.kind == "crash" and spec.when == "after":
            self.inner.delete(page_id)
        plan.raise_for(spec, "delete", page_id)


def shard_fault_hook(plan: FaultPlan) -> Callable[[int, PageStore], None]:
    """A :class:`ScatterGatherExecutor` ``fault_hook`` executing a plan.

    The ``shard.query`` injection point fires at each shard subquery's
    entry with the target string ``shard/<id>``, so ``page_prefix``
    selects one shard exactly the way it selects a page family:
    ``FaultSpec(point="shard.query", kind="error", page_prefix=
    "shard/1", count=10**9)`` is "shard 1 is down", and
    ``kind="delay"`` is a slow shard (the delay lands on that shard's
    device clock, not on any query's modeled time).  ``crash`` raises :class:`CrashPoint` — which
    the gather loop must *not* degrade around (it is a
    ``BaseException``), mirroring the store-level crash contract.
    """

    def hook(shard: int, store: PageStore) -> None:
        target = f"shard/{shard}"
        spec = plan.match("query", target, ("shard.query",))
        if spec is None:
            return
        if spec.kind == "delay":
            plan.do_delay(spec, store)
            return
        plan.raise_for(spec, "query", target)

    return hook


class FaultyReplicationFeed:
    """A :class:`ReplicationFeed` front that executes a plan.

    Duck-typed rather than subclassed: the real feed's constructor
    creates directories, and the wrapper must not.  It forwards the
    full read/write surface the pipeline and live monitor use.
    """

    def __init__(self, inner: ReplicationFeed, plan: FaultPlan | None = None) -> None:
        self.inner = inner
        self.plan = plan
        self._stale_sequence: int | None = None

    @property
    def granularity(self) -> str:
        return self.inner.granularity

    @property
    def root(self):
        return self.inner.root

    def _check(self, point: str, target: str) -> FaultSpec | None:
        if self.plan is None:
            return None
        return self.plan.match(point.split(".", 1)[1], target, (point,))

    def _apply(self, point: str, target: str) -> FaultSpec | None:
        """Handle error/crash/delay; return the spec for stale handling."""
        spec = self._check(point, target)
        if spec is None:
            return None
        plan = self.plan
        assert plan is not None
        if spec.kind == "delay":
            plan.do_delay(spec)
            return spec
        if spec.kind == "stale":
            return spec
        plan.raise_for(spec, point, target)
        return spec

    def publish(
        self, change: "OsmChange", timestamp: datetime, sizes: bytes | None = None
    ) -> int:
        self._apply("feed.publish", "state.txt")
        return self.inner.publish(change, timestamp, sizes)

    def current_sequence(self) -> int | None:
        spec = self._apply("feed.state", "state.txt")
        current = self.inner.current_sequence()
        if spec is not None and spec.kind == "stale":
            if self._stale_sequence is None:
                self._stale_sequence = current
            return self._stale_sequence
        if self._stale_sequence is None:
            self._stale_sequence = current
        return current

    def state(self, sequence: int) -> tuple[int, datetime]:
        self._apply("feed.state", str(sequence))
        return self.inner.state(sequence)

    def fetch(self, sequence: int) -> "OsmChange":
        self._apply("feed.fetch", str(sequence))
        return self.inner.fetch(sequence)

    def sizes(self, sequence: int) -> bytes | None:
        return self.inner.sizes(sequence)

    #: The feed's own loops, over the three faulty reads above.
    pending = ReplicationFeed.pending
    iter_since = ReplicationFeed.iter_since
