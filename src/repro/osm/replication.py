"""Sequence-numbered replication feeds of osmChange diffs.

OSM publishes minutely/hourly/daily diff files under a replication
directory tree: each sequence number ``NNNNNNNNN`` maps to a path
``AAA/BBB/CCC.osc.gz`` plus a ``CCC.state.txt`` recording the sequence
number and timestamp, and a top-level ``state.txt`` pointing at the
newest sequence (paper, Section II-B:
``https://planet.openstreetmap.org/replication/day/...``).

The reproduction implements the same layout (without gzip — the files
are synthetic) so the daily crawler genuinely *discovers* new diffs by
reading state files, exactly as a pyosmium-based crawler would.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Callable, Iterator, TypeVar

from repro.errors import CircuitOpenError, ParseError, StorageError
from repro.osm.xml_io import OsmChange, format_timestamp, parse_timestamp, read_osc, write_osc

__all__ = [
    "ReplicationFeed",
    "ResilientFeed",
    "RetryPolicy",
    "CircuitBreaker",
    "CRAWL_RETRY_POLICY",
    "CRAWL_BREAKER_THRESHOLD",
    "sequence_path",
    "GRANULARITIES",
]

# Metric names as module constants.  The registry itself is duck-typed
# (``osm`` and ``obs`` are sibling layers, so no runtime import).
_M_FEED_RETRIES = "rased_feed_retries_total"
_M_FEED_FAILURES = "rased_feed_failures_total"
_M_FEED_BREAKER_OPENS = "rased_feed_breaker_opens_total"
_M_FEED_BREAKER_REJECTED = "rased_feed_breaker_rejected_total"

_T = TypeVar("_T")

GRANULARITIES = ("minute", "hour", "day")


def sequence_path(sequence: int) -> str:
    """The ``AAA/BBB/CCC`` relative path for a sequence number."""
    if not 0 <= sequence <= 999_999_999:
        raise StorageError(f"sequence number out of range: {sequence}")
    text = f"{sequence:09d}"
    return f"{text[0:3]}/{text[3:6]}/{text[6:9]}"


def _parse_state(text: str) -> tuple[int, datetime]:
    sequence: int | None = None
    timestamp: datetime | None = None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("#") or not line:
            continue
        key, _, value = line.partition("=")
        if key == "sequenceNumber":
            sequence = int(value)
        elif key == "timestamp":
            # OSM state files escape ':' as '\:'.
            timestamp = parse_timestamp(value.replace("\\:", ":"))
    if sequence is None or timestamp is None:
        raise ParseError(f"malformed state file: {text!r}")
    return sequence, timestamp


def _format_state(sequence: int, timestamp: datetime) -> str:
    stamp = format_timestamp(timestamp).replace(":", "\\:")
    return f"#{stamp}\nsequenceNumber={sequence}\ntimestamp={stamp}\n"


def _atomic_write_text(path: Path, text: str) -> None:
    """Write-then-rename so concurrent readers never see a torn file.

    A live monitor polls ``state.txt`` while the publisher rewrites it;
    plain ``write_text`` truncates first, so a poll landing in that
    window reads an empty file.  (Planet.osm servers publish state
    files the same way.)
    """
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


class ReplicationFeed:
    """One granularity's replication directory (e.g. ``.../day``).

    Writers call :meth:`publish` once per period; readers poll
    :meth:`current_sequence` and fetch diffs with :meth:`fetch` or
    stream everything new with :meth:`iter_since`.
    """

    def __init__(self, root: str | Path, granularity: str = "day") -> None:
        if granularity not in GRANULARITIES:
            raise StorageError(
                f"granularity must be one of {GRANULARITIES}, got {granularity!r}"
            )
        self.granularity = granularity
        self.root = Path(root) / granularity
        self.root.mkdir(parents=True, exist_ok=True)

    # -- write side ------------------------------------------------------

    def publish(
        self, change: OsmChange, timestamp: datetime, sizes: bytes | None = None
    ) -> int:
        """Append the next diff (and beside it as ``CCC.sizes`` the map's
        road-network size record, which OSM's own feeds do not carry);
        returns its sequence number."""
        sequence = self.current_sequence()
        next_sequence = 0 if sequence is None else sequence + 1
        rel = sequence_path(next_sequence)
        osc_path = self.root / f"{rel}.osc"
        osc_path.parent.mkdir(parents=True, exist_ok=True)
        # Publish order matters under concurrent polling: the diff, its
        # sizes and its per-diff state land (atomically) before the
        # top-level state.txt advances, so every sequence <= newest is complete.
        osc_tmp = osc_path.with_name(osc_path.name + ".tmp")
        write_osc(osc_tmp, change)
        os.replace(osc_tmp, osc_path)
        if sizes is not None:
            sizes_tmp = osc_path.with_suffix(".sizes.tmp")
            sizes_tmp.write_bytes(sizes)
            os.replace(sizes_tmp, osc_path.with_suffix(".sizes"))
        state_text = _format_state(next_sequence, timestamp)
        _atomic_write_text(
            osc_path.with_name(osc_path.stem.split(".")[0] + ".state.txt"),
            state_text,
        )
        _atomic_write_text(self.root / "state.txt", state_text)
        return next_sequence

    # -- read side -------------------------------------------------------

    def current_sequence(self) -> int | None:
        """Newest published sequence number, or ``None`` when empty."""
        state = self.root / "state.txt"
        if not state.exists():
            return None
        sequence, _ = _parse_state(state.read_text())
        return sequence

    def state(self, sequence: int) -> tuple[int, datetime]:
        """Read the per-diff state file for ``sequence``."""
        rel = sequence_path(sequence)
        path = self.root / (rel.rsplit("/", 1)[0] + f"/{rel.rsplit('/', 1)[1]}.state.txt")
        if not path.exists():
            raise StorageError(f"no state file for sequence {sequence}")
        return _parse_state(path.read_text())

    def fetch(self, sequence: int) -> OsmChange:
        """Read the diff published at ``sequence``."""
        path = self.root / f"{sequence_path(sequence)}.osc"
        if not path.exists():
            raise StorageError(
                f"no {self.granularity} diff for sequence {sequence}"
            )
        return read_osc(path)

    def sizes(self, sequence: int) -> bytes | None:
        """The size record published beside ``sequence``, if any."""
        try:
            return (self.root / f"{sequence_path(sequence)}.sizes").read_bytes()
        except FileNotFoundError:
            return None

    def pending(self, after_sequence: int | None) -> range:
        """Sequence numbers published after ``after_sequence``, in order.

        ``after_sequence=None`` means from the feed's beginning — how a
        crawler bootstraps.
        """
        newest = self.current_sequence()
        if newest is None:
            return range(0)
        return range(0 if after_sequence is None else after_sequence + 1, newest + 1)

    def iter_since(
        self, after_sequence: int | None
    ) -> Iterator[tuple[int, datetime, OsmChange]]:
        """Yield every diff in :meth:`pending` with its timestamp."""
        for sequence in self.pending(after_sequence):
            _, timestamp = self.state(sequence)
            yield sequence, timestamp, self.fetch(sequence)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with seeded jitter for feed operations.

    ``deadline`` bounds the *total* time (per logical operation,
    attempts plus backoffs, measured on the injected clock) — the
    poller's timeout.  Jitter is a ± fraction of the computed delay;
    drawing it from the caller's seeded rng keeps retry schedules
    replayable in tests while still de-synchronizing real pollers.
    """

    attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25
    deadline: float | None = None

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        raw = min(self.base_delay * self.multiplier**attempt, self.max_delay)
        if self.jitter > 0.0:
            raw *= 1.0 + rng.uniform(-self.jitter, self.jitter)
        return max(raw, 0.0)


class CircuitBreaker:
    """Classic closed → open → half-open breaker.

    ``failure_threshold`` consecutive failures open the circuit; while
    open, :meth:`allow` rejects without touching the upstream.  After
    ``cooldown`` seconds (on the injected clock) one probe call is let
    through (half-open); its success closes the circuit, its failure
    re-opens the full cooldown.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise StorageError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._clock = clock
        self._failures = 0
        self._state = "closed"
        self._opened_at = 0.0
        self.opens = 0

    @property
    def state(self) -> str:
        if (
            self._state == "open"
            and self._clock() - self._opened_at >= self.cooldown
        ):
            return "half_open"
        return self._state

    def allow(self) -> bool:
        state = self.state
        if state == "closed":
            return True
        if state == "half_open" and self._state == "open":
            # Claim the single probe slot.  Once ``_state`` is pinned
            # to "half_open" the slot is taken, so a concurrent caller
            # falls through to the rejection below until the probe's
            # success or failure settles the circuit.
            self._state = "half_open"
            return True
        return False

    def record_success(self) -> None:
        self._failures = 0
        self._state = "closed"

    def record_failure(self) -> None:
        self._failures += 1
        if self._state == "half_open" or self._failures >= self.failure_threshold:
            if self._state != "open":
                self.opens += 1
            self._state = "open"
            self._opened_at = self._clock()
            self._failures = 0


#: The armor every deployment's daily crawl polls through
#: (``RasedSystem.crawl_feed``).  Both parts act on failures only, so
#: a healthy feed costs nothing and no page or I/O count can move.
CRAWL_RETRY_POLICY = RetryPolicy(attempts=3, base_delay=0.01, max_delay=0.25)
CRAWL_BREAKER_THRESHOLD = 5


class ResilientFeed:
    """Retry + breaker armor around a replication feed.

    Wraps any feed-shaped object (the real :class:`ReplicationFeed`,
    or the test harness's fault-injecting one) and makes the *read*
    side — the poller surface — survive transient failures:

    * each operation retries per :class:`RetryPolicy`, backing off
      with seeded jitter and honouring the policy deadline;
    * repeated hard failures open a :class:`CircuitBreaker`, after
      which calls fail fast with
      :class:`~repro.errors.CircuitOpenError` until the cooldown
      grants a probe;
    * every retry/failure/open increments duck-typed metrics counters
      when a registry is attached (``osm`` cannot import ``obs``).

    ``publish`` is deliberately *not* retried: the write side is the
    local simulator, and blind re-publish after a partial failure
    could double-allocate a sequence number.
    """

    #: Exceptions worth retrying.  A simulated crash (BaseException)
    #: or a programming error propagates immediately.
    _RETRYABLE = (StorageError, ParseError, OSError)

    def __init__(
        self,
        feed: "ReplicationFeed",
        policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        metrics: object | None = None,
    ) -> None:
        self.feed = feed
        self.policy = policy or RetryPolicy()
        self.breaker = breaker
        self._rng = random.Random(seed)
        self._sleep = sleep
        self._clock = clock
        self.metrics = metrics

    @property
    def granularity(self) -> str:
        return self.feed.granularity

    @property
    def root(self) -> Path:
        return self.feed.root

    def _inc(self, name: str, **labels: str) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, **labels)  # type: ignore[attr-defined]

    def _call(self, op: str, fn: Callable[[], _T]) -> _T:
        if self.breaker is not None and not self.breaker.allow():
            self._inc(_M_FEED_BREAKER_REJECTED, op=op)
            raise CircuitOpenError(
                f"replication feed circuit open; rejecting {op}"
            )
        started = self._clock()
        last: Exception | None = None
        for attempt in range(max(self.policy.attempts, 1)):
            try:
                result = fn()
            except self._RETRYABLE as exc:
                last = exc
                self._inc(_M_FEED_FAILURES, op=op)
                if self.breaker is not None:
                    was_open = self.breaker.state != "closed"
                    self.breaker.record_failure()
                    if not was_open and self.breaker.state == "open":
                        self._inc(_M_FEED_BREAKER_OPENS, op=op)
                    if self.breaker.state == "open":
                        break
                if attempt + 1 >= max(self.policy.attempts, 1):
                    break
                pause = self.policy.delay(attempt, self._rng)
                if (
                    self.policy.deadline is not None
                    and self._clock() - started + pause > self.policy.deadline
                ):
                    break
                self._inc(_M_FEED_RETRIES, op=op)
                if pause > 0.0:
                    self._sleep(pause)
            else:
                if self.breaker is not None:
                    self.breaker.record_success()
                return result
        assert last is not None
        raise last

    # -- armored read surface ------------------------------------------------

    def current_sequence(self) -> int | None:
        return self._call("current_sequence", self.feed.current_sequence)

    def state(self, sequence: int) -> tuple[int, datetime]:
        return self._call("state", lambda: self.feed.state(sequence))

    def fetch(self, sequence: int) -> OsmChange:
        return self._call("fetch", lambda: self.feed.fetch(sequence))

    def sizes(self, sequence: int) -> bytes | None:
        return self._call("sizes", lambda: self.feed.sizes(sequence))

    #: The feed's own loops, over the armored reads above.
    pending = ReplicationFeed.pending
    iter_since = ReplicationFeed.iter_since

    # -- pass-through write side ---------------------------------------------

    def publish(self, change: OsmChange, timestamp: datetime) -> int:
        return self.feed.publish(change, timestamp)
