"""Per-query tracing: where did this query's time go?

The executor's two-phase design (plan + fetch on the disk-bound side,
numpy aggregation on the in-memory side) means a slow query has a small
number of possible culprits.  :class:`QueryTrace` is a lightweight
breakdown attached to every :class:`repro.core.query.QueryStats`:
accumulated wall time and an invocation count per named phase, plus
free-form metadata (cubes touched, periods planned).

Phases are *accumulated*, not recorded as individual spans — a year-long
weekly time series plans and fetches dozens of times, and a trace that
grows per cube would cost more than the query.  Since the causal span
layer landed (:mod:`repro.obs.span`), ``QueryTrace`` is the *phase
view* of that tree: :meth:`flush_spans` mirrors the folded phase
totals into the ambient span tree when the query finishes (one span
per phase, not per invocation — same bounded cost), and
:meth:`from_spans` reconstructs an equivalent ``QueryTrace`` from a
recorded span list, which is how ``/debug/traces/<id>`` renders a
stored tree back into the familiar breakdown.  All pre-span callers
keep working unchanged.  The conventional phase names the executor
emits:

``phase1.plan``
    level-optimizer planning (count = the query's windows);
``phase1.fetch.cache`` / ``phase1.fetch.disk``
    cube acquisition, split by where the cube came from (count = cubes);
``phase2.aggregate``
    per-cube numpy filter/reduce plus the cross-cube accumulation;
``phase2.percentage``
    the ``Percentage(*)`` denominator pass, when the query asks for it.

The names mean the same in every engine.  Under scatter-gather the
fetch and aggregate phases are *sums over concurrent shard subqueries*
and may exceed the fan-out's wall time; ``rased_shard_scatter_seconds``
is the wall view.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, NamedTuple

from repro.obs.span import current_span, record_span

__all__ = ["QueryTrace", "PhaseTiming"]


class PhaseTiming(NamedTuple):
    """Accumulated time and invocation count for one trace phase."""

    seconds: float
    count: int


class QueryTrace:
    """Accumulated per-phase timings for one query execution."""

    __slots__ = ("_name", "_phases", "meta")

    def __init__(self, name: str | Callable[[], str] = "query") -> None:
        # A callable name is resolved lazily: the executor passes
        # ``query.describe`` so formatting cost is only paid when the
        # trace is actually rendered, not on every query.
        self._name = name
        # phase -> [seconds, count]; insertion order is emission order.
        self._phases: dict[str, list] = {}
        self.meta: dict[str, object] = {}

    @property
    def name(self) -> str:
        if callable(self._name):
            self._name = self._name()
        return self._name

    def add(self, phase: str, seconds: float, count: int = 1) -> None:
        """Fold ``seconds`` into a phase (hot path: two dict ops)."""
        entry = self._phases.get(phase)
        if entry is None:
            self._phases[phase] = [seconds, count]
        else:
            entry[0] += seconds
            entry[1] += count

    @contextmanager
    def span(self, phase: str) -> Iterator[None]:
        """Time a ``with`` block into a phase."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add(phase, time.perf_counter() - started)

    # -- span-tree bridge ----------------------------------------------------

    def flush_spans(self) -> None:
        """Mirror the folded phase totals into the ambient span tree.

        Called once per query (by the executor, after the phases are
        final) rather than per :meth:`add` — a weekly series folds
        dozens of plan timings, and a span per fold would blow the
        trace's span budget for no information the fold doesn't carry.
        No-op when the query is not running under a trace.
        """
        if current_span() is None:
            return
        for phase, entry in self._phases.items():
            record_span(phase, entry[0], count=entry[1])

    @classmethod
    def from_spans(
        cls, spans: Iterable[object], name: str = "query"
    ) -> "QueryTrace":
        """Rebuild the phase view from recorded spans.

        Spans whose names follow the ``phase*`` convention fold back
        into the same accumulated breakdown :meth:`flush_spans`
        emitted — the equivalence tests in ``tests/test_tracing.py``
        pin that round trip.  Other spans are ignored (they carry
        causal detail the flat view never had).
        """
        trace = cls(name)
        for span in spans:
            span_name = getattr(span, "name", "")
            if not span_name.startswith("phase"):
                continue
            attributes = getattr(span, "attributes", {})
            count = attributes.get("count", 1)
            trace.add(
                span_name,
                getattr(span, "duration_seconds", 0.0),
                count=int(count) if isinstance(count, (int, float)) else 1,
            )
        return trace

    # -- views --------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._phases)

    def __contains__(self, phase: str) -> bool:
        return phase in self._phases

    @property
    def phases(self) -> dict[str, PhaseTiming]:
        return {
            name: PhaseTiming(entry[0], entry[1])
            for name, entry in self._phases.items()
        }

    def seconds(self, phase: str) -> float:
        entry = self._phases.get(phase)
        return entry[0] if entry else 0.0

    @property
    def total_seconds(self) -> float:
        return sum(entry[0] for entry in self._phases.values())

    def to_dict(self) -> dict:
        """JSON-ready form (served by the dashboard API)."""
        return {
            "name": self.name,
            "total_ms": self.total_seconds * 1000.0,
            "phases": [
                {
                    "phase": name,
                    "ms": entry[0] * 1000.0,
                    "count": entry[1],
                }
                for name, entry in self._phases.items()
            ],
            "meta": dict(self.meta),
        }

    def format(self) -> str:
        """An aligned human-readable breakdown (CLI ``query --trace``)."""
        total = self.total_seconds
        lines = [f"trace: {self.name} — {total * 1000.0:.3f} ms traced"]
        width = max((len(name) for name in self._phases), default=0)
        for name, (seconds, count) in self._phases.items():
            share = (100.0 * seconds / total) if total else 0.0
            lines.append(
                f"  {name:<{width}}  {seconds * 1000.0:>9.3f} ms"
                f"  {share:>5.1f}%  ({count}x)"
            )
        for key, value in self.meta.items():
            lines.append(f"  {key} = {value}")
        return "\n".join(lines)
