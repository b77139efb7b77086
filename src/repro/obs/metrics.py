"""Counters and histograms behind one process-wide (or per-system) registry.

RASED's pitch is millisecond analysis queries; sustaining that at the
paper's billion-update scale requires knowing, at all times, where a
query's time goes — cache hits vs disk reads, plan sizes, ingest
throughput.  This module is the reproduction's metrics substrate:

* :class:`MetricsRegistry` — a named bag of **counters** (monotonic
  floats, optionally labeled) and **histograms** (bounded observation
  windows with p50/p95/p99 summaries).  One ``threading.Lock`` guards
  all state; every operation is a handful of dict ops, cheap enough to
  sit on the query hot path (see the overhead guard in CHANGES.md).
* :func:`metric_key` — pre-computes a counter/histogram's identity so
  hot-path callers pay no per-call label sorting (use with
  :meth:`MetricsRegistry.inc_key` / :meth:`MetricsRegistry.observe_key`).
* a module-level **default registry** for components assembled outside
  a :class:`repro.system.RasedSystem` (benchmark executors, ad-hoc
  stores); a full system carries its own registry so concurrent
  deployments in one process do not mix series.

No third-party dependencies: the registry renders itself to JSON
(:meth:`snapshot`) and Prometheus text exposition format
(:meth:`to_prometheus`), which is all the dashboard's ``/metrics``
endpoint and the ``rased-repro stats`` subcommand need.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Iterable

__all__ = [
    "MetricsRegistry",
    "metric_key",
    "get_registry",
    "DEFAULT_HISTOGRAM_WINDOW",
]

#: Observations kept per histogram for quantile estimation.  Bounded so
#: a long-lived dashboard's memory stays O(series), not O(queries).
DEFAULT_HISTOGRAM_WINDOW = 2048

#: A prepared metric identity: ``(name, ((label, value), ...))``.
MetricKey = tuple


def metric_key(name: str, **labels: str) -> MetricKey:
    """Precompute the registry key for a (name, labels) series.

    Hot-path callers build keys once (per level, per source, ...) and
    then use :meth:`MetricsRegistry.inc_key`, skipping per-call label
    normalization.
    """
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


class _HistogramState:
    """A frozen copy of one histogram, summarizable outside any lock.

    Scrapes used to sort every histogram's whole window *while holding
    the registry lock*, stalling every hot-path ``observe`` behind an
    O(series × window log window) render.  Now the lock section only
    copies (five scalars plus one ``list(deque)``), and sorting /
    quantile math happens on this frozen state after release.
    """

    __slots__ = ("count", "sum", "min", "max", "window")

    def __init__(
        self,
        count: int,
        sum_: float,
        min_: float,
        max_: float,
        window: list[float],
    ) -> None:
        self.count = count
        self.sum = sum_
        self.min = min_
        self.max = max_
        self.window = window

    def quantiles(self, qs: Iterable[float]) -> dict[float, float]:
        """Linear-interpolation quantiles over the retained window."""
        ordered = sorted(self.window)
        if not ordered:
            return {}
        last = len(ordered) - 1
        out: dict[float, float] = {}
        for q in qs:
            rank = q * last
            low = int(rank)
            frac = rank - low
            if frac and low < last:
                out[q] = ordered[low] * (1.0 - frac) + ordered[low + 1] * frac
            else:
                out[q] = ordered[min(low, last)]
        return out

    def summary(self) -> dict[str, float]:
        qs = self.quantiles((0.5, 0.95, 0.99))
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.sum / self.count if self.count else 0.0,
            "p50": qs.get(0.5, 0.0),
            "p95": qs.get(0.95, 0.0),
            "p99": qs.get(0.99, 0.0),
            # count/sum/min/max are lifetime totals but the quantiles
            # only see the bounded window; exporting its size lets a
            # consumer judge the horizon the percentiles describe.
            "window_count": len(self.window),
        }


class _Histogram:
    """Running summary plus a bounded window of raw observations."""

    __slots__ = ("count", "sum", "min", "max", "window")

    def __init__(self, window: int) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.window: deque[float] = deque(maxlen=window)

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.window.append(value)

    def freeze(self) -> _HistogramState:
        """Copy the mutable state (call with the registry lock held)."""
        return _HistogramState(
            self.count, self.sum, self.min, self.max, list(self.window)
        )


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _render_labels(labels: tuple, extra: tuple = ()) -> str:
    pairs = labels + extra
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(str(v))}"' for k, v in pairs)
    return "{" + body + "}"


class MetricsRegistry:
    """Thread-safe counters + histograms with JSON/Prometheus export."""

    __slots__ = ("_lock", "_counters", "_histograms", "_help", "_window", "enabled")

    def __init__(self, histogram_window: int = DEFAULT_HISTOGRAM_WINDOW) -> None:
        self._lock = threading.Lock()
        self._counters: dict[MetricKey, float] = {}  # guarded-by: _lock
        self._histograms: dict[MetricKey, _Histogram] = {}  # guarded-by: _lock
        self._help: dict[str, str] = {}  # guarded-by: _lock
        self._window = histogram_window
        #: Kill switch: a disabled registry turns every write into a
        #: single attribute check (the instrumentation stays wired).
        self.enabled = True

    # -- writes (hot path) --------------------------------------------------

    def inc_key(self, key: MetricKey, amount: float = 1.0) -> None:
        """Increment a counter addressed by a prepared :func:`metric_key`."""
        if not self.enabled:
            return
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + amount

    def inc(self, name: str, amount: float = 1.0, **labels: str) -> None:
        self.inc_key(metric_key(name, **labels), amount)

    def observe_key(self, key: MetricKey, value: float) -> None:
        """Record one observation into a histogram (prepared key)."""
        if not self.enabled:
            return
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = _Histogram(self._window)
            histogram.observe(value)

    def observe(self, name: str, value: float, **labels: str) -> None:
        self.observe_key(metric_key(name, **labels), value)

    def peak(self, name: str, value: float, **labels: str) -> None:
        """Raise a high-water-mark series to ``value`` if it is higher.

        Peaks live alongside the counters (and render as counter
        series), but record a maximum instead of a sum — e.g. the most
        requests admission ever had in flight.  They are monotonic like
        counters, so scrapers may treat them uniformly.
        """
        if not self.enabled:
            return
        key = metric_key(name, **labels)
        with self._lock:
            if value > self._counters.get(key, 0.0):
                self._counters[key] = value

    def record_batch(
        self,
        incs: Iterable[tuple[MetricKey, float]] = (),
        observes: Iterable[tuple[MetricKey, float]] = (),
    ) -> None:
        """Apply many increments/observations under one lock acquisition.

        The per-query flush touches ~8 series; batching keeps that at
        one lock round-trip instead of eight on the query hot path.
        """
        if not self.enabled:
            return
        with self._lock:
            counters = self._counters
            for key, amount in incs:
                counters[key] = counters.get(key, 0.0) + amount
            histograms = self._histograms
            for key, value in observes:
                histogram = histograms.get(key)
                if histogram is None:
                    histogram = histograms[key] = _Histogram(self._window)
                histogram.observe(value)

    # -- reads --------------------------------------------------------------

    def value(self, name: str, **labels: str) -> float:
        """One counter's value (0.0 when the series does not exist)."""
        with self._lock:
            return self._counters.get(metric_key(name, **labels), 0.0)

    def total(self, name: str) -> float:
        """A counter summed across all label combinations."""
        with self._lock:
            return sum(v for (n, _), v in self._counters.items() if n == name)

    def describe(self, name: str, help_text: str) -> None:
        """Attach a ``# HELP`` line to a metric family (optional).

        Families without an explicit description render a generated
        one, so the Prometheus output always carries HELP metadata.
        """
        with self._lock:
            self._help[name] = help_text

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._histograms.clear()

    # -- export -------------------------------------------------------------

    def _freeze(
        self,
    ) -> tuple[
        list[tuple[MetricKey, float]],
        list[tuple[MetricKey, _HistogramState]],
        dict[str, str],
    ]:
        """Copy all series under the lock; callers render outside it.

        A scrape used to sort every histogram window while holding the
        registry lock, blocking every concurrent ``observe`` for the
        whole render.  The lock section is now pure copying.
        """
        with self._lock:
            counter_items = list(self._counters.items())
            histogram_items = [
                (key, histogram.freeze())
                for key, histogram in self._histograms.items()
            ]
            help_texts = dict(self._help)
        return counter_items, histogram_items, help_texts

    def snapshot(self) -> dict:
        """JSON-ready view: every series with its labels and value."""
        counter_items, histogram_items, _ = self._freeze()
        counters: dict[str, list[dict]] = {}
        for (name, labels), value in sorted(counter_items):
            counters.setdefault(name, []).append(
                {"labels": dict(labels), "value": value}
            )
        histograms: dict[str, list[dict]] = {}
        for (name, labels), state in sorted(
            histogram_items, key=lambda item: item[0]
        ):
            entry = {"labels": dict(labels)}
            entry.update(state.summary())
            histograms.setdefault(name, []).append(entry)
        return {"counters": counters, "histograms": histograms}

    def _help_line(self, name: str, kind: str, help_texts: dict[str, str]) -> str:
        text = help_texts.get(name)
        if text is None:
            text = f"RASED {kind} {name} (repro.obs.metrics registry)."
        escaped = text.replace("\\", r"\\").replace("\n", r"\n")
        return f"# HELP {name} {escaped}"

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4).

        Counters render as ``counter`` series; histograms render as
        ``summary`` series (quantile labels plus ``_sum``/``_count``),
        which matches what the bounded-window quantiles actually are.
        Every family gets ``# HELP`` and ``# TYPE`` metadata so real
        scrapers ingest the exposition without warnings; each summary
        additionally exports a ``<name>_window_count`` gauge — the
        number of observations its quantiles currently cover.
        """
        counter_items, histogram_items, help_texts = self._freeze()
        counter_items.sort()
        histogram_items.sort(key=lambda item: item[0])
        lines: list[str] = []
        seen_counter_names: set[str] = set()
        for (name, labels), value in counter_items:
            if name not in seen_counter_names:
                lines.append(self._help_line(name, "counter", help_texts))
                lines.append(f"# TYPE {name} counter")
                seen_counter_names.add(name)
            lines.append(f"{name}{_render_labels(labels)} {_format_number(value)}")
        seen_summary_names: set[str] = set()
        window_lines: list[str] = []
        for (name, labels), state in histogram_items:
            summary = state.summary()
            if name not in seen_summary_names:
                lines.append(self._help_line(name, "summary", help_texts))
                lines.append(f"# TYPE {name} summary")
                window_name = f"{name}_window_count"
                window_lines.append(
                    self._help_line(
                        window_name, "quantile-horizon gauge for", help_texts
                    )
                )
                window_lines.append(f"# TYPE {window_name} gauge")
                seen_summary_names.add(name)
            for q_label, q_key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
                rendered = _render_labels(labels, (("quantile", q_label),))
                lines.append(f"{name}{rendered} {_format_number(summary[q_key])}")
            rendered = _render_labels(labels)
            lines.append(f"{name}_sum{rendered} {_format_number(summary['sum'])}")
            lines.append(f"{name}_count{rendered} {_format_number(summary['count'])}")
            window_lines.append(
                f"{name}_window_count{rendered} "
                f"{_format_number(summary['window_count'])}"
            )
        # window_count gauges render after their parent summaries: the
        # text format requires one contiguous block per family, and a
        # gauge line inside the summary block would split the family.
        lines.extend(window_lines)
        return "\n".join(lines) + ("\n" if lines else "")


def _format_number(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (components without a system)."""
    return _default_registry
