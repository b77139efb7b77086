"""Causal span trees: who caused this disk read, and how long did it take?

:class:`repro.core.query.QueryStats` answers "where did this query's
time go" as five folded phase totals — good enough for one query
executed on one thread, blind to everything around it: admission
verdicts, the page reads under each phase, WAL writes.  This module is the
causal layer the phases are recorded into (one :func:`record_span`
each):

* :class:`Span` — one timed operation with a ``trace_id``/``span_id``/
  ``parent_id`` identity, free-form attributes, and an ok/partial/error
  status.  Spans form a tree rooted at the request (or at the query,
  when there is no HTTP front end).
* the **ambient span** — a :class:`contextvars.ContextVar` holding the
  span the current logical task is inside.  A request is served start
  to finish on the thread that accepted it, so nothing hands the
  ambient span to another thread.
* :class:`Tracer` — the entry point that opens a **root** span, runs
  the block under it, and hands the completed tree to a
  :class:`~repro.obs.recorder.FlightRecorder`-shaped sink.  Nested
  ``trace()`` calls degrade to child spans, so the executor under the
  HTTP server nests instead of double-rooting.

Everything here is allocation-light and no-op-cheap: with no ambient
trace, :func:`span` is one ``ContextVar.get`` and :func:`record_span`
returns immediately — the enabled-vs-disabled A/B budget in
``benchmarks/bench_tracing_overhead.py`` holds the tracer to <=5% on
the example queries.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextvars import ContextVar

__all__ = [
    "Span",
    "ActiveTrace",
    "RecordedTrace",
    "Tracer",
    "current_span",
    "current_trace_id",
    "record_span",
    "span",
    "MAX_SPANS_PER_TRACE",
]

#: Spans retained per trace; a runaway fan-out drops the excess and
#: counts it (``RecordedTrace.dropped_spans``) instead of growing
#: without bound.  512 covers a cold 16-year plan several times over.
MAX_SPANS_PER_TRACE = 512

STATUS_OK = "ok"
STATUS_PARTIAL = "partial"
STATUS_ERROR = "error"

_STATUS_RANK = {STATUS_OK: 0, STATUS_PARTIAL: 1, STATUS_ERROR: 2}

#: The span the current logical task is inside (``None`` = not traced).
_CURRENT_SPAN: ContextVar["Span | None"] = ContextVar(
    "rased_current_span", default=None
)


class Span:
    """One timed operation inside a trace.

    Spans are created via :func:`span`/:func:`record_span`/
    :meth:`Tracer.trace`, never directly.  ``offset_seconds`` is
    relative to the trace start (monotonic), so a rendered tree reads
    as a waterfall; ``start_unix`` lives on the trace, not per span.
    """

    __slots__ = (
        "trace",
        "span_id",
        "parent_id",
        "name",
        "offset_seconds",
        "duration_seconds",
        "attributes",
        "status",
        "error",
        "thread_name",
        "_t0",
        "_finished",
    )

    def __init__(
        self,
        trace: "ActiveTrace",
        span_id: str,
        parent_id: str | None,
        name: str,
        offset_seconds: float,
        t0: float,
    ) -> None:
        self.trace = trace
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.offset_seconds = offset_seconds
        self.duration_seconds = 0.0
        self.attributes: dict[str, object] = {}
        self.status = STATUS_OK
        self.error: str | None = None
        self.thread_name = threading.current_thread().name
        self._t0 = t0
        self._finished = False

    @property
    def trace_id(self) -> str:
        return self.trace.trace_id

    def set_error(self, exc: BaseException | str) -> None:
        self.status = STATUS_ERROR
        self.error = exc if isinstance(exc, str) else f"{type(exc).__name__}: {exc}"

    def mark_partial(self) -> None:
        """Degrade an ok span to partial (never un-errors one)."""
        if self.status == STATUS_OK:
            self.status = STATUS_PARTIAL

    def finish(self) -> None:
        """Close the span and hand it to its trace (idempotent)."""
        if self._finished:
            return
        self._finished = True
        self.duration_seconds = time.perf_counter() - self._t0
        self.trace._complete(self)

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "offset_ms": self.offset_seconds * 1000.0,
            "duration_ms": self.duration_seconds * 1000.0,
            "status": self.status,
            "thread": self.thread_name,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.attributes:
            out["attributes"] = dict(self.attributes)
        return out


class ActiveTrace:
    """Mutable collector for one in-progress trace (thread-safe)."""

    __slots__ = (
        "trace_id",
        "name",
        "started_unix",
        "max_spans",
        "_t0",
        "_lock",
        "_spans",
        "_dropped",
        "_worst",
        "_ids",
        "root",
    )

    def __init__(self, name: str, max_spans: int = MAX_SPANS_PER_TRACE) -> None:
        # 64 random bits, hex — the cheap equivalent of a truncated
        # uuid4 (which costs ~5x as much per trace on the hot path).
        self.trace_id = os.urandom(8).hex()
        self.name = name
        self.started_unix = time.time()
        self.max_spans = max_spans
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()
        #: Completion order; appended without the lock — ``list.append``
        #: is atomic under the GIL, so finishing a span never waits on
        #: the trace.  The length check against ``max_spans`` is
        #: best-effort (spans finished on two threads at once can
        #: overshoot it by one), which is fine for a runaway-fan-out
        #: backstop.
        self._spans: list[Span] = []
        self._dropped = 0  # guarded-by: _lock
        self._worst = STATUS_OK  # guarded-by: _lock
        self._ids = itertools.count(1)
        self.root: Span | None = None

    def new_span(self, name: str, parent_id: str | None) -> Span:
        """Allocate an open span (completed on :meth:`Span.finish`)."""
        now = time.perf_counter()
        return Span(
            self,
            span_id=f"{next(self._ids):04x}",
            parent_id=parent_id,
            name=name,
            offset_seconds=now - self._t0,
            t0=now,
        )

    def record_completed(
        self,
        name: str,
        parent_id: str | None,
        seconds: float,
        backdated: bool = True,
    ) -> Span:
        """Add an already-measured span, back-dated by ``seconds``.

        The lean path behind :func:`record_span`: one clock read, no
        open/finish round trip — phase flushes emit several of these
        per query, on the query's own critical path.  With
        ``backdated=False`` the span covers the window *starting* now
        (for work whose duration is known up front and recorded before
        it happens, like a modeled-latency sleep).
        """
        now = time.perf_counter()
        span = Span(
            self,
            span_id=f"{next(self._ids):04x}",
            parent_id=parent_id,
            name=name,
            offset_seconds=max(
                0.0, now - self._t0 - (seconds if backdated else 0.0)
            ),
            t0=now,
        )
        span._finished = True
        span.duration_seconds = seconds
        self._complete(span)
        return span

    def _complete(self, span: Span) -> None:
        # Fast path is lock-free: almost every span is ok and under the
        # cap, and completion happens inside instrumented hot loops.
        if span.status is not STATUS_OK:
            with self._lock:
                if _STATUS_RANK[span.status] > _STATUS_RANK[self._worst]:
                    self._worst = span.status
        if span is self.root or len(self._spans) < self.max_spans:
            self._spans.append(span)
        else:
            with self._lock:
                self._dropped += 1

    def snapshot(self) -> "RecordedTrace":
        """Freeze the completed spans into an immutable record."""
        root = self.root
        with self._lock:
            spans = list(self._spans)
            dropped = self._dropped
            status = self._worst
        spans.sort(key=lambda s: s.offset_seconds)
        return RecordedTrace(
            trace_id=self.trace_id,
            name=self.name,
            started_unix=self.started_unix,
            duration_seconds=root.duration_seconds if root is not None else 0.0,
            status=status,
            spans=spans,
            dropped_spans=dropped,
        )

    def detach(self) -> None:
        """Break the trace's internal reference cycles once complete.

        ``trace -> root -> trace`` and ``trace -> _spans -> span ->
        trace`` are cycles, which would make every span tree — kept or
        dropped — garbage only the cyclic collector can reclaim.  Span
        trees are exactly the allocation pattern that pressures gen-0,
        so after the snapshot is taken the trace drops its span
        references; the spans' back-references become one-way and the
        whole tree dies by refcount the moment the recorder lets go.
        """
        self.root = None
        self._spans = []


class RecordedTrace:
    """An immutable completed span tree, as the flight recorder keeps it."""

    __slots__ = (
        "trace_id",
        "name",
        "started_unix",
        "duration_seconds",
        "status",
        "spans",
        "dropped_spans",
    )

    def __init__(
        self,
        trace_id: str,
        name: str,
        started_unix: float,
        duration_seconds: float,
        status: str,
        spans: list[Span],
        dropped_spans: int,
    ) -> None:
        self.trace_id = trace_id
        self.name = name
        self.started_unix = started_unix
        self.duration_seconds = duration_seconds
        self.status = status
        self.spans = spans
        self.dropped_spans = dropped_spans

    def to_summary(self) -> dict[str, object]:
        """One listing row for ``/debug/traces``."""
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "started_unix": self.started_unix,
            "duration_ms": self.duration_seconds * 1000.0,
            "status": self.status,
            "spans": len(self.spans),
        }

    def to_dict(self) -> dict[str, object]:
        out = self.to_summary()
        out["dropped_spans"] = self.dropped_spans
        out["span_tree"] = [s.to_dict() for s in self.spans]
        return out


# -- ambient-context API ----------------------------------------------------


def current_span() -> Span | None:
    """The span the calling task is inside, or ``None`` untraced."""
    return _CURRENT_SPAN.get()


def current_trace_id() -> str | None:
    """The ambient trace id, or ``None`` when not inside a trace."""
    ambient = _CURRENT_SPAN.get()
    return ambient.trace.trace_id if ambient is not None else None


class _SpanBlock:
    """The context manager behind :func:`span`.

    Hand-rolled rather than ``@contextmanager``: the generator protocol
    costs roughly an extra microsecond per ``with`` block, and this
    object sits inside per-page fetch loops.
    """

    __slots__ = ("name", "child", "token")

    def __init__(self, name: str) -> None:
        self.name = name
        self.child: Span | None = None
        self.token: object = None

    def __enter__(self) -> Span | None:
        parent = _CURRENT_SPAN.get()
        if parent is None:
            return None
        child = parent.trace.new_span(self.name, parent.span_id)
        self.child = child
        self.token = _CURRENT_SPAN.set(child)
        return child

    def __exit__(self, exc_type: object, exc: BaseException | None, tb: object) -> bool:
        child = self.child
        if child is None:
            return False
        _CURRENT_SPAN.reset(self.token)  # type: ignore[arg-type]
        if exc is not None:
            child.set_error(exc)
        child.finish()
        return False


def span(name: str) -> _SpanBlock:
    """Open a child of the ambient span for the ``with`` block.

    Yields ``None`` (and does nothing else) when there is no ambient
    trace — instrumented hot paths pay one ``ContextVar.get``.  An
    exception escaping the block marks the span (and therefore the
    trace) as errored and re-raises.  Attributes go on the yielded
    span only when it is not ``None``, so their construction cost is
    skipped in the untraced case.
    """
    return _SpanBlock(name)


def record_span(
    name: str,
    seconds: float,
    count: int = 1,
    attributes: dict[str, object] | None = None,
    backdated: bool = True,
) -> None:
    """Add an already-measured child span without an open/close pair.

    For call sites that timed themselves (accumulated phase timings,
    the modeled disk charge): the span's duration is ``seconds`` and
    its offset is back-dated so the waterfall still lines up — or,
    with ``backdated=False``, anchored at now for work recorded just
    *before* it happens.  No-op without an ambient trace.
    """
    parent = _CURRENT_SPAN.get()
    if parent is None:
        return
    child = parent.trace.record_completed(
        name, parent.span_id, seconds, backdated=backdated
    )
    if attributes:
        # Callers pass single-use literals; adopt instead of copying.
        child.attributes = attributes
    if count != 1:
        child.attributes["count"] = count


class _TraceSink:
    """Structural type of a completed-trace sink (the flight recorder)."""

    def record(self, trace: RecordedTrace) -> None:  # pragma: no cover
        raise NotImplementedError


class Tracer:
    """Opens root spans and delivers completed trees to a recorder.

    ``enabled=False`` turns :meth:`trace` into a no-op context manager
    yielding ``None`` — the whole instrumentation tree downstream then
    degrades to single ``ContextVar.get`` checks.  A ``trace()`` call
    while a trace is already ambient (the executor under the HTTP
    server) opens a child span instead of a second root.
    """

    __slots__ = ("enabled", "recorder", "max_spans")

    def __init__(
        self,
        recorder: "_TraceSink | None" = None,
        enabled: bool = True,
        max_spans: int = MAX_SPANS_PER_TRACE,
    ) -> None:
        self.enabled = enabled
        self.recorder = recorder
        self.max_spans = max_spans

    def trace(self, name: str) -> "_TraceBlock":
        return _TraceBlock(self, name)


class _TraceBlock:
    """Context manager behind :meth:`Tracer.trace` (class-based like
    :class:`_SpanBlock`: one per query execution)."""

    __slots__ = ("tracer", "name", "inner", "active", "root", "token")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.inner: _SpanBlock | None = None
        self.active: ActiveTrace | None = None
        self.root: Span | None = None
        self.token: object = None

    def __enter__(self) -> Span | None:
        tracer = self.tracer
        if not tracer.enabled:
            return None
        if _CURRENT_SPAN.get() is not None:
            self.inner = _SpanBlock(self.name)
            return self.inner.__enter__()
        active = ActiveTrace(self.name, max_spans=tracer.max_spans)
        root = active.new_span(self.name, None)
        active.root = root
        self.active = active
        self.root = root
        self.token = _CURRENT_SPAN.set(root)
        return root

    def __exit__(self, exc_type: object, exc: BaseException | None, tb: object) -> bool:
        if self.inner is not None:
            return self.inner.__exit__(exc_type, exc, tb)
        root = self.root
        if root is None:  # tracer disabled
            return False
        _CURRENT_SPAN.reset(self.token)  # type: ignore[arg-type]
        if exc is not None:
            root.set_error(exc)
        root.finish()
        active = self.active
        assert active is not None
        recorder = self.tracer.recorder
        if recorder is not None:
            recorder.record(active.snapshot())
        active.detach()
        return False
