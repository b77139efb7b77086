"""Spans measured from outside: timing wrappers around the layers' entry points.

No file under ``src/`` knows about this module.  For a traced replay
``install_*`` swaps each layer's public entry point for a wrapper that
records one span per call — name, start, end, parent, and the request
(or ingested day) it belongs to — and ``Wrappers.remove`` puts the
originals back.  Spans stay in memory; ``write_trace`` dumps them when
the workload ends.

Parenting: each thread keeps a stack of its open spans.  A replay has
one request in flight at a time, so a span that starts on a pool thread
with an empty stack belongs to that request and parents to the
innermost span open on the request's own thread — which is the
``iosched.fetch_many`` or ``shard.execute`` call that is blocked
waiting for the pool.

A layer's *self time* is its span's duration minus the union of its
child intervals (children on pool threads overlap each other, so the
union, not the sum).
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

__all__ = [
    "Span",
    "SpanRecorder",
    "Wrappers",
    "install_read_path",
    "install_ingest_path",
    "self_times",
    "summarize",
    "write_trace",
]


class Span(NamedTuple):
    span_id: int
    parent_id: int  # 0 = no parent (a unit's root)
    unit: int  # request or day number
    name: str
    start: float
    end: float
    #: One small layer-specific value (bytes, keys, hit flag, rows).
    value: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span sink shared by every wrapper of one traced run."""

    def __init__(self) -> None:
        # Plain tuples of atoms while recording: the collector stops
        # tracking those, so a long replay's spans are not rescanned by
        # every full collection the replay itself triggers.
        self._raw: list[tuple[Any, ...]] = []
        self.enabled = False
        self.unit = -1
        #: (unit, start, end, traced) of every unit, traced or not.
        self.units: list[tuple[int, float, float, bool]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner_stack: list[int] = []
        self._unit_started = 0.0
        self._unit_name = "unit"
        self._root_id = 0
        #: Shards the current unit touched (``ShardedIndex.shard_for``).
        self.unit_shards: set[int] = set()

    @property
    def spans(self) -> list[Span]:
        """Everything recorded so far, in order of completion."""
        return [Span._make(raw) for raw in self._raw]

    @property
    def span_count(self) -> int:
        return len(self._raw)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- units (one request, or one ingested day) -----------------------------

    def begin_unit(self, traced: bool, name: str = "unit") -> None:
        """Open the next unit on the calling thread, which then owns it."""
        self.unit += 1
        self.enabled = traced
        self.unit_shards = set()
        self._unit_name = name
        self._owner_stack = self._stack()
        self._unit_started = time.perf_counter()
        if traced:
            self._root_id = next(self._ids)
            self._owner_stack.append(self._root_id)

    def end_unit(self) -> float:
        """Close the open unit; returns its duration in seconds."""
        ended = time.perf_counter()
        traced = self.enabled
        self.enabled = False
        if traced:
            self._owner_stack.pop()
            self._raw.append(
                (
                    self._root_id,
                    0,
                    self.unit,
                    self._unit_name,
                    self._unit_started,
                    ended,
                    len(self.unit_shards),
                )
            )
        self.units.append((self.unit, self._unit_started, ended, traced))
        return ended - self._unit_started

    # -- spans -----------------------------------------------------------------

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        owner = self._owner_stack
        return owner[-1] if owner else 0

    def span(self, name: str) -> "_Block":
        """Time a block of the replay driver itself: ``with rec.span(n) as
        slot`` — what the block leaves in ``slot[0]`` becomes the value."""
        return _Block(self, name)

    def timed(
        self,
        function: Callable[..., Any],
        name: str | Callable[[Any], str],
        value_of: Callable[[Any, tuple[Any, ...]], Any] | None = None,
    ) -> Callable[..., Any]:
        """``function`` wrapped to record one span per call while enabled."""
        recorder = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not recorder.enabled:
                return function(*args, **kwargs)
            stack = recorder._stack()
            parent = recorder._parent(stack)
            span_id = next(recorder._ids)
            stack.append(span_id)
            value = None
            started = time.perf_counter()
            try:
                result = function(*args, **kwargs)
                if value_of is not None:
                    value = value_of(result, args)
                return result
            finally:
                ended = time.perf_counter()
                stack.pop()
                recorder._raw.append(
                    (
                        span_id,
                        parent,
                        recorder.unit,
                        name if isinstance(name, str) else name(args[0]),
                        started,
                        ended,
                        value,
                    )
                )

        wrapper.__wrapped__ = function  # type: ignore[attr-defined]
        return wrapper


class _Block:
    """Context manager behind :meth:`SpanRecorder.span`."""

    __slots__ = ("recorder", "name", "slot", "span_id", "parent", "started")

    def __init__(self, recorder: SpanRecorder, name: str) -> None:
        self.recorder = recorder
        self.name = name
        self.slot: list[Any] = [None]
        self.span_id = 0

    def __enter__(self) -> list[Any]:
        recorder = self.recorder
        if recorder.enabled:
            stack = recorder._stack()
            self.parent = recorder._parent(stack)
            self.span_id = next(recorder._ids)
            stack.append(self.span_id)
            self.started = time.perf_counter()
        return self.slot

    def __exit__(self, *exc_info: object) -> None:
        if self.span_id:
            ended = time.perf_counter()
            recorder = self.recorder
            recorder._stack().pop()
            recorder._raw.append(
                (
                    self.span_id,
                    self.parent,
                    recorder.unit,
                    self.name,
                    self.started,
                    ended,
                    self.slot[0],
                )
            )


class Wrappers:
    """The set of entry points currently swapped for timing wrappers."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str | Callable[[Any], str],
        value_of: Callable[[Any, tuple[Any, ...]], Any] | None = None,
    ) -> None:
        """Swap ``owner.attribute`` (a class's method or a module's
        function) for a timing wrapper."""
        original = vars(owner)[attribute]
        self.replace(owner, attribute, self.recorder.timed(original, name, value_of))

    def replace(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._saved.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    def remove(self) -> None:
        """Put every original back (idempotent)."""
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Wrappers":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.remove()


def _length_of_result(result: Any, args: tuple[Any, ...]) -> int:
    return len(result)


def _wrap_storage(wrappers: Wrappers) -> None:
    """Page store, serializer and cube kernel: shared by both paths."""
    import repro.core.hierarchy as hierarchy
    from repro.storage.disk import InMemoryDisk
    from repro.types.cube import DataCube, SparseCube

    # shard_stores_for() builds fresh InMemoryDisks per shard, so a
    # proxy handed to RasedSystem.create() would miss every cube read
    # of the sharded engine; the class is wrapped like the others.
    wrappers.wrap(InMemoryDisk, "read", "pages.read", _length_of_result)
    wrappers.wrap(
        InMemoryDisk, "write", "pages.write", lambda _, args: (args[1], len(args[2]))
    )
    # hierarchy imported these by name; the module global is what it calls.
    wrappers.wrap(
        hierarchy, "deserialize_cube", "serializer.decode", lambda _, args: len(args[0])
    )
    wrappers.wrap(hierarchy, "serialize_cube", "serializer.encode", _length_of_result)
    wrappers.wrap(hierarchy, "sum_cubes", "cube.sum_cubes")
    wrappers.wrap(DataCube, "aggregate_array", "cube.aggregate")
    wrappers.wrap(SparseCube, "aggregate_array", "cube.aggregate")


def install_read_path(recorder: SpanRecorder) -> Wrappers:
    """Wrap the query path's layers.  (Request parse, admission,
    ``Dashboard.analysis`` and response encode are timed by the replay
    driver, which makes those calls itself.)"""
    from repro.core.cache import CacheManager
    from repro.core.executor import QueryExecutor
    from repro.core.hierarchy import HierarchicalIndex
    from repro.core.iosched import IOScheduler
    from repro.core.optimizer import LevelOptimizer
    from repro.core.resultcache import ResultCache
    from repro.core.shard import ScatterGatherExecutor, ShardedIndex

    wrappers = Wrappers(recorder)
    # ScatterGatherExecutor inherits execute(); the span is named after
    # the engine that ran it.
    wrappers.wrap(
        QueryExecutor,
        "execute",
        lambda executor: "shard.execute"
        if isinstance(executor, ScatterGatherExecutor)
        else "executor.execute",
    )
    is_hit = lambda result, _: result is not None  # noqa: E731
    wrappers.wrap(ResultCache, "get", "resultcache.get", is_hit)
    wrappers.wrap(ResultCache, "put", "resultcache.put")
    wrappers.wrap(
        LevelOptimizer, "plan", "optimizer.plan", lambda plan, _: len(plan.keys)
    )
    wrappers.wrap(CacheManager, "get", "cache.get", is_hit)
    wrappers.wrap(IOScheduler, "fetch_many", "iosched.fetch_many")
    wrappers.wrap(HierarchicalIndex, "get", "hierarchy.get")
    _wrap_storage(wrappers)

    shard_for = vars(ShardedIndex)["shard_for"]

    def counting_shard_for(index: Any, key: Any) -> int:
        shard = shard_for(index, key)
        if recorder.enabled:
            recorder.unit_shards.add(shard)
        return shard

    wrappers.replace(ShardedIndex, "shard_for", counting_shard_for)
    return wrappers


def install_ingest_path(recorder: SpanRecorder, alternate: bool = True) -> Wrappers:
    """Wrap the daily ingest path's layers.

    One unit is one day.  ``run_daily`` is a loop over a generator, so
    a day has no call of its own to wrap: it runs from one
    ``DailyCrawler.process_change`` to the next.  With ``alternate``
    only odd days record spans; even days run the bare originals behind
    one flag test, and the two interleaved series of day durations give
    the tracing overhead without a second ingest of the same feed.
    """
    from repro.collection.daily import DailyCrawler
    from repro.core.hierarchy import HierarchicalIndex
    from repro.storage.hash_index import HashIndex
    from repro.storage.spatial_index import GridSpatialIndex
    from repro.storage.wal import IngestWAL
    from repro.storage.warehouse import Warehouse

    wrappers = Wrappers(recorder)
    crawl = recorder.timed(
        vars(DailyCrawler)["process_change"],
        "collection.crawl",
        lambda _, args: len(args[2].updates),
    )

    def process_change(crawler: Any, change: Any, result: Any) -> None:
        if recorder.unit >= 0:
            recorder.end_unit()
        recorder.begin_unit(
            traced=not alternate or (recorder.unit + 1) % 2 == 1, name="day"
        )
        crawl(crawler, change, result)

    wrappers.replace(DailyCrawler, "process_change", process_change)
    wrappers.wrap(HierarchicalIndex, "ingest_day", "hierarchy.ingest_day")
    wrappers.wrap(HierarchicalIndex, "get", "hierarchy.get")
    wrappers.wrap(Warehouse, "append", "warehouse.append")
    wrappers.wrap(HashIndex, "insert_many", "hash_index.insert_many")
    wrappers.wrap(HashIndex, "flush", "hash_index.flush")
    wrappers.wrap(GridSpatialIndex, "insert_many", "spatial_index.insert_many")
    wrappers.wrap(GridSpatialIndex, "flush", "spatial_index.flush")
    wrappers.wrap(IngestWAL, "begin", "wal.begin")
    wrappers.wrap(IngestWAL, "commit", "wal.commit")
    _wrap_storage(wrappers)
    return wrappers


# -- analysis ------------------------------------------------------------------


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Self time of every span: duration minus the union of the parts
    of its interval that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent_id:
            children[span.parent_id].append((span.start, span.end))
    result: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(span.span_id, ())):
            start = max(start, reach)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result[span.span_id] = span.duration - covered
    return result


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def summarize(recorder: SpanRecorder) -> dict[str, float]:
    """Per-layer metrics of one traced replay (read path or ingest).

    Timings are medians per call, or per unit (request / day) where the
    metric's name says so; counts are means per unit and exact.  A
    layer that never ran reports 0.
    """
    spans = recorder.spans
    selfs = self_times(spans)
    units = max(1, sum(1 for unit in recorder.units if unit[3]))
    durations: dict[str, list[float]] = defaultdict(list)
    self_by_name: dict[str, list[float]] = defaultdict(list)
    values: dict[str, list[Any]] = defaultdict(list)
    per_unit: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        durations[span.name].append(span.duration)
        self_by_name[span.name].append(selfs[span.span_id])
        if span.value is not None:  # None: the wrapped call raised
            values[span.name].append(span.value)
        per_unit[span.name][span.unit] += span.duration

    def call_us(name: str) -> float:
        return 1e6 * _median(durations[name])

    def call_ms(name: str) -> float:
        return 1e3 * _median(durations[name])

    def self_ms(name: str) -> float:
        return 1e3 * _median(self_by_name[name])

    def unit_ms(*names: str) -> float:
        """Median over the units that ran any of ``names`` of their summed time."""
        totals: dict[int, float] = defaultdict(float)
        for name in names:
            for unit, seconds in per_unit[name].items():
                totals[unit] += seconds
        return 1e3 * _median(list(totals.values()))

    def per_unit_count(name: str) -> float:
        return len(durations[name]) / units

    def per_unit_sum(name: str, pick: Callable[[Any], float] = float) -> float:
        return sum(pick(v) for v in values[name]) / units

    def ratio_true(name: str) -> float:
        flags = values[name]
        return sum(1 for flag in flags if flag) / len(flags) if flags else 0.0

    writes = values["pages.write"]
    decoded = values["serializer.decode"]
    encoded = values["serializer.encode"]
    pages = decoded or encoded
    roots = [s for s in spans if s.parent_id == 0]
    return {
        "server.parse_us": call_us("server.parse"),
        "server.encode_us": call_us("server.encode"),
        "server.response_bytes": per_unit_sum("server.encode"),
        "admission.admit_us": 1e3 * unit_ms("admission.admit", "admission.release"),
        "api.analysis_ms": call_ms("api.analysis"),
        "resultcache.get_us": call_us("resultcache.get"),
        "executor.execute_ms": call_ms("executor.execute"),
        "executor.self_ms": self_ms("executor.execute"),
        "optimizer.plan_us": call_us("optimizer.plan"),
        "optimizer.plans_per_req": per_unit_count("optimizer.plan"),
        "optimizer.keys_per_req": per_unit_sum("optimizer.plan"),
        "cache.get_us": call_us("cache.get"),
        "cache.hit_ratio": ratio_true("cache.get"),
        "iosched.fetch_ms": call_ms("iosched.fetch_many"),
        "iosched.self_ms": self_ms("iosched.fetch_many"),
        "hierarchy.get_us": call_us("hierarchy.get"),
        "hierarchy.ingest_day_ms": call_ms("hierarchy.ingest_day"),
        "pages.reads_per_req": per_unit_count("pages.read"),
        "pages.read_us": call_us("pages.read"),
        "pages.read_bytes_per_req": per_unit_sum("pages.read"),
        "pages.writes_per_day": per_unit_count("pages.write"),
        "pages.write_bytes_per_day": per_unit_sum("pages.write", lambda v: v[1]),
        "serializer.decode_us": call_us("serializer.decode"),
        "serializer.encode_us": call_us("serializer.encode"),
        "serializer.bytes_per_page": sum(pages) / len(pages) if pages else 0.0,
        "cube.aggregate_us": call_us("cube.aggregate"),
        "cube.aggregate_ms_per_req": unit_ms("cube.aggregate"),
        "cube.sum_cubes_ms_per_day": 1e3 * sum(durations["cube.sum_cubes"]) / units,
        "shard.execute_ms": call_ms("shard.execute"),
        "shard.self_ms": self_ms("shard.execute"),
        "shard.fanout": sum(root.value for root in roots) / units
        if durations["shard.execute"]
        else 0.0,
        "collection.crawl_ms_per_day": call_ms("collection.crawl"),
        "collection.updates_per_day": per_unit_sum("collection.crawl"),
        "warehouse.append_ms_per_day": call_ms("warehouse.append"),
        "hash_index.flush_ms_per_day": unit_ms("hash_index.insert_many", "hash_index.flush"),
        "spatial_index.flush_ms_per_day": unit_ms(
            "spatial_index.insert_many", "spatial_index.flush"
        ),
        "wal.commit_ms_per_day": unit_ms("wal.begin", "wal.commit"),
        "wal.journal_pages_per_day": sum(1 for w in writes if "/undo" in w[0]) / units,
    }


def attribution(recorder: SpanRecorder) -> dict[str, float]:
    """The sum check: per unit, all self times over the root's duration.

    Exactly 1 when nothing overlaps; parallel children (pool threads)
    push it above 1 by the time they ran side by side.
    """
    spans = recorder.spans
    selfs = self_times(spans)
    total: dict[int, float] = defaultdict(float)
    root: dict[int, float] = {}
    for span in spans:
        total[span.unit] += selfs[span.span_id]
        if span.parent_id == 0:
            root[span.unit] = span.duration
    ratios = [total[unit] / root[unit] for unit in root if root[unit] > 0]
    return {
        "self_sum_over_root_median": _median(ratios),
        "self_sum_over_root_max": max(ratios, default=0.0),
        "root_ms_median": 1e3 * _median(list(root.values())),
    }


def write_trace(
    recorder: SpanRecorder, path: Path, workload: str, max_units: int = 200
) -> None:
    """Dump the first ``max_units`` traced units' spans as JSON.

    Times are microseconds since the first span written.  The cap keeps
    the file reviewable (a full dash_cold replay is ~10^5 spans); the
    per-layer metrics were computed from all of them.
    """
    traced = [unit[0] for unit in recorder.units if unit[3]]
    keep = set(traced[:max_units])
    spans = [span for span in recorder.spans if span.unit in keep]
    origin = min((span.start for span in spans), default=0.0)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "workload": workload,
        "clock": "wall",
        "units_traced": len(traced),
        "units_written": len(keep),
        "columns": ["span_id", "parent_id", "unit", "name", "start_us", "end_us", "value"],
        "spans": [
            [
                span.span_id,
                span.parent_id,
                span.unit,
                span.name,
                round(1e6 * (span.start - origin), 1),
                round(1e6 * (span.end - origin), 1),
                span.value,
            ]
            for span in sorted(spans, key=lambda s: s.start)
        ],
    }
    path.write_text(json.dumps(document) + "\n")
