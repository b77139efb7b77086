#!/usr/bin/env python3
"""benchmarks/e2e: the wall-clock serving + ingest benchmark.

Two ways to run it, from the repository root:

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload, one phase — what ``BENCHMARK.json`` declares.  The
    last stdout line is ``{"correct", "attempted", "failed", "metrics"}``
    with the end-to-end metrics (``--trace 0``) or the per-layer ones
    (``--trace 1``).

``python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--smoke] [--out FILE]``
    Both phases of every (or one) workload: prints every metric by
    name with its unit and writes one result JSON.

Wall-clock only.  Modeled ``sim_ms`` numbers never appear here.
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from datetime import timedelta
from pathlib import Path
from typing import Any, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro" / "system.py").is_file():
    sys.exit(f"benchmarks/e2e needs the program under {ROOT / 'src'}; it is not there")
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

import loadgen  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from metrics import benchmark  # noqa: E402
from truth import GroundTruth  # noqa: E402
from workloads import (  # noqa: E402
    FULL,
    INGEST_BATCH_DAYS,
    PASSES,
    ROUNDS,
    SMOKE,
    WORKLOADS,
    Inputs,
    SizeProfile,
    Workload,
    build_inputs,
    publish_through,
    world,
)

RESULTS = HERE / "results"
#: A pass over the request list is cut into this many consecutive
#: segments, each timed (wall and CPU) on its own with the host's
#: slowness sampled either side.
SEGMENTS = 12
#: Distinct requests whose rows are compared with ground truth.
VERIFIED_REQUESTS = 24
#: The per-layer phase covers this many requests from the head of the
#: (shuffled) list, in chunks of REPLAY_CHUNK; the end-to-end rounds
#: always cover all of it.
REPLAY_LIMIT = 600
REPLAY_CHUNK = 25
#: Seconds after which a single-phase run gives up (the contract allows 180).
PHASE_DEADLINE = 170


class Child:
    """Parent-side handle of one serving process (``child.py``)."""

    def __init__(self, spec_path: Path, cpus: Sequence[int]) -> None:
        """``cpus``: one CPU for each serving process in turn - the
        server on the first, pool worker ``i`` on the ``i+1``-th, wrapping
        round; empty to leave placement to the scheduler."""
        started = time.perf_counter()
        self.pids: list[int] = []
        # The serving process inherits the CPUs this thread is allowed
        # at the moment of the fork, and its threads and pool workers
        # inherit them from it.
        mine = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpus[0]} if cpus else mine)
        try:
            # Its own session: one killpg reaps the server and its pool
            # workers whatever state they are in.
            self.process = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(spec_path)],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                start_new_session=True,
            )
        finally:
            os.sched_setaffinity(0, mine)
        try:
            ready = self._read()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started
        self.address: tuple[str, int] = (ready["address"][0], ready["address"][1])
        self.pids = ready["pids"]
        self.load: dict[str, float] = ready["load"]
        if cpus:
            for worker, pid in enumerate(self.pids[1:], start=1):
                # Every thread the worker has by now; later ones inherit.
                for thread in os.listdir(f"/proc/{pid}/task"):
                    os.sched_setaffinity(int(thread), {cpus[worker % len(cpus)]})

    def _read(self) -> dict[str, Any]:
        line = self.process.stdout.readline()  # type: ignore[union-attr]
        if not line:
            code = self.process.wait()
            raise RuntimeError(f"serving process exited with code {code}")
        return json.loads(line)

    def call(self, **command: Any) -> dict[str, Any]:
        stdin = self.process.stdin
        stdin.write(json.dumps(command) + "\n")  # type: ignore[union-attr]
        stdin.flush()  # type: ignore[union-attr]
        return self._read()

    def kill(self) -> None:
        """Kill the whole session and wait.  Nothing a serving process
        holds outlives it (its store is in memory), so no run asks for
        a drain first."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        # Pool workers are the serving process's children, not ours: they
        # cannot be waited for, only watched until init has reaped them.
        deadline = time.monotonic() + 10.0
        for pid in self.pids[1:]:
            while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
                time.sleep(0.005)
        for stream in (self.process.stdin, self.process.stdout):
            if stream is not None and not stream.closed:
                try:
                    stream.close()
                except OSError:
                    pass

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.kill()


# -- inputs and ground truth ---------------------------------------------------


def verified_truth(inputs: Inputs, seed: int) -> dict[int, dict]:
    """Expected rows of a seeded sample of distinct requests.

    Maps every position in the request list that carries one of the
    sampled bodies, so repeats of a sampled request are checked too.
    """
    atlas, _ = world()
    positions_of: dict[bytes, list[int]] = {}
    for position, query in enumerate(inputs.queries):
        if query is not None:
            positions_of.setdefault(inputs.requests[position][2], []).append(position)
    bodies = sorted(positions_of)
    random.Random(seed * 31 + 7).shuffle(bodies)
    chosen = [inputs.queries[positions_of[body][0]] for body in bodies[:VERIFIED_REQUESTS]]
    days = set()
    for query in chosen:
        for offset in range((query.end - query.start).days + 1):
            days.add(query.start + timedelta(days=offset))
    truth = GroundTruth(inputs.updates_by_day, atlas, days)
    expected: dict[int, dict] = {}
    for body, query in zip(bodies, chosen):
        rows = truth.rows(query)
        for position in positions_of[body]:
            expected[position] = rows
    return expected


class Prepared:
    """One run's inputs on disk, ready for serving processes to load."""

    def __init__(
        self, workload: Workload, seed: int, seconds: float, profile: SizeProfile
    ) -> None:
        self.workload = workload
        # Every serving process gets one CPU and the load generator the
        # last one.  Left to the scheduler, the server's threads were
        # spread over both CPUs of the defining host after the first
        # second or two of load, and from then on the same requests cost
        # twice the CPU (see the README's findings) - a run measured
        # whichever mix of the two regimes it happened to get.
        self.affinity = os.sched_getaffinity(0)
        self.cpus = sorted(self.affinity) if len(self.affinity) >= 2 else []
        # Sampled on the CPUs Child() puts the serving processes on.
        self.calibrator = Calibrator(
            sorted({self.cpus[i % len(self.cpus)] for i in range(1 + workload.workers)})
            if self.cpus
            else []
        )
        self.scratch = RESULTS / f"tmp-{os.getpid()}-{workload.name}"
        shutil.rmtree(self.scratch, ignore_errors=True)
        self.scratch.mkdir(parents=True)
        try:
            self.inputs = build_inputs(workload, seed, seconds, profile, self.scratch)
            self.truth = verified_truth(self.inputs, seed)
            inputs_path = self.scratch / "inputs.pickle"
            self.inputs.write_for_child(inputs_path)
            self.spec_path = self.scratch / "spec.json"
            self.spec_path.write_text(
                json.dumps(
                    {
                        "workload": workload.name,
                        "inputs": str(inputs_path),
                        "scratch": str(self.scratch),
                        "results": str(RESULTS),
                    }
                )
            )
        except BaseException:
            shutil.rmtree(self.scratch, ignore_errors=True)
            raise

    def spawn(self) -> Child:
        return Child(self.spec_path, self.cpus)

    def __enter__(self) -> "Prepared":
        if self.cpus:
            os.sched_setaffinity(0, {self.cpus[-1]})
        return self

    def __exit__(self, *exc_info: object) -> None:
        os.sched_setaffinity(0, self.affinity)
        shutil.rmtree(self.scratch, ignore_errors=True)


# -- passes --------------------------------------------------------------------


def warm_up(child: Child, prepared: Prepared) -> None:
    """Let lazy set-up finish (pool threads, first imports) untimed.

    Replays the tail of the list, not its head: a pass that began by
    repeating the requests the warm-up had just sent began 1.6 times as
    fast as it went on.  (Not the cube cache: that is preloaded once and
    admits nothing afterwards.  The cause was not looked for.)
    """
    requests = prepared.inputs.requests
    tail = requests[-max(20, len(requests) // 10) :]
    loadgen.run_pass(child.address, tail, prepared.workload.clients, {})


def timed_pass(child: Child, prepared: Prepared, start: int, stop: int) -> loadgen.PassResult:
    """Requests ``start`` to ``stop`` over HTTP, untraced, every verified
    response compared with ground truth."""
    requests = prepared.inputs.requests[start:stop]
    truth = {
        position - start: rows
        for position, rows in prepared.truth.items()
        if start <= position < start + len(requests)
    }
    cpu_before = loadgen.tree_cpu_seconds(child.pids)
    result = loadgen.run_pass(child.address, requests, prepared.workload.clients, truth)
    result.cpu_seconds = loadgen.tree_cpu_seconds(child.pids) - cpu_before
    return result


@dataclasses.dataclass
class Segment:
    """A stretch of a pass timed on its own: the requests sent in it,
    its wall and server-CPU seconds, and the host's slowness meanwhile
    (mean of the samples taken either side of it)."""

    latencies: list[float]
    seconds: float
    cpu_seconds: float
    slowness: float


def pass_metrics(segments: Sequence[Segment]) -> dict[str, float]:
    """A pass's request metrics, every timing divided by the slowness of
    the segment it was taken in (see ``calibrate.py``)."""
    ms = [1000.0 * taken / s.slowness for s in segments for taken in s.latencies]
    seconds = sum(s.seconds / s.slowness for s in segments)
    cpu_seconds = sum(s.cpu_seconds / s.slowness for s in segments)
    return {
        "req_p50_ms": loadgen.percentile(ms, 0.50),
        "req_p95_ms": loadgen.percentile(ms, 0.95),
        "req_p99_ms": loadgen.percentile(ms, 0.99),
        "req_rps": len(ms) / seconds,
        "cpu_ms_per_req": 1000.0 * cpu_seconds / len(ms),
    }


def one_pass(child: Child, prepared: Prepared) -> tuple[list[Segment], loadgen.PassResult]:
    """The whole request list, ``SEGMENTS`` timed segments one after the other."""
    requests = prepared.inputs.requests
    bounds = sorted({round(i * len(requests) / SEGMENTS) for i in range(SEGMENTS + 1)})
    segments: list[Segment] = []
    whole = loadgen.PassResult()
    before = prepared.calibrator.sample()
    for start, stop in zip(bounds, bounds[1:]):
        result = timed_pass(child, prepared, start, stop)
        after = prepared.calibrator.sample()
        segments.append(
            Segment(result.latencies, result.elapsed, result.cpu_seconds, (before + after) / 2)
        )
        whole.absorb(result)
        before = after
    return segments, whole


def ingest_beside_reader(child: Child, prepared: Prepared) -> dict[str, Any]:
    """The feed, published ``INGEST_BATCH_DAYS`` days at a time with one
    ``pipeline.run_daily()`` in the serving process after each, while
    the reader cycles the request list until the last batch is in.

    A segment is one batch: the reader sends only while the writer
    works (it is held back while the host's slowness is sampled between
    batches), its requests belong to the batch they were sent in, and a
    segment's CPU is what the server spent outside the writer's thread.
    """
    feed_root = prepared.inputs.feed_root
    days = len(prepared.inputs.truth_day_rows)
    done, writing = threading.Event(), threading.Event()
    batches: list[dict[str, Any]] = []
    segments: list[Segment] = []
    ends: list[float] = []
    failure: list[BaseException] = []
    counters_before = child.call(cmd="counters")

    def writer() -> None:
        try:
            before = prepared.calibrator.sample()
            for published in range(0, days, INGEST_BATCH_DAYS):
                publish_through(feed_root, min(days, published + INGEST_BATCH_DAYS))
                began, cpu_began = time.perf_counter(), loadgen.tree_cpu_seconds(child.pids)
                writing.set()
                batch = child.call(cmd="ingest")
                writing.clear()
                ended, cpu_ended = time.perf_counter(), loadgen.tree_cpu_seconds(child.pids)
                after = prepared.calibrator.sample()
                batches.append(batch)
                segments.append(
                    Segment(
                        [],
                        ended - began,
                        cpu_ended - cpu_began - batch["cpu_seconds"],
                        (before + after) / 2,
                    )
                )
                ends.append(ended)
                before = after
        except BaseException as exc:  # re-raised below, on the main thread
            failure.append(exc)
        finally:
            done.set()
            writing.set()

    waiter = threading.Thread(target=writer, name="e2e-writer-wait", daemon=True)
    waiter.start()
    reader = loadgen.run_pass(
        child.address,
        prepared.inputs.requests,
        prepared.workload.clients,
        prepared.truth,
        until=done.is_set,
        gate=writing,
    )
    waiter.join()
    if failure:
        raise failure[0]
    for sent, taken in zip(reader.started, reader.latencies):
        segments[min(bisect.bisect_left(ends, sent), len(segments) - 1)].latencies.append(taken)
    after = child.call(cmd="counters")
    ingest = {
        key: sum(batch[key] for batch in batches)
        for key in ("days", "updates_indexed", "page_writes", "bytes_written")
    }
    ingest["seconds"] = sum(s.seconds / s.slowness for s in segments)
    ingest["warehouse_rows"] = batches[-1]["warehouse_rows"]
    problems = check_ingest(child, prepared, ingest)
    reader.attempted += 4
    reader.failed += len(problems)
    reader.failures += problems
    return {
        "segments": segments,
        "reader": reader,
        "ingest": ingest,
        "delta": {key: after[key] - counters_before[key] for key in after},
    }


def check_ingest(child: Child, prepared: Prepared, ingest: dict[str, Any]) -> list[str]:
    """After the pass: index and warehouse against the simulator (4 checks)."""
    expected = prepared.inputs.truth_day_rows
    body = json.dumps(
        {
            "start": min(expected).isoformat(),
            "end": max(expected).isoformat(),
            "group_by": ["date"],
        }
    ).encode()
    status, answer, *_ = loadgen.send(child.address, ("POST", "/analysis", body))
    if status != 200:
        return [f"per-day series query answered {status}: {answer[:120]!r}"]
    series = {row["group"][0]: row["value"] for row in json.loads(answer)["rows"]}
    wanted = {day.isoformat(): rows for day, rows in expected.items()}
    problems: list[str] = []
    if series != wanted:
        wrong = [day for day in wanted if series.get(day) != wanted[day]]
        problems.append(f"per-day series differs from the simulator on {wrong[:5]}")
    if sum(series.values()) != sum(wanted.values()):
        problems.append("series total differs from the simulator's row count")
    if ingest["days"] != len(expected):
        problems.append(f"ingested {ingest['days']} days of {len(expected)} published")
    if ingest["warehouse_rows"] != ingest["updates_indexed"]:
        problems.append(
            f"warehouse holds {ingest['warehouse_rows']} rows, "
            f"{ingest['updates_indexed']} updates were indexed"
        )
    return problems


# -- the two phases ------------------------------------------------------------


@dataclasses.dataclass
class Round:
    """What one serving process gave: its set-up, and either its passes
    over the request list or (``ingest_mixed``) its ingest of the feed
    with the reader's one pass beside it."""

    setup_s: float
    load: dict[str, Any]
    #: The segments of each pass, and every pass's requests as checked.
    passes: list[list[Segment]]
    checked: list[loadgen.PassResult]
    ingest: dict[str, Any] | None
    peak_rss_mb: float


def one_round(prepared: Prepared) -> Round:
    ingest = None
    if prepared.workload.ingest_day_rate:
        publish_through(prepared.inputs.feed_root, 0)
    with prepared.spawn() as child:
        warm_up(child, prepared)
        if prepared.workload.ingest_day_rate:
            beside = ingest_beside_reader(child, prepared)
            passes, checked, ingest = [beside["segments"]], [beside["reader"]], beside["ingest"]
        else:
            passes, checked = map(list, zip(*(one_pass(child, prepared) for _ in range(PASSES))))
        peak_rss_mb = loadgen.tree_peak_rss_mb(child.pids)
    return Round(child.setup_s, child.load, passes, checked, ingest, peak_rss_mb)


def end_to_end_phase(prepared: Prepared, rounds: int) -> dict[str, Any]:
    """``rounds`` serving processes one after the other, each set up,
    warmed, and sent the whole request list ``PASSES`` times —
    ``ingest_mixed``: fed the whole feed while the reader cycles the list.

    Every timing is divided by the host's slowness around the segment it
    was taken in (see ``calibrate.py``), then: percentiles within each
    pass and the median over the run's passes; ``peak_rss_mb`` and
    ``ingest_mixed``'s ``ingest_days_per_s`` are medians over the
    rounds, ``setup_s`` the median over the rounds divided by the median
    of all the run's slowness samples.
    """
    done = [one_round(prepared) for _ in range(rounds)]
    summaries = [pass_metrics(segments) for r in done for segments in r.passes]
    checked = [each for r in done for each in r.checked]
    samples = prepared.calibrator.samples
    values = {key: statistics.median(s[key] for s in summaries) for key in summaries[0]}
    # No sample can be taken inside a set-up, and the ones either side
    # of it say less about its 1-3 seconds than the whole run's do.
    values["setup_s"] = statistics.median(r.setup_s for r in done) / statistics.median(samples)
    values["peak_rss_mb"] = statistics.median(r.peak_rss_mb for r in done)
    load = done[-1].load
    detail: dict[str, Any] = {}
    if prepared.workload.ingest_day_rate:
        ingests = [r.ingest for r in done if r.ingest is not None]
        values["ingest_days_per_s"] = statistics.median(
            i["days"] / i["seconds"] for i in ingests
        )
        values["store_bytes_per_update"] = ingests[-1]["bytes_written"] / max(
            1, ingests[-1]["updates_indexed"]
        )
        detail["ingest"] = ingests[-1]
        detail["reader_max_ms"] = 1000.0 * max(max(each.latencies) for each in checked)
    else:
        # A workload that only reads ingests nothing: the days of history
        # its answers covered per second stand in (req_rps times a
        # constant of the list; every metric must be reported everywhere).
        values["ingest_days_per_s"] = (
            values["req_rps"] * prepared.inputs.days_asked / len(prepared.inputs.requests)
        )
        values["store_bytes_per_update"] = load["cube_bytes"] / load["rows_loaded"]
    attempted = sum(each.attempted for each in checked)
    failed = sum(each.failed for each in checked)
    detail.update(
        fail_share=failed / attempted,
        req_p99_ms=values.pop("req_p99_ms"),
        # How slow the host's kernels ran during this run (1.0: the
        # defining host at its median), and how far they swung: a
        # reported timing times the median is roughly what the clock said.
        host_slowness={
            "median": statistics.median(samples),
            "min": min(samples),
            "max": max(samples),
            "samples": len(samples),
        },
        # Each pass's own numbers: how far apart the same requests ran
        # on the same code seconds apart.
        passes=summaries,
        setup_seconds=[r.setup_s for r in done],
        requests=len(prepared.inputs.requests),
        verified_responses=sum(each.verified for each in checked),
        clients=prepared.workload.clients,
        load=load,
    )
    return {
        "end_to_end": {m["name"]: values[m["name"]] for m in benchmark()["end_to_end"]},
        "detail": detail,
        "attempted": attempted,
        "failed": failed,
        "failures": [why for each in checked for why in each.failures][:10],
    }


def host_slowness(prepared: Prepared) -> list[float]:
    """Three samples: what the per-layer phase takes around each of its
    few, long pieces."""
    return [prepared.calibrator.sample() for _ in range(3)]


def divided(layers: dict[str, float], slowness: float) -> dict[str, float]:
    """A table of per-layer metrics with its timings divided by the
    host's slowness while they were taken; counts stay as they are."""
    timed = {m["name"] for m in benchmark()["per_layer"] if m["unit"] in ("us", "ms")}
    return {
        name: value / slowness if name in timed else value for name, value in layers.items()
    }


def replay_beside_http(child: Child, prepared: Prepared) -> dict[str, Any]:
    """The head of the request list over HTTP and in-process, turn by turn.

    ``server.http_overhead_ms`` is the difference of two medians, and
    the host's speed drifts by more than that difference between one
    whole pass and the next (it came out anywhere from -1.4 to +1.3 ms
    on dash_cold).  So the list is cut into chunks, and each chunk is
    sent over HTTP, then replayed in the serving process untraced and
    traced, then — where there is a pool — through ``dispatcher.run``.
    """
    workload = prepared.workload
    total = min(REPLAY_LIMIT, len(prepared.inputs.requests))
    http = loadgen.PassResult()
    plain: list[float] = []
    traced: list[float] = []
    pooled: list[float] = []
    before = child.call(cmd="counters")
    slowness = host_slowness(prepared)
    for start in range(0, total, REPLAY_CHUNK):
        chunk = {"start": start, "stop": min(start + REPLAY_CHUNK, total)}
        http.absorb(timed_pass(child, prepared, **chunk))
        replayed = child.call(cmd="replay", **chunk)
        plain += replayed["plain_seconds"]
        traced += replayed["traced_seconds"]
        if workload.workers:
            pooled += child.call(cmd="replay_procpool", **chunk)["seconds"]
        slowness += host_slowness(prepared)
    after = child.call(cmd="counters")
    summary = child.call(
        cmd="replay_summary",
        # ingest_mixed's own trace file is the ingest's.
        trace_file=None if workload.ingest_day_rate else f"{workload.name}.trace.json",
    )
    return {
        "http": http,
        "delta": {key: after[key] - before[key] for key in after},
        "plain_ms": [1000.0 * s for s in plain],
        "traced_ms": [1000.0 * s for s in traced],
        "pooled_ms": [1000.0 * s for s in pooled],
        "summary": summary,
        "after": after,
        "slowness": statistics.median(slowness),
    }


def layers_phase(prepared: Prepared) -> dict[str, Any]:
    """The traced in-process replay beside HTTP, and the traced ingest."""
    workload = prepared.workload
    beside: dict[str, Any] | None = None
    if workload.ingest_day_rate:
        publish_through(prepared.inputs.feed_root, 0)
    with prepared.spawn() as child:
        warm_up(child, prepared)
        if workload.ingest_day_rate:
            beside = ingest_beside_reader(child, prepared)
        replayed = replay_beside_http(child, prepared)
    summary = replayed["summary"]
    http: loadgen.PassResult = replayed["http"]
    layer: dict[str, float] = dict(summary["layers"])
    http_p50_ms = loadgen.percentile([1000.0 * s for s in http.latencies], 0.5)
    behind_the_door = loadgen.percentile(replayed["plain_ms"], 0.5)
    detail: dict[str, Any] = {
        "attribution": summary["attribution"],
        "spans": summary["spans"],
        # As the clock said, like the slowness the per-layer timings
        # were divided by.
        "http_p50_ms": http_p50_ms,
        "in_process_p50_ms": behind_the_door,
        "layers_host_slowness": replayed["slowness"],
    }
    if workload.workers:
        behind_the_door = loadgen.percentile(replayed["pooled_ms"], 0.5)
        layer["procpool.run_ms"] = behind_the_door
        layer["procpool.hop_ms"] = statistics.median(
            run - alone for run, alone in zip(replayed["pooled_ms"], replayed["plain_ms"])
        )
    # The remainder nobody attributed: sockets, thread spawn, header
    # parse, the program's own tracing/SLO/metrics per request.
    layer["server.http_overhead_ms"] = http_p50_ms - behind_the_door
    layer = dict.fromkeys((m["name"] for m in benchmark()["per_layer"]), 0.0) | divided(
        layer, replayed["slowness"]
    )
    # Each request ran traced and untraced back to back: the median of
    # its own ratio shrugs off the hiccup that a ratio of sums absorbs.
    layer["trace.overhead_pct"] = 100.0 * (
        statistics.median(
            traced / plain for traced, plain in zip(replayed["traced_ms"], replayed["plain_ms"])
        )
        - 1.0
    )
    # Memo behaviour where it matters: under epoch churn when there is
    # a writer, over the HTTP chunks otherwise.
    delta = beside["delta"] if beside is not None else replayed["delta"]
    lookups = delta["resultcache_hits"] + delta["resultcache_misses"]
    layer["resultcache.hit_ratio"] = delta["resultcache_hits"] / lookups if lookups else 0.0
    after = replayed["after"]
    layer["admission.refused"] = after["admission_refused"] + http.refused + summary["refused"]
    layer["cache.resident_cubes"] = after["resident_cubes"]
    layer["cache.resident_bytes"] = after["resident_bytes"]
    attempted, failed, failures = http.attempted, http.failed, http.failures
    if beside is not None:
        reader: loadgen.PassResult = beside["reader"]
        attempted += reader.attempted
        failed += reader.failed
        failures = failures + reader.failures
        # A second serving process ingests the same feed, published
        # whole, with the reader idle and the wrappers on alternate days.
        with prepared.spawn() as child:
            slowness = host_slowness(prepared)
            ingest = child.call(cmd="ingest", traced=True)
            slowness += host_slowness(prepared)
        detail["ingest_host_slowness"] = statistics.median(slowness)
        written = divided(ingest["layers"], detail["ingest_host_slowness"])
        layer.update({k: v for k, v in written.items() if v})
        days = ingest["day_seconds"]
        # A day costs more the more days are stored, so each traced day
        # is held against the mean of its two untraced neighbours.
        ratios = [
            2.0 * days[i][0] / (days[i - 1][0] + days[i + 1][0])
            for i in range(1, len(days) - 1)
            if days[i][1]
        ]
        layer["trace.overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0) if ratios else 0.0
        tenth = max(1, len(days) // 10)
        detail["ingest_attribution"] = ingest["attribution"]
        detail["day_ms_first_tenth"] = 1000.0 * statistics.median(s for s, _ in days[:tenth])
        detail["day_ms_last_tenth"] = 1000.0 * statistics.median(s for s, _ in days[-tenth:])
        attempted += 1
        if ingest["days"] != len(prepared.inputs.truth_day_rows):
            failed += 1
            failures = failures + [f"traced ingest processed {ingest['days']} days"]
    return {
        "layers": layer,
        "detail": detail,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }


# -- entry points --------------------------------------------------------------


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    profile: SizeProfile,
    phases: Sequence[str],
    rounds: int,
) -> dict[str, Any]:
    outcome: dict[str, Any] = {"attempted": 0, "failed": 0, "failures": [], "detail": {}}
    with Prepared(workload, seed, seconds, profile) as prepared:
        for phase in phases:
            part = (
                end_to_end_phase(prepared, rounds)
                if phase == "end_to_end"
                else layers_phase(prepared)
            )
            outcome["attempted"] += part["attempted"]
            outcome["failed"] += part["failed"]
            outcome["failures"] += part["failures"]
            outcome["detail"].update(part["detail"])
            for key in ("end_to_end", "layers"):
                if key in part:
                    outcome[key] = part[key]
    return outcome


def host_fingerprint() -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": list(os.getloadavg()),
    }


def commit_id() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"  # an exported checkout: do not let git search above it
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def print_table(workloads: dict[str, dict[str, Any]]) -> None:
    names = list(workloads)
    tables = benchmark()
    width = max(len(m["name"]) for m in tables["per_layer"]) + 2

    def row(label: str, unit: str, cells: list[str]) -> None:
        print(f"{label:<{width}}{unit:<7}" + "".join(f"{cell:>18}" for cell in cells))

    row("metric", "unit", names)
    for title, key, table in (
        ("end to end (untraced HTTP passes)", "end_to_end", tables["end_to_end"]),
        ("per layer (traced in-process replay)", "layers", tables["per_layer"]),
    ):
        print(f"-- {title}")
        for metric in table:
            cells = [
                f"{workloads[n][key][metric['name']]:.4f}" if key in workloads[n] else "-"
                for n in names
            ]
            row(metric["name"], metric["unit"], cells)
        if key == "end_to_end":
            row(
                "fail_share",
                "ratio",
                [f"{workloads[n]['detail'].get('fail_share', 0.0):.4f}" for n in names],
            )


def contract_line(outcome: dict[str, Any], trace: bool) -> str:
    table = benchmark()["per_layer" if trace else "end_to_end"]
    values = outcome["layers" if trace else "end_to_end"]
    return json.dumps(
        {
            "correct": outcome["failed"] == 0,
            "attempted": outcome["attempted"],
            "failed": outcome["failed"],
            "metrics": {
                m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in table
            },
        }
    )


def _give_up(signum: int, frame: object) -> None:
    raise TimeoutError(f"no result after {PHASE_DEADLINE} s")


def _terminated(signum: int, frame: object) -> None:
    # Unwind through the ``with`` blocks so serving processes are reaped.
    raise SystemExit(128 + signum)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float, help="nominal length of the measured pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="one phase only")
    parser.add_argument("--smoke", action="store_true", help="~1/20 size, never comparable")
    parser.add_argument("--out", type=Path, help="result JSON (default: results/e2e.json)")
    parser.add_argument(
        "--runs", type=int, default=1, help="repeat with seeds N, N+1, ... and report medians"
    )
    args = parser.parse_args(argv)

    profile = SMOKE if args.smoke else FULL
    seconds = args.seconds if args.seconds is not None else profile.seconds
    chosen = [args.workload] if args.workload else list(WORKLOADS)
    host = host_fingerprint()
    noisy = host["loadavg"][0] > (host["nproc"] or 1)
    RESULTS.mkdir(exist_ok=True)
    signal.signal(signal.SIGTERM, _terminated)

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        signal.signal(signal.SIGALRM, _give_up)
        signal.alarm(PHASE_DEADLINE)
        phase = "layers" if args.trace else "end_to_end"
        outcome = run_workload(
            WORKLOADS[args.workload], args.seed, seconds, profile, [phase],
            1 if args.smoke else ROUNDS,
        )
        signal.alarm(0)
        for failure in outcome["failures"]:
            print(f"FAILED: {failure}", file=sys.stderr)
        print(contract_line(outcome, bool(args.trace)))
        return 0 if outcome["failed"] == 0 else 1

    runs: list[dict[str, Any]] = []
    failed = 0
    for repeat in range(args.runs):
        seed = args.seed + repeat
        # The traced replay is not repeated: its counts are exact and
        # its timings are medians over hundreds of requests already.
        phases = ["end_to_end", "layers"] if repeat == 0 else ["end_to_end"]
        workloads: dict[str, dict[str, Any]] = {}
        for name in chosen:
            print(f"running {name} (seed {seed}) ...", file=sys.stderr)
            outcome = run_workload(
                WORKLOADS[name], seed, seconds, profile, phases,
                1 if args.smoke else ROUNDS,
            )
            failed += outcome["failed"]
            for failure in outcome["failures"]:
                print(f"FAILED ({name}): {failure}", file=sys.stderr)
            workloads[name] = {
                key: outcome[key] for key in ("end_to_end", "layers", "detail") if key in outcome
            }
        runs.append({"seed": seed, "workloads": workloads})
    workloads = runs[0]["workloads"]
    document = {
        "bench": "e2e",
        "commit": commit_id(),
        "seed": args.seed,
        "seconds": seconds,
        "smoke": args.smoke,
        "noisy": noisy,
        "host": host,
        "clock": "wall",
        "workloads": workloads,
    }
    if args.runs > 1:
        # The headline row becomes the median over the runs; every
        # run's own values stay beside it for compare.py's spreads.
        document["runs"] = [
            {
                "seed": run["seed"],
                "workloads": {
                    name: {"end_to_end": result["end_to_end"]}
                    for name, result in run["workloads"].items()
                },
            }
            for run in runs
        ]
        for name in chosen:
            workloads[name]["end_to_end"] = {
                metric["name"]: statistics.median(
                    run["workloads"][name]["end_to_end"][metric["name"]] for run in runs
                )
                for metric in benchmark()["end_to_end"]
            }
    out = args.out or RESULTS / ("e2e.smoke.json" if args.smoke else "e2e.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=2, sort_keys=True, default=str) + "\n")
    print_table(workloads)
    print(f"\nwrote {out}" + ("  (smoke: not comparable with full runs)" if args.smoke else ""))
    if noisy:
        print("noisy: 1-min load average exceeded the core count at start")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
