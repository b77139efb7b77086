"""Cold dashboard reads in-process: CPU microseconds per request, part by part.

Builds the ``dash_cold`` deployment of ``benchmarks/e2e`` (its history,
its ``SystemConfig``, its preloaded 64-slot cube cache, no result memo)
and replays the workload's request list in this process, pinned to one
CPU, with no HTTP in front.  Each request is ``Dashboard.analysis``
followed by ``encode_result``, as ``POST /analysis`` runs them.  Each
part is the thread CPU time spent inside one entry point, summed over
the replay and divided by the requests:

* **plan** — ``LevelOptimizer.plan``: the level optimizer, per window;
* **decode** — ``deserialize_cube`` as the index calls it: one page
  back into a cube;
* **aggregate** — ``aggregate_array`` of both cube forms: filter and
  reduce one cube;
* **encode** — ``encode_result``: the answer as response bytes;
* **rest** — everything else ``Dashboard.analysis`` does (windows,
  cache lookups, page reads, row shaping, stats, metrics, spans).

Each pass starts with an empty row-prefix cache (``_row_prefix``, as a
fresh serving process does) and reports its hit ratio.  After the
passes, the encode alone is timed over the replay's answers in
alternating pairs, with the cache (emptied first) and with every
prefix built inline, and the cache's hit ratio is also reported in
``scatter_procpool``'s order: the list twice, alternately to its two
workers, each with its own cache.

Run: ``PYTHONPATH=src python benchmarks/bench_cold_read.py [--seed 13]
[--passes 3] [--pairs 10] [--smoke]``.  The last line printed is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

sys.path.append(str(Path(__file__).resolve().parent / "e2e"))

import repro.core.hierarchy as hierarchy  # noqa: E402
import repro.dashboard.server as server  # noqa: E402
from repro.core.optimizer import LevelOptimizer  # noqa: E402
from repro.dashboard.server import encode_result  # noqa: E402
from repro.storage.disk import InMemoryDisk  # noqa: E402
from repro.system import RasedSystem  # noqa: E402
from repro.types.cube import DataCube, SparseCube  # noqa: E402
from workloads import FULL, NOMINAL_SECONDS, SMOKE, WORKLOADS, build_inputs  # noqa: E402

#: (owner, attribute, part) — the entry points whose CPU time is a part.
PARTS: tuple[tuple[Any, str, str], ...] = (
    (LevelOptimizer, "plan", "plan"),
    (hierarchy, "deserialize_cube", "decode"),
    (SparseCube, "aggregate_array", "aggregate"),
    (DataCube, "aggregate_array", "aggregate"),
)
COLUMNS = ("plan", "decode", "aggregate", "encode", "rest", "total")


def _timed(
    function: Callable[..., Any], spent: dict[str, float], part: str, depth: list[int]
) -> Callable[..., Any]:
    """``function`` charging its thread CPU time to ``part`` — only the
    outermost timed call, so a part nested in another is not counted twice."""

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if depth[0]:
            return function(*args, **kwargs)
        depth[0] += 1
        started = time.thread_time()
        try:
            return function(*args, **kwargs)
        finally:
            spent[part] += time.thread_time() - started
            depth[0] -= 1

    return wrapper


def build(seed: int, smoke: bool) -> tuple[RasedSystem, list[Any]]:
    """The ``dash_cold`` deployment, loaded and warmed, and its queries."""
    workload = WORKLOADS["dash_cold"]
    profile = SMOKE if smoke else FULL
    with tempfile.TemporaryDirectory(prefix="bench-cold-") as scratch:
        inputs = build_inputs(workload, seed, NOMINAL_SECONDS, profile, Path(scratch))
        system = RasedSystem.create(
            root=Path(scratch) / "root",
            config=workload.config,
            store=InMemoryDisk(read_latency=0.0, write_latency=0.0),
        )
        system.index.bulk_load(inputs.updates_by_day)
    system.warm_cache()
    return system, [query for query in inputs.queries if query is not None]


def measure(system: RasedSystem, queries: list[Any]) -> dict[str, float]:
    """One replay of ``queries``: CPU µs per request for each part."""
    spent = dict.fromkeys(COLUMNS, 0.0)
    depth = [0]
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in PARTS]
    for owner, name, part in PARTS:
        setattr(owner, name, _timed(getattr(owner, name), spent, part, depth))
    analysis, bytes_out = system.dashboard.analysis, 0
    server._row_prefix.cache_clear()
    try:
        for query in queries:
            started = time.thread_time()
            result = analysis(query)
            encode_started = time.thread_time()
            bytes_out += len(encode_result(result)[0])
            ended = time.thread_time()
            spent["total"] += ended - started
            spent["encode"] += ended - encode_started
    finally:
        for owner, name, function in originals:
            setattr(owner, name, function)
    parts = sum(spent[part] for part in ("plan", "decode", "aggregate", "encode"))
    spent["rest"] = spent["total"] - parts
    result = {part: 1e6 * seconds / len(queries) for part, seconds in spent.items()}
    result["bytes_per_request"] = bytes_out / len(queries)
    result["prefix_hit_ratio"] = _hit_ratio()
    return result


def _hit_ratio() -> float:
    info = server._row_prefix.cache_info()
    return info.hits / max(1, info.hits + info.misses)


def prefix_cache(results: list[Any], pairs: int) -> dict[str, Any]:
    """The row-prefix cache against prefixes built inline: encode CPU µs
    per request over ``results`` in ``pairs`` alternating pairs, and the
    cache's hit ratio in each workload's request order."""
    cached = server._row_prefix

    def encode_us(prefix: Callable[..., str]) -> float:
        cached.cache_clear()
        server._row_prefix = prefix
        started = time.thread_time()
        try:
            for result in results:
                encode_result(result)
        finally:
            server._row_prefix = cached
        return 1e6 * (time.thread_time() - started) / len(results)

    def hit_ratio(streams: list[list[Any]]) -> float:
        hits = lookups = 0
        for stream in streams:
            cached.cache_clear()
            for result in stream:
                encode_result(result)
            info = cached.cache_info()
            hits, lookups = hits + info.hits, lookups + info.hits + info.misses
        return hits / max(1, lookups)

    sides = {"cached": cached, "inline": cached.__wrapped__}
    runs: dict[str, list[float]] = {side: [] for side in sides}
    for number in range(pairs):
        for side in sorted(sides, reverse=number % 2 == 1):
            runs[side].append(encode_us(sides[side]))
    twice = results + results
    return {
        "encode_us_cached": round(statistics.median(runs["cached"]), 1),
        "encode_us_inline": round(statistics.median(runs["inline"]), 1),
        "cached_lower_in": sum(c < i for c, i in zip(runs["cached"], runs["inline"])),
        "pairs": pairs,
        "hit_ratio_dash_cold": round(hit_ratio([results]), 3),
        "hit_ratio_scatter_procpool": round(hit_ratio([twice[0::2], twice[1::2]]), 3),
        "entries": cached.cache_info().maxsize,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=13, help="workload seed (13)")
    parser.add_argument("--passes", type=int, default=3, help="replays measured (3)")
    parser.add_argument(
        "--pairs", type=int, default=10, help="cached/inline encode pairs (10)"
    )
    parser.add_argument("--smoke", action="store_true", help="1-year history, 1 pass (CI)")
    args = parser.parse_args()
    passes, pairs = (1, 1) if args.smoke else (args.passes, args.pairs)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    system, queries = build(args.seed, args.smoke)
    measure(system, queries)  # warm-up: first-touch costs, caches of code paths
    results = [measure(system, queries) for _ in range(passes)]
    print(f"dash_cold in-process CPU µs/request, {len(queries)} requests, {passes} pass(es)")
    print("pass  " + "  ".join(f"{name:>10}" for name in COLUMNS))
    for number, result in enumerate(results, 1):
        print(f"{number:>4}  " + "  ".join(f"{result[name]:10.1f}" for name in COLUMNS))
    prefixes = prefix_cache([system.dashboard.analysis(query) for query in queries], pairs)
    print(f"row-prefix cache: {prefixes}")
    summary = {
        "bench": "cold_read",
        "seed": args.seed,
        "requests": len(queries),
        "passes": passes,
        "bytes_per_request": round(results[0]["bytes_per_request"], 1),
        "median_us_per_request": {
            name: round(statistics.median(r[name] for r in results), 1) for name in COLUMNS
        },
        "prefix_hit_ratio": round(statistics.median(r["prefix_hit_ratio"] for r in results), 3),
        "row_prefix_cache": prefixes,
    }
    print(json.dumps(summary, sort_keys=True))


if __name__ == "__main__":
    main()
