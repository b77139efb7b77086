"""Command-line interface to the RASED reproduction.

A deployment lives under one root directory: OSM feed files (diffs,
changesets) under ``<root>/feeds`` and index/warehouse pages under
``<root>/pages``.  Typical session::

    rased-repro simulate --root /tmp/rased --start 2021-01-01 --end 2021-02-28
    rased-repro ingest   --root /tmp/rased
    rased-repro info     --root /tmp/rased
    rased-repro query    --root /tmp/rased --sql "SELECT U.Country, COUNT(*) \\
        FROM UpdateList U WHERE U.Date BETWEEN 2021-01-01 AND 2021-02-28 \\
        GROUP BY U.Country" --chart bar
    rased-repro samples  --root /tmp/rased --zone germany -n 5
    rased-repro stats    --root /tmp/rased --sql "SELECT COUNT(*) FROM UpdateList U"
    rased-repro serve    --root /tmp/rased --port 8200
    rased-repro traces   --url http://127.0.0.1:8200 --status error
    rased-repro lint     --format json

``lint`` needs no deployment: it runs the project's static analyzer
(:mod:`repro.tools.lint`) over the installed source tree and fails on
any finding not accepted in place by a ``# lint: allow[rule] <reason>``
comment.

``simulate`` drives the synthetic world and *publishes* feed files;
``ingest`` crawls anything not yet ingested (restart-safe via the
persisted crawl cursor); ``query``/``samples``/``stats``/``serve`` are
read-only, bar the repair any opener makes of a batch a dead writer
left half-done.  ``stats`` dumps the deployment's metrics registry (add
``--sql`` to exercise a query first, ``--format prometheus|json`` for
machine-readable output); ``query --trace`` prints the per-query phase
breakdown.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys
from datetime import date
from pathlib import Path

from repro.core.query import QueryResult
from repro.core.shard import detect_shard_count
from repro.errors import RasedError
from repro.storage.disk import DirectoryDisk
from repro.system import RasedSystem, SystemConfig
from repro.types.temporal import TemporalKey, month_key

__all__ = ["main", "build_parser"]


def _open_system(
    root: str, config: SystemConfig | None = None, shards: int | None = None
) -> RasedSystem:
    """Open the deployment under ``root``.

    The shard count is a property of the root, not of a command line:
    it is read back from the page directories.  ``shards`` (``ingest
    --shards``) only lays out a root that holds no cubes yet;
    contradicting an existing layout is a :class:`ConfigError`.
    """
    root_path = Path(root)
    store = DirectoryDisk(root_path / "pages")
    if shards is None:
        shards = detect_shard_count(store) or 1
    return RasedSystem.create(
        root=root_path / "feeds",
        config=dataclasses.replace(config or SystemConfig.serving(), shards=shards),
        store=store,
    )


def _format_trace(result: QueryResult) -> str:
    """One answered query's record for a terminal (``query --trace``,
    ``stats --sql``): the phase table, then every other field."""
    stats = result.stats
    total = stats.phase_seconds("")
    lines = [f"trace: {result.query.describe()} — {total * 1000.0:.3f} ms traced"]
    for phase, (seconds, count) in stats.phases.items():
        lines.append(
            f"  {phase:<18}  {seconds * 1000.0:>9.3f} ms"
            f"  {100.0 * seconds / total if total else 0.0:>5.1f}%  ({count}x)"
        )
    lines.extend(
        f"  {field.name} = {getattr(stats, field.name)}"
        for field in dataclasses.fields(stats)
        if field.name != "phases"
    )
    return "\n".join(lines)


def _cmd_simulate(args: argparse.Namespace) -> int:
    """Publish feed files only: the root's pages are not opened."""
    from repro.synth.publisher import FeedPublisher
    from repro.types.simulation import SimulationConfig

    publisher = FeedPublisher(Path(args.root) / "feeds", config=SimulationConfig(seed=args.seed))
    days = publisher.publish_days(date.fromisoformat(args.start), date.fromisoformat(args.end))
    print(f"published {len(days)} daily diffs under {args.root}/feeds")
    if args.history_out:
        count = publisher.write_history_dump(args.history_out)
        print(f"wrote full-history dump ({count:,} element versions) to {args.history_out}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    system = _open_system(args.root, shards=args.shards)
    # Opening the root rolled back what a crashed run left: say so.
    recovery = system.recovered
    if recovery is not None and recovery.rolled_back:
        print(
            f"recovered: rolled back incomplete batch "
            f"{recovery.batch_meta or '(torn intent)'} "
            f"({recovery.pages_restored} pages restored)"
        )
    report = system.pipeline.run_daily()
    print(
        f"ingested {report.days_processed} days: "
        f"{report.updates_indexed:,} updates, "
        f"{len(report.cubes_written)} cubes written, "
        f"{report.updates_skipped} skipped"
    )
    return 0


def _months(text: str) -> list[TemporalKey]:
    """A ``--month`` value — ``YYYY-MM``, or the inclusive range
    ``YYYY-MM..YYYY-MM`` — as its month keys, first to last."""
    parts = text.split("..")
    matches = [re.fullmatch(r"([1-9]\d{3})-(0[1-9]|1[0-2])", part) for part in parts]
    numbers = [int(m[1]) * 12 + int(m[2]) - 1 for m in matches if m is not None]
    if len(parts) > 2 or len(numbers) < len(parts):
        raise argparse.ArgumentTypeError(f"expected YYYY-MM or YYYY-MM..YYYY-MM, got {text!r}")
    first, last = numbers[0], numbers[-1]
    if last < first:
        raise argparse.ArgumentTypeError(f"month range {text!r} ends before it starts")
    return [month_key(n // 12, n % 12 + 1) for n in range(first, last + 1)]


def _cmd_rebuild(args: argparse.Namespace) -> int:
    """Monthly maintenance: reclassify months from a history dump, which
    is read once for all of them."""
    months = args.month
    system = _open_system(args.root)
    report = system.pipeline.run_monthly(args.history, months)
    label = str(months[0]) if len(months) == 1 else f"{months[0]}..{months[-1]}"
    print(
        f"rebuilt {label}: {report.updates_indexed:,} reclassified updates "
        f"across {report.days_processed} days, "
        f"{len(report.cubes_written)} cubes rewritten"
    )
    for as_of in report.sizes_recorded:
        print(f"recorded road-network sizes as of {as_of}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    system = _open_system(args.root)
    coverage = system.index.coverage()
    print(f"root:      {args.root}")
    print(f"coverage:  {coverage[0]} .. {coverage[1]}" if coverage else "coverage:  (empty)")
    pages = system.index.pages_per_level()
    for level, count in sorted(pages.items()):
        print(f"{level.label:<9}  {count} cubes")
    print(f"warehouse  {system.warehouse.row_count:,} rows "
          f"({system.warehouse.page_count} heap pages)")
    dates = system.network_sizes.dates
    print(
        f"sizes:     as of {dates[-1]} ({len(dates)} record(s))"
        if dates
        else "sizes:     none (percentages unavailable)"
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    system = _open_system(args.root, SystemConfig.serving(cache_slots=args.cache_slots))
    system.warm_cache()
    result = system.dashboard.analysis_sql(args.sql)
    print(
        f"-- {result.stats.cube_count} cubes "
        f"({result.stats.cache_hits} cached), "
        f"{result.stats.simulated_ms:.2f} ms modeled --"
    )
    if args.trace:
        print(_format_trace(result))
    if args.chart == "bar":
        from repro.dashboard.charts import bar_chart

        print(bar_chart(result, limit=args.limit))
    elif args.chart == "series":
        from repro.dashboard.charts import time_series

        print(time_series(result))
    elif args.chart == "map":
        from repro.dashboard.charts import choropleth

        print(choropleth(result, system.atlas))
    else:
        from repro.dashboard.tables import render_table

        print(render_table(result, limit=args.limit))
    return 0


def _cmd_samples(args: argparse.Namespace) -> int:
    system = _open_system(args.root)
    records = system.dashboard.sample_updates(args.zone, n=args.n)
    for record in records:
        print(record.to_tsv())
    print(f"-- {len(records)} sample updates in {args.zone} --", file=sys.stderr)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Dump the deployment's metrics registry (optionally post-query)."""
    import json

    system = _open_system(args.root, SystemConfig.serving(cache_slots=args.cache_slots))
    system.warm_cache()
    if args.sql:
        print(_format_trace(system.dashboard.analysis_sql(args.sql)))
        print()
    registry = system.metrics
    if args.format == "json":
        print(json.dumps(registry.snapshot(), indent=2, sort_keys=True))
        return 0
    if args.format == "prometheus":
        print(registry.to_prometheus(), end="")
        return 0
    snapshot = registry.snapshot()
    for name, series in snapshot["counters"].items():
        for entry in series:
            labels = ",".join(f"{k}={v}" for k, v in entry["labels"].items())
            rendered = f"{name}{{{labels}}}" if labels else name
            print(f"{rendered:<58} {entry['value']:>14,.0f}")
    for name, series in snapshot["histograms"].items():
        for entry in series:
            labels = ",".join(f"{k}={v}" for k, v in entry["labels"].items())
            rendered = f"{name}{{{labels}}}" if labels else name
            print(
                f"{rendered:<58} n={entry['count']:<8,} "
                f"p50={entry['p50']:.6g} "
                f"p95={entry['p95']:.6g} "
                f"p99={entry['p99']:.6g}"
            )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.tools.lint.cli import run_from_args

    return run_from_args(args)


def _serve_configs(args: argparse.Namespace) -> tuple[SystemConfig, SystemConfig]:
    """``serve``'s configuration and the one its ``--workers`` open.

    Workers re-open the same root read-only with their own caches;
    tracing and admission stay in the serving process — it is the front
    door, not the compute.
    """
    from repro.dashboard.admission import AdmissionConfig
    from repro.obs import SLOConfig

    config = SystemConfig.serving(
        cache_slots=args.cache_slots,
        result_cache_slots=args.result_cache_slots,
        admission=AdmissionConfig(
            key_file=args.api_keys,
            rate_limit=args.rate_limit,
            burst=args.burst,
            daily_quota=args.daily_quota,
            default_deadline_ms=args.default_deadline_ms,
            max_deadline_ms=args.max_deadline_ms,
            shed_threshold=args.shed_threshold,
            shed_resume=args.shed_resume,
        ),
        tracing=not args.no_tracing,
        slo=SLOConfig(
            availability_target=args.slo_availability,
            latency_target=args.slo_latency_target,
            latency_threshold_ms=args.slo_latency_ms,
        ),
    )
    worker_config = dataclasses.replace(
        config, tracing=False, admission=AdmissionConfig()
    )
    return config, worker_config


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.dashboard.server import DashboardServer
    from repro.obs import EventLog

    config, worker_config = _serve_configs(args)
    system = _open_system(args.root, config)
    system.warm_cache()
    dispatcher = None
    if args.workers > 0:
        from repro.dashboard.procpool import ProcessPoolDispatcher

        # fork inherits this closure, so nothing here is pickled.
        def _worker_dashboard():
            worker = _open_system(args.root, worker_config)
            worker.warm_cache()
            return worker.dashboard

        dispatcher = ProcessPoolDispatcher(
            _worker_dashboard, workers=args.workers
        )
        dispatcher.prewarm()
    events = (
        EventLog.open(args.log_events) if args.log_events else EventLog()
    )
    server = DashboardServer(
        system.dashboard,
        host=args.host,
        port=args.port,
        admission=system.admission,
        max_body_bytes=args.max_body_bytes,
        drain_timeout=args.drain_timeout,
        tracer=system.tracer,
        recorder=system.recorder,
        slo=system.slo,
        events=events,
        dispatcher=dispatcher,
    )
    server.start()
    mode = (
        f"{args.workers} worker processes"
        if args.workers > 0
        else "in-process compute"
    )
    print(
        f"dashboard API on {server.url} "
        f"({system.config.shards} shard(s), {mode}; Ctrl-C to stop)"
    )
    try:
        import threading

        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        if dispatcher is not None:
            dispatcher.shutdown()
        events.close()
    return 0


def _cmd_traces(args: argparse.Namespace) -> int:
    """Dump the flight recorder of a running server over HTTP."""
    import json
    from urllib.error import HTTPError, URLError
    from urllib.request import urlopen

    base = args.url.rstrip("/")
    if args.id:
        url = f"{base}/debug/traces/{args.id}"
    else:
        url = f"{base}/debug/traces?limit={args.limit}"
        if args.status:
            url += f"&status={args.status}"
    try:
        with urlopen(url, timeout=args.timeout) as response:
            payload = json.loads(response.read().decode("utf-8"))
    except HTTPError as exc:
        body = exc.read().decode("utf-8", "replace")
        print(f"error: HTTP {exc.code}: {body}", file=sys.stderr)
        return 2
    except (URLError, OSError) as exc:
        print(f"error: cannot reach {url}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rased-repro",
        description="RASED reproduction: simulate, ingest, and query OSM road-network updates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="simulate edits and publish feed files")
    simulate.add_argument("--root", required=True)
    simulate.add_argument("--start", required=True, help="YYYY-MM-DD")
    simulate.add_argument("--end", required=True, help="YYYY-MM-DD")
    simulate.add_argument("--seed", type=int, default=42)
    simulate.add_argument(
        "--history-out", default=None, help="also write a full-history dump here"
    )
    simulate.set_defaults(func=_cmd_simulate)

    ingest = sub.add_parser("ingest", help="crawl and index unprocessed diffs")
    ingest.add_argument("--root", required=True)
    ingest.add_argument(
        "--shards",
        type=int,
        default=None,
        help="lay a new root out as N shard stores (<root>/pages-shard<i>, "
        "rendezvous-placed); every later command reads the count back "
        "from the root, and contradicting it is an error",
    )
    ingest.set_defaults(func=_cmd_ingest)

    rebuild = sub.add_parser(
        "rebuild", help="monthly maintenance from a full-history dump"
    )
    rebuild.add_argument("--root", required=True)
    rebuild.add_argument("--history", required=True, help="full-history .osm file")
    rebuild.add_argument(
        "--month",
        required=True,
        type=_months,
        help="YYYY-MM, or YYYY-MM..YYYY-MM for a run of months (the dump is "
        "read once); only days already ingested are rebuilt",
    )
    rebuild.set_defaults(func=_cmd_rebuild)

    info = sub.add_parser("info", help="show index coverage and sizes")
    info.add_argument("--root", required=True)
    info.set_defaults(func=_cmd_info)

    query = sub.add_parser("query", help="run a paper-dialect SQL analysis query")
    query.add_argument("--root", required=True)
    query.add_argument("--sql", required=True)
    query.add_argument(
        "--chart", choices=("table", "bar", "series", "map"), default="table"
    )
    query.add_argument("--limit", type=int, default=20)
    query.add_argument("--cache-slots", type=int, default=64)
    query.add_argument(
        "--trace", action="store_true", help="print the per-query phase breakdown"
    )
    query.set_defaults(func=_cmd_query)

    stats = sub.add_parser("stats", help="dump the deployment's metrics registry")
    stats.add_argument("--root", required=True)
    stats.add_argument(
        "--sql", default=None, help="run this query first, printing its trace"
    )
    stats.add_argument(
        "--format", choices=("table", "json", "prometheus"), default="table"
    )
    stats.add_argument("--cache-slots", type=int, default=64)
    stats.set_defaults(func=_cmd_stats)

    samples = sub.add_parser("samples", help="sample updates in a zone")
    samples.add_argument("--root", required=True)
    samples.add_argument("--zone", required=True)
    samples.add_argument("-n", type=int, default=100)
    samples.set_defaults(func=_cmd_samples)

    serve = sub.add_parser("serve", help="serve the JSON dashboard API")
    serve.add_argument("--root", required=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8200)
    serve.add_argument("--cache-slots", type=int, default=64)
    serve.add_argument(
        "--result-cache-slots",
        type=int,
        default=256,
        help="memoized whole-result cache slots (0 disables)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="compute POST /analysis* requests in N long-lived worker "
        "processes instead of request threads (0 = in-process); "
        "sidesteps the GIL for concurrent analysis traffic",
    )
    admission_group = serve.add_argument_group(
        "admission control",
        "front-door policy; every flag defaults to off, leaving the "
        "server exactly as permissive as before",
    )
    admission_group.add_argument(
        "--api-keys",
        default=None,
        metavar="FILE",
        help='tenant key file ({"tenants": [{"name": ..., "key": ...}]});'
        " set it to require X-API-Key on every request",
    )
    admission_group.add_argument(
        "--rate-limit",
        type=float,
        default=0.0,
        help="sustained per-tenant requests/second (0 disables)",
    )
    admission_group.add_argument(
        "--burst",
        type=float,
        default=0.0,
        help="burst allowance on top of --rate-limit (0 = max(rate, 1))",
    )
    admission_group.add_argument(
        "--daily-quota",
        type=int,
        default=0,
        help="per-tenant requests per day (0 disables)",
    )
    admission_group.add_argument(
        "--default-deadline-ms",
        type=int,
        default=0,
        help="deadline for requests without X-Deadline-Ms (0 disables)",
    )
    admission_group.add_argument(
        "--max-deadline-ms",
        type=int,
        default=60_000,
        help="upper clamp on client-requested deadlines",
    )
    admission_group.add_argument(
        "--shed-threshold",
        type=int,
        default=0,
        help="in-flight requests at which new arrivals are shed with "
        "503 (0 disables)",
    )
    admission_group.add_argument(
        "--shed-resume",
        type=int,
        default=0,
        help="in-flight level at which shedding disengages "
        "(0 = 3/4 of --shed-threshold)",
    )
    admission_group.add_argument(
        "--max-body-bytes",
        type=int,
        default=1 << 20,
        help="largest accepted POST body; bigger answers 413",
    )
    admission_group.add_argument(
        "--drain-timeout",
        type=float,
        default=5.0,
        help="seconds stop() waits for in-flight requests to finish",
    )
    obs_group = serve.add_argument_group(
        "observability",
        "causal tracing is on by default (<=5%% overhead budget, "
        "enforced in CI); the flight recorder and SLO burn rates are "
        "served at /debug/traces and /debug/slo",
    )
    obs_group.add_argument(
        "--no-tracing",
        action="store_true",
        help="disable causal span tracing (the flight recorder then "
        "stays empty)",
    )
    obs_group.add_argument(
        "--slo-availability",
        type=float,
        default=0.999,
        help="availability SLO target (fraction of requests answered "
        "without a 5xx)",
    )
    obs_group.add_argument(
        "--slo-latency-target",
        type=float,
        default=0.99,
        help="latency SLO target (fraction of requests under the "
        "threshold)",
    )
    obs_group.add_argument(
        "--slo-latency-ms",
        type=float,
        default=250.0,
        help="latency SLO threshold in milliseconds",
    )
    obs_group.add_argument(
        "--log-events",
        default=None,
        metavar="FILE",
        help="append structured JSON event lines here ('-' for stderr); "
        "each line carries the request's trace_id",
    )
    serve.set_defaults(func=_cmd_serve)

    traces = sub.add_parser(
        "traces", help="dump a running server's flight recorder"
    )
    traces.add_argument(
        "--url", required=True, help="server base URL, e.g. http://127.0.0.1:8200"
    )
    traces.add_argument(
        "--id", default=None, help="fetch one full span tree by trace id"
    )
    traces.add_argument("--limit", type=int, default=20)
    traces.add_argument(
        "--status",
        default=None,
        choices=("ok", "partial", "error"),
        help="only list traces with this status",
    )
    traces.add_argument("--timeout", type=float, default=10.0)
    traces.set_defaults(func=_cmd_traces)

    lint = sub.add_parser(
        "lint", help="run the project static analyzer (repro.tools.lint)"
    )
    from repro.tools.lint.cli import add_lint_arguments

    add_lint_arguments(lint)
    lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RasedError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
