"""Command-line front end: ``rased-repro lint`` / ``python -m repro.tools.lint``."""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.tools.lint.runner import run_lint

__all__ = ["main", "add_lint_arguments", "run_from_args"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json is machine-readable, for CI)",
    )
    parser.add_argument(
        "--root",
        dest="lint_root",
        default=None,
        help=(
            "package directory to scan, named as it is imported "
            "(default: the installed repro package)"
        ),
    )


def run_from_args(args: argparse.Namespace) -> int:
    report = run_lint(Path(args.lint_root) if args.lint_root else None)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        for finding in report.findings:
            print(
                f"{finding.path}:{finding.line}: [{finding.rule}] "
                f"{finding.message}"
            )
        print(
            ("FAIL: " if report.findings else "OK: ")
            + f"{len(report.findings)} finding(s) in {report.files_scanned} "
            f"file(s), {report.lock_count} lock(s), {report.edge_count} "
            f"lock-order edge(s) ({report.suppressed} suppressed)"
        )
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.lint",
        description=(
            "RASED project static analysis: layer DAG, lock discipline, "
            "hot-path hygiene, cube-schema order, metric-name hygiene, "
            "TODO tracking, blocking-under-lock and guarded-state atomicity."
        ),
    )
    add_lint_arguments(parser)
    return run_from_args(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
