#!/usr/bin/env python3
"""Apply the bounds in ``BENCHMARK.json`` to result files of ``run.py``.

``compare.py BASE.json NEW.json``
    One row per (workload, end-to-end metric): base, new, the ratio with
    its base, the bound, and a verdict —

    ``ok``          the new median is not worse than the base's by more
                    than the bound;
    ``worse``       it is;
    ``unresolved``  the spread between repeated runs (``run.py --runs N``)
                    is wider than the bound, so the difference cannot be
                    told from noise — unless every new run reads better
                    than every base run, which is ``ok``.

    Then the exact per-layer counts of the single-client workload, which
    must repeat between two runs of the same code and seed.

``compare.py RESULT.json``
    The spread of each metric over the file's repeated runs against its
    bound: the steadiness check (first to third quartile of
    ``statistics.quantiles(values, n=4)`` over the median).

Exits 1 when any row is ``worse`` (or, for one file, unsteady), 2 when
the files cannot be compared (a smoke run against a full one).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))

from metrics import benchmark  # noqa: E402

__all__ = ["spread", "verdict", "compare", "steadiness", "main"]

#: Per-layer metrics with these units are exact counts ...
_COUNT_UNITS = ("count", "B", "ratio")
#: ... except these: a response carries wall-clock stats whose digits
#: vary.
_INEXACT = ("server.response_bytes",)
_SINGLE_CLIENT = "dash_cold"


def spread(values: Sequence[float]) -> float | None:
    """Interquartile distance as a share of the median (None below 2 runs)."""
    if len(values) < 2:
        return None
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / median if median else None


def _runs(document: dict[str, Any], workload: str, metric: str) -> list[float]:
    """Every run's value of one metric (the medians' row when not repeated)."""
    runs = document.get("runs")
    if runs:
        return [run["workloads"][workload]["end_to_end"][metric] for run in runs]
    return [document["workloads"][workload]["end_to_end"][metric]]


def verdict(
    base: Sequence[float], new: Sequence[float], better: str, bound: float
) -> tuple[str, float, float | None]:
    """(verdict, share by which new is worse than base, widest spread)."""
    base_median, new_median = statistics.median(base), statistics.median(new)
    worse_by = (new_median - base_median) / base_median
    if better == "higher":
        worse_by = -worse_by
    spreads = [s for s in (spread(base), spread(new)) if s is not None]
    widest = max(spreads) if spreads else None
    if widest is not None and widest > bound:
        all_better = (
            max(new) < min(base) if better == "lower" else min(new) > max(base)
        )
        return ("ok" if all_better else "unresolved"), worse_by, widest
    return ("worse" if worse_by > bound else "ok"), worse_by, widest


def compare(
    tables: dict[str, Any], base: dict[str, Any], new: dict[str, Any]
) -> tuple[list[list[str]], bool]:
    """Table rows and whether any is ``worse``."""
    rows = [["workload", "metric", "base", "new", "new/base", "bound", "spread", "verdict"]]
    any_worse = False
    for workload in tables["workloads"]:
        name = workload["name"]
        if name not in base["workloads"] or name not in new["workloads"]:
            continue
        for metric in tables["end_to_end"]:
            base_runs = _runs(base, name, metric["name"])
            new_runs = _runs(new, name, metric["name"])
            outcome, _, widest = verdict(
                base_runs, new_runs, metric["better"], metric["bound"]
            )
            any_worse |= outcome == "worse"
            base_median = statistics.median(base_runs)
            new_median = statistics.median(new_runs)
            rows.append(
                [
                    name,
                    metric["name"],
                    f"{base_median:.4f}",
                    f"{new_median:.4f}",
                    f"{new_median / base_median:.3f} of {base_median:.4f}",
                    f"{metric['bound']:.2f}",
                    "-" if widest is None else f"{widest:.3f}",
                    outcome,
                ]
            )
    if _SINGLE_CLIENT in base["workloads"] and _SINGLE_CLIENT in new["workloads"]:
        base_layers = base["workloads"][_SINGLE_CLIENT].get("layers", {})
        new_layers = new["workloads"][_SINGLE_CLIENT].get("layers", {})
        same_seed = base.get("seed") == new.get("seed")
        for metric in tables["per_layer"]:
            if (
                metric["unit"] not in _COUNT_UNITS
                or metric["name"] in _INEXACT
                or metric["name"] not in base_layers
            ):
                continue
            a, b = base_layers[metric["name"]], new_layers.get(metric["name"])
            rows.append(
                [
                    _SINGLE_CLIENT,
                    metric["name"],
                    f"{a:.4f}",
                    "-" if b is None else f"{b:.4f}",
                    "count",
                    "exact",
                    "-",
                    "same" if a == b else ("differs" if same_seed else "other seed"),
                ]
            )
    return rows, any_worse


def steadiness(
    tables: dict[str, Any], document: dict[str, Any]
) -> tuple[list[list[str]], bool]:
    """Table rows and whether any spread exceeds its bound."""
    rows = [["workload", "metric", "median", "runs", "spread", "bound", "verdict"]]
    unsteady = False
    for name in document["workloads"]:
        for metric in tables["end_to_end"]:
            values = _runs(document, name, metric["name"])
            width = spread(values)
            # setup_s is reported, its spread is not gated.
            gated = metric["name"] != "setup_s"
            wide = width is not None and width > metric["bound"]
            unsteady |= wide and gated
            rows.append(
                [
                    name,
                    metric["name"],
                    f"{statistics.median(values):.4f}",
                    str(len(values)),
                    "-" if width is None else f"{width:.3f}",
                    f"{metric['bound']:.2f}",
                    "-" if width is None else ("unsteady" if wide and gated else "ok"),
                ]
            )
    return rows, unsteady


def _print(rows: list[list[str]]) -> None:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())


def main(argv: Sequence[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    documents = [json.loads(Path(path).read_text()) for path in argv[1:]]
    if len({bool(document.get("smoke")) for document in documents}) > 1:
        print("refusing to compare a smoke run with a full one", file=sys.stderr)
        return 2
    for path, document in zip(argv[1:], documents):
        flags = [flag for flag in ("smoke", "noisy") if document.get(flag)]
        print(f"{path}: commit {document.get('commit')} seed {document.get('seed')} "
              f"{' '.join(flags)}".rstrip())
    software = {
        (d.get("host", {}).get("python"), d.get("host", {}).get("numpy")) for d in documents
    }
    if len(software) > 1:
        # Timings are divided by kernels that run on this software.
        print(f"warning: the files were measured on different Python/numpy: {sorted(software)}")
    if len(documents) == 1:
        rows, failed = steadiness(benchmark(), documents[0])
    else:
        rows, failed = compare(benchmark(), documents[0], documents[1])
    _print(rows)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
