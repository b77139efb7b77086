"""Exporting query results: CSV, JSON, and timelapse scripts.

The RASED GUI lets analysts download what they see; this writes
:class:`~repro.core.query.QueryResult` objects as CSV or JSON (stable
column order, ISO dates) and a timelapse as a plain-text storyboard
file.  No command or route serves it, so it lives with the tests that
check a result exports whole.  All functions accept a path or an open
text handle.
"""

from __future__ import annotations

import csv
import json
from datetime import date
from pathlib import Path
from typing import IO

from repro.core.query import QueryResult
from repro.dashboard.server import result_to_json
from repro.dashboard.timelapse import TimelapseFrame

__all__ = ["result_to_csv", "result_to_json_text", "timelapse_to_text"]


def _cell(value: object) -> object:
    return value.isoformat() if isinstance(value, date) else value


def result_to_csv(result: QueryResult, target: str | Path | IO[str]) -> int:
    """Write one result as CSV (group-by columns + ``value``).

    Returns the number of data rows written.  Rows are emitted in
    descending value order, matching the dashboard's default table.
    """
    if isinstance(target, (str, Path)):
        with open(target, "w", newline="", encoding="utf-8") as handle:
            return result_to_csv(result, handle)
    writer = csv.writer(target)
    writer.writerow(list(result.query.group_by) + ["value"])
    count = 0
    for key, value in result.sorted_rows():
        writer.writerow([_cell(part) for part in key] + [value])
        count += 1
    return count


def result_to_json_text(result: QueryResult, target: str | Path | IO[str] | None = None) -> str:
    """Render one result as a JSON document (optionally writing it).

    The document is the one the API serves (:func:`result_to_json`):
    it carries the generated SQL and the execution record, so an
    exported file is self-describing.
    """
    text = json.dumps(result_to_json(result), indent=2)
    if isinstance(target, (str, Path)):
        Path(target).write_text(text, encoding="utf-8")
    elif target is not None:
        target.write(text)
    return text


def timelapse_to_text(
    frames: list[TimelapseFrame], target: str | Path | IO[str]
) -> int:
    """Write timelapse frames as a text storyboard; returns frame count."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as handle:
            return timelapse_to_text(frames, handle)
    for index, frame in enumerate(frames):
        target.write(f"=== frame {index + 1}/{len(frames)}: {frame.title} ===\n")
        target.write(frame.art)
        target.write("\n\n")
    return len(frames)
