"""The daily ingest path's output is a committed golden.

Ten seeded simulated days (across a month end, so the warehouse indexes
fold and the month rolls up) go through ``RasedSystem`` the way
``rased-repro ingest`` runs them: durable, sparse cubes in v3 pages.
Every page id with the SHA-256 of its bytes, and a digest of the
warehouse rows in heap order, must equal ``tests/golden/ingest_pages.json``.
Its ``rebuilt`` section pins the monthly path the same way: all of
January and three February days ingested, then January rebuilt from the
full-history dump — every cube page's digest and one digest over the
whole store.  A change that moves one changes the stored bytes;
regenerate only on purpose (``PYTHONPATH=src python
tests/test_ingest_golden.py``), with the reason in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from datetime import date, timedelta
from pathlib import Path
from typing import Any

from repro.storage.disk import InMemoryDisk
from repro.system import RasedSystem, SimulationConfig, SystemConfig
from repro.types.temporal import month_key

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "ingest_pages.json"


def compute() -> dict[str, Any]:
    store = InMemoryDisk(read_latency=0.0, write_latency=0.0)
    with tempfile.TemporaryDirectory(prefix="rased-golden-") as root:
        system = RasedSystem.create(
            root=root,
            config=SystemConfig(
                road_types=12,
                durable_ingest=True,
                simulation=SimulationConfig(seed=31),
            ),
            store=store,
        )
        report = system.simulate_and_ingest(date(2021, 1, 26), date(2021, 2, 4))
    return {
        "days": report.days_processed,
        "updates_indexed": report.updates_indexed,
        "updates_skipped": report.updates_skipped,
        "warehouse_rows": system.warehouse.row_count,
        "warehouse_rows_sha256": rows_sha256(system),
        "pages": {
            page_id: hashlib.sha256(store.read(page_id)).hexdigest()
            for page_id in store.list_pages()
        },
    }


def rows_sha256(system: RasedSystem) -> str:
    """A digest of the warehouse rows in heap order."""
    rows = hashlib.sha256()
    for record in (r for _, rows in system.warehouse.scan_pages() for r in rows):
        rows.update(record.to_tsv().encode("utf-8") + b"\n")
    return rows.hexdigest()


def compute_rebuilt() -> dict[str, Any]:
    store = InMemoryDisk(read_latency=0.0, write_latency=0.0)
    with tempfile.TemporaryDirectory(prefix="rased-golden-") as root:
        system = RasedSystem.create(
            root=root,
            config=SystemConfig(road_types=12, simulation=SimulationConfig(seed=31)),
            store=store,
        )
        system.simulate_and_ingest(date(2021, 1, 1), date(2021, 2, 3))
        history = Path(root) / "history.osm"
        system.publisher.write_history_dump(history)
        report = system.pipeline.run_monthly(history, [month_key(2021, 1)])
    pages = {page_id: hashlib.sha256(store.read(page_id)).hexdigest() for page_id in store.list_pages()}
    return {
        "days": report.days_processed,
        "updates_indexed": report.updates_indexed,
        "updates_skipped": report.updates_skipped,
        "cubes_written": [str(key) for key in report.cubes_written],
        "cube_pages": {page_id: digest for page_id, digest in pages.items() if page_id.startswith("cubes/")},
        "store_sha256": hashlib.sha256(dumps(pages).encode("ascii")).hexdigest(),
    }


def dumps(document: dict[str, Any]) -> str:
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


def test_ingested_pages_match_the_golden():
    expected = json.loads(GOLDEN_PATH.read_text())
    del expected["rebuilt"]
    actual = compute()
    assert {k: v for k, v in actual.items() if k != "pages"} == {
        k: v for k, v in expected.items() if k != "pages"
    }
    assert sorted(actual["pages"]) == sorted(expected["pages"])
    moved = [page for page, digest in expected["pages"].items() if actual["pages"][page] != digest]
    assert not moved, f"{len(moved)} page(s) changed bytes, first {moved[:5]}"


def test_a_rebuilt_month_matches_the_golden():
    expected = json.loads(GOLDEN_PATH.read_text())["rebuilt"]
    actual = compute_rebuilt()
    moved = [page for page, digest in expected["cube_pages"].items() if actual["cube_pages"].get(page) != digest]
    assert not moved, f"{len(moved)} cube page(s) changed bytes, first {moved[:5]}"
    assert actual == expected


def test_simulate_then_ingest_stores_the_in_process_rows():
    """A feed ingested by another process (its crawler joins ways and
    relations against the changeset files) stores the rows one process
    that simulates and ingests stores (its crawler shares the publisher's
    changeset store)."""
    config = SystemConfig(road_types=12, simulation=SimulationConfig(seed=31))
    start, end = date(2021, 1, 26), date(2021, 1, 29)
    with tempfile.TemporaryDirectory(prefix="rased-golden-") as root:

        def system(name: str) -> RasedSystem:
            store = InMemoryDisk(read_latency=0.0, write_latency=0.0)
            return RasedSystem.create(root=Path(root) / name, config=config, store=store)

        in_process = system("one")
        in_process.simulate_and_ingest(start, end)
        publisher = system("two")
        for offset in range((end - start).days + 1):
            publisher.publish_day(start + timedelta(days=offset))
        ingester = system("two")
        ingester.pipeline.run_daily()
        assert ingester.warehouse.row_count == in_process.warehouse.row_count > 0
        assert rows_sha256(ingester) == rows_sha256(in_process)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(dumps({**compute(), "rebuilt": compute_rebuilt()}))
