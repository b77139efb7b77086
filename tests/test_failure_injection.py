"""Failure injection: corrupted pages, torn files, and bad feeds.

A monitoring system ingests external data forever; these tests pin the
failure modes down to typed errors at the right layer — never silent
wrong answers.
"""

from __future__ import annotations

from datetime import date, datetime, timezone

import pytest

from repro.types.temporal import day_key
from repro.core.hierarchy import HierarchicalIndex, page_id_for
from repro.errors import (
    PageCorruptError,
    PageNotFoundError,
    ParseError,
    StorageError,
)
from repro.collection.records import UpdateList, UpdateRecord
from repro.storage.disk import DirectoryDisk, InMemoryDisk
from repro.storage.serializer import deserialize_cube
from repro.storage.hash_index import HashIndex
from repro.storage.warehouse import RowPointer, Warehouse


def _updates(day):
    return UpdateList(
        [
            UpdateRecord(
                element_type="way",
                date=day,
                country="germany",
                latitude=50.0,
                longitude=10.0,
                road_type="residential",
                update_type="geometry",
                changeset_id=7,
            )
        ]
    )


class TestCorruptCubePages:
    @pytest.fixture()
    def index_with_data(self, tiny_schema):
        disk = InMemoryDisk(read_latency=0, write_latency=0)
        index = HierarchicalIndex(tiny_schema, disk)
        index.ingest_day(date(2021, 3, 5), _updates(date(2021, 3, 5)))
        return index, disk

    def test_bitflip_detected_on_read(self, index_with_data):
        index, disk = index_with_data
        page_id = page_id_for(day_key(date(2021, 3, 5)))
        data = bytearray(disk._pages[page_id])
        data[60] ^= 0x01
        disk._pages[page_id] = bytes(data)
        with pytest.raises(PageCorruptError):
            index.get(day_key(date(2021, 3, 5)))

    def test_truncated_page_detected(self, index_with_data):
        index, disk = index_with_data
        page_id = page_id_for(day_key(date(2021, 3, 5)))
        disk._pages[page_id] = disk._pages[page_id][:50]
        with pytest.raises(PageCorruptError):
            index.get(day_key(date(2021, 3, 5)))

    def test_foreign_page_under_cube_id_detected(self, index_with_data):
        index, disk = index_with_data
        page_id = page_id_for(day_key(date(2021, 3, 5)))
        disk._pages[page_id] = b"this is not a cube page at all......."
        with pytest.raises(PageCorruptError):
            index.get(day_key(date(2021, 3, 5)))

    def test_error_does_not_poison_catalog(self, index_with_data):
        """A corrupt read quarantines the key; re-writing the cube
        heals it back into service."""
        index, disk = index_with_data
        key = day_key(date(2021, 3, 5))
        page_id = page_id_for(key)
        good = disk._pages[page_id]
        disk._pages[page_id] = good[:50]
        with pytest.raises(PageCorruptError):
            index.get(key)
        # The bad page is out of service, not crashing every query.
        assert not index.has(key)
        assert key in index.quarantined_keys()
        # Maintenance rewriting the cube restores it.
        cube = deserialize_cube(good, index.schema, key)
        index.put(cube)
        assert index.has(key)
        assert key not in index.quarantined_keys()
        assert index.get(key).total == 1


class TestQueryPathFailures:
    def test_missing_page_degrades_to_partial_answer(self, tiny_schema):
        """A cataloged cube whose page vanished yields partial=True —
        never a crash, never a silently-complete-looking total."""
        from repro.core.executor import QueryExecutor
        from repro.core.query import AnalysisQuery

        disk = InMemoryDisk(read_latency=0, write_latency=0)
        index = HierarchicalIndex(tiny_schema, disk)
        index.ingest_day(date(2021, 3, 5), _updates(date(2021, 3, 5)))
        index.ingest_day(date(2021, 3, 6), _updates(date(2021, 3, 6)))
        del disk._pages[page_id_for(day_key(date(2021, 3, 5)))]
        executor = QueryExecutor(index)
        result = executor.execute(
            AnalysisQuery(start=date(2021, 3, 5), end=date(2021, 3, 6))
        )
        assert result.stats.partial is True
        assert result.stats.quarantined_cubes == 1
        # The surviving day still answers.
        assert result.total == 1
        # And the bad day is quarantined for the health endpoint.
        assert index.quarantined_count() == 1


class TestWarehouseFailures:
    def test_torn_heap_page_detected_on_recovery(self, tiny_schema):
        disk = InMemoryDisk(read_latency=0, write_latency=0)
        warehouse = Warehouse(disk)
        warehouse.append(_updates(date(2021, 3, 5)))
        page_id = next(iter(disk.list_pages("warehouse/heap/")))
        disk._pages[page_id] = disk._pages[page_id][:-13]  # tear a row
        with pytest.raises(StorageError, match="torn"):
            Warehouse(disk)

    def test_torn_hash_bucket_detected(self):
        disk = InMemoryDisk(read_latency=0, write_latency=0)
        index = HashIndex(disk, bucket_count=4)
        index.insert(1, RowPointer(0, 0))
        index.flush()
        bucket_id = next(iter(disk.list_pages("warehouse/hash/")))
        disk._pages[bucket_id] = disk._pages[bucket_id][:-3]
        with pytest.raises(StorageError, match="torn"):
            index.lookup(1)


class TestFeedFailures:
    def test_malformed_state_file(self, tmp_path):
        from repro.osm.replication import ReplicationFeed
        from repro.osm.xml_io import OsmChange

        feed = ReplicationFeed(tmp_path, "day")
        feed.publish(OsmChange(), datetime(2021, 1, 1, tzinfo=timezone.utc))
        (feed.root / "state.txt").write_text("garbage\n")
        with pytest.raises(ParseError):
            feed.current_sequence()

    def test_malformed_diff_file(self, tmp_path):
        from repro.osm.replication import ReplicationFeed, sequence_path
        from repro.osm.xml_io import OsmChange

        feed = ReplicationFeed(tmp_path, "day")
        feed.publish(OsmChange(), datetime(2021, 1, 1, tzinfo=timezone.utc))
        (feed.root / (sequence_path(0) + ".osc")).write_text("<osmChange><create>")
        with pytest.raises(ParseError):
            feed.fetch(0)

    def test_malformed_changeset_file(self, tmp_path):
        from repro.osm.changesets import ChangesetStore

        store = ChangesetStore(tmp_path)
        (tmp_path / "0000000.xml").write_text("<osm><changeset id='1'")
        with pytest.raises(ParseError):
            store.lookup(1)

    def test_crawler_survives_missing_changeset(self, atlas, tmp_path):
        """A diff referencing an unknown changeset skips those rows and
        keeps the rest — one bad join must not kill the day."""
        from repro.collection.daily import DailyCrawler
        from repro.collection.geocode import Geocoder
        from repro.osm.changesets import ChangesetStore
        from repro.osm.model import OSMNode, OSMWay
        from repro.osm.replication import ReplicationFeed
        from repro.osm.xml_io import OsmChange

        stamp = datetime(2021, 1, 1, 12, tzinfo=timezone.utc)
        center = atlas.zone("germany").bbox.center
        node = OSMNode(
            id=1, version=1, timestamp=stamp, changeset=999,
            lat=center.lat, lon=center.lon,
        )
        way = OSMWay(
            id=2, version=1, timestamp=stamp, changeset=999,
            refs=(1,), tags={"highway": "residential"},
        )
        feed = ReplicationFeed(tmp_path / "repl", "day")
        feed.publish(OsmChange(create=[node, way]), stamp)
        crawler = DailyCrawler(
            feed, ChangesetStore(tmp_path / "cs"), Geocoder(atlas)
        )
        result = next(iter(crawler.crawl_new()))
        # The node locates by its own coordinates; the way needed the
        # (missing) changeset and is skipped.
        assert len(result.updates) == 1
        assert result.updates[0].element_type == "node"
        assert result.skipped == 1


class TestDirectoryDiskFailures:
    def test_unreadable_after_external_deletion(self, tmp_path):
        disk = DirectoryDisk(tmp_path)
        disk.write("cubes/D2021-01-01", b"x")
        for page in tmp_path.rglob("*.page"):
            page.unlink()
        with pytest.raises(PageNotFoundError):
            disk.read("cubes/D2021-01-01")
