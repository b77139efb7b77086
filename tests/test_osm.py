"""Tests for the OSM substrate: model, XML formats, changesets,
history classification, and the replication feed."""

from __future__ import annotations

import io
import random
import re
from datetime import datetime, timedelta, timezone

import pytest

from repro.collection.daily import DailyCrawler
from repro.collection.geocode import Geocoder
from repro.errors import ConfigError, ParseError, StorageError
from repro.geo.geometry import BBox
from repro.geo.zones import build_world
from repro.osm.changesets import (
    CHANGESETS_PER_FILE,
    Changeset,
    ChangesetStore,
    read_changesets,
    write_changesets,
)
from repro.osm.history import (
    classify_update,
    element_version,
    iter_history,
    write_history,
)
from repro.osm.model import (
    OSMNode,
    OSMRelation,
    OSMWay,
    RelationMember,
    is_road_element,
    road_type_of,
)
from repro.obs import MetricsRegistry
from repro.osm import xml_io
from repro.osm.replication import (
    ReplicationFeed,
    ResilientFeed,
    RetryPolicy,
    sequence_path,
)
from repro.osm.xml_io import (
    OsmChange,
    format_timestamp,
    iter_osm,
    parse_timestamp,
    read_osc,
    write_osc,
    write_osm,
)

T0 = datetime(2021, 3, 5, 12, 0, tzinfo=timezone.utc)
T1 = datetime(2021, 3, 6, 9, 30, tzinfo=timezone.utc)


def node(eid=1, version=1, **kwargs):
    defaults = dict(
        id=eid, version=version, timestamp=T0, changeset=10,
        uid=5, user="alice", lat=40.0, lon=-100.0,
    )
    defaults.update(kwargs)
    return OSMNode(**defaults)


def way(eid=2, version=1, **kwargs):
    defaults = dict(
        id=eid, version=version, timestamp=T0, changeset=10,
        uid=5, user="alice", refs=(1, 3, 4),
        tags={"highway": "residential", "name": "Main St"},
    )
    defaults.update(kwargs)
    return OSMWay(**defaults)


def relation(eid=3, version=1, **kwargs):
    defaults = dict(
        id=eid, version=version, timestamp=T0, changeset=10,
        uid=5, user="alice",
        members=(RelationMember("way", 2, "outer"),),
        tags={"type": "route"},
    )
    defaults.update(kwargs)
    return OSMRelation(**defaults)


class TestModel:
    def test_kinds(self):
        assert node().kind == "node"
        assert way().kind == "way"
        assert relation().kind == "relation"

    def test_positive_id_required(self):
        with pytest.raises(ConfigError):
            node(eid=0)

    def test_positive_version_required(self):
        with pytest.raises(ConfigError):
            node(version=0)

    def test_naive_timestamp_becomes_utc(self):
        n = node(timestamp=datetime(2021, 3, 5, 12, 0))
        assert n.timestamp.tzinfo == timezone.utc

    def test_other_zone_timestamp_becomes_utc(self):
        plus_two = timezone(timedelta(hours=2))
        n = node(timestamp=datetime(2021, 3, 5, 14, 0, tzinfo=plus_two))
        assert n.timestamp == T0 and n.timestamp.tzinfo is timezone.utc

    def test_utc_timestamp_and_tuples_are_kept_as_given(self):
        refs = (1, 3, 4)
        w = way(refs=refs)
        assert w.timestamp is T0 and w.refs is refs

    def test_sequences_become_tuples(self):
        assert way(refs=[9, 1]).refs == (9, 1)
        member = RelationMember("way", 2, "outer")
        assert relation(members=[member]).members == (member,)

    def test_node_coordinate_validation(self):
        with pytest.raises(ConfigError):
            node(lat=95.0)
        with pytest.raises(ConfigError):
            node(lon=-190.0)

    def test_next_version_bumps(self):
        successor = way().next_version(T1, 11, tags={"highway": "service"})
        assert successor.version == 2
        assert successor.changeset == 11
        assert successor.tags == {"highway": "service"}

    def test_deleted_creates_tombstone(self):
        tombstone = way().deleted(T1, 11)
        assert not tombstone.visible
        assert tombstone.version == 2

    def test_node_moved(self):
        moved = node().moved(41.0, -101.0, T1, 11)
        assert (moved.lat, moved.lon) == (41.0, -101.0)
        assert moved.version == 2

    def test_relation_member_type_validated(self):
        with pytest.raises(ConfigError):
            RelationMember("building", 1)

    def test_is_road_element(self):
        assert is_road_element(way())
        assert is_road_element(relation())
        assert not is_road_element(node())
        assert is_road_element(node(tags={"highway": "bus_stop"}))

    def test_road_type_of(self):
        assert road_type_of(way()) == "residential"
        assert road_type_of(node()) == "residential"  # fallback


class TestTimestamps:
    def test_roundtrip(self):
        assert parse_timestamp(format_timestamp(T0)) == T0

    def test_bad_timestamp_raises(self):
        with pytest.raises(ParseError):
            parse_timestamp("2021-03-05 12:00:00")

    @staticmethod
    def _strptime_route(text: str):
        """What ``parse_timestamp`` was before it read the canonical
        form by position: the value, or the ParseError's message."""
        try:
            return datetime.strptime(text, "%Y-%m-%dT%H:%M:%SZ").replace(
                tzinfo=timezone.utc
            )
        except ValueError:
            return f"bad OSM timestamp {text!r}"

    def _assert_same(self, text: str) -> None:
        expected = self._strptime_route(text)
        if isinstance(expected, str):
            with pytest.raises(ParseError) as raised:
                parse_timestamp(text)
            assert str(raised.value) == expected
        else:
            got = parse_timestamp(text)
            assert got == expected and got.utcoffset() == expected.utcoffset()

    def test_positional_read_agrees_with_strptime_on_every_input(self):
        rng = random.Random(59)
        canonical = [
            format_timestamp(
                datetime.fromtimestamp(rng.randrange(0, 4_000_000_000), timezone.utc)
            )
            for _ in range(300)
        ] + ["0001-01-01T00:00:00Z", "9999-12-31T23:59:59Z", "2024-02-29T00:00:00Z"]
        for text in canonical:
            self._assert_same(text)
            assert not isinstance(self._strptime_route(text), str)
        # Every single-character corruption of one: wrong separators,
        # signs and blanks int() would take, lower case strptime takes,
        # digits that are not ASCII.
        base = "2021-03-05T12:34:56Z"
        for position in range(len(base)):
            for char in "0123456789-:TZtz +_.a/\u0663\uff13\u00b2":
                self._assert_same(base[:position] + char + base[position + 1 :])
            self._assert_same(base[:position] + base[position + 1 :])
            self._assert_same(base[:position] + "1" + base[position:])
        for text in (
            "2021-02-30T00:00:00Z",  # no such day
            "2021-02-29T00:00:00Z",
            "2021-04-31T00:00:00Z",
            "2021-13-01T00:00:00Z",
            "2021-00-10T00:00:00Z",
            "2021-01-00T00:00:00Z",
            "0000-01-01T00:00:00Z",
            "2021-03-05T24:00:00Z",
            "2021-03-05T12:60:00Z",
            "2021-03-05T12:00:60Z",  # strptime's leap seconds, not datetime's
            "2021-03-05T12:00:61Z",
            "2021-03-05T12:00:62Z",
            "2021-3-05T12:00:00Z",  # widths strptime takes
            "2021-03-5T12:00:00Z",
            "2021-03-05T1:02:03Z",
            "2021-3-5T1:2:3Z",
            "02021-03-05T12:00:00Z",
            "21-03-05T12:00:00Z",
            "2021-03-05T12:00:00Z ",
            " 2021-03-05T12:00:00Z",
            "2021-03-05T12:00:00ZZ",
            "2021-03-05T12:00:00Z\n",
            "2021-03-05T12:00:00+00:00",
            "2021-03-05T12:00:00.5Z",
            "\u0662\u0660\u0662\u0661-03-05T12:00:00Z",
            "",
            "Z",
        ):
            self._assert_same(text)


class TestOsmXml:
    def test_snapshot_roundtrip(self):
        elements = [node(), way(), relation()]
        buffer = io.BytesIO()
        write_osm(buffer, elements)
        buffer.seek(0)
        assert list(iter_osm(buffer)) == elements

    def test_way_refs_preserved_in_order(self):
        buffer = io.BytesIO()
        write_osm(buffer, [way(refs=(9, 1, 5))])
        buffer.seek(0)
        assert list(iter_osm(buffer))[0].refs == (9, 1, 5)

    def test_relation_members_preserved(self):
        members = (
            RelationMember("way", 2, "outer"),
            RelationMember("node", 1, "stop"),
        )
        buffer = io.BytesIO()
        write_osm(buffer, [relation(members=members)])
        buffer.seek(0)
        assert list(iter_osm(buffer))[0].members == members

    def test_deleted_node_omits_coordinates(self):
        buffer = io.BytesIO()
        write_osm(buffer, [node().deleted(T1, 11)])
        text = buffer.getvalue().decode()
        assert 'visible="false"' in text
        assert "lat=" not in text

    def test_malformed_xml_raises(self):
        with pytest.raises(ParseError):
            list(iter_osm(io.BytesIO(b"<osm><node id='1'")))

    def test_unknown_timestamp_raises(self):
        xml = b'<osm><node id="1" timestamp="bogus" lat="0" lon="0"/></osm>'
        with pytest.raises(ParseError):
            list(iter_osm(io.BytesIO(xml)))

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "snapshot.osm"
        write_osm(path, [node(), way()])
        assert list(iter_osm(path)) == [node(), way()]


class TestOsmChange:
    def test_roundtrip_all_blocks(self):
        change = OsmChange(create=[node()], modify=[way(version=2)], delete=[relation(version=2, visible=False)])
        buffer = io.BytesIO()
        write_osc(buffer, change)
        buffer.seek(0)
        restored = read_osc(buffer)
        assert restored.create == change.create
        assert restored.modify == change.modify
        assert restored.delete == change.delete

    def test_actions_order(self):
        change = OsmChange(create=[node()], modify=[way()], delete=[relation()])
        actions = [action for action, _ in change.actions()]
        assert actions == ["create", "modify", "delete"]
        assert len(change) == 3

    def test_iter_osc_streams_actions(self):
        change = OsmChange(create=[node(), way()], delete=[relation()])
        buffer = io.BytesIO()
        write_osc(buffer, change)
        buffer.seek(0)
        pairs = list(read_osc(buffer).actions())
        assert [(a, e.kind) for a, e in pairs] == [
            ("create", "node"),
            ("create", "way"),
            ("delete", "relation"),
        ]

    def test_element_outside_block_raises(self):
        xml = (
            b'<osmChange version="0.6">'
            b'<node id="1" timestamp="2021-03-05T12:00:00Z" lat="0" lon="0"/>'
            b"</osmChange>"
        )
        with pytest.raises(ParseError, match="outside"):
            list(read_osc(io.BytesIO(xml)).actions())

    def test_extend(self):
        a = OsmChange(create=[node()])
        b = OsmChange(delete=[way()])
        a.extend(b)
        assert len(a) == 2


_STAMP = 'timestamp="2021-03-05T12:00:00Z"'


def _diff(body: str) -> bytes:
    return f'<osmChange version="0.6"><create>{body}</create></osmChange>'.encode()


#: Each malformed form, the element its ParseError must name, and how
#: the document is read.  Before the streaming parser, the first seven
#: raised KeyError, ValueError or ConfigError, and the changeset one
#: ConfigError.  Every diff form is also checked on the daily crawl's
#: path, where no element object is built.
MALFORMED = [
    pytest.param(_diff(f'<way id="7" {_STAMP}><nd ref="1"/><tag v="x"/></way>'),
                 "<way id=7>", read_osc, id="tag-without-k"),
    pytest.param(_diff(f'<way id="7" {_STAMP}><nd/></way>'),
                 "<way id=7>", read_osc, id="nd-without-ref"),
    pytest.param(_diff(f'<way id="7" {_STAMP}><nd ref="x"/></way>'),
                 "<way id=7>", read_osc, id="non-numeric-ref"),
    pytest.param(_diff(f'<node id="7" {_STAMP} lat="abc" lon="0"/>'),
                 "<node id=7>", read_osc, id="non-numeric-lat"),
    pytest.param(_diff(f'<node id="0" {_STAMP} lat="0" lon="0"/>'),
                 "<node id=0>", read_osc, id="zero-id"),
    pytest.param(_diff(f'<node id="7" {_STAMP} lat="91" lon="0"/>'),
                 "<node id=7>", read_osc, id="latitude-out-of-range"),
    pytest.param(_diff(f'<relation id="7" {_STAMP}><member type="blob" ref="1"/></relation>'),
                 "<relation id=7>", read_osc, id="unknown-member-type"),
    pytest.param(_diff(f'<relation id="7" {_STAMP}><member type="way" ref="w1"/></relation>'),
                 "<relation id=7>", read_osc, id="non-numeric-member-ref"),
    pytest.param(_diff(f'<relation id="7" {_STAMP}><member ref="1"/></relation>'),
                 "<relation id=7>", read_osc, id="member-without-type"),
    pytest.param(_diff(f'<node id="7" {_STAMP} lat="0" lon="181"/>'),
                 "<node id=7>", read_osc, id="longitude-out-of-range"),
    pytest.param(_diff(f'<node id="7" version="0" {_STAMP} lat="0" lon="0"/>'),
                 "<node id=7>", read_osc, id="zero-version"),
    pytest.param(_diff(f'<way id="7" {_STAMP} changeset="x"><nd ref="1"/></way>'),
                 "<way id=7>", read_osc, id="non-numeric-changeset"),
    pytest.param(_diff(f'<way id="7" {_STAMP} uid="u"><nd ref="1"/></way>'),
                 "<way id=7>", read_osc, id="non-numeric-uid"),
    pytest.param(_diff('<node id="7" timestamp="yesterday" lat="0" lon="0"/>'),
                 "<node id=7>", read_osc, id="bad-timestamp"),
    pytest.param(_diff('<node id="7" lat="0" lon="0"/>'),
                 "<node id=7>", read_osc, id="no-timestamp"),
    pytest.param(
        b'<osm><changeset id="5" created_at="2021-03-05T12:00:00Z" '
        b'closed_at="2021-03-05T12:00:00Z" min_lat="10" min_lon="0" '
        b'max_lat="5" max_lon="1"/></osm>',
        "<changeset id=5>", lambda source: list(read_changesets(source)),
        id="degenerate-changeset-bbox",
    ),
]


class TestMalformedDocuments:
    @pytest.mark.parametrize("document, names, read", MALFORMED)
    def test_raises_parse_error_naming_the_element(self, document, names, read):
        with pytest.raises(ParseError) as raised:
            read(io.BytesIO(document))
        assert names in str(raised.value)

    @pytest.mark.parametrize("document, names, read", MALFORMED[:-1])
    def test_the_daily_crawl_of_a_malformed_diff_raises_naming_the_element(
        self, tmp_path, document, names, read
    ):
        """``ReplicationFeed.fetch`` → ``process_change``: the check runs
        at fetch, before any row or element object exists."""
        feed = ReplicationFeed(tmp_path, "day")
        feed.publish(OsmChange(), T0)
        (feed.root / f"{sequence_path(0)}.osc").write_bytes(document)
        crawler = DailyCrawler(feed, ChangesetStore(tmp_path / "cs"), Geocoder(build_world()))
        with pytest.raises(ParseError, match=re.escape(names)):
            next(crawler.crawl_new())
        assert crawler.last_sequence is None

    @pytest.mark.parametrize("document, names, read", MALFORMED[:-1])
    def test_a_malformed_diff_goes_through_the_feed_armor(
        self, tmp_path, document, names, read
    ):
        """A ParseError is what ResilientFeed retries and counts."""
        feed = ReplicationFeed(tmp_path, "day")
        feed.publish(OsmChange(), T0)
        (feed.root / f"{sequence_path(0)}.osc").write_bytes(document)
        metrics = MetricsRegistry()
        armored = ResilientFeed(
            feed, policy=RetryPolicy(attempts=3, base_delay=0.0, jitter=0.0),
            sleep=lambda _: None, metrics=metrics,
        )
        with pytest.raises(ParseError, match=names):
            armored.fetch(0)
        assert metrics.total("rased_feed_failures_total") == 3
        assert metrics.total("rased_feed_retries_total") == 2


def _large_change(count: int) -> OsmChange:
    """Elements with many children, so the children straddle chunk edges."""
    rng = random.Random(25)
    change = OsmChange()
    for eid in range(1, count + 1):
        stamp = datetime.fromtimestamp(1_600_000_000 + rng.randrange(10**6), timezone.utc)
        header = dict(id=eid, version=rng.randint(1, 9), timestamp=stamp,
                      changeset=rng.randint(1, 500), uid=rng.randint(1, 99),
                      user=f"mapper{rng.randint(1, 99)}")
        tags = {f"k{i}": f"value {rng.random():.6f}" for i in range(rng.randint(0, 4))}
        kind = eid % 3
        if kind == 0:
            element = OSMNode(**header, tags=tags, lat=round(rng.uniform(-90, 90), 7),
                              lon=round(rng.uniform(-180, 180), 7))
        elif kind == 1:
            refs = tuple(rng.randrange(1, 10**9) for _ in range(rng.randint(2, 30)))
            element = OSMWay(**header, tags={**tags, "highway": "residential"}, refs=refs)
        else:
            element = OSMRelation(
                **header, tags=tags, visible=rng.random() < 0.8,
                members=tuple(
                    RelationMember(rng.choice(("node", "way", "relation")),
                                   rng.randrange(1, 10**6), rng.choice(("", "outer", "stop")))
                    for _ in range(rng.randint(1, 12))
                ),
            )
        getattr(change, ("create", "modify", "delete")[eid % 7 % 3]).append(element)
    return change


class TestStreamingParse:
    """The parser feeds expat one read chunk at a time: nothing may
    depend on where a chunk ends."""

    def _encoded(self, change: OsmChange) -> bytes:
        buffer = io.BytesIO()
        write_osc(buffer, change)
        return buffer.getvalue()

    def test_diff_much_larger_than_a_chunk_roundtrips(self):
        change = _large_change(4000)
        data = self._encoded(change)
        assert len(data) > 8 * xml_io._CHUNK_BYTES
        assert list(read_osc(io.BytesIO(data)).actions()) == list(change.actions())
        restored = read_osc(io.BytesIO(data))
        assert (restored.create, restored.modify, restored.delete) == (
            change.create, change.modify, change.delete
        )

    @pytest.mark.parametrize("chunk", [1, 7, 97, 4096])
    def test_every_chunk_edge(self, monkeypatch, chunk):
        monkeypatch.setattr(xml_io, "_CHUNK_BYTES", chunk)
        change = _large_change(60)
        assert list(read_osc(io.BytesIO(self._encoded(change))).actions()) == list(change.actions())
        elements = [element for _, element in change.actions()]
        buffer = io.BytesIO()
        write_osm(buffer, elements)
        buffer.seek(0)
        assert list(iter_osm(buffer)) == elements

    def test_snapshot_much_larger_than_a_chunk_roundtrips(self, tmp_path):
        elements = [element for _, element in _large_change(4000).actions()]
        path = tmp_path / "big.osm"
        write_osm(path, elements)
        assert path.stat().st_size > 8 * xml_io._CHUNK_BYTES
        assert list(iter_osm(path)) == elements

    def test_a_truncated_document_raises(self):
        data = self._encoded(_large_change(2000))
        for cut in (len(data) // 3, len(data) - xml_io._CHUNK_BYTES - 5, len(data) - 1):
            with pytest.raises(ParseError, match="malformed osmChange XML"):
                read_osc(io.BytesIO(data[:cut]))
            with pytest.raises(ParseError, match="malformed OSM XML"):
                list(iter_osm(io.BytesIO(data[:cut])))

    def test_an_element_inside_an_element_raises(self):
        xml = _diff(f'<way id="1" {_STAMP}><node id="2" {_STAMP}/></way>')
        with pytest.raises(ParseError, match="inside"):
            read_osc(io.BytesIO(xml))


class TestChangesets:
    def make(self, cid=10, with_bbox=True):
        return Changeset(
            id=cid,
            created_at=T0,
            closed_at=T1,
            uid=5,
            user="alice",
            bbox=BBox(-101, 39, -99, 41) if with_bbox else None,
            tags={"comment": "survey", "source": "gps"},
            changes_count=3,
        )

    def test_xml_roundtrip(self):
        buffer = io.BytesIO()
        write_changesets(buffer, [self.make()])
        buffer.seek(0)
        restored = list(read_changesets(buffer))[0]
        assert restored == self.make()
        assert restored.comment == "survey"
        assert restored.source == "gps"

    def test_roundtrip_without_bbox(self):
        buffer = io.BytesIO()
        write_changesets(buffer, [self.make(with_bbox=False)])
        buffer.seek(0)
        assert list(read_changesets(buffer))[0].bbox is None

    def test_store_blocks_by_thousand(self, tmp_path):
        store = ChangesetStore(tmp_path)
        store.add(self.make(cid=5))
        store.add(self.make(cid=999))
        store.add(self.make(cid=1000))
        assert store.flush() == 2
        assert len(list(tmp_path.glob("*.xml"))) == 2

    def test_store_lookup(self, tmp_path):
        store = ChangesetStore(tmp_path)
        store.add(self.make(cid=42))
        store.flush()
        assert store.lookup(42).id == 42
        assert store.lookup(41) is None

    def test_pending_lookup_before_flush(self, tmp_path):
        store = ChangesetStore(tmp_path)
        store.add(self.make(cid=7))
        assert store.lookup(7) is not None

    def test_flush_merges_block_files(self, tmp_path):
        store = ChangesetStore(tmp_path)
        store.add(self.make(cid=1))
        store.flush()
        store.add(self.make(cid=2))
        store.flush()
        fresh = ChangesetStore(tmp_path)
        assert fresh.lookup(1) is not None
        assert fresh.lookup(2) is not None

    def test_a_block_another_store_flushed_is_read_again(self, tmp_path):
        reader, writer = ChangesetStore(tmp_path), ChangesetStore(tmp_path)
        writer.add(self.make(cid=1))
        writer.flush()
        assert reader.lookup(1) is not None  # block 0 is now cached
        writer.add(self.make(cid=2))
        writer.flush()
        assert reader.lookup(2) == self.make(cid=2)
        assert reader.lookup(3) is None

    def test_a_flush_merges_what_another_store_flushed(self, tmp_path):
        first, second = ChangesetStore(tmp_path), ChangesetStore(tmp_path)
        first.add(self.make(cid=1))
        first.flush()
        second.add(self.make(cid=2))
        second.flush()
        first.add(self.make(cid=3))
        first.flush()
        assert [c.id for c in ChangesetStore(tmp_path)] == [1, 2, 3]

    def test_iteration_sorted(self, tmp_path):
        store = ChangesetStore(tmp_path)
        for cid in (1500, 3, 999):
            store.add(self.make(cid=cid))
        store.flush()
        assert [c.id for c in store] == [3, 999, 1500]

    def test_constant(self):
        assert CHANGESETS_PER_FILE == 1000


def classify(previous, current):
    """``classify_update`` over two element objects' versions."""
    return classify_update(
        None if previous is None else element_version(previous), element_version(current)
    )


def _dump(elements):
    """An ``<osm>`` document holding ``elements`` in the order given."""
    buffer = io.BytesIO()
    write_osm(buffer, elements)
    buffer.seek(0)
    return buffer


class TestHistoryClassification:
    def test_first_version_is_create(self):
        assert classify(None, node()) == "create"

    def test_truncated_history_first_seen_is_geometry(self):
        assert classify(None, node(version=4)) == "geometry"

    def test_tombstone_is_delete(self):
        previous = way()
        assert classify(previous, previous.deleted(T1, 11)) == "delete"

    def test_node_move_is_geometry(self):
        previous = node()
        assert classify(previous, previous.moved(41, -100, T1, 11)) == "geometry"

    def test_way_refs_change_is_geometry(self):
        previous = way()
        current = previous.next_version(T1, 11, refs=(1, 3, 4, 9))
        assert classify(previous, current) == "geometry"

    def test_relation_members_change_is_geometry(self):
        previous = relation()
        current = previous.next_version(
            T1, 11, members=(RelationMember("way", 2, "outer"), RelationMember("way", 5, ""))
        )
        assert classify(previous, current) == "geometry"

    def test_tag_change_is_metadata(self):
        previous = way()
        current = previous.next_version(T1, 11, tags={"highway": "service"})
        assert classify(previous, current) == "metadata"

    def test_geometry_wins_over_metadata(self):
        previous = node()
        current = previous.next_version(
            T1, 11, lat=41.0, tags={"amenity": "cafe"}
        )
        assert classify(previous, current) == "geometry"

    def test_mismatched_pair_rejected(self):
        with pytest.raises(ParseError):
            classify(node(eid=1), node(eid=2, version=2))


class TestVersionPairs:
    def test_pairs_group_by_element(self):
        n1, n2 = node(), node(version=2, timestamp=T1)
        w1 = way()
        pairs = [
            (None if previous is None else xml_io._construct(kind, previous), xml_io._construct(kind, fields))
            for kind, fields, previous, _ in iter_history(_dump([n1, n2, w1]))
        ]
        assert pairs == [(None, n1), (n1, n2), (None, w1)]

    def test_non_increasing_version_rejected(self):
        with pytest.raises(ParseError, match="non-increasing"):
            list(iter_history(_dump([node(version=2), node(version=2)])))

    def test_unsorted_stream_rejected(self):
        with pytest.raises(ParseError, match="not sorted"):
            list(iter_history(_dump([way(), node()])))  # way before node

    def test_history_file_roundtrip(self, tmp_path):
        path = tmp_path / "history.osm"
        n1 = node()
        n2 = n1.moved(41, -100, T1, 11)
        w1 = way()
        write_history(path, [w1, n2, n1])  # writer sorts
        updates = list(iter_history(path))
        assert [(update_type, kind) for kind, _, _, update_type in updates] == [
            ("create", "node"),
            ("geometry", "node"),
            ("create", "way"),
        ]
        assert xml_io._construct("node", updates[1][2]) == n1

    def test_a_dump_classifies_as_its_element_objects_do(self):
        n2 = node().next_version(T1, 11, tags={"amenity": "cafe"})
        w2 = way().next_version(T1, 11, refs=(1, 3))
        r2 = relation().next_version(T1, 11, members=(RelationMember("way", 2, "inner"),))
        versions = [
            node(), n2, n2.moved(41, -100, T1, 12),
            way(), w2, w2.deleted(T1, 12),
            relation(), r2,
        ]
        expected = [
            classify(previous if previous and previous.kind == current.kind else None, current)
            for previous, current in zip([None, *versions], versions)
        ]
        assert expected == ["create", "metadata", "geometry", "create", "geometry", "delete", "create", "geometry"]
        assert [update_type for *_, update_type in iter_history(_dump(versions))] == expected


class TestReplication:
    def test_sequence_path_format(self):
        assert sequence_path(0) == "000/000/000"
        assert sequence_path(1234567) == "001/234/567"

    def test_sequence_out_of_range(self):
        with pytest.raises(StorageError):
            sequence_path(-1)

    def test_publish_and_fetch(self, tmp_path):
        feed = ReplicationFeed(tmp_path, "day")
        change = OsmChange(create=[node()])
        seq = feed.publish(change, T0)
        assert seq == 0
        assert feed.current_sequence() == 0
        fetched = feed.fetch(0)
        assert fetched.create == [node()]

    def test_sequences_increment(self, tmp_path):
        feed = ReplicationFeed(tmp_path, "day")
        assert feed.publish(OsmChange(), T0) == 0
        assert feed.publish(OsmChange(), T1) == 1

    def test_state_carries_timestamp(self, tmp_path):
        feed = ReplicationFeed(tmp_path, "day")
        feed.publish(OsmChange(), T0)
        seq, stamp = feed.state(0)
        assert (seq, stamp) == (0, T0.replace(second=0, microsecond=0))

    def test_iter_since(self, tmp_path):
        feed = ReplicationFeed(tmp_path, "day")
        for stamp in (T0, T1):
            feed.publish(OsmChange(create=[node()]), stamp)
        replayed = list(feed.iter_since(None))
        assert [s for s, _, _ in replayed] == [0, 1]
        assert list(feed.iter_since(0))[0][0] == 1
        assert list(feed.iter_since(1)) == []

    def test_empty_feed(self, tmp_path):
        feed = ReplicationFeed(tmp_path, "day")
        assert feed.current_sequence() is None
        assert list(feed.iter_since(None)) == []

    def test_fetch_missing_raises(self, tmp_path):
        feed = ReplicationFeed(tmp_path, "day")
        with pytest.raises(StorageError):
            feed.fetch(3)

    def test_bad_granularity_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            ReplicationFeed(tmp_path, "weekly")

    def test_granularities_are_separate(self, tmp_path):
        day = ReplicationFeed(tmp_path, "day")
        hour = ReplicationFeed(tmp_path, "hour")
        day.publish(OsmChange(), T0)
        assert hour.current_sequence() is None
