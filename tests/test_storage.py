"""Tests for page stores, the simulated disk, and cube serialization."""

from __future__ import annotations

from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.types.temporal import day_key, month_key, week_key, year_key
from repro.types.cube import (
    DEFAULT_SPARSE_THRESHOLD,
    DataCube,
    RESOLUTION_COARSE,
    SparseCube,
    sum_cubes,
)
from repro.types.dimensions import default_schema
from repro.errors import ConfigError, PageCorruptError, PageNotFoundError
from repro.storage.disk import DirectoryDisk, InMemoryDisk
from repro.storage.serializer import (
    HEADER_SIZE,
    PAGE_VERSION_RAW,
    PAGE_VERSION_SPARSE,
    cube_page_size,
    deserialize_cube,
    page_version,
    serialize_cube,
    serialize_raw,
)
from tests.v3pages import CORRUPTIONS, SparsePage, corruptions

#: The key of the cubes built without one, and of the pages read back.
_KEY = day_key(date(2021, 3, 5))


class TestDiskStats:
    def test_initial_stats_zero(self):
        disk = InMemoryDisk()
        assert disk.stats.reads == 0
        assert disk.stats.writes == 0
        assert disk.stats.simulated_seconds == 0.0

    def test_read_write_counters(self):
        disk = InMemoryDisk(read_latency=0.004, write_latency=0.006)
        disk.write("a", b"xyz")
        disk.read("a")
        disk.read("a")
        assert disk.stats.writes == 1
        assert disk.stats.reads == 2
        assert disk.stats.bytes_written == 3
        assert disk.stats.bytes_read == 6
        assert disk.stats.simulated_seconds == pytest.approx(0.006 + 2 * 0.004)

    def test_snapshot_delta(self):
        disk = InMemoryDisk()
        disk.write("a", b"x")
        before = disk.stats.snapshot()
        disk.read("a")
        delta = disk.stats.delta(before)
        assert delta.reads == 1
        assert delta.writes == 0

    def test_reset_stats(self):
        disk = InMemoryDisk()
        disk.write("a", b"x")
        disk.reset_stats()
        assert disk.stats.total_ios == 0

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigError):
            InMemoryDisk(read_latency=-1)


class TestInMemoryDisk:
    def test_roundtrip(self):
        disk = InMemoryDisk()
        disk.write("cube/a", b"hello")
        assert disk.read("cube/a") == b"hello"

    def test_missing_page_raises(self):
        disk = InMemoryDisk()
        with pytest.raises(PageNotFoundError):
            disk.read("nope")

    def test_overwrite(self):
        disk = InMemoryDisk()
        disk.write("a", b"1")
        disk.write("a", b"22")
        assert disk.read("a") == b"22"

    def test_delete(self):
        disk = InMemoryDisk()
        disk.write("a", b"1")
        disk.delete("a")
        assert "a" not in disk
        with pytest.raises(PageNotFoundError):
            disk.delete("a")

    def test_list_pages_sorted_with_prefix(self):
        disk = InMemoryDisk()
        for page_id in ("b/2", "a/1", "b/1"):
            disk.write(page_id, b"x")
        assert list(disk.list_pages("b/")) == ["b/1", "b/2"]
        assert disk.page_count() == 3

    def test_stored_bytes(self):
        disk = InMemoryDisk()
        disk.write("a", b"12345")
        disk.write("b", b"1")
        assert disk.stored_bytes == 6


class TestDirectoryDisk:
    def test_roundtrip_and_persistence(self, tmp_path):
        disk = DirectoryDisk(tmp_path / "pages")
        disk.write("cubes/D2021-01-01", b"payload")
        reopened = DirectoryDisk(tmp_path / "pages")
        assert reopened.read("cubes/D2021-01-01") == b"payload"

    def test_missing_page_raises(self, tmp_path):
        disk = DirectoryDisk(tmp_path)
        with pytest.raises(PageNotFoundError):
            disk.read("ghost")

    def test_nested_ids_become_directories(self, tmp_path):
        disk = DirectoryDisk(tmp_path)
        disk.write("warehouse/heap/00000001", b"x")
        assert (tmp_path / "warehouse" / "heap" / "00000001.page").exists()

    def test_list_pages(self, tmp_path):
        disk = DirectoryDisk(tmp_path)
        disk.write("a/1", b"x")
        disk.write("a/2", b"x")
        disk.write("b/1", b"x")
        assert list(disk.list_pages("a/")) == ["a/1", "a/2"]

    def test_delete(self, tmp_path):
        disk = DirectoryDisk(tmp_path)
        disk.write("a", b"x")
        disk.delete("a")
        assert "a" not in disk

    def test_path_traversal_rejected(self, tmp_path):
        disk = DirectoryDisk(tmp_path)
        with pytest.raises(ConfigError):
            disk.write("../evil", b"x")
        with pytest.raises(ConfigError):
            disk.write("/abs", b"x")

    def test_write_is_atomic_replace(self, tmp_path):
        disk = DirectoryDisk(tmp_path)
        disk.write("a", b"one")
        disk.write("a", b"two")
        assert disk.read("a") == b"two"
        assert not list((tmp_path).rglob("*.tmp"))

    def test_stored_bytes(self, tmp_path):
        disk = DirectoryDisk(tmp_path)
        disk.write("a", b"12345")
        assert disk.stored_bytes == 5


class TestSerializer:
    """The raw (version-1) page: no longer written by the index, but
    every reader still accepts it."""

    def _cube(self, schema, key=None, resolution="full"):
        cube = SparseCube(
            schema=schema,
            key=key or day_key(date(2021, 3, 5)),
            resolution=resolution,
        )
        cube.record("way", "germany", "residential", "create")
        cube.record("node", "qatar", "primary", "geometry")
        return cube

    def test_roundtrip(self, tiny_schema):
        cube = self._cube(tiny_schema)
        data = serialize_raw(cube)
        assert page_version(data) == PAGE_VERSION_RAW
        restored = deserialize_cube(data, tiny_schema, cube.key)
        assert isinstance(restored, DataCube)
        assert restored == cube

    @pytest.mark.parametrize(
        "key",
        [
            day_key(date(2021, 3, 5)),
            week_key(2021, 3, 2),
            month_key(2021, 3),
            year_key(2021),
        ],
    )
    def test_roundtrip_all_levels(self, tiny_schema, key):
        cube = SparseCube(schema=tiny_schema, key=key)
        assert deserialize_cube(serialize_raw(cube), tiny_schema, key).key == key

    def test_roundtrip_preserves_resolution(self, tiny_schema):
        cube = self._cube(tiny_schema, resolution=RESOLUTION_COARSE)
        assert (
            deserialize_cube(serialize_raw(cube), tiny_schema, _KEY).resolution
            == RESOLUTION_COARSE
        )

    def test_page_size_formula(self, tiny_schema):
        cube = self._cube(tiny_schema)
        data = serialize_raw(cube)
        assert len(data) == cube_page_size(tiny_schema)
        assert len(data) == HEADER_SIZE + tiny_schema.cell_count * 8

    def test_paper_scale_page_is_about_4mb(self):
        from repro.types.dimensions import paper_scale_schema

        size = cube_page_size(paper_scale_schema())
        assert size == pytest.approx(540_000 * 8, rel=0.01)

    def test_bad_magic_rejected(self, tiny_schema):
        data = bytearray(serialize_raw(self._cube(tiny_schema)))
        data[:4] = b"NOPE"
        with pytest.raises(PageCorruptError, match="magic"):
            deserialize_cube(bytes(data), tiny_schema, _KEY)

    def test_truncated_page_rejected(self, tiny_schema):
        data = serialize_raw(self._cube(tiny_schema))
        with pytest.raises(PageCorruptError):
            deserialize_cube(data[: HEADER_SIZE - 1], tiny_schema, _KEY)

    def test_truncated_payload_rejected(self, tiny_schema):
        data = serialize_raw(self._cube(tiny_schema))
        with pytest.raises(PageCorruptError, match="payload"):
            deserialize_cube(data[:-8], tiny_schema, _KEY)

    def test_flipped_bit_fails_checksum(self, tiny_schema):
        data = bytearray(serialize_raw(self._cube(tiny_schema)))
        data[HEADER_SIZE + 3] ^= 0xFF
        with pytest.raises(PageCorruptError, match="checksum"):
            deserialize_cube(bytes(data), tiny_schema, _KEY)

    def test_schema_mismatch_rejected(self, tiny_schema):
        from repro.types.dimensions import default_schema

        other = default_schema(["only"], road_types=2)
        for data in (
            serialize_raw(self._cube(tiny_schema)),
            serialize_cube(self._cube(tiny_schema)),
        ):
            with pytest.raises(PageCorruptError, match="shape"):
                deserialize_cube(data, other, _KEY)

    def test_retired_v2_page_rejected(self, tiny_schema):
        """The zlib format (v2) is gone; a v2 page left on disk is
        rejected as corrupt input, never mis-decoded."""
        data = bytearray(serialize_raw(self._cube(tiny_schema)))
        data[4:6] = (2).to_bytes(2, "little")
        with pytest.raises(
            PageCorruptError, match="unsupported cube format version 2"
        ):
            deserialize_cube(bytes(data), tiny_schema, _KEY)

    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=30))
    @settings(max_examples=25)
    def test_roundtrip_arbitrary_counts(self, values):
        from repro.types.dimensions import default_schema

        tiny_schema = default_schema(
            ["united_states", "germany", "qatar"], road_types=8
        )
        counts = np.zeros(tiny_schema.shape, dtype=np.int64)
        flat = counts.reshape(-1)
        for index, value in enumerate(values):
            flat[index % flat.size] = value
        cube = DataCube(schema=tiny_schema, key=day_key(date(2021, 1, 2)), counts=counts)
        for data in (serialize_raw(cube), serialize_cube(cube)):
            restored = deserialize_cube(data, tiny_schema, cube.key)
            assert np.array_equal(restored.counts, counts)


class TestRawPageZeroCopy:
    """The v1 fast path hands the cube a read-only view of the page."""

    def _page(self, schema):
        cube = SparseCube(schema=schema, key=day_key(date(2021, 3, 5)))
        cube.record("way", "germany", "residential", "create")
        return cube, serialize_raw(cube)

    def test_counts_share_page_memory(self, tiny_schema):
        _, data = self._page(tiny_schema)
        restored = deserialize_cube(data, tiny_schema, _KEY)
        assert np.shares_memory(
            restored.counts, np.frombuffer(data, dtype=np.uint8)
        )
        assert not restored.counts.flags.writeable

    def test_zero_copy_cube_as_rollup_child(self, tiny_schema):
        """A page-backed cube rolls up like any other; its page bytes
        are never written through."""
        cube, data = self._page(tiny_schema)
        before = bytes(data)
        restored = deserialize_cube(data, tiny_schema, _KEY)
        merged = sum_cubes(tiny_schema, week_key(2021, 3, 0), [restored, cube])
        assert merged.total == 2 * cube.total
        assert data == before and deserialize_cube(data, tiny_schema, _KEY) == cube


class TestSparsePageFormat:
    def _cube(self, schema, sparse=True, key=None, resolution="full"):
        cube = SparseCube(
            schema=schema, key=key or day_key(date(2021, 3, 5)), resolution=resolution
        )
        cube.record("way", "germany", "residential", "create")
        cube.record("way", "germany", "residential", "create")
        cube.record("node", "qatar", "primary", "geometry")
        return cube if sparse else cube.to_dense()

    def test_roundtrip_stays_sparse(self, tiny_schema):
        cube = self._cube(tiny_schema)
        data = serialize_cube(cube)
        assert page_version(data) == PAGE_VERSION_SPARSE
        restored = deserialize_cube(data, tiny_schema, cube.key)
        assert isinstance(restored, SparseCube)
        assert restored == cube

    def test_dense_cube_serializes_to_v3(self, tiny_schema):
        cube = self._cube(tiny_schema, sparse=False)
        data = serialize_cube(cube)
        assert page_version(data) == PAGE_VERSION_SPARSE
        assert deserialize_cube(data, tiny_schema, cube.key) == cube

    def test_v3_page_much_smaller_than_raw(self, tiny_schema):
        cube = self._cube(tiny_schema)
        raw = serialize_raw(cube)
        packed = serialize_cube(cube)
        assert len(packed) < len(raw) / 5

    def test_empty_cube_roundtrip(self, tiny_schema):
        cube = SparseCube(schema=tiny_schema, key=day_key(date(2021, 3, 5)))
        data = serialize_cube(cube)
        restored = deserialize_cube(data, tiny_schema, cube.key)
        assert restored.nnz == 0
        assert restored == cube

    def test_wide_values_fall_back_to_raw(self, tiny_schema):
        counts = (
            np.arange(tiny_schema.cell_count, dtype=np.int64) * (1 << 40) + 1
        ).reshape(tiny_schema.shape)
        cube = DataCube(
            schema=tiny_schema, key=day_key(date(2021, 3, 5)), counts=counts
        )
        data = serialize_cube(cube)
        assert page_version(data) == PAGE_VERSION_RAW  # encoded >= raw
        assert deserialize_cube(data, tiny_schema, cube.key) == cube

    def test_roundtrip_preserves_resolution(self, tiny_schema):
        cube = self._cube(tiny_schema, resolution=RESOLUTION_COARSE)
        restored = deserialize_cube(
            serialize_cube(cube), tiny_schema, cube.key
        )
        assert restored.resolution == RESOLUTION_COARSE

    @pytest.mark.parametrize(
        "key",
        [
            day_key(date(2021, 3, 5)),
            week_key(2021, 3, 2),
            month_key(2021, 3),
            year_key(2021),
        ],
    )
    def test_roundtrip_all_levels(self, tiny_schema, key):
        cube = SparseCube(schema=tiny_schema, key=key)
        cube.record("way", "germany", "residential", "create")
        restored = deserialize_cube(
            serialize_cube(cube), tiny_schema, key
        )
        assert restored.key == key

    def test_header_bit_flip_detected_before_decode(self, tiny_schema):
        """v3's CRC covers the header too: corrupting the temporal-key
        fields must raise PageCorruptError, not a calendar error."""
        cube = self._cube(tiny_schema)
        data = bytearray(serialize_cube(cube))
        data[8] ^= 0xFF  # inside the header's key fields
        with pytest.raises(PageCorruptError):
            deserialize_cube(bytes(data), tiny_schema, _KEY)

    def test_payload_bit_flip_detected(self, tiny_schema):
        cube = self._cube(tiny_schema)
        data = bytearray(serialize_cube(cube))
        data[HEADER_SIZE + 2] ^= 0xFF
        with pytest.raises(PageCorruptError):
            deserialize_cube(bytes(data), tiny_schema, _KEY)

    def test_truncated_page_detected(self, tiny_schema):
        cube = self._cube(tiny_schema)
        data = serialize_cube(cube)
        with pytest.raises(PageCorruptError):
            deserialize_cube(data[:-1], tiny_schema, _KEY)

    def test_unknown_version_rejected(self, tiny_schema):
        data = bytearray(serialize_cube(self._cube(tiny_schema)))
        data[4:6] = (9).to_bytes(2, "little")
        for read in (page_version, lambda page: deserialize_cube(page, tiny_schema, _KEY)):
            with pytest.raises(PageCorruptError, match="version 9"):
                read(bytes(data))

    def test_index_reads_mixed_versions(self, tiny_schema):
        """v1 and v3 pages coexist in one store — the format is
        self-describing, so a root an older build wrote raw pages into
        needs no migration."""
        from repro.core.hierarchy import HierarchicalIndex, page_id_for

        disk = InMemoryDisk(read_latency=0, write_latency=0)
        old = self._cube(tiny_schema, sparse=False, key=day_key(date(2021, 1, 1)))
        disk.write(page_id_for(old.key), serialize_raw(old))
        index = HierarchicalIndex(tiny_schema, disk)
        new = self._cube(tiny_schema, key=day_key(date(2021, 1, 3)))
        index.put(new)
        assert page_version(disk.read(page_id_for(new.key))) == PAGE_VERSION_SPARSE
        reader = HierarchicalIndex(tiny_schema, disk)
        for cube in (old, new):
            assert reader.get(cube.key) == cube

    def test_sparse_index_round_trip(self, tiny_schema):
        from repro.core.hierarchy import HierarchicalIndex

        disk = InMemoryDisk(read_latency=0, write_latency=0)
        index = HierarchicalIndex(tiny_schema, disk)
        cube = self._cube(tiny_schema)
        index.put(cube)
        restored = index.get(cube.key)
        assert isinstance(restored, SparseCube)
        assert restored == cube


def _sparse(schema, cells, values, key=None):
    return SparseCube(
        schema=schema,
        key=key or day_key(date(2021, 3, 5)),
        cells=np.asarray(cells, dtype=np.int64),
        values=np.asarray(values, dtype=np.int64),
    )


class TestResealedSparsePages:
    """The decoder's invariant checks, reached behind a *valid* CRC.

    A bit flip never gets this far (the checksum catches it), so each
    case edits one encoded field of a good page and reseals it.  The
    randomized sweep of the same catalogue is in
    ``test_serializer_fuzz.py``.
    """

    @pytest.fixture()
    def page(self, tiny_schema):
        cube = _sparse(tiny_schema, [3, 40, 41, 200, 201], [7, 1, 1, 2, 9])
        return serialize_cube(cube)

    def test_helper_reseals_a_page_unchanged(self, page, tiny_schema):
        assert SparsePage.parse(page).seal() == page
        assert set(corruptions(page, tiny_schema.cell_count)) == set(CORRUPTIONS)

    @pytest.mark.parametrize("case", CORRUPTIONS)
    def test_corrupt_field_behind_valid_crc_is_page_corrupt(
        self, page, tiny_schema, case
    ):
        bad = corruptions(page, tiny_schema.cell_count)[case]
        assert bad != page
        with pytest.raises(PageCorruptError):
            deserialize_cube(bad, tiny_schema, _KEY)

    def test_single_cell_page_out_of_range(self, tiny_schema):
        page = serialize_cube(_sparse(tiny_schema, [5], [2]))
        for case in ("first_cell = cell_count", "first_cell = 2**63 !"):
            with pytest.raises(PageCorruptError):
                deserialize_cube(
                    corruptions(page, tiny_schema.cell_count)[case], tiny_schema, _KEY
                )


class TestSparseRoundTripMatrix:
    """Both decoded forms, every width the writer can emit, the edges."""

    @pytest.fixture(scope="class")
    def wide_schema(self):
        # 72 000 cells: past 65 536, so deltas and run lengths reach
        # the 4-byte width (an 8-byte one needs > 2**32 cells).
        return default_schema([f"z{i}" for i in range(300)], road_types=20)

    def _round_trip(self, cube, schema):
        page = serialize_cube(cube)
        assert page_version(page) == PAGE_VERSION_SPARSE
        restored = deserialize_cube(page, schema, cube.key)
        assert np.array_equal(restored.counts, cube.counts)
        assert restored == cube
        return restored, SparsePage.parse(page)

    def test_single_run(self, tiny_schema):
        restored, fields = self._round_trip(
            _sparse(tiny_schema, [0, 9, 215], [4, 4, 4]), tiny_schema
        )
        assert fields.n_runs == 1 and fields.run_lengths == [3]
        assert isinstance(restored, SparseCube)

    def test_first_and_last_cell(self, tiny_schema):
        last = tiny_schema.cell_count - 1
        self._round_trip(_sparse(tiny_schema, [0, last], [1, -1]), tiny_schema)
        self._round_trip(_sparse(tiny_schema, [last], [3]), tiny_schema)

    @pytest.mark.parametrize("delta_width, gap", [(1, 255), (2, 256), (4, 65536)])
    def test_delta_widths(self, wide_schema, delta_width, gap):
        page = serialize_cube(_sparse(wide_schema, [7, 8, 8 + gap], [1, 2, 3]))
        assert page[HEADER_SIZE + 8] == delta_width
        self._round_trip(_sparse(wide_schema, [7, 8, 8 + gap], [1, 2, 3]), wide_schema)

    @pytest.mark.parametrize("run_width, run", [(1, 255), (2, 256), (4, 65536)])
    def test_run_length_widths(self, wide_schema, run_width, run):
        cells = np.arange(run + 1)
        values = np.ones(run + 1, dtype=np.int64)
        values[-1] = 5
        cube = _sparse(wide_schema, cells, values)
        page = serialize_cube(cube)
        assert page[HEADER_SIZE + 9] == run_width
        self._round_trip(cube, wide_schema)

    @pytest.mark.parametrize(
        "value_width, value",
        [(1, -128), (2, 128), (4, -(1 << 31)), (8, 1 << 31), (8, -(1 << 63))],
    )
    def test_run_value_widths(self, tiny_schema, value_width, value):
        cube = _sparse(tiny_schema, [1, 2], [value, 1])
        page = serialize_cube(cube)
        assert page[HEADER_SIZE + 10] == value_width
        self._round_trip(cube, tiny_schema)

    def test_densify_threshold_both_sides(self, tiny_schema):
        """One cell short of the threshold decodes sparse, at it dense —
        and both equal the cube that was written, cell for cell."""
        at = int(DEFAULT_SPARSE_THRESHOLD * tiny_schema.cell_count)
        assert at / tiny_schema.cell_count >= DEFAULT_SPARSE_THRESHOLD
        below, _ = self._round_trip(
            _sparse(tiny_schema, np.arange(at - 1) * 2, np.arange(1, at)), tiny_schema
        )
        dense, _ = self._round_trip(
            _sparse(tiny_schema, np.arange(at) * 2, np.arange(1, at + 1)), tiny_schema
        )
        assert isinstance(below, SparseCube)
        assert isinstance(dense, DataCube)


# -- every v3 rejection branch, through both decode entry points -------------

#: Gap between the second and third cell that makes the writer pick
#: each delta width (on a schema of more than 70 010 cells).
_GAPS = {1: 10, 2: 300, 4: 70_000}
#: Branch name -> (one-field corruption of :mod:`tests.v3pages`, delta
#: width of the corrupted page); ``None`` is the misfiled page.
BRANCHES = {
    "zero delta, 1-byte": ("zero delta", 1),
    "zero delta, 2-byte": ("zero delta", 2),
    "zero delta, 4-byte": ("zero delta", 4),
    "8-byte delta >= 2**63": ("delta >= 2**63", 8),
    "last cell >= cell_count": ("last cell = cell_count", 4),
    "first cell >= cell_count": ("first_cell = cell_count", 1),
    "run lengths do not sum to nnz": ("run lengths sum to nnz+1", 1),
    "8-byte run lengths > nnz wrap to nnz": ("run lengths wrap uint64 back to nnz !", 1),
    "zero run value": ("zero run value", 1),
    "header names another key": None,
}


@pytest.fixture(scope="module")
def gap_schema():
    return default_schema([f"z{i}" for i in range(300)], road_types=20)


def _branch_page(schema, branch: str) -> tuple[bytes, object]:
    """A CRC-valid page that fails exactly ``branch``, and the key it is
    read for."""
    if BRANCHES[branch] is None:
        return serialize_cube(_sparse(schema, [3, 9], [1, 2], key=_KEY)), day_key(
            date(2021, 3, 6)
        )
    corruption, width = BRANCHES[branch]
    gap = _GAPS.get(width, 10)
    cells = [7, 8, 8 + gap, 9 + gap, 10 + gap]
    page = serialize_cube(_sparse(schema, cells, [1, 1, 2, 3, 3], key=_KEY))
    bad = corruptions(page, schema.cell_count)[corruption]
    assert bad[HEADER_SIZE + 8] == width
    if corruption.startswith("run lengths wrap"):
        assert bad[HEADER_SIZE + 9] == 8
    return bad, _KEY


class TestV3RejectionBranches:
    """One crafted page per rejection branch of the v3 decoder — the
    narrow-width fast checks and the full 8-byte ones alike — each
    refused by ``deserialize_cube`` and quarantined by the index."""

    @pytest.mark.parametrize("branch", BRANCHES)
    def test_deserialize_cube_raises(self, gap_schema, branch):
        page, key = _branch_page(gap_schema, branch)
        with pytest.raises(PageCorruptError):
            deserialize_cube(page, gap_schema, key)

    @pytest.mark.parametrize("branch", BRANCHES)
    def test_index_get_quarantines(self, gap_schema, branch):
        from repro.core.hierarchy import HierarchicalIndex, page_id_for

        page, key = _branch_page(gap_schema, branch)
        disk = InMemoryDisk(read_latency=0, write_latency=0)
        disk.write(page_id_for(key), page)
        index = HierarchicalIndex(gap_schema, disk)
        with pytest.raises(PageCorruptError):
            index.get(key)
        assert index.quarantined_keys() == [key]
        assert not index.has(key)

    def test_the_misfiled_page_reads_under_its_own_key(self, gap_schema):
        page, other = _branch_page(gap_schema, "header names another key")
        assert deserialize_cube(page, gap_schema, _KEY).key is _KEY
        with pytest.raises(PageCorruptError, match=f"read as {other}"):
            deserialize_cube(page, gap_schema, other)


@pytest.fixture(scope="module")
def roomy_schema():
    # 240 000 cells: room for a 4-byte gap beside a 4-byte run.
    return default_schema([f"z{i}" for i in range(1000)], road_types=20)


_WIDTH_STEPS = {1: 1, 2: 256, 4: 65_536}
_VALUE_TOPS = {1: 127, 2: 32_767, 4: (1 << 31) - 1}


def _random_widths_cube(rng, schema, delta_width, run_width, value_width):
    """A random sparse cube whose page needs exactly these widths: one
    gap, one run and one value sized to them, the rest small."""
    nnz = _WIDTH_STEPS[run_width] + rng.randrange(3, 40)
    gaps = [rng.randint(1, 2) for _ in range(nnz - 1)]
    gaps[rng.randrange(nnz - 1)] = max(_WIDTH_STEPS[delta_width], 2) + rng.randrange(50)
    cells = np.cumsum([rng.randrange(20)] + gaps)
    values: list[int] = []
    while len(values) < nnz:
        value = rng.choice([-1, 1]) * rng.randint(1, 100)
        if values and value == values[-1]:
            continue
        values.extend([value] * rng.randint(1, 3))
    values = values[:nnz]
    start = rng.randrange(nnz - _WIDTH_STEPS[run_width] + 1)
    top = _VALUE_TOPS[value_width] * rng.choice([-1, 1])
    if value_width == 1:
        top = 101  # still one byte, never equal to a random neighbour
    values[start : start + _WIDTH_STEPS[run_width]] = [top] * _WIDTH_STEPS[run_width]
    return _sparse(schema, cells, values)


@pytest.mark.parametrize("delta_width", [1, 2, 4])
@pytest.mark.parametrize("run_width", [1, 2, 4])
@pytest.mark.parametrize("value_width", [1, 2, 4])
def test_random_cubes_round_trip_at_every_narrow_width(
    roomy_schema, delta_width, run_width, value_width
):
    """The narrow-width checks accept every page the writer emits."""
    import random

    rng = random.Random(delta_width * 100 + run_width * 10 + value_width)
    for _ in range(3):
        cube = _random_widths_cube(rng, roomy_schema, delta_width, run_width, value_width)
        page = serialize_cube(cube)
        assert page_version(page) == PAGE_VERSION_SPARSE
        assert tuple(page[HEADER_SIZE + 8 : HEADER_SIZE + 11]) == (
            delta_width,
            run_width,
            value_width,
        )
        restored = deserialize_cube(page, roomy_schema, cube.key)
        assert restored.key is cube.key
        assert restored == cube
