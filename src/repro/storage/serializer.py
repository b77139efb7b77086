"""Binary serialization of data cubes to disk pages.

Common page header (all integers little-endian):

====== ======= ==============================================
offset size    field
====== ======= ==============================================
0      4       magic ``b"RCUB"``
4      2       format version (1 raw, 3 sparse)
6      1       level (``Level`` value)
7      1       resolution (0 = coarse, 1 = full)
8      4       year
12     4       month
16     4       ordinal
20     16      shape: four uint32 axis sizes
36     4       CRC32 (coverage depends on version, below)
40     ...     payload
====== ======= ==============================================

Version 1 (raw) stores the payload as C-order ``int64`` cube cells;
its CRC covers the payload.  (Version 2, the same cells in a zlib
stream, was dropped: v3 dominates it.  A v2 page met on disk is
rejected as an unsupported version.)

Version 3 (sparse) stores only the nonzero cells, delta-of-index plus
run-length encoded, behind a sparse mini-header:

====== ======= ==============================================
offset size    field (relative to payload start)
====== ======= ==============================================
0      4       nnz: number of nonzero cells
4      4       n_runs: number of equal-value runs
8      1       delta width code (1/2/4/8 = bytes per delta)
9      1       run-length width code (1/2/4/8)
10     1       run-value width code (1/2/4/8)
11     1       reserved (0)
12     8       flat index of the first nonzero cell
20     ...     deltas: ``nnz - 1`` unsigned ints (delta width)
…      ...     run lengths: ``n_runs`` unsigned ints
…      ...     run values: ``n_runs`` signed ints
====== ======= ==============================================

Cell indices are strictly increasing, so consecutive deltas are ≥ 1
and fit a narrow unsigned width; daily count values cluster heavily
(long runs of 1s), so values are run-length encoded with the smallest
signed width that fits.  When the encoded payload would be no smaller
than the raw cells — a dense cube — the writer falls back to a plain
version-1 page, making v3 never worse than raw on disk.

The version-3 CRC covers the **whole page**: the header (with the
checksum field zeroed) plus the payload.  v1 checksums protect only
the payload for compatibility with existing pages; v3, being newer,
also catches header bit rot (a flipped resolution flag or key field).

The checksum lets :func:`deserialize_cube` detect torn or corrupted
pages, raising :class:`~repro.errors.PageCorruptError` rather than
returning silently wrong statistics.  The reader passes the key it
asked for, and the header must name it: a valid page filed under
another page id is corrupt too.

Every write goes through :func:`serialize_cube`, so a store only
ever gains version-3 pages, bar the dense cubes that fall back to
version 1.  Both versions read back: reading a version-1 page is
zero-copy — the returned cube's counts are a read-only
``np.frombuffer`` view over the page bytes (copied only on a
non-native-endian host), and :class:`~repro.types.cube.DataCube` is a
read-only form.  Version-3 pages decode to a
:class:`~repro.types.cube.SparseCube` when the stored density is below
:data:`~repro.types.cube.DEFAULT_SPARSE_THRESHOLD`, else to a dense
cube.  A raw page is always ``HEADER_SIZE + 8 * cell_count`` bytes
(:func:`cube_page_size`); what v3 saves against it is measured in
``benchmarks/bench_ablation_compression.py`` and swept across scale in
``benchmarks/bench_cube_kernel.py``.  The paper's raw 4 MB pages cost
one read each, as v3 pages do: every modeled figure depends on read
counts, not page bytes.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.types.temporal import TemporalKey
from repro.types.cube import (
    AnyCube,
    DataCube,
    DEFAULT_SPARSE_THRESHOLD,
    RESOLUTION_COARSE,
    RESOLUTION_FULL,
    SparseCube,
)
from repro.types.dimensions import CubeSchema
from repro.errors import ConfigError, PageCorruptError

__all__ = [
    "serialize_cube",
    "serialize_raw",
    "deserialize_cube",
    "page_version",
    "HEADER_SIZE",
    "cube_page_size",
    "PAGE_VERSION_RAW",
    "PAGE_VERSION_SPARSE",
    "PAGE_VERSIONS",
]

_MAGIC = b"RCUB"
PAGE_VERSION_RAW = 1
PAGE_VERSION_SPARSE = 3
#: The formats this build reads (2, zlib, is dropped).
PAGE_VERSIONS = (PAGE_VERSION_RAW, PAGE_VERSION_SPARSE)
_HEADER = struct.Struct("<4sHBBiii4II")
HEADER_SIZE = _HEADER.size
_CHECKSUM_OFFSET = HEADER_SIZE - 4  # trailing uint32 of the header
_SPARSE_HEADER = struct.Struct("<IIBBBBQ")
_WIDTH_CODES = (1, 2, 4, 8)


def cube_page_size(schema: CubeSchema) -> int:
    """Bytes of the on-disk page for one *raw* cube under ``schema``."""
    return HEADER_SIZE + schema.cell_count * 8


def page_version(data: bytes) -> int:
    """The format version of a serialized page (cheap header peek)."""
    if len(data) < HEADER_SIZE or data[:4] != _MAGIC:
        raise PageCorruptError("not a cube page")
    version = int.from_bytes(data[4:6], "little")
    if version not in PAGE_VERSIONS:
        raise PageCorruptError(f"unsupported cube format version {version}")
    return version


def _narrowest_unsigned(values: np.ndarray) -> np.ndarray:
    """``values`` cast to the narrowest little-endian unsigned dtype."""
    top = int(values.max()) if values.size else 0
    for width in _WIDTH_CODES:
        if top < 1 << (8 * width):
            return values.astype(f"<u{width}")
    raise ConfigError(f"value {top} exceeds uint64")  # pragma: no cover


def _narrowest_signed(values: np.ndarray) -> np.ndarray:
    """``values`` cast to the narrowest little-endian signed dtype."""
    low = int(values.min()) if values.size else 0
    high = int(values.max()) if values.size else 0
    for width in _WIDTH_CODES:
        bound = 1 << (8 * width - 1)
        if -bound <= low and high < bound:
            return values.astype(f"<i{width}")
    raise ConfigError(f"values [{low}, {high}] exceed int64")  # pragma: no cover


def _pack_header(cube: AnyCube, version: int, checksum: int) -> bytes:
    return _HEADER.pack(
        _MAGIC,
        version,
        int(cube.key.level),
        1 if cube.resolution == RESOLUTION_FULL else 0,
        cube.key.year,
        cube.key.month,
        cube.key.ordinal,
        *cube.schema.shape,
        checksum,
    )


def _sparse_parts(cube: AnyCube) -> tuple[np.ndarray, np.ndarray]:
    """(cells, values) of the nonzero entries, from either form."""
    if isinstance(cube, SparseCube):
        return cube.cells, cube.values
    flat = np.ascontiguousarray(cube.counts).reshape(-1)
    cells = np.flatnonzero(flat)
    return cells, flat[cells]


def _encode_sparse_payload(cells: np.ndarray, values: np.ndarray) -> bytes:
    """Delta + RLE encoding of one cube's nonzero entries."""
    nnz = int(cells.size)
    first_cell = int(cells[0]) if nnz else 0
    deltas = _narrowest_unsigned(np.diff(cells))
    if nnz:
        run_starts = np.flatnonzero(
            np.concatenate(([True], values[1:] != values[:-1]))
        )
        run_values = _narrowest_signed(values[run_starts])
        run_lengths = _narrowest_unsigned(
            np.diff(np.concatenate((run_starts, [nnz])))
        )
    else:
        run_values = np.empty(0, dtype="<i1")
        run_lengths = np.empty(0, dtype="<u1")
    mini = _SPARSE_HEADER.pack(
        nnz,
        int(run_lengths.size),
        deltas.dtype.itemsize,
        run_lengths.dtype.itemsize,
        run_values.dtype.itemsize,
        0,
        first_cell,
    )
    return mini + deltas.tobytes() + run_lengths.tobytes() + run_values.tobytes()


def serialize_cube(cube: AnyCube) -> bytes:
    """Encode a cube into one page's bytes: a version-3 page, or the
    version-1 page of :func:`serialize_raw` when the sparse encoding
    would not be smaller — readers never need to know which side won.
    """
    cells, values = _sparse_parts(cube)
    payload = _encode_sparse_payload(cells, values)
    if len(payload) >= cube.schema.cell_count * 8:
        return serialize_raw(cube)  # dense cube: raw page is no bigger
    # Full-page CRC: header with a zeroed checksum field, then the
    # payload, so header bit rot is also caught.
    header = _pack_header(cube, PAGE_VERSION_SPARSE, 0)
    checksum = zlib.crc32(payload, zlib.crc32(header)) & 0xFFFFFFFF
    return _pack_header(cube, PAGE_VERSION_SPARSE, checksum) + payload


def serialize_raw(cube: AnyCube) -> bytes:
    """The version-1 page of ``cube``: every cell as C-order ``int64``.

    What :func:`serialize_cube` falls back to for a dense cube; called
    directly, it writes the page format older roots hold, which every
    reader still accepts.
    """
    payload = np.ascontiguousarray(cube.counts, dtype="<i8").tobytes()
    checksum = zlib.crc32(payload) & 0xFFFFFFFF
    return _pack_header(cube, PAGE_VERSION_RAW, checksum) + payload


def _decode_sparse_payload(
    data: bytes, schema: CubeSchema
) -> tuple[np.ndarray, np.ndarray]:
    """(cells, values) of a CRC-verified v3 payload, proven valid.

    Every invariant :class:`~repro.types.cube.SparseCube` requires is
    checked here, on the encoded (narrow) arrays, where it costs least
    — so the caller wraps the arrays without a second validating pass:

    * cells strictly increasing ⇔ every delta nonzero (and, 8 bytes
      wide, non-negative as int64);
    * cells in range ⇔ the first and the last cumulative cell lie in
      ``[0, cell_count)`` and the int64 running sum never wrapped:
      narrow deltas cannot wrap it (nnz·2³² < 2⁶³ for cell_count <
      2³¹); 8-byte ones can, and the first wrap of a sum of positive
      terms is negative, so the minimum shows it;
    * values nonzero ⇔ every run value nonzero;
    * parallel arrays ⇔ the run lengths sum to ``nnz`` (a narrow sum
      cannot wrap; 8-byte lengths are first bounded by ``nnz``).
    """
    payload_size = len(data) - HEADER_SIZE
    if payload_size < _SPARSE_HEADER.size:
        raise PageCorruptError(f"sparse payload too small: {payload_size} bytes")
    nnz, n_runs, delta_width, run_width, value_width, _, first_cell = (
        _SPARSE_HEADER.unpack_from(data, HEADER_SIZE)
    )
    widths = (delta_width, run_width, value_width)
    if any(width not in _WIDTH_CODES for width in widths):
        raise PageCorruptError(f"bad sparse width codes {widths}")
    cell_count = schema.cell_count
    if nnz > cell_count or n_runs > nnz or (nnz > 0) != (n_runs > 0):
        raise PageCorruptError(f"inconsistent sparse counts nnz={nnz} runs={n_runs}")
    n_deltas = nnz - 1 if nnz else 0
    expected = (
        _SPARSE_HEADER.size
        + n_deltas * delta_width
        + n_runs * (run_width + value_width)
    )
    if payload_size != expected:
        raise PageCorruptError(
            f"sparse payload is {payload_size} bytes, expected {expected}"
        )
    cells = np.empty(nnz, dtype=np.int64)
    if not nnz:
        return cells, np.empty(0, dtype=np.int64)
    # Before any array holds it: a first cell past int64 must be a
    # corrupt page, not an OverflowError.
    if first_cell >= cell_count:
        raise PageCorruptError(f"first sparse cell {first_cell} out of range")
    offset = HEADER_SIZE + _SPARSE_HEADER.size
    deltas = np.frombuffer(
        data, dtype=f"<u{delta_width}", count=n_deltas, offset=offset
    )
    narrow = delta_width < 8 and cell_count < 1 << 31
    cells[0] = first_cell
    # Unsigned -> int64 in place; a u8 delta >= 2**63 lands negative.
    cells[1:] = deltas
    if not deltas.all() or (not narrow and n_deltas and int(cells[1:].min()) < 0):
        raise PageCorruptError("sparse cells are not strictly increasing")
    cells.cumsum(out=cells)
    if int(cells[-1]) >= cell_count or (not narrow and int(cells.min()) < 0):
        raise PageCorruptError(
            f"sparse cell index out of range for {cell_count} cells"
        )
    offset += n_deltas * delta_width
    run_lengths = np.frombuffer(
        data, dtype=f"<u{run_width}", count=n_runs, offset=offset
    )
    offset += n_runs * run_width
    run_values = np.frombuffer(
        data, dtype=f"<i{value_width}", count=n_runs, offset=offset
    )
    total = int(run_lengths.sum(dtype=np.uint64))
    if total != nnz or (run_width == 8 and int(run_lengths.max()) > nnz):
        raise PageCorruptError("sparse run lengths do not sum to nnz")
    if not run_values.all():
        raise PageCorruptError("sparse run value is zero")
    return cells, run_values.astype(np.int64).repeat(run_lengths.astype(np.intp))


def deserialize_cube(data: bytes, schema: CubeSchema, key: TemporalKey) -> AnyCube:
    """Decode one page back into a cube (dense or sparse form).

    Validates magic, version, shape-vs-schema agreement, and the
    checksum.  Version-1 pages decode without copying the payload: the
    dense cube's counts are a read-only view over ``data``.  Version-3 pages yield a
    :class:`~repro.types.cube.SparseCube` below the density threshold.

    ``key`` is the cube the page was read for: the header must name it
    (a page filed under another key is corrupt, however valid its
    checksum) and the cube carries it, so no key is rebuilt from the
    header (an invalid header key can never equal it).
    """
    if len(data) < HEADER_SIZE:
        raise PageCorruptError(f"page too small: {len(data)} bytes")
    (
        magic,
        version,
        level_value,
        resolution_flag,
        year,
        month,
        ordinal,
        s0,
        s1,
        s2,
        s3,
        checksum,
    ) = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise PageCorruptError(f"bad magic {magic!r}")
    if version not in PAGE_VERSIONS:
        raise PageCorruptError(f"unsupported cube format version {version}")
    if version == PAGE_VERSION_SPARSE:
        # Verify the full-page CRC before *interpreting* any header
        # field: a flipped key byte must surface as corruption, not as
        # a calendar error (or worse, a wrong-but-valid key).
        zeroed = bytearray(data[:HEADER_SIZE])
        zeroed[_CHECKSUM_OFFSET:HEADER_SIZE] = b"\x00\x00\x00\x00"
        actual = zlib.crc32(memoryview(data)[HEADER_SIZE:], zlib.crc32(bytes(zeroed)))
        if actual & 0xFFFFFFFF != checksum:
            raise PageCorruptError("page checksum mismatch")
    shape = (s0, s1, s2, s3)
    if shape != schema.shape:
        raise PageCorruptError(
            f"cube shape {shape} does not match schema shape {schema.shape}"
        )
    named = (level_value, year, month, ordinal)
    if (key.level, key.year, key.month, key.ordinal) != named:
        raise PageCorruptError(f"page header names {named}, read as {key}")
    resolution = RESOLUTION_FULL if resolution_flag else RESOLUTION_COARSE

    if version == PAGE_VERSION_SPARSE:
        cells, values = _decode_sparse_payload(data, schema)
        sparse = SparseCube._from_validated(schema, key, cells, values, resolution)
        return sparse.maybe_densify(DEFAULT_SPARSE_THRESHOLD)

    expected = schema.cell_count * 8
    if len(data) - HEADER_SIZE != expected:
        raise PageCorruptError(
            f"payload is {len(data) - HEADER_SIZE} bytes, expected {expected}"
        )
    if zlib.crc32(memoryview(data)[HEADER_SIZE:]) & 0xFFFFFFFF != checksum:
        raise PageCorruptError("payload checksum mismatch")
    # Zero-copy fast path: a read-only int64 view straight over the
    # page buffer.  ``<i8`` is the native layout on little-endian
    # hosts, so astype (a full 4 MB copy) runs only on big-endian.
    counts = np.frombuffer(data, dtype="<i8", offset=HEADER_SIZE).reshape(shape)
    if not counts.dtype.isnative:
        counts = counts.astype(np.int64)  # pragma: no cover (big-endian host)
    return DataCube(schema=schema, key=key, counts=counts, resolution=resolution)
