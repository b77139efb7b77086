"""Fuzzing the cube page serializer across both page formats.

The serializer's contract is absolute in both directions:

* **round-trip** — any cube (either representation, either resolution,
  any sparsity from empty to fully dense, any value width up to int64)
  written at either page version (the v3 writer, or the raw writer
  older roots were filled by) deserializes to an equal cube;
* **corruption** — any truncation raises :class:`PageCorruptError`;
  any single-bit flip inside the region a format's CRC covers (the
  payload for v1, whose header checksum predates v3 and stays
  payload-only for compat; the entire page for v3) either raises
  :class:`PageCorruptError` or decodes the original cube.  Never a
  wrong cube, never a different exception, never a crash;
* **invariants behind a valid checksum** — a bit flip never reaches
  the v3 decoder's own checks (the CRC catches it first), so the last
  sweep edits one encoded field at a time, *reseals* the page, and
  requires :class:`PageCorruptError` every time.

Everything is driven by ``random.Random(seed)`` — a failure reproduces
from the seed printed in the assertion message.
"""

from __future__ import annotations

import random
from datetime import date

import numpy as np
import pytest

from repro.types.temporal import day_key, month_key, week_key, year_key
from repro.types.cube import (
    RESOLUTION_COARSE,
    RESOLUTION_FULL,
    SparseCube,
)
from repro.types.dimensions import default_schema
from repro.errors import PageCorruptError
from repro.storage.serializer import (
    PAGE_VERSION_SPARSE,
    deserialize_cube,
    page_version,
    serialize_cube,
    serialize_raw,
)
from tests.v3pages import CORRUPTIONS, corruptions

pytestmark = pytest.mark.fuzz

_SCHEMA = default_schema(["united_states", "germany", "qatar"], road_types=6)
#: Both page writers: raw (version 1) and the index's own (version 3,
#: raw when that is not smaller).
_WRITERS = (serialize_raw, serialize_cube)
_KEYS = (
    day_key(date(2021, 3, 5)),
    week_key(2021, 3, 2),
    month_key(2021, 3),
    year_key(2021),
)


def _random_cube(rng: random.Random):
    """A cube of random form, key, resolution, sparsity, and magnitude."""
    key = rng.choice(_KEYS)
    resolution = rng.choice((RESOLUTION_FULL, RESOLUTION_COARSE))
    cell_count = _SCHEMA.cell_count
    nnz = rng.choice((0, 1, rng.randint(2, 12), rng.randint(13, cell_count)))
    cells = sorted(rng.sample(range(cell_count), nnz))
    magnitude = rng.choice((8, 1 << 15, 1 << 31, 1 << 62))
    values = [rng.randint(1, magnitude) for _ in range(nnz)]
    sparse = SparseCube(
        schema=_SCHEMA,
        key=key,
        cells=np.array(cells, dtype=np.int64),
        values=np.array(values, dtype=np.int64),
        resolution=resolution,
    )
    if rng.random() < 0.5:
        return sparse.to_dense()
    return sparse


def test_round_trip_sweep():
    rng = random.Random(2024)
    for trial in range(150):
        cube = _random_cube(rng)
        data = rng.choice(_WRITERS)(cube)
        restored = deserialize_cube(data, _SCHEMA, cube.key)
        assert restored == cube, (
            f"trial {trial}: v{page_version(data)} round-trip changed the cube "
            f"(seed 2024, {cube!r})"
        )


def test_truncation_always_detected():
    rng = random.Random(77)
    for trial in range(60):
        cube = _random_cube(rng)
        data = rng.choice(_WRITERS)(cube)
        cut = rng.randrange(len(data))
        with pytest.raises(PageCorruptError):
            deserialize_cube(data[:cut], _SCHEMA, cube.key)


def test_bit_flips_never_yield_a_wrong_cube():
    rng = random.Random(4099)
    from repro.storage.serializer import HEADER_SIZE

    for trial in range(120):
        cube = _random_cube(rng)
        data = bytearray(rng.choice(_WRITERS)(cube))
        version = page_version(bytes(data))
        # v1 guarantees integrity of the payload only; v3's CRC
        # covers the whole page, so any byte is fair game there.
        floor = 0 if version == PAGE_VERSION_SPARSE else HEADER_SIZE
        position = rng.randrange(floor, len(data))
        flip = 1 << rng.randrange(8)
        data[position] ^= flip
        try:
            restored = deserialize_cube(bytes(data), _SCHEMA, cube.key)
        except PageCorruptError:
            continue
        assert restored == cube, (
            f"trial {trial}: v{version} byte {position} flip {flip:#x} "
            f"silently decoded a different cube (seed 4099)"
        )


def test_v3_flips_anywhere_raise():
    """v3's CRC covers the whole page, header included: a flip anywhere
    must raise (unlike v1, whose CRC is payload-only for compat)."""
    rng = random.Random(515)
    cube = SparseCube(
        schema=_SCHEMA,
        key=day_key(date(2021, 3, 5)),
        cells=np.array([3, 40, 41, 200], dtype=np.int64),
        values=np.array([7, 1, 9, 2], dtype=np.int64),
    )
    data = serialize_cube(cube)
    for trial in range(80):
        mutated = bytearray(data)
        position = rng.randrange(len(mutated))
        mutated[position] ^= 1 << rng.randrange(8)
        if bytes(mutated) == data:
            continue
        with pytest.raises(PageCorruptError):
            deserialize_cube(bytes(mutated), _SCHEMA, cube.key)


def test_resealed_field_corruptions_always_raise():
    """Every one-field corruption of random v3 pages, CRC recomputed."""
    rng = random.Random(9001)
    seen: set[str] = set()
    for trial in range(120):
        cube = _random_cube(rng)
        data = serialize_cube(cube)
        if page_version(data) != PAGE_VERSION_SPARSE:
            continue  # dense enough that the writer fell back to raw
        for name, bad in corruptions(data, _SCHEMA.cell_count).items():
            seen.add(name)
            try:
                deserialize_cube(bad, _SCHEMA, cube.key)
            except PageCorruptError:
                continue
            pytest.fail(
                f"trial {trial}: {name!r} decoded behind a valid CRC "
                f"(seed 9001, {cube!r})"
            )
    assert seen == set(CORRUPTIONS)
