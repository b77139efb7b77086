"""Test helper: take a v3 cube page apart, change one encoded field, and
put it back together under a *valid* checksum.

Bit flips never reach the decoder's invariant checks — the full-page
CRC catches them first — so the tests that exercise those checks edit
fields and reseal.  Walks the payload itself (the layout table is in
``repro.storage.serializer``, whose header structs it borrows).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from repro.storage.serializer import _CHECKSUM_OFFSET, _SPARSE_HEADER, HEADER_SIZE

_CHECKSUM = slice(_CHECKSUM_OFFSET, HEADER_SIZE)

#: What :func:`corruptions` returns for a page of four or more cells.
#: Names ending in ``!`` are pages the decoder got wrong before it
#: range-checked the stream itself: an uncaught numpy error
#: (``OverflowError``/``ValueError``) or, for the int64 wrap — which
#: ``np.diff`` wraps along with — a cube accepted with cells out of range.
CORRUPTIONS = (
    "one byte too many",
    "one byte too few",
    "bad width code",
    "first_cell = cell_count",
    "first_cell = 2**63 !",
    "zero run value",
    "run lengths sum to nnz+1",
    "run lengths sum to nnz-1",
    "n_runs > nnz",
    "nnz > 0 with n_runs = 0",
    "zero delta",
    "last cell = cell_count",
    "delta >= 2**63",
    "deltas wrap int64 back into range !",
    "run lengths wrap uint64 back to nnz !",
)


def reseal(page: bytes | bytearray) -> bytes:
    """``page`` with its full-page CRC recomputed over what it now holds."""
    zeroed = bytearray(page)
    zeroed[_CHECKSUM] = b"\x00\x00\x00\x00"
    zeroed[_CHECKSUM] = struct.pack("<I", zlib.crc32(bytes(zeroed)) & 0xFFFFFFFF)
    return bytes(zeroed)


def _narrowest(values: list[int], kind: str) -> int:
    for width in (1, 2, 4, 8):
        bits = 8 * width - (kind == "i")
        low = -(1 << bits) if kind == "i" else 0
        if all(low <= value < (1 << bits) for value in values):
            return width
    raise ValueError(f"{values!r} exceed 8 bytes")


@dataclass
class SparsePage:
    """The fields of one v3 page, editable; :meth:`seal` re-encodes them."""

    header: bytes
    nnz: int
    n_runs: int
    first_cell: int
    deltas: list[int]
    run_lengths: list[int]
    run_values: list[int]

    @classmethod
    def parse(cls, page: bytes) -> "SparsePage":
        nnz, n_runs, delta_w, run_w, value_w, _, first_cell = _SPARSE_HEADER.unpack_from(
            page, HEADER_SIZE
        )
        offset = HEADER_SIZE + _SPARSE_HEADER.size
        parts = []
        for kind, width, count in (
            ("u", delta_w, max(nnz - 1, 0)),
            ("u", run_w, n_runs),
            ("i", value_w, n_runs),
        ):
            parts.append(
                np.frombuffer(page, f"<{kind}{width}", count, offset).tolist()
            )
            offset += width * count
        assert offset == len(page)
        return cls(page[:HEADER_SIZE], nnz, n_runs, first_cell, *parts)

    @property
    def cells(self) -> list[int]:
        cells = [self.first_cell] if self.nnz else []
        for delta in self.deltas:
            cells.append(cells[-1] + delta)
        return cells

    def seal(self) -> bytes:
        """The page these fields encode (narrowest widths that hold them;
        ``nnz``/``n_runs`` as set, whatever the lists hold), CRC valid."""
        arrays = b""
        widths = []
        for kind, values in (
            ("u", self.deltas),
            ("u", self.run_lengths),
            ("i", self.run_values),
        ):
            widths.append(_narrowest(values, kind))
            arrays += np.array(values, dtype=f"<{kind}{widths[-1]}").tobytes()
        mini = _SPARSE_HEADER.pack(self.nnz, self.n_runs, *widths, 0, self.first_cell)
        return reseal(self.header + mini + arrays)


def corruptions(page: bytes, cell_count: int) -> dict[str, bytes]:
    """Every one-field corruption (:data:`CORRUPTIONS`) that applies to
    ``page``, by name, each resealed."""
    fields = SparsePage.parse(page)
    nnz, cells = fields.nnz, fields.cells
    out: dict[str, bytes] = {
        "one byte too many": reseal(page + b"\x00"),
        "one byte too few": reseal(page[:-1]),
    }

    def edit(name: str, **changes: object) -> None:
        out[name] = SparsePage(**{**vars(fields), **changes}).seal()

    def patched(values: list[int], position: int, value: int) -> list[int]:
        return values[:position] + [value] + values[position + 1 :]

    width_code = bytearray(page)
    width_code[HEADER_SIZE + 8] = 3
    out["bad width code"] = reseal(width_code)
    if nnz:
        edit("first_cell = cell_count", first_cell=cell_count)
        edit("first_cell = 2**63 !", first_cell=1 << 63)
        edit("zero run value", run_values=patched(fields.run_values, 0, 0))
        for step in (1, -1):
            edit(
                f"run lengths sum to nnz{step:+d}",
                run_lengths=patched(fields.run_lengths, 0, fields.run_lengths[0] + step),
            )
        edit(
            "n_runs > nnz",
            n_runs=nnz + 1,
            run_lengths=fields.run_lengths + [0] * (nnz + 1 - fields.n_runs),
            run_values=fields.run_values + [1] * (nnz + 1 - fields.n_runs),
        )
        edit("nnz > 0 with n_runs = 0", n_runs=0, run_lengths=[], run_values=[])
    if nnz >= 2:
        middle = (nnz - 1) // 2
        edit("zero delta", deltas=patched(fields.deltas, middle, 0))
        edit(
            "last cell = cell_count",
            deltas=patched(fields.deltas, nnz - 2, fields.deltas[-1] + cell_count - cells[-1]),
        )
        edit("delta >= 2**63", deltas=patched(fields.deltas, middle, (1 << 63) + 1))
    if nnz >= 4:
        # 2**64 in all: the int64 running sum wraps twice and ends on
        # an in-range cell again.
        edit(
            "deltas wrap int64 back into range !",
            first_cell=0,
            deltas=[(1 << 63) - 1, (1 << 63) - 1, 2] + [1] * (nnz - 4),
        )
    if nnz >= 3:
        edit(
            "run lengths wrap uint64 back to nnz !",
            n_runs=3,
            run_lengths=[1 << 63, 1 << 63, nnz],
            run_values=[1, 2, 3],
        )
    return out
