"""Four-dimensional data cubes of precomputed update counts.

Each index node in RASED stores one cube: counts over (ElementType,
Country, RoadType, UpdateType) for one temporal window (paper, Section
VI-A; data cubes after Gray et al., ICDE 1996).  At the paper's full
scale a cube spans 3 x 300 x 150 x 4 = 540,000 int64 cells, i.e. ~4 MB
as one dense disk page.

Two representations implement the same interface (the *columnar cube
kernel*):

* :class:`DataCube` — the dense ndarray form, one int64 per cell.
  Best when many cells are populated (rolled-up yearly cubes, paper
  default).
* :class:`SparseCube` — a sorted-COO columnar form: two parallel
  arrays of (flat cell index, count), holding only nonzero cells.  A
  typical *daily* cube populates a few thousand of its 540,000 cells,
  so the sparse form is orders of magnitude smaller and aggregates in
  O(nnz) instead of O(cells).

Both support the operations the system needs:

* **build/maintain** — ``record``/``bulk_record`` count crawled
  updates; :func:`sum_cubes` rolls children up into parents in one
  batched vectorized pass (concatenate-and-reduce for sparse children,
  a single reduction for dense ones).
* **query** — ``aggregate``/``aggregate_array`` apply per-dimension
  filters and group-bys entirely in memory (the paper's "second
  phase"), natively on either form.

The *density threshold* (:data:`DEFAULT_SPARSE_THRESHOLD`) governs the
dual representation: sparse cubes whose populated fraction crosses it
auto-densify (:meth:`SparseCube.maybe_densify`), since beyond ~25%
density the dense form is both smaller per byte of information and
faster to reduce.

A cube also carries its update-type ``resolution``: daily crawls only
know create-vs-update, so daily-built cubes are ``'coarse'`` (modifies
counted under *geometry*); after the monthly rebuild they become
``'full'``.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence, Union

import numpy as np

from repro.errors import DimensionError
from repro.types.dimensions import CubeSchema
from repro.types.temporal import TemporalKey

__all__ = [
    "DataCube",
    "SparseCube",
    "AnyCube",
    "Selection",
    "nonzero_columns",
    "Resolution",
    "RESOLUTION_COARSE",
    "RESOLUTION_FULL",
    "DEFAULT_SPARSE_THRESHOLD",
    "sum_cubes",
    "sum_arrays",
    "empty_like",
    "as_dense",
    "as_sparse",
]

#: Cube update-type resolution markers.
Resolution = str
RESOLUTION_COARSE: Resolution = "coarse"
RESOLUTION_FULL: Resolution = "full"
_VALID_RESOLUTIONS = (RESOLUTION_COARSE, RESOLUTION_FULL)

#: Populated-cell fraction above which the sparse form stops paying:
#: sorted-COO costs 16 bytes per nonzero cell against the dense form's
#: flat 8 bytes per cell, so storage breaks even at 0.5; aggregation
#: overheads move the practical crossover lower.
DEFAULT_SPARSE_THRESHOLD: float = 0.25

#: How many dense count arrays a batched reduction stacks at once.
#: Bounds the transient ``np.stack`` allocation while keeping the
#: reduction vectorized.
_REDUCE_CHUNK = 16

#: Above this per-array size the stacked reduction stops paying: the
#: ``np.stack`` copy of each chunk costs more memory traffic than the
#: adds it saves, so :func:`sum_arrays` streams ``+=`` instead (the
#: adds are memory-bound either way; only small arrays benefit from
#: amortizing per-array overhead).  256 KB keeps chunks L2-resident.
_STACK_LIMIT_BYTES = 256 * 1024


# -- shared selection machinery -----------------------------------------


def _resolve_selection(
    schema: CubeSchema,
    filters: Mapping[str, Sequence[str] | None] | None,
    group_by: Sequence[str],
) -> tuple[list[list[int] | None], list[list[str]], list[int]]:
    """Validate filters/group-by and resolve them against ``schema``.

    Returns ``(codes_by_axis, labels_by_axis, group_axes)``:

    * ``codes_by_axis`` — per storage axis, the selected codes in
      filter order, or ``None`` when the axis is unconstrained;
    * ``labels_by_axis`` — per storage axis, the value labels that
      remain after filtering;
    * ``group_axes`` — storage-axis positions of ``group_by`` entries,
      in **group_by order** (the output axis order).
    """
    filters = filters or {}
    for name in filters:
        schema.axis(name)  # validate names eagerly
    # Dedupe filter values up front (order-preserving): a repeated code
    # would otherwise select the same slice twice and double-count.
    deduped: dict[str, list[str] | None] = {
        name: None if allowed is None else list(dict.fromkeys(allowed))
        for name, allowed in filters.items()
    }
    order = list(schema.AXES)
    for name in group_by:
        if name not in order:
            raise DimensionError(f"unknown group-by axis {name!r}")
    if len(set(group_by)) != len(group_by):
        raise DimensionError(f"duplicate group-by axis in {group_by!r}")
    codes_by_axis: list[list[int] | None] = []
    labels_by_axis: list[list[str]] = []
    for name in order:
        allowed = deduped.get(name)
        dim = schema.dimension(name)
        if allowed is None:
            codes_by_axis.append(None)
            labels_by_axis.append(list(dim.values))
        else:
            codes_by_axis.append(dim.codes(allowed))
            labels_by_axis.append(list(allowed))
    group_axes = [order.index(name) for name in group_by]
    return codes_by_axis, labels_by_axis, group_axes


class Selection:
    """A query's filters and group-by, compiled once against a schema.

    One query reduces tens of cubes with the same selection, so what
    depends only on the query is resolved here, once: the validated
    codes and labels of :func:`_resolve_selection`, the output shape,
    and two lookup tables that send a *flat* cell index straight to a
    flat output bin.  A flat index splits as ``divmod(cell, road x
    update)`` into an (element, country) part and a (road, update)
    part; ``outer_bins``/``inner_bins`` hold each part's contribution
    to the output bin, or a negative marker when a filter excludes it,
    so ``outer_bins[o] + inner_bins[i]`` is the bin when non-negative
    and "filtered out" otherwise.  The tables are a few KB at any scale
    (900 + 600 entries at the paper's 540 K cells) — never O(cells).

    Pass one wherever ``aggregate``/``aggregate_array`` take
    ``filters``; ``labels`` is shared by every result and must not be
    mutated.
    """

    __slots__ = (
        "schema",
        "codes_by_axis",
        "labels",
        "out_shape",
        "sum_axes",
        "transpose",
        "filtered",
        "inner_size",
        "outer_bins",
        "inner_bins",
    )

    def __init__(
        self,
        schema: CubeSchema,
        filters: Mapping[str, Sequence[str] | None] | None = None,
        group_by: Sequence[str] = (),
    ) -> None:
        codes_by_axis, labels_by_axis, group_axes = _resolve_selection(
            schema, filters, group_by
        )
        self.schema = schema
        #: Per storage axis, the selected codes in filter order (``None``:
        #: unconstrained) — what the dense form indexes with.
        self.codes_by_axis = [
            None if codes is None else np.asarray(codes, dtype=np.intp)
            for codes in codes_by_axis
        ]
        #: Value labels along each output axis, in ``group_by`` order.
        self.labels = [labels_by_axis[axis] for axis in group_axes]
        self.out_shape = tuple(len(values) for values in self.labels)
        # Dense form: sum these storage axes out, then permute what is
        # left (still in storage order) into ``group_by`` order.
        self.sum_axes = tuple(
            axis for axis in range(len(schema.AXES)) if axis not in group_axes
        )
        kept = sorted(group_axes)
        self.transpose = (
            None if kept == group_axes else [kept.index(axis) for axis in group_axes]
        )
        self.filtered = any(codes is not None for codes in codes_by_axis)
        # Sparse form: per-axis contribution to the C-order output bin.
        strides: dict[int, int] = {}
        bins = 1
        for axis in reversed(group_axes):
            strides[axis] = bins
            # (An empty filter list leaves a zero-length axis, and
            # every cell excluded; its stride is then never used.)
            bins *= max(1, len(labels_by_axis[axis]))
        excluded = -bins  # valid sums are < bins: one of these keeps any sum < 0
        by_axis: list[np.ndarray] = []
        for axis, size in enumerate(schema.shape):
            codes = self.codes_by_axis[axis]
            stride = strides.get(axis, 0)  # 0: summed out
            if codes is None:
                table = np.arange(size, dtype=np.int64) * stride
            else:
                table = np.full(size, excluded, dtype=np.int64)
                table[codes] = np.arange(len(codes), dtype=np.int64) * stride
            by_axis.append(table)
        self.inner_size = schema.shape[2] * schema.shape[3]
        self.outer_bins = np.add.outer(by_axis[0], by_axis[1]).ravel()
        self.inner_bins = np.add.outer(by_axis[2], by_axis[3]).ravel()


#: What ``aggregate``/``aggregate_array`` accept as ``filters``: the
#: axis -> allowed-values mapping, or the query's compiled selection.
Filters = Union[Mapping[str, Union[Sequence[str], None]], Selection, None]


def _compiled(
    schema: CubeSchema,
    filters: Filters,
    group_by: Sequence[str],
) -> Selection:
    """``filters`` itself when already compiled, else a fresh compile."""
    if not isinstance(filters, Selection):
        return Selection(schema, filters, group_by)
    if filters.schema is not schema and filters.schema != schema:
        raise DimensionError("selection was compiled against another schema")
    return filters


def nonzero_columns(
    array: np.ndarray, labels: Sequence[Sequence[str]]
) -> tuple[list[list[Any]], list[int]]:
    """An already-reduced array's nonzero cells, column-wise.

    Returns, per array axis, the label of every populated cell, and the
    parallel list of their values; ``dict(zip(zip(*columns), values))``
    is the result table (a caller may slip in columns of its own first
    — the executor's date).  Only ``np.nonzero`` output crosses into
    Python, one ``tolist`` per column — cost follows populated cells,
    not the array's extent, with no per-cell tuple of numpy scalars.
    """
    nonzero = np.nonzero(array)
    columns = [
        [axis_labels[position] for position in positions.tolist()]
        for axis_labels, positions in zip(labels, nonzero)
    ]
    return columns, array[nonzero].tolist()


def sum_arrays(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Sum N equally shaped int64 arrays; always a fresh writable result.

    Small arrays (query partials, reduced group-by outputs) are summed
    in chunked ``np.add.reduce`` passes over stacked blocks, which
    amortizes the per-array dispatch overhead.  Arrays past
    :data:`_STACK_LIMIT_BYTES` stream through plain ``+=`` instead —
    stacking full cube pages would copy every operand once just to add
    it, doubling the memory traffic of an already memory-bound loop.
    """
    if not arrays:
        raise DimensionError("sum_arrays needs at least one array")
    if len(arrays) == 1:
        return np.array(arrays[0], dtype=np.int64, copy=True)
    total = np.zeros(arrays[0].shape, dtype=np.int64)
    if arrays[0].nbytes > _STACK_LIMIT_BYTES:
        for array in arrays:
            total += array
        return total
    for start in range(0, len(arrays), _REDUCE_CHUNK):
        chunk = arrays[start : start + _REDUCE_CHUNK]
        if len(chunk) == 1:
            total += chunk[0]
        else:
            total += np.add.reduce(np.stack(chunk))
    return total


def _coalesce(
    cells: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Reduce a COO batch to sorted unique cells with summed values.

    The kernel under both sparse ``add`` and batched :func:`sum_cubes`:
    one sort over the concatenated indices, one ``np.add.reduceat``
    over the run boundaries, zeros dropped so the nonzero invariant
    holds.
    """
    if cells.size == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    order = np.argsort(cells, kind="stable")
    cells = cells[order]
    values = values[order]
    starts = np.flatnonzero(np.concatenate(([True], cells[1:] != cells[:-1])))
    unique = cells[starts]
    sums = np.add.reduceat(values, starts)
    keep = sums != 0
    if not bool(keep.all()):
        unique = unique[keep]
        sums = sums[keep]
    return np.ascontiguousarray(unique), np.ascontiguousarray(sums)


class DataCube:
    """A dense 4-D count cube for one temporal window.

    Attributes
    ----------
    schema:
        The dimension schema; fixes axis order and sizes.
    key:
        The temporal key (day/week/month/year) this cube covers.
    counts:
        ``int64`` ndarray of shape ``schema.shape``.  May be a
        read-only zero-copy view over a page buffer (the serializer's
        fast path); mutating methods copy-on-write transparently.
    resolution:
        ``'coarse'`` for daily-crawl cubes (2-way update types),
        ``'full'`` after the monthly rebuild (4-way).
    """

    def __init__(
        self,
        schema: CubeSchema,
        key: TemporalKey,
        counts: np.ndarray | None = None,
        resolution: Resolution = RESOLUTION_FULL,
    ) -> None:
        self.schema = schema
        self.key = key
        if counts is None:
            self.counts: np.ndarray = np.zeros(schema.shape, dtype=np.int64)
        else:
            array = np.asarray(counts, dtype=np.int64)
            if array.shape != schema.shape:
                raise DimensionError(
                    f"cube counts shape {array.shape} does not match "
                    f"schema shape {schema.shape}"
                )
            self.counts = array
        if resolution not in _VALID_RESOLUTIONS:
            raise DimensionError(f"invalid resolution {resolution!r}")
        self.resolution = resolution

    def __repr__(self) -> str:
        return (
            f"DataCube(key={self.key}, resolution={self.resolution!r}, "
            f"total={self.total})"
        )

    # -- sizing ---------------------------------------------------------

    @property
    def cell_count(self) -> int:
        return int(self.counts.size)

    @property
    def nbytes(self) -> int:
        """Payload size in bytes (8 bytes per cell, as in the paper)."""
        return int(self.counts.nbytes)

    @property
    def nnz(self) -> int:
        """Number of populated (nonzero) cells."""
        return int(np.count_nonzero(self.counts))

    @property
    def density(self) -> float:
        """Populated fraction of the cube's cells."""
        return self.nnz / self.cell_count

    @property
    def total(self) -> int:
        """Total number of updates counted in this cube."""
        return int(self.counts.sum())

    # -- build ----------------------------------------------------------

    def _ensure_writable(self) -> None:
        """Copy-on-write for zero-copy page-backed count arrays."""
        if not self.counts.flags.writeable:
            self.counts = self.counts.copy()

    def record(
        self, element_type: str, country: str, road_type: str, update_type: str
    ) -> None:
        """Count one update in its cell."""
        coords = self.schema.encode(element_type, country, road_type, update_type)
        self._ensure_writable()
        self.counts[coords] += 1

    def record_codes(self, coords: tuple[int, int, int, int], count: int = 1) -> None:
        """Count pre-encoded updates (hot path for the crawlers)."""
        self._ensure_writable()
        self.counts[coords] += count

    def bulk_record(self, coded: np.ndarray) -> None:
        """Count a batch of pre-encoded updates.

        ``coded`` is an ``(n, 4)`` integer array of cube coordinates.
        Uses ``np.add.at`` so repeated coordinates accumulate.
        """
        coded = np.asarray(coded)
        if coded.ndim != 2 or coded.shape[1] != 4:
            raise DimensionError(f"expected (n, 4) coordinate array, got {coded.shape}")
        self._ensure_writable()
        np.add.at(
            self.counts, (coded[:, 0], coded[:, 1], coded[:, 2], coded[:, 3]), 1
        )

    def add(self, other: "AnyCube") -> None:
        """Accumulate another cube's counts into this one (rollup step).

        Accepts either representation.  The result is ``'full'``
        resolution only if every contributor is full; any coarse child
        makes the parent coarse.
        """
        self._check_compatible(other)
        self._ensure_writable()
        if isinstance(other, SparseCube):
            np.add.at(
                self.counts,
                np.unravel_index(other.cells, self.schema.shape),
                other.values,
            )
        else:
            self.counts += other.counts
        if other.resolution == RESOLUTION_COARSE:
            self.resolution = RESOLUTION_COARSE

    def _check_compatible(self, other: "AnyCube") -> None:
        if other.schema.shape != self.schema.shape:
            raise DimensionError(
                f"cannot combine cubes of shapes {self.schema.shape} "
                f"and {other.schema.shape}"
            )

    # -- query ----------------------------------------------------------

    def cell(
        self, element_type: str, country: str, road_type: str, update_type: str
    ) -> int:
        """Read a single precomputed value."""
        return int(self.counts[self.schema.encode(element_type, country, road_type, update_type)])

    def aggregate(
        self,
        filters: Filters = None,
        group_by: Sequence[str] = (),
    ) -> dict[tuple[str, ...], int]:
        """Filter and aggregate this cube entirely in memory.

        Parameters
        ----------
        filters:
            Maps axis name (``element_type``/``country``/``road_type``/
            ``update_type``) to an allowed value list, or ``None`` for
            no constraint on that axis — or an already compiled
            :class:`Selection`, in which case ``group_by`` is ignored.
        group_by:
            Axis names to keep; all other axes are summed out.

        Returns
        -------
        dict
            Maps a tuple of group-by values (in ``group_by`` order) to
            the summed count.  With an empty ``group_by`` the single
            key is the empty tuple.
        """
        return _aggregate_rows(self, filters, group_by)

    def aggregate_array(
        self,
        filters: Filters = None,
        group_by: Sequence[str] = (),
    ) -> tuple[np.ndarray, list[list[str]]]:
        """Like :meth:`aggregate` but returns the dense reduced array.

        Returns the reduced ndarray (one axis per ``group_by`` entry,
        in that order) and the value labels along each kept axis.  This
        is the hot path used by the executor, which compiles the
        query's :class:`Selection` once and accumulates arrays across
        many cubes before building the final result table.
        """
        selection = _compiled(self.schema, filters, group_by)
        sub = self.counts
        # Fancy-index one filtered axis at a time (np.ix_ would also
        # work but this keeps slices cheap when a filter is absent).
        for axis, codes in enumerate(selection.codes_by_axis):
            if codes is not None:
                sub = np.take(sub, codes, axis=axis)
        if selection.sum_axes:
            sub = sub.sum(axis=selection.sum_axes)
        if selection.transpose is not None:
            sub = np.transpose(sub, selection.transpose)
        return sub, selection.labels

    def copy(self) -> "DataCube":
        return DataCube(
            schema=self.schema,
            key=self.key,
            counts=self.counts.copy(),
            resolution=self.resolution,
        )

    def to_dense(self) -> "DataCube":
        """This cube (already dense); interface parity with the sparse form."""
        return self

    def to_sparse(self) -> "SparseCube":
        """The equivalent :class:`SparseCube` (copies the nonzero cells)."""
        flat = np.ascontiguousarray(self.counts).reshape(-1)
        cells = np.flatnonzero(flat)
        return SparseCube(
            schema=self.schema,
            key=self.key,
            cells=cells,
            values=flat[cells],
            resolution=self.resolution,
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SparseCube):
            return other == self
        if not isinstance(other, DataCube):
            return NotImplemented
        return (
            self.key == other.key
            and self.resolution == other.resolution
            and self.schema.shape == other.schema.shape
            and bool(np.array_equal(self.counts, other.counts))
        )

    __hash__ = None  # type: ignore[assignment]  # mutable, like the old dataclass


class SparseCube:
    """A sorted-COO 4-D count cube: only nonzero cells are stored.

    Attributes
    ----------
    schema / key / resolution:
        As on :class:`DataCube`.
    cells:
        Strictly increasing ``int64`` array of *flat* cell indices
        (C-order ravel of the 4-D coordinates).
    values:
        ``int64`` counts parallel to ``cells``; never zero.

    The columnar pair is what the v3 page format serializes (delta
    encoding over ``cells``, run-length encoding over ``values``) and
    what batched rollups concatenate-and-reduce.  Invariants are
    validated at construction so a buggy producer fails loudly instead
    of corrupting aggregates.
    """

    def __init__(
        self,
        schema: CubeSchema,
        key: TemporalKey,
        cells: np.ndarray | None = None,
        values: np.ndarray | None = None,
        resolution: Resolution = RESOLUTION_FULL,
    ) -> None:
        self.schema = schema
        self.key = key
        if resolution not in _VALID_RESOLUTIONS:
            raise DimensionError(f"invalid resolution {resolution!r}")
        self.resolution = resolution
        if cells is None and values is None:
            self.cells: np.ndarray = np.empty(0, dtype=np.int64)
            self.values: np.ndarray = np.empty(0, dtype=np.int64)
            return
        cell_array = np.ascontiguousarray(cells, dtype=np.int64)
        value_array = np.ascontiguousarray(values, dtype=np.int64)
        if cell_array.ndim != 1 or value_array.shape != cell_array.shape:
            raise DimensionError(
                f"cells/values must be parallel 1-D arrays, got shapes "
                f"{cell_array.shape} and {value_array.shape}"
            )
        if cell_array.size:
            if bool((np.diff(cell_array) <= 0).any()):
                raise DimensionError("sparse cells must be strictly increasing")
            if int(cell_array[0]) < 0 or int(cell_array[-1]) >= schema.cell_count:
                raise DimensionError(
                    f"sparse cell index out of range for {schema.cell_count} cells"
                )
            if bool((value_array == 0).any()):
                raise DimensionError("sparse values must be nonzero")
        self.cells = cell_array
        self.values = value_array

    @classmethod
    def _from_validated(
        cls,
        schema: CubeSchema,
        key: TemporalKey,
        cells: np.ndarray,
        values: np.ndarray,
        resolution: Resolution,
    ) -> "SparseCube":
        """Wrap int64 arrays whose invariants are already proven.

        For the page decoder alone: ``storage.serializer`` checks every
        invariant ``__init__`` does on the encoded stream, where it is
        cheaper.  Every other producer goes through ``__init__``.
        """
        cube = cls.__new__(cls)
        cube.schema = schema
        cube.key = key
        cube.resolution = resolution
        cube.cells = cells
        cube.values = values
        return cube

    def __repr__(self) -> str:
        return (
            f"SparseCube(key={self.key}, resolution={self.resolution!r}, "
            f"nnz={self.nnz}, total={self.total})"
        )

    # -- sizing ---------------------------------------------------------

    @property
    def cell_count(self) -> int:
        return self.schema.cell_count

    @property
    def nnz(self) -> int:
        return int(self.cells.size)

    @property
    def density(self) -> float:
        return self.nnz / self.cell_count

    @property
    def nbytes(self) -> int:
        """In-memory payload bytes (16 per populated cell)."""
        return int(self.cells.nbytes + self.values.nbytes)

    @property
    def total(self) -> int:
        return int(self.values.sum())

    @property
    def counts(self) -> np.ndarray:
        """The dense count array (materialized on demand, O(cells)).

        Provided for interface parity and diagnostics; hot paths use
        the native sparse operations instead.
        """
        flat = np.zeros(self.cell_count, dtype=np.int64)
        flat[self.cells] = self.values
        return flat.reshape(self.schema.shape)

    # -- build ----------------------------------------------------------

    def record(
        self, element_type: str, country: str, road_type: str, update_type: str
    ) -> None:
        """Count one update in its cell."""
        coords = self.schema.encode(element_type, country, road_type, update_type)
        self.record_codes(coords)

    def record_codes(self, coords: tuple[int, int, int, int], count: int = 1) -> None:
        """Count pre-encoded updates (O(nnz) insert; builds use bulk_record)."""
        flat = int(np.ravel_multi_index(coords, self.schema.shape))
        position = int(np.searchsorted(self.cells, flat))
        if position < self.cells.size and int(self.cells[position]) == flat:
            new_value = int(self.values[position]) + count
            if new_value == 0:
                self.cells = np.delete(self.cells, position)
                self.values = np.delete(self.values, position)
            else:
                self.values[position] = new_value
        elif count != 0:
            self.cells = np.insert(self.cells, position, flat)
            self.values = np.insert(self.values, position, count)

    def bulk_record(self, coded: np.ndarray) -> None:
        """Count a batch of pre-encoded updates in one vectorized merge."""
        coded = np.asarray(coded)
        if coded.ndim != 2 or coded.shape[1] != 4:
            raise DimensionError(f"expected (n, 4) coordinate array, got {coded.shape}")
        if not len(coded):
            return
        flat = np.ravel_multi_index(
            (coded[:, 0], coded[:, 1], coded[:, 2], coded[:, 3]),
            self.schema.shape,
        )
        new_cells, new_values = np.unique(flat, return_counts=True)
        self._merge(new_cells.astype(np.int64), new_values.astype(np.int64))

    def _merge(self, cells: np.ndarray, values: np.ndarray) -> None:
        self.cells, self.values = _coalesce(
            np.concatenate((self.cells, cells)),
            np.concatenate((self.values, values)),
        )

    def add(self, other: "AnyCube") -> None:
        """Accumulate another cube's counts (either form) into this one."""
        if other.schema.shape != self.schema.shape:
            raise DimensionError(
                f"cannot combine cubes of shapes {self.schema.shape} "
                f"and {other.schema.shape}"
            )
        if isinstance(other, SparseCube):
            self._merge(other.cells, other.values)
        else:
            flat = np.ascontiguousarray(other.counts).reshape(-1)
            cells = np.flatnonzero(flat)
            self._merge(cells, flat[cells])
        if other.resolution == RESOLUTION_COARSE:
            self.resolution = RESOLUTION_COARSE

    # -- representation switching ---------------------------------------

    def to_dense(self) -> DataCube:
        """The equivalent dense :class:`DataCube`."""
        return DataCube(
            schema=self.schema,
            key=self.key,
            counts=self.counts,
            resolution=self.resolution,
        )

    def to_sparse(self) -> "SparseCube":
        """This cube (already sparse); interface parity with the dense form."""
        return self

    def maybe_densify(
        self, threshold: float = DEFAULT_SPARSE_THRESHOLD
    ) -> "AnyCube":
        """Densify when the populated fraction crosses ``threshold``."""
        if self.density >= threshold:
            return self.to_dense()
        return self

    # -- query ----------------------------------------------------------

    def cell(
        self, element_type: str, country: str, road_type: str, update_type: str
    ) -> int:
        coords = self.schema.encode(element_type, country, road_type, update_type)
        flat = int(np.ravel_multi_index(coords, self.schema.shape))
        position = int(np.searchsorted(self.cells, flat))
        if position < self.cells.size and int(self.cells[position]) == flat:
            return int(self.values[position])
        return 0

    def aggregate(
        self,
        filters: Filters = None,
        group_by: Sequence[str] = (),
    ) -> dict[tuple[str, ...], int]:
        """Filter and aggregate natively on the sparse form.

        Same contract as :meth:`DataCube.aggregate`; cost is O(nnz),
        never O(cells).
        """
        return _aggregate_rows(self, filters, group_by)

    def aggregate_array(
        self,
        filters: Filters = None,
        group_by: Sequence[str] = (),
    ) -> tuple[np.ndarray, list[list[str]]]:
        """Filter/group in one vectorized pass over the nonzero cells.

        Returns the reduced dense array (small: one axis per group-by
        entry) plus labels, exactly like the dense implementation —
        the 540 K-cell cube itself is never materialized.  Each cell's
        flat index goes through the :class:`Selection`'s two tables to
        its output bin; one mask drops the filtered cells and one
        ``np.add.at`` accumulates in exact int64 (``np.bincount`` with
        weights would round through float64).
        """
        selection = _compiled(self.schema, filters, group_by)
        # (np.divmod costs more than floor-divide, multiply and subtract.)
        outer = self.cells // selection.inner_size
        bins = selection.outer_bins[outer]
        outer *= selection.inner_size
        bins += selection.inner_bins[self.cells - outer]
        values = self.values
        if selection.filtered:
            keep = bins >= 0
            bins = bins[keep]
            values = values[keep]
        if not selection.out_shape:
            return np.asarray(values.sum(), dtype=np.int64), selection.labels
        reduced = np.zeros(selection.out_shape, dtype=np.int64)
        np.add.at(reduced.reshape(-1), bins, values)
        return reduced, selection.labels

    def copy(self) -> "SparseCube":
        return SparseCube(
            schema=self.schema,
            key=self.key,
            cells=self.cells.copy(),
            values=self.values.copy(),
            resolution=self.resolution,
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SparseCube):
            return (
                self.key == other.key
                and self.resolution == other.resolution
                and self.schema.shape == other.schema.shape
                and bool(np.array_equal(self.cells, other.cells))
                and bool(np.array_equal(self.values, other.values))
            )
        if isinstance(other, DataCube):
            if (
                self.key != other.key
                or self.resolution != other.resolution
                or self.schema.shape != other.schema.shape
            ):
                return False
            flat = np.ascontiguousarray(other.counts).reshape(-1)
            cells = np.flatnonzero(flat)
            return bool(
                np.array_equal(self.cells, cells)
                and np.array_equal(self.values, flat[cells])
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable, like DataCube


#: Either cube representation; both implement the same interface.
AnyCube = Union[DataCube, SparseCube]


def _aggregate_rows(
    cube: AnyCube,
    filters: Filters,
    group_by: Sequence[str],
) -> dict[tuple[str, ...], int]:
    """``aggregate`` of either form: the array kernel, shaped into rows."""
    reduced, labels = cube.aggregate_array(filters, group_by)
    if not labels:
        return {(): int(reduced)}
    columns, values = nonzero_columns(reduced, labels)
    return dict(zip(zip(*columns), values))


def as_dense(cube: AnyCube) -> DataCube:
    """``cube`` in dense form (no copy when already dense)."""
    return cube.to_dense()


def as_sparse(cube: AnyCube) -> SparseCube:
    """``cube`` in sparse form (no copy when already sparse)."""
    return cube.to_sparse()


def empty_like(cube: AnyCube, key: TemporalKey) -> DataCube:
    """A zeroed dense cube sharing ``cube``'s schema, covering ``key``."""
    return DataCube(schema=cube.schema, key=key)


def sum_cubes(
    schema: CubeSchema,
    key: TemporalKey,
    children: Iterable[AnyCube],
    sparse: bool | None = None,
) -> AnyCube:
    """Roll child cubes up into a parent cube for ``key`` in one batch.

    This is the paper's index-maintenance step: a weekly cube is the sum
    of its seven dailies, a monthly cube the sum of four weeklies plus
    leftover dailies, a yearly cube the sum of twelve monthlies.

    Children are merged in one vectorized pass per representation
    rather than N sequential ``add`` calls: dense children reduce via
    chunked ``np.add.reduce`` (:func:`sum_arrays`); sparse children via
    one concatenate-sort-``reduceat`` (:func:`_coalesce`) while the
    combined entry count stays small, switching to a dense
    scatter-accumulator (each child's cells are already unique, so
    ``flat[cells] += values`` is exact) once the inputs hold enough
    entries that the O(M log M) sort would dominate the O(M + cells)
    scatter — the month/quarter/year rollup regime, where the merged
    cube usually densifies anyway.

    ``sparse`` picks the result form: ``True``/``False`` force it;
    ``None`` (default) keeps the historical dense result unless *every*
    child is sparse, in which case the merged cube stays sparse until
    its density crosses :data:`DEFAULT_SPARSE_THRESHOLD` (auto-densify).
    """
    kids = list(children)
    resolution = RESOLUTION_FULL
    dense_arrays: list[np.ndarray] = []
    sparse_cells: list[np.ndarray] = []
    sparse_values: list[np.ndarray] = []
    for child in kids:
        if child.schema.shape != schema.shape:
            raise DimensionError(
                f"cannot combine cubes of shapes {schema.shape} "
                f"and {child.schema.shape}"
            )
        if child.resolution == RESOLUTION_COARSE:
            resolution = RESOLUTION_COARSE
        if isinstance(child, SparseCube):
            sparse_cells.append(child.cells)
            sparse_values.append(child.values)
        else:
            dense_arrays.append(child.counts)
    if sparse is None:
        make_sparse = bool(kids) and not dense_arrays
    else:
        make_sparse = sparse
    cell_count = int(np.prod(schema.shape))
    total_entries = sum(c.size for c in sparse_cells)
    if make_sparse:
        # Cost crossover: the sort-based coalesce is O(M log M) in the
        # combined entry count M; a dense scatter pass is O(M + cells).
        # Past M ~ cells/8 (or with any dense child, whose extraction
        # already costs a full scan) the scatter wins.
        if dense_arrays or total_entries >= cell_count // 8:
            flat = np.zeros(cell_count, dtype=np.int64)
            for array in dense_arrays:
                flat += np.ascontiguousarray(array).reshape(-1)
            for child_cells, child_values in zip(sparse_cells, sparse_values):
                flat[child_cells] += child_values
            if (
                sparse is None
                and np.count_nonzero(flat) >= DEFAULT_SPARSE_THRESHOLD * cell_count
            ):
                # Would densify anyway — skip the COO round-trip.
                return DataCube(
                    schema=schema,
                    key=key,
                    counts=flat.reshape(schema.shape),
                    resolution=resolution,
                )
            cells = np.flatnonzero(flat)
            values = flat[cells]
        elif sparse_cells:
            cells, values = _coalesce(
                np.concatenate(sparse_cells), np.concatenate(sparse_values)
            )
        else:
            cells = np.empty(0, dtype=np.int64)
            values = np.empty(0, dtype=np.int64)
        merged = SparseCube(
            schema=schema, key=key, cells=cells, values=values, resolution=resolution
        )
        if sparse is None:
            return merged.maybe_densify()
        return merged
    if dense_arrays:
        counts = sum_arrays(dense_arrays)
    else:
        counts = np.zeros(schema.shape, dtype=np.int64)
    if sparse_cells:
        # Per-child scatter adds: cells are unique within one child, so
        # fancy-index ``+=`` is exact and avoids the coalesce sort.
        flat_view = counts.reshape(-1)
        for child_cells, child_values in zip(sparse_cells, sparse_values):
            flat_view[child_cells] += child_values
    return DataCube(schema=schema, key=key, counts=counts, resolution=resolution)
