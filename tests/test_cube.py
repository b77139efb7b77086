"""Tests for the 4-D data cube: building, rollups, in-memory aggregation.

Cubes are built in the sparse form; the dense form is the read-only
densified one, so dense cubes here come from ``to_dense`` or wrap a
counts array directly.
"""

from __future__ import annotations

from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.types.temporal import day_key, month_key, week_key
from repro.types.cube import (
    DataCube,
    RESOLUTION_COARSE,
    RESOLUTION_FULL,
    Selection,
    SparseCube,
    sum_arrays,
    sum_cubes,
)
from repro.types.dimensions import default_schema
from repro.errors import DimensionError


@pytest.fixture()
def cube(tiny_schema):
    return SparseCube(schema=tiny_schema, key=day_key(date(2021, 3, 5)))


def built(schema, key, *records, resolution=RESOLUTION_FULL):
    """A sparse cube holding one count per record."""
    cube = SparseCube(schema=schema, key=key, resolution=resolution)
    for record in records:
        cube.record(*record)
    return cube


def cell(cube, *labels):
    """The count in one cell, read through the dense view."""
    return int(cube.counts[cube.schema.encode(*labels)])


def records_strategy(schema):
    return st.lists(
        st.tuples(
            st.sampled_from(schema.element_type.values),
            st.sampled_from(schema.country.values),
            st.sampled_from(schema.road_type.values),
            st.sampled_from(schema.update_type.values),
        ),
        max_size=60,
    )


class TestConstruction:
    def test_new_cube_is_zero(self, cube):
        assert cube.total == 0
        assert cube.counts.dtype == np.int64

    def test_shape_matches_schema(self, cube, tiny_schema):
        assert cube.counts.shape == tiny_schema.shape
        assert cube.cell_count == tiny_schema.cell_count

    def test_nbytes_is_8_per_cell(self, cube):
        dense = cube.to_dense()
        assert dense.nbytes == dense.cell_count * 8 == cube.cell_count * 8

    def test_wrong_shape_rejected(self, tiny_schema):
        with pytest.raises(DimensionError, match="shape"):
            DataCube(
                schema=tiny_schema,
                key=day_key(date(2021, 1, 1)),
                counts=np.zeros((2, 2, 2, 2)),
            )

    def test_invalid_resolution_rejected(self, tiny_schema):
        with pytest.raises(DimensionError, match="resolution"):
            DataCube(
                schema=tiny_schema,
                key=day_key(date(2021, 1, 1)),
                counts=np.zeros(tiny_schema.shape, dtype=np.int64),
                resolution="fuzzy",
            )
        with pytest.raises(DimensionError, match="resolution"):
            SparseCube(
                schema=tiny_schema, key=day_key(date(2021, 1, 1)), resolution="fuzzy"
            )

    def test_dense_counts_are_read_only(self, tiny_schema):
        """The dense form has no mutators and its counts never accept a
        write; a writable source is wrapped in a view, not copied, and
        stays writable."""
        counts = np.zeros(tiny_schema.shape, dtype=np.int64)
        counts[0, 0, 0, 0] = 4
        cube = DataCube(schema=tiny_schema, key=day_key(date(2021, 3, 5)), counts=counts)
        assert not cube.counts.flags.writeable
        assert np.shares_memory(cube.counts, counts)
        with pytest.raises(ValueError):
            cube.counts[0, 0, 0, 0] = 1
        assert counts.flags.writeable and cube.total == 4
        for mutator in ("record", "bulk_record", "add", "copy"):
            assert not hasattr(cube, mutator)


class TestRecording:
    def test_record_increments_one_cell(self, cube):
        cube.record("way", "germany", "residential", "create")
        assert cube.total == 1 == cube.nnz
        assert cell(cube, "way", "germany", "residential", "create") == 1

    def test_record_codes(self, cube, tiny_schema):
        """Pre-encoded coordinates (what a day's scan produces) count
        into the cells they name, merged with what is already there."""
        coords = tiny_schema.encode("node", "qatar", "primary", "delete")
        other = tiny_schema.encode("way", "germany", "primary", "create")
        cube.bulk_record(np.array([coords, other]))
        cube.bulk_record(np.array([coords, coords]))
        assert cell(cube, "node", "qatar", "primary", "delete") == 3
        assert cell(cube, "way", "germany", "primary", "create") == 1
        assert cube.nnz == 2 and bool((np.diff(cube.cells) > 0).all())

    def test_bulk_record_accumulates_duplicates(self, cube, tiny_schema):
        coords = tiny_schema.encode("way", "germany", "service", "geometry")
        batch = np.array([coords, coords, coords])
        cube.bulk_record(batch)
        assert cell(cube, "way", "germany", "service", "geometry") == 3

    def test_bulk_record_empty_shape_rejected(self, cube):
        with pytest.raises(DimensionError):
            cube.bulk_record(np.zeros((3, 2), dtype=np.int64))

    def test_record_unknown_value_raises(self, cube):
        with pytest.raises(DimensionError):
            cube.record("way", "nowhere", "residential", "create")

    @given(st.data())
    @settings(max_examples=25)
    def test_total_equals_record_count(self, data):
        schema = default_schema(["a", "b"], road_types=3)
        records = data.draw(records_strategy(schema))
        cube = built(schema, day_key(date(2021, 1, 1)), *records)
        assert cube.total == len(records)


class TestAddAndRollup:
    """Rollups add cubes through :func:`sum_cubes` (there is no in-place
    ``add``)."""

    def test_add_sums_counts(self, tiny_schema):
        a = built(tiny_schema, day_key(date(2021, 3, 1)),
                  ("way", "germany", "residential", "create"))
        b = built(tiny_schema, day_key(date(2021, 3, 2)),
                  ("way", "germany", "residential", "create"),
                  ("node", "qatar", "primary", "delete"))
        merged = sum_cubes(tiny_schema, week_key(2021, 3, 0), [a, b])
        assert merged.total == 3
        assert cell(merged, "way", "germany", "residential", "create") == 2
        assert (a.total, b.total) == (1, 2)  # children untouched

    def test_add_coarse_poisons_resolution(self, tiny_schema):
        full = built(tiny_schema, day_key(date(2021, 3, 1)), resolution=RESOLUTION_FULL)
        coarse = built(
            tiny_schema, day_key(date(2021, 3, 2)), resolution=RESOLUTION_COARSE
        )
        key = week_key(2021, 3, 0)
        assert sum_cubes(tiny_schema, key, [full]).resolution == RESOLUTION_FULL
        assert sum_cubes(tiny_schema, key, [full, coarse]).resolution == RESOLUTION_COARSE

    def test_add_incompatible_shapes_rejected(self, tiny_schema):
        other_schema = default_schema(["x"], road_types=2)
        a = SparseCube(schema=tiny_schema, key=day_key(date(2021, 3, 1)))
        b = SparseCube(schema=other_schema, key=day_key(date(2021, 3, 1)))
        with pytest.raises(DimensionError):
            sum_cubes(tiny_schema, week_key(2021, 3, 0), [a, b])
        with pytest.raises(DimensionError):
            sum_cubes(tiny_schema, week_key(2021, 3, 0), [a, b.to_dense()])

    def test_sum_cubes_matches_manual_total(self, tiny_schema):
        children = [
            built(tiny_schema, day_key(date(2021, 3, day)),
                  ("way", "germany", "residential", "create"))
            for day in range(1, 8)
        ]
        parent = sum_cubes(tiny_schema, week_key(2021, 3, 0), children)
        assert parent.total == 7
        assert parent.key == week_key(2021, 3, 0)

    def test_empty_like_is_zero_with_new_key(self, tiny_schema):
        """A parent with no children (an index bootstrapped mid-week)
        is an empty cube under the parent's key."""
        empty = sum_cubes(tiny_schema, week_key(2021, 3, 0), [])
        assert isinstance(empty, SparseCube)
        assert empty.total == 0 == empty.nnz
        assert empty.key == week_key(2021, 3, 0)

    def test_copy_is_independent(self, cube):
        """The densified form is a copy: the sparse cube it came from
        keeps building without it."""
        cube.record("way", "germany", "residential", "create")
        dense = cube.to_dense()
        cube.record("way", "germany", "residential", "create")
        assert dense.total == 1
        assert cube.total == 2

    def test_equality(self, tiny_schema):
        a = SparseCube(schema=tiny_schema, key=day_key(date(2021, 3, 1)))
        b = SparseCube(schema=tiny_schema, key=day_key(date(2021, 3, 1)))
        assert a == b
        b.record("way", "germany", "residential", "create")
        assert a != b


class TestAggregation:
    @pytest.fixture()
    def loaded(self, tiny_schema):
        return built(
            tiny_schema,
            day_key(date(2021, 3, 5)),
            ("way", "germany", "residential", "create"),
            ("way", "germany", "residential", "create"),
            ("way", "germany", "service", "geometry"),
            ("node", "qatar", "primary", "create"),
            ("relation", "united_states", "residential", "metadata"),
        )

    def test_no_filters_no_group_gives_total(self, loaded):
        assert loaded.aggregate() == {(): 5}

    def test_filter_country(self, loaded):
        assert loaded.aggregate({"country": ["germany"]}) == {(): 3}

    def test_filter_multiple_axes(self, loaded):
        result = loaded.aggregate(
            {"country": ["germany"], "update_type": ["create"]}
        )
        assert result == {(): 2}

    def test_group_by_single_axis(self, loaded):
        result = loaded.aggregate(group_by=("element_type",))
        assert result == {("way",): 3, ("node",): 1, ("relation",): 1}

    def test_group_by_two_axes_ordered(self, loaded):
        result = loaded.aggregate(group_by=("country", "update_type"))
        assert result[("germany", "create")] == 2
        assert result[("qatar", "create")] == 1

    def test_group_by_order_is_respected(self, loaded):
        swapped = loaded.aggregate(group_by=("update_type", "country"))
        assert swapped[("create", "germany")] == 2

    def test_filter_and_group_combined(self, loaded):
        result = loaded.aggregate(
            {"element_type": ["way"]}, group_by=("road_type",)
        )
        assert result == {("residential",): 2, ("service",): 1}

    def test_zero_groups_are_omitted(self, loaded):
        result = loaded.aggregate(group_by=("country",))
        assert ("united_states",) in result
        assert all(value > 0 for value in result.values())

    def test_duplicate_filter_values_count_once(self, loaded):
        # Regression: np.take with a repeated code selected the same
        # slice twice, so ["germany", "germany"] double-counted germany.
        once = loaded.aggregate({"country": ["germany"]})
        twice = loaded.aggregate({"country": ["germany", "germany"]})
        assert twice == once

    def test_duplicate_filter_values_grouped(self, loaded):
        result = loaded.aggregate(
            {"country": ["germany", "qatar", "germany"]},
            group_by=("country",),
        )
        assert result == {("germany",): 3, ("qatar",): 1}

    def test_duplicate_filter_labels_deduped_in_array(self, loaded):
        array, labels = loaded.aggregate_array(
            {"country": ["germany", "germany", "qatar"]},
            group_by=("country",),
        )
        assert labels[0] == ["germany", "qatar"]
        assert array.shape == (2,)

    def test_unknown_filter_axis_raises(self, loaded):
        with pytest.raises(DimensionError):
            loaded.aggregate({"color": ["red"]})

    def test_unknown_group_axis_raises(self, loaded):
        with pytest.raises(DimensionError):
            loaded.aggregate(group_by=("color",))

    def test_duplicate_group_axis_raises(self, loaded):
        with pytest.raises(DimensionError):
            loaded.aggregate(group_by=("country", "country"))

    def test_aggregate_array_matches_aggregate(self, loaded):
        array, labels = loaded.aggregate_array(
            {"element_type": ["way"]}, group_by=("country", "road_type")
        )
        as_dict = loaded.aggregate(
            {"element_type": ["way"]}, group_by=("country", "road_type")
        )
        for idx, value in np.ndenumerate(array):
            key = (labels[0][idx[0]], labels[1][idx[1]])
            assert as_dict.get(key, 0) == int(value)

    @given(st.data())
    @settings(max_examples=25)
    def test_group_by_partitions_total(self, data):
        """Any group-by's values sum to the filtered total (no loss)."""
        schema = default_schema(["a", "b", "c"], road_types=4)
        cube = built(
            schema, day_key(date(2021, 1, 1)), *data.draw(records_strategy(schema))
        )
        axes = data.draw(
            st.lists(
                st.sampled_from(schema.AXES), unique=True, min_size=1, max_size=3
            )
        )
        grouped = cube.aggregate(group_by=tuple(axes))
        assert sum(grouped.values()) == cube.total

    @given(st.data())
    @settings(max_examples=25)
    def test_filters_partition_by_axis_values(self, data):
        """Filtering each single value of an axis partitions the total."""
        schema = default_schema(["a", "b"], road_types=3)
        cube = built(
            schema, day_key(date(2021, 1, 1)), *data.draw(records_strategy(schema))
        )
        axis = data.draw(st.sampled_from(schema.AXES))
        dim = schema.dimension(axis)
        parts = sum(
            cube.aggregate({axis: [value]})[()] for value in dim.values
        )
        assert parts == cube.total


class TestSparseCube:
    @pytest.fixture()
    def pair(self, tiny_schema):
        """The same five records in both representations (the dense
        one counted cell by cell into a plain array)."""
        records = (
            ("way", "germany", "residential", "create"),
            ("way", "germany", "residential", "create"),
            ("way", "germany", "service", "geometry"),
            ("node", "qatar", "primary", "create"),
            ("relation", "united_states", "residential", "metadata"),
        )
        counts = np.zeros(tiny_schema.shape, dtype=np.int64)
        for record in records:
            counts[tiny_schema.encode(*record)] += 1
        key = day_key(date(2021, 3, 5))
        dense = DataCube(schema=tiny_schema, key=key, counts=counts)
        return dense, built(tiny_schema, key, *records)

    def test_new_sparse_cube_is_empty(self, tiny_schema):
        cube = SparseCube(schema=tiny_schema, key=day_key(date(2021, 3, 5)))
        assert cube.nnz == 0
        assert cube.total == 0
        assert cube.density == 0.0

    def test_unsorted_cells_rejected(self, tiny_schema):
        with pytest.raises(DimensionError, match="increasing"):
            SparseCube(
                schema=tiny_schema,
                key=day_key(date(2021, 3, 5)),
                cells=np.array([5, 2]),
                values=np.array([1, 1]),
            )

    def test_out_of_range_cell_rejected(self, tiny_schema):
        with pytest.raises(DimensionError, match="range"):
            SparseCube(
                schema=tiny_schema,
                key=day_key(date(2021, 3, 5)),
                cells=np.array([tiny_schema.cell_count]),
                values=np.array([1]),
            )

    def test_zero_value_rejected(self, tiny_schema):
        with pytest.raises(DimensionError, match="nonzero"):
            SparseCube(
                schema=tiny_schema,
                key=day_key(date(2021, 3, 5)),
                cells=np.array([3]),
                values=np.array([0]),
            )

    def test_counts_match_dense(self, pair):
        dense, sparse = pair
        assert np.array_equal(sparse.counts, dense.counts)

    def test_cross_form_equality(self, pair):
        dense, sparse = pair
        assert sparse == dense
        assert dense == sparse
        sparse.record("way", "qatar", "service", "delete")
        assert sparse != dense

    def test_cell_lookup_matches_dense(self, pair):
        dense, sparse = pair
        for form in pair:
            assert cell(form, "way", "germany", "residential", "create") == 2
            assert cell(form, "node", "germany", "primary", "delete") == 0

    def test_nbytes_is_16_per_populated_cell(self, pair):
        _, sparse = pair
        assert sparse.nbytes == sparse.nnz * 16
        assert sparse.nbytes < sparse.cell_count * 8

    def test_round_trip_through_forms(self, pair):
        """Sparse -> dense by ``to_dense``; dense -> sparse by rolling
        it up alone (a low-density merge stays sparse)."""
        dense, sparse = pair
        assert sparse.to_dense() == dense
        back = sum_cubes(dense.schema, dense.key, [dense])
        assert isinstance(back, SparseCube)
        assert back == sparse

    def test_add_dense_into_sparse(self, pair):
        dense, sparse = pair
        merged = sum_cubes(sparse.schema, sparse.key, [sparse, dense])
        assert merged.total == 2 * dense.total
        assert np.array_equal(merged.counts, 2 * dense.counts)

    def test_record_codes_cancellation_removes_cell(self, tiny_schema):
        """Counts that cancel leave no zero-valued cell behind."""
        key = day_key(date(2021, 3, 5))
        flat = np.ravel_multi_index(
            tiny_schema.encode("way", "germany", "residential", "create"),
            tiny_schema.shape,
        )
        plus = SparseCube(schema=tiny_schema, key=key, cells=[flat, flat + 1], values=[2, 1])
        minus = SparseCube(schema=tiny_schema, key=key, cells=[flat], values=[-2])
        merged = sum_cubes(tiny_schema, key, [plus, minus])
        assert merged.nnz == 1 and merged.total == 1
        assert merged.cells.tolist() == [flat + 1]

    def test_maybe_densify_threshold(self, pair):
        _, sparse = pair
        assert sparse.maybe_densify(0.5) is sparse
        dense = sparse.maybe_densify(sparse.density)  # density >= threshold
        assert isinstance(dense, DataCube)
        assert dense == sparse

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_aggregate_parity_with_dense(self, data):
        """The compiled selection against two references.

        Random cubes x filters (values unsorted, repeated, an empty
        list, ``None``) x every group-by order: the sparse kernel, the
        dense form and a brute-force loop over cells agree on the
        reduced array *and* its labels (filter order, duplicates once),
        through a precompiled :class:`Selection` and through the
        ``(filters, group_by)`` call form alike.
        """
        schema = default_schema(["a", "b", "c"], road_types=4)
        sparse = SparseCube(schema=schema, key=day_key(date(2021, 1, 1)))
        records = data.draw(records_strategy(schema))
        counts = np.zeros(schema.shape, dtype=np.int64)
        for record in records:
            counts[schema.encode(*record)] += 1
        dense = DataCube(schema=schema, key=day_key(date(2021, 1, 1)), counts=counts)
        coded = np.array(
            [schema.encode(*record) for record in records], dtype=np.int64
        ).reshape(-1, 4)
        if len(records):
            sparse.bulk_record(coded)
        group_by = tuple(
            data.draw(st.permutations(schema.AXES))[
                : data.draw(st.integers(min_value=0, max_value=4))
            ]
        )
        filters = {
            axis: data.draw(
                st.none() | st.lists(st.sampled_from(schema.dimension(axis).values))
            )
            for axis in data.draw(st.lists(st.sampled_from(schema.AXES), unique=True))
        }

        # Brute force: labels by the documented rule, then every cell.
        labels = []
        for axis in group_by:
            allowed = filters.get(axis)
            labels.append(
                list(schema.dimension(axis).values)
                if allowed is None
                else list(dict.fromkeys(allowed))
            )
        expected = np.zeros([len(values) for values in labels], dtype=np.int64)
        for coords in np.ndindex(*schema.shape):
            cell = dict(zip(schema.AXES, schema.decode(coords)))
            if all(
                allowed is None or cell[axis] in allowed
                for axis, allowed in filters.items()
            ):
                bin_ = tuple(
                    labels[i].index(cell[axis]) for i, axis in enumerate(group_by)
                )
                expected[bin_] += int(dense.counts[coords])

        selection = Selection(schema, filters, group_by)
        for cube in (sparse, dense):
            for array, got_labels in (
                cube.aggregate_array(selection),
                cube.aggregate_array(filters, group_by),
            ):
                assert got_labels == labels
                assert np.array_equal(array, expected)
                assert np.asarray(array).dtype == np.int64
            rows = {
                tuple(labels[i][p] for i, p in enumerate(position)): int(value)
                for position, value in np.ndenumerate(expected)
                if value
            }
            if not group_by:
                rows = {(): int(expected)}
            assert cube.aggregate(selection) == rows
            assert cube.aggregate(filters, group_by) == rows

    def test_aggregation_is_exact_past_float64(self, tiny_schema):
        """No float accumulate: 2**53 + 1 survives, sums near 2**62 too."""
        big = (1 << 53) + 1
        near = (1 << 61) - 3
        entries = sorted(
            (int(np.ravel_multi_index(tiny_schema.encode(*coords), tiny_schema.shape)), count)
            for coords, count in (
                (("way", "germany", "residential", "create"), big),
                (("way", "germany", "service", "create"), 2),
                (("node", "qatar", "primary", "create"), near),
                (("node", "qatar", "primary", "delete"), near),
                (("relation", "qatar", "primary", "delete"), 5),
            )
        )
        cube = SparseCube(
            schema=tiny_schema,
            key=day_key(date(2021, 3, 5)),
            cells=[flat for flat, _ in entries],
            values=[count for _, count in entries],
        )
        for form in (cube, cube.to_dense()):
            by_country, labels = form.aggregate_array({}, ("country",))
            assert dict(zip(labels[0], by_country.tolist())) == {
                "united_states": 0,
                "germany": big + 2,
                "qatar": 2 * near + 5,
            }
            assert form.aggregate({"country": ["germany"], "road_type": ["residential"]}) == {
                (): big
            }
            assert form.aggregate()[()] == big + 2 + 2 * near + 5

    def test_selection_of_another_schema_is_rejected(self, tiny_schema, pair):
        other = default_schema(["a", "b", "c"], road_types=4)
        for cube in pair:
            with pytest.raises(DimensionError, match="another schema"):
                cube.aggregate_array(Selection(other, {}, ("country",)))


class TestSumCubesForms:
    def _children(self, schema, days=7, sparse=False):
        cubes = []
        for day in range(1, days + 1):
            child = built(
                schema,
                day_key(date(2021, 3, day)),
                ("way", "germany", "residential", "create"),
                ("node", "qatar", "primary", "delete"),
            )
            cubes.append(child if sparse else child.to_dense())
        return cubes

    def test_all_sparse_children_stay_sparse_below_threshold(self, tiny_schema):
        merged = sum_cubes(
            tiny_schema,
            week_key(2021, 3, 0),
            self._children(tiny_schema, sparse=True),
        )
        assert isinstance(merged, SparseCube)
        assert merged.total == 14
        assert merged.nnz == 2

    def test_mixed_children_match_all_dense(self, tiny_schema):
        dense = self._children(tiny_schema, days=4)
        sparse = self._children(tiny_schema, days=4, sparse=True)
        mixed = dense[:2] + sparse[2:]
        expected = sum_cubes(tiny_schema, week_key(2021, 3, 0), dense)
        merged = sum_cubes(tiny_schema, week_key(2021, 3, 0), mixed)
        assert merged == expected
        assert merged == sum_cubes(tiny_schema, week_key(2021, 3, 0), sparse)

    def test_dense_children_merge_sparse_below_threshold(self, tiny_schema):
        """A child's form does not pick the parent's: dense children
        take the scatter path and the parent densifies only by density."""
        dense = self._children(tiny_schema, days=4)
        merged = sum_cubes(tiny_schema, week_key(2021, 3, 0), dense)
        assert isinstance(merged, SparseCube)
        assert merged.total == 8 and merged.nnz == 2

    def test_auto_densify_past_threshold(self):
        schema = default_schema(["a"], road_types=2)  # 72 cells
        cells = np.arange(1, schema.cell_count, dtype=np.int64)
        children = [
            SparseCube(
                schema=schema, key=day_key(date(2021, 3, day)), cells=cells, values=cells
            )
            for day in range(1, 4)
        ]
        merged = sum_cubes(schema, week_key(2021, 3, 0), children)
        assert isinstance(merged, DataCube)  # density ~1 >= threshold
        assert merged.total == 3 * int(cells.sum())
        assert sum_cubes(schema, week_key(2021, 3, 0), [merged]) == merged

    def test_scatter_and_coalesce_paths_agree(self, tiny_schema):
        """The large-batch scatter fast path must match the sort-based
        coalesce merge exactly (regression for the crossover heuristic)."""
        rng = np.random.default_rng(5)
        children = []
        for day in range(1, 31):
            cells = np.sort(
                rng.choice(tiny_schema.cell_count, size=40, replace=False)
            ).astype(np.int64)
            values = rng.integers(1, 9, size=40).astype(np.int64)
            children.append(
                SparseCube(
                    schema=tiny_schema,
                    key=day_key(date(2021, 3, day)),
                    cells=cells,
                    values=values,
                )
            )
        # 30 x 40 = 1200 entries >= 288 // 8 cells: the scatter path.
        merged = sum_cubes(tiny_schema, month_key(2021, 3), children)
        assert merged == self._scatter_reference(tiny_schema, children)
        # The small-batch coalesce path agrees too (few enough entries
        # that the crossover heuristic keeps the sort-based merge).
        few = [
            SparseCube(
                schema=tiny_schema,
                key=child.key,
                cells=child.cells[:8],
                values=child.values[:8],
            )
            for child in children[:2]
        ]
        small = sum_cubes(tiny_schema, month_key(2021, 3), few)
        assert isinstance(small, SparseCube)
        assert small == self._scatter_reference(tiny_schema, few)

    @staticmethod
    def _scatter_reference(schema, children):
        """A month cube summed cell by cell, independent of sum_cubes."""
        flat = np.zeros(schema.cell_count, dtype=np.int64)
        for child in children:
            np.add.at(flat, child.cells, child.values)
        return DataCube(
            schema=schema, key=month_key(2021, 3), counts=flat.reshape(schema.shape)
        )

    def test_sum_arrays_small_and_streamed_agree(self):
        rng = np.random.default_rng(9)
        small = [rng.integers(0, 7, size=(3, 4, 2, 4)) for _ in range(40)]
        expected = np.zeros((3, 4, 2, 4), dtype=np.int64)
        for array in small:
            expected += array
        assert np.array_equal(sum_arrays(small), expected)
        # Force the streaming branch with arrays past the stack limit.
        big = [
            rng.integers(0, 7, size=(3, 110, 110, 4)).astype(np.int64)
            for _ in range(3)
        ]
        assert np.array_equal(sum_arrays(big), big[0] + big[1] + big[2])

    def test_sum_arrays_empty_rejected(self):
        with pytest.raises(DimensionError):
            sum_arrays([])
