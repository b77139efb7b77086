"""Tests for the 4-D data cube: building, rollups, in-memory aggregation."""

from __future__ import annotations

from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.types.temporal import day_key, month_key, week_key
from repro.types.cube import (
    DEFAULT_SPARSE_THRESHOLD,
    DataCube,
    RESOLUTION_COARSE,
    RESOLUTION_FULL,
    Selection,
    SparseCube,
    as_dense,
    as_sparse,
    empty_like,
    sum_arrays,
    sum_cubes,
)
from repro.types.dimensions import default_schema
from repro.errors import DimensionError


@pytest.fixture()
def cube(tiny_schema):
    return DataCube(schema=tiny_schema, key=day_key(date(2021, 3, 5)))


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
        assert cube.nbytes == cube.cell_count * 8

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
                resolution="fuzzy",
            )


class TestRecording:
    def test_record_increments_one_cell(self, cube):
        cube.record("way", "germany", "residential", "create")
        assert cube.total == 1
        assert cube.cell("way", "germany", "residential", "create") == 1

    def test_record_codes(self, cube, tiny_schema):
        coords = tiny_schema.encode("node", "qatar", "primary", "delete")
        cube.record_codes(coords, count=3)
        assert cube.cell("node", "qatar", "primary", "delete") == 3

    def test_bulk_record_accumulates_duplicates(self, cube, tiny_schema):
        coords = tiny_schema.encode("way", "germany", "service", "geometry")
        batch = np.array([coords, coords, coords])
        cube.bulk_record(batch)
        assert cube.cell("way", "germany", "service", "geometry") == 3

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
        cube = DataCube(schema=schema, key=day_key(date(2021, 1, 1)))
        records = data.draw(records_strategy(schema))
        for record in records:
            cube.record(*record)
        assert cube.total == len(records)


class TestAddAndRollup:
    def test_add_sums_counts(self, tiny_schema):
        a = DataCube(schema=tiny_schema, key=day_key(date(2021, 3, 1)))
        b = DataCube(schema=tiny_schema, key=day_key(date(2021, 3, 2)))
        a.record("way", "germany", "residential", "create")
        b.record("way", "germany", "residential", "create")
        b.record("node", "qatar", "primary", "delete")
        a.add(b)
        assert a.total == 3
        assert a.cell("way", "germany", "residential", "create") == 2

    def test_add_coarse_poisons_resolution(self, tiny_schema):
        full = DataCube(
            schema=tiny_schema, key=day_key(date(2021, 3, 1)), resolution=RESOLUTION_FULL
        )
        coarse = DataCube(
            schema=tiny_schema,
            key=day_key(date(2021, 3, 2)),
            resolution=RESOLUTION_COARSE,
        )
        full.add(coarse)
        assert full.resolution == RESOLUTION_COARSE

    def test_add_incompatible_shapes_rejected(self, tiny_schema):
        other_schema = default_schema(["x"], road_types=2)
        a = DataCube(schema=tiny_schema, key=day_key(date(2021, 3, 1)))
        b = DataCube(schema=other_schema, key=day_key(date(2021, 3, 1)))
        with pytest.raises(DimensionError):
            a.add(b)

    def test_sum_cubes_matches_manual_total(self, tiny_schema):
        children = []
        for day in range(1, 8):
            child = DataCube(schema=tiny_schema, key=day_key(date(2021, 3, day)))
            child.record("way", "germany", "residential", "create")
            children.append(child)
        parent = sum_cubes(tiny_schema, week_key(2021, 3, 0), children)
        assert parent.total == 7
        assert parent.key == week_key(2021, 3, 0)

    def test_empty_like_is_zero_with_new_key(self, cube):
        cube.record("way", "germany", "residential", "create")
        other = empty_like(cube, week_key(2021, 3, 0))
        assert other.total == 0
        assert other.key == week_key(2021, 3, 0)

    def test_copy_is_independent(self, cube):
        cube.record("way", "germany", "residential", "create")
        duplicate = cube.copy()
        duplicate.record("way", "germany", "residential", "create")
        assert cube.total == 1
        assert duplicate.total == 2

    def test_equality(self, tiny_schema):
        a = DataCube(schema=tiny_schema, key=day_key(date(2021, 3, 1)))
        b = DataCube(schema=tiny_schema, key=day_key(date(2021, 3, 1)))
        assert a == b
        b.record("way", "germany", "residential", "create")
        assert a != b


class TestAggregation:
    @pytest.fixture()
    def loaded(self, tiny_schema):
        cube = DataCube(schema=tiny_schema, key=day_key(date(2021, 3, 5)))
        cube.record("way", "germany", "residential", "create")
        cube.record("way", "germany", "residential", "create")
        cube.record("way", "germany", "service", "geometry")
        cube.record("node", "qatar", "primary", "create")
        cube.record("relation", "united_states", "residential", "metadata")
        return cube

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
        cube = DataCube(schema=schema, key=day_key(date(2021, 1, 1)))
        for record in data.draw(records_strategy(schema)):
            cube.record(*record)
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
        cube = DataCube(schema=schema, key=day_key(date(2021, 1, 1)))
        for record in data.draw(records_strategy(schema)):
            cube.record(*record)
        axis = data.draw(st.sampled_from(schema.AXES))
        dim = schema.dimension(axis)
        parts = sum(
            cube.aggregate({axis: [value]})[()] for value in dim.values
        )
        assert parts == cube.total


class TestSparseCube:
    @pytest.fixture()
    def pair(self, tiny_schema):
        """The same five records in both representations."""
        dense = DataCube(schema=tiny_schema, key=day_key(date(2021, 3, 5)))
        sparse = SparseCube(schema=tiny_schema, key=day_key(date(2021, 3, 5)))
        for record in (
            ("way", "germany", "residential", "create"),
            ("way", "germany", "residential", "create"),
            ("way", "germany", "service", "geometry"),
            ("node", "qatar", "primary", "create"),
            ("relation", "united_states", "residential", "metadata"),
        ):
            dense.record(*record)
            sparse.record(*record)
        return dense, sparse

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
        assert sparse.cell("way", "germany", "residential", "create") == 2
        assert sparse.cell("node", "germany", "primary", "delete") == 0

    def test_nbytes_is_16_per_populated_cell(self, pair):
        _, sparse = pair
        assert sparse.nbytes == sparse.nnz * 16
        assert sparse.nbytes < sparse.cell_count * 8

    def test_round_trip_through_forms(self, pair):
        dense, sparse = pair
        assert as_dense(sparse) == dense
        assert as_sparse(dense) == sparse
        assert as_sparse(sparse) is sparse

    def test_add_dense_into_sparse(self, pair):
        dense, sparse = pair
        sparse.add(dense)
        assert sparse.total == 2 * dense.total
        assert np.array_equal(sparse.counts, 2 * dense.counts)

    def test_record_codes_cancellation_removes_cell(self, tiny_schema):
        sparse = SparseCube(schema=tiny_schema, key=day_key(date(2021, 3, 5)))
        coords = tiny_schema.encode("way", "germany", "residential", "create")
        sparse.record_codes(coords, count=2)
        sparse.record_codes(coords, count=-2)
        assert sparse.nnz == 0

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
        dense = DataCube(schema=schema, key=day_key(date(2021, 1, 1)))
        sparse = SparseCube(schema=schema, key=day_key(date(2021, 1, 1)))
        records = data.draw(records_strategy(schema))
        for record in records:
            dense.record(*record)
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
        cube = SparseCube(schema=tiny_schema, key=day_key(date(2021, 3, 5)))
        for coords, count in (
            (("way", "germany", "residential", "create"), big),
            (("way", "germany", "service", "create"), 2),
            (("node", "qatar", "primary", "create"), near),
            (("node", "qatar", "primary", "delete"), near),
            (("relation", "qatar", "primary", "delete"), 5),
        ):
            cube.record_codes(tiny_schema.encode(*coords), count)
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
            cls = SparseCube if sparse else DataCube
            child = cls(schema=schema, key=day_key(date(2021, 3, day)))
            child.record("way", "germany", "residential", "create")
            child.record("node", "qatar", "primary", "delete")
            cubes.append(child)
        return cubes

    def test_all_dense_children_stay_dense(self, tiny_schema):
        merged = sum_cubes(
            tiny_schema, week_key(2021, 3, 0), self._children(tiny_schema)
        )
        assert isinstance(merged, DataCube)
        assert merged.total == 14

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
        mixed = dense[:2] + [as_sparse(cube) for cube in dense[2:]]
        expected = sum_cubes(tiny_schema, week_key(2021, 3, 0), dense)
        merged = sum_cubes(tiny_schema, week_key(2021, 3, 0), mixed)
        assert isinstance(merged, DataCube)
        assert merged == expected

    def test_forced_sparse_with_dense_children(self, tiny_schema):
        dense = self._children(tiny_schema, days=4)
        merged = sum_cubes(
            tiny_schema, week_key(2021, 3, 0), dense, sparse=True
        )
        assert isinstance(merged, SparseCube)
        assert merged == sum_cubes(tiny_schema, week_key(2021, 3, 0), dense)

    def test_forced_dense_with_sparse_children(self, tiny_schema):
        children = self._children(tiny_schema, sparse=True)
        merged = sum_cubes(
            tiny_schema, week_key(2021, 3, 0), children, sparse=False
        )
        assert isinstance(merged, DataCube)
        assert merged.total == 14

    def test_auto_densify_past_threshold(self):
        schema = default_schema(["a"], road_types=2)  # 72 cells
        children = []
        for day in range(1, 4):
            counts = np.arange(schema.cell_count, dtype=np.int64).reshape(
                schema.shape
            )
            children.append(
                as_sparse(
                    DataCube(
                        schema=schema, key=day_key(date(2021, 3, day)), counts=counts
                    )
                )
            )
        merged = sum_cubes(schema, week_key(2021, 3, 0), children)
        assert isinstance(merged, DataCube)  # density ~1 >= threshold

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
        reference = DataCube(schema=tiny_schema, key=month_key(2021, 3))
        for child in children:
            reference.add(child)
        assert as_dense(merged) == reference
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
        pair_reference = DataCube(schema=tiny_schema, key=month_key(2021, 3))
        for child in few:
            pair_reference.add(child)
        assert small == pair_reference

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

    def test_copy_on_write_for_readonly_counts(self, tiny_schema):
        counts = np.zeros(tiny_schema.shape, dtype=np.int64)
        counts.flags.writeable = False
        cube = DataCube(
            schema=tiny_schema, key=day_key(date(2021, 3, 5)), counts=counts
        )
        cube.record("way", "germany", "residential", "create")  # must not raise
        assert cube.total == 1
        assert counts.sum() == 0  # the read-only source is untouched
