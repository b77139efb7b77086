"""Tests for dimension schemas and value encoding."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.types.dimensions import (
    CubeSchema,
    Dimension,
    ELEMENT_TYPES,
    PAPER_ROAD_TYPES,
    UPDATE_TYPES,
    default_schema,
    element_dimension,
    paper_scale_schema,
    road_type_dimension,
    update_dimension,
)
from repro.errors import DimensionError


class TestDimension:
    def test_codes_are_dense_and_ordered(self):
        dim = Dimension("kind", ("a", "b", "c"))
        assert [dim.code(v) for v in dim] == [0, 1, 2]

    def test_value_roundtrip(self):
        dim = Dimension("kind", ("a", "b", "c"))
        for code in range(3):
            assert dim.code(dim.value(code)) == code

    def test_unknown_value_raises(self):
        dim = Dimension("kind", ("a",))
        with pytest.raises(DimensionError, match="unknown kind"):
            dim.code("zzz")

    def test_code_or_none(self):
        dim = Dimension("kind", ("a",))
        assert dim.code_or_none("a") == 0
        assert dim.code_or_none("zzz") is None

    def test_value_out_of_range_raises(self):
        dim = Dimension("kind", ("a",))
        with pytest.raises(DimensionError, match="out of range"):
            dim.value(5)

    def test_empty_dimension_rejected(self):
        with pytest.raises(DimensionError, match="no values"):
            Dimension("kind", ())

    def test_duplicate_values_rejected(self):
        with pytest.raises(DimensionError, match="duplicate"):
            Dimension("kind", ("a", "a"))

    def test_codes_none_means_all(self):
        dim = Dimension("kind", ("a", "b"))
        assert dim.codes(None) == [0, 1]

    def test_codes_subset(self):
        dim = Dimension("kind", ("a", "b", "c"))
        assert dim.codes(["c", "a"]) == [2, 0]

    def test_contains(self):
        dim = Dimension("kind", ("a",))
        assert "a" in dim
        assert "b" not in dim


class TestFixedDimensions:
    def test_element_dimension_matches_osm(self):
        assert tuple(element_dimension()) == ("node", "way", "relation")

    def test_update_dimension_has_four_paper_types(self):
        assert tuple(update_dimension()) == (
            "create",
            "delete",
            "geometry",
            "metadata",
        )
        assert len(UPDATE_TYPES) == 4

    def test_road_dimension_default_is_curated_list_plus_other(self):
        dim = road_type_dimension()
        assert tuple(dim) == PAPER_ROAD_TYPES + ("other",)

    def test_road_dimension_pads_to_requested_size(self):
        dim = road_type_dimension(150)
        assert len(dim) == 150
        assert "special_000" in dim
        assert dim.values[-1] == "other"

    def test_road_dimension_truncates_keeping_other(self):
        dim = road_type_dimension(3)
        assert tuple(dim) == PAPER_ROAD_TYPES[:2] + ("other",)

    def test_road_dimension_rejects_too_small(self):
        with pytest.raises(DimensionError):
            road_type_dimension(1)

    def test_common_types_survive_reduction(self):
        """Reduced schemas keep OSM's most frequent highway values."""
        dim = road_type_dimension(6)
        assert "residential" in dim
        assert "service" in dim


class TestCubeSchema:
    def test_shape_and_cell_count(self, tiny_schema):
        assert tiny_schema.shape == (3, 3, 8, 4)
        assert tiny_schema.cell_count == 3 * 3 * 8 * 4

    def test_paper_scale_is_540k_cells(self):
        schema = paper_scale_schema()
        assert schema.shape == (3, 300, 150, 4)
        assert schema.cell_count == 540_000

    def test_axis_lookup(self, tiny_schema):
        assert tiny_schema.axis("element_type") == 0
        assert tiny_schema.axis("update_type") == 3

    def test_axis_unknown_raises(self, tiny_schema):
        with pytest.raises(DimensionError):
            tiny_schema.axis("color")

    def test_dimension_lookup(self, tiny_schema):
        assert tiny_schema.dimension("country").name == "country"

    def test_encode_decode_roundtrip(self, tiny_schema):
        coords = tiny_schema.encode("way", "germany", "residential", "create")
        assert tiny_schema.decode(coords) == (
            "way",
            "germany",
            "residential",
            "create",
        )

    def test_encode_unknown_country_raises(self, tiny_schema):
        with pytest.raises(DimensionError):
            tiny_schema.encode("way", "atlantis", "residential", "create")

    def test_decode_wrong_arity_raises(self, tiny_schema):
        with pytest.raises(DimensionError):
            tiny_schema.decode((0, 1))

    def test_default_schema_uses_given_zones(self, atlas):
        schema = default_schema(atlas.zone_names(), road_types=8)
        assert len(schema.country) == len(atlas)
        assert "minnesota" in schema.country
        assert "asia" in schema.country

    @given(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=3))
    def test_encode_decode_property(self, element_code, update_code):
        schema = default_schema(["a", "b"], road_types=4)
        values = (
            ELEMENT_TYPES[element_code],
            "b",
            schema.road_type.value(2),
            UPDATE_TYPES[update_code],
        )
        assert schema.decode(schema.encode(*values)) == values
