"""Leaf data types shared across RASED's layers.

This package is the bottom of the import DAG (only :mod:`repro.errors`
sits below it): the dimension schemas, temporal keys, and data cubes
that collection, storage, and core all speak.  Keeping these types in a
leaf package is what lets the crawlers (collection) build cubes and the
page serializer (storage) persist them without either importing the
analysis layer (core) — the layering rule in :mod:`repro.tools.lint`
enforces exactly that.
"""

from repro.types.cube import (
    DataCube,
    Resolution,
    RESOLUTION_COARSE,
    RESOLUTION_FULL,
    empty_like,
    sum_cubes,
)
from repro.types.dimensions import (
    CubeSchema,
    Dimension,
    ELEMENT_TYPES,
    UPDATE_TYPES,
    default_schema,
    paper_scale_schema,
)
from repro.types.temporal import Level, TemporalKey, cover_range, day_key

__all__ = [
    "CubeSchema",
    "DataCube",
    "Dimension",
    "ELEMENT_TYPES",
    "Level",
    "Resolution",
    "RESOLUTION_COARSE",
    "RESOLUTION_FULL",
    "TemporalKey",
    "UPDATE_TYPES",
    "cover_range",
    "day_key",
    "default_schema",
    "empty_like",
    "paper_scale_schema",
    "sum_cubes",
]
