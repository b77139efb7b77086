"""Leaf data types shared across RASED's layers.

This package is the bottom of the import DAG (only :mod:`repro.errors`
sits below it): the dimension schemas, temporal keys, and data cubes
that collection, storage, and core all speak.  Keeping these types in a
leaf package is what lets the crawlers (collection) build cubes and the
page serializer (storage) persist them without either importing the
analysis layer (core) — the layering rule in :mod:`repro.tools.lint`
enforces exactly that.
"""
