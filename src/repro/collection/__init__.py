"""Data Collection module: crawlers, geocoding, records, pipeline.

Nothing is imported here: low-level modules (e.g. the storage
warehouse) import :mod:`repro.collection.records` without pulling in
the pipeline, which depends on higher layers.
"""
