"""Geometry primitives and the synthetic zone atlas."""
