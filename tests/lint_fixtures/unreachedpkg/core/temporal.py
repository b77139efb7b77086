"""Reached only through the shim: must pass."""

DAYS = 7
