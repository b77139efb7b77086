"""Fixture tree for the ``unreached`` rule: one entry point, one shim,
two package re-exports (one imported through the package, one not),
and two modules no entry point runs."""
