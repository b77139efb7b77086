"""Fixture tree for the ``unreached`` rule: one entry point, one shim,
a package re-export, and two modules no entry point runs."""
