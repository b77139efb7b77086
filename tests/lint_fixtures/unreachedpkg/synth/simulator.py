"""Reached from cli.py through the package: must pass."""


def simulate() -> int:
    return 1
