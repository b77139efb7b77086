"""Reached through a function-local import in cli.py: must pass."""


def run() -> int:
    return 1
