"""Imported by nothing: must be flagged."""


def score() -> float:
    return 1.0
