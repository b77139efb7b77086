"""Reached only through synth/__init__'s re-export: must pass (an
unused re-export is the hand audit's finding, not this rule's)."""


def plant() -> None:
    return None
