"""Reached only through synth/__init__'s re-export: the module must
pass, while the re-export no module imports through the package is
flagged at its line in synth/__init__.py."""


def plant() -> None:
    return None
