"""Developer tooling for the RASED reproduction (not imported at runtime).

One tool lives here: :mod:`repro.tools.lint`, the project's static
analyzer (``rased-repro lint`` / ``python -m repro.tools.lint``).
"""

__all__: list[str] = []
