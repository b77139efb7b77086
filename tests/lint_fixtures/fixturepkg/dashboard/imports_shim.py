"""Fixture: importing a re-export shim vs the module beside it."""

from fixturepkg.core.calendar import Level  # noqa: F401  (shim: flagged)
from fixturepkg.core.clock import hot_now  # noqa: F401  (downward, legal)
