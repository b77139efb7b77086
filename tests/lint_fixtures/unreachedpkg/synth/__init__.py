"""The package re-exports both of its modules; only ``simulate`` is
imported through it (by cli.py), so the ``plant`` re-export is flagged."""

from unreachedpkg.synth.scenarios import plant
from unreachedpkg.synth.simulator import simulate

__all__ = ["plant", "simulate"]
