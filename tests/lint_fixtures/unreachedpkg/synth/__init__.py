"""The package re-exports both of its modules."""

from unreachedpkg.synth.scenarios import plant
from unreachedpkg.synth.simulator import simulate

__all__ = ["plant", "simulate"]
