"""The synthetic edit stream's knobs, outside :mod:`repro.synth` so that
``SystemConfig`` names them without the serving system importing it."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError

__all__ = ["SimulationConfig"]


@dataclass(frozen=True)
class SimulationConfig:
    """Tunable knobs of the synthetic edit stream."""

    seed: int = 7
    mapper_count: int = 120
    base_sessions_per_day: float = 30.0
    #: Multiplicative activity growth per simulated year.
    growth_per_year: float = 1.12
    #: Weekend editing boost (volunteers map on weekends).
    weekend_factor: float = 1.35
    nodes_per_country: int = 24

    def __post_init__(self) -> None:
        if self.base_sessions_per_day <= 0:
            raise SimulationError("base_sessions_per_day must be positive")
        if self.mapper_count < 1:
            raise SimulationError("need at least one mapper")
