"""Synthetic world, mappers, edit simulator, and query workloads."""

from repro.synth.editors import Mapper, MapperProfile, PROFILES
from repro.synth.scale import SCALE_PROFILES, ScaleProfile, profile_schema, scaled_day_updates
from repro.synth.simulator import DayOutput, EditSimulator, SimulationConfig
from repro.synth.workload import QueryWorkload
from repro.synth.world import CountryNetwork, WorldState, build_initial_world

__all__ = [
    "CountryNetwork", "DayOutput", "EditSimulator", "Mapper", "MapperProfile",
    "PROFILES", "QueryWorkload", "SCALE_PROFILES", "ScaleProfile",
    "SimulationConfig", "WorldState", "profile_schema", "scaled_day_updates",
    "build_initial_world",
]
