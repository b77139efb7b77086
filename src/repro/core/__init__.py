"""RASED's core: cubes, the temporal hierarchy, cache, optimizer, executor."""

from repro.core.cache import CacheManager, CacheRatios, DEFAULT_RATIOS
from repro.core.contributors import Contributor, ContributorStats
from repro.types.temporal import Level, TemporalKey, cover_range
from repro.types.cube import AnyCube, DataCube, SparseCube, sum_cubes
from repro.types.dimensions import CubeSchema, Dimension, default_schema
from repro.core.executor import QueryExecutor
from repro.core.hierarchy import HierarchicalIndex
from repro.core.live import LiveMonitor
from repro.core.optimizer import FlatPlanner, LevelOptimizer, QueryPlan
from repro.core.percentages import NetworkSizeRegistry
from repro.core.stability import AnomalousDay, StabilityAnalyzer, StabilityMetrics
from repro.core.query import AnalysisQuery, QueryResult, QueryStats

__all__ = [
    "AnalysisQuery", "AnyCube", "CacheManager", "CacheRatios", "Contributor",
    "ContributorStats", "CubeSchema", "DEFAULT_RATIOS",
    "DataCube", "Dimension", "FlatPlanner", "HierarchicalIndex", "Level", "LiveMonitor",
    "SparseCube",
    "LevelOptimizer", "AnomalousDay", "NetworkSizeRegistry", "QueryExecutor", "QueryPlan",
    "StabilityAnalyzer", "StabilityMetrics",
    "QueryResult", "QueryStats", "TemporalKey", "cover_range", "default_schema",
    "sum_cubes",
]
