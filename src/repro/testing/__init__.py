"""Test-support infrastructure for the RASED reproduction.

Everything under :mod:`repro.testing` is imported by tests and
benchmarks only — production wiring (:mod:`repro.system`, the CLI)
never touches it, so shipping it inside the package costs nothing at
runtime while keeping the harness importable wherever the package is.
"""

from repro.testing.faults import (
    INJECTION_POINTS,
    CrashPoint,
    FaultPlan,
    FaultSpec,
    FaultyPageStore,
    FaultyReplicationFeed,
    InjectedFault,
    classify_page_op,
)

__all__ = [
    "INJECTION_POINTS",
    "CrashPoint",
    "FaultPlan",
    "FaultSpec",
    "FaultyPageStore",
    "FaultyReplicationFeed",
    "InjectedFault",
    "classify_page_op",
]
