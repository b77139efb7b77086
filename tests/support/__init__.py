"""Test-support infrastructure for the RASED reproduction.

The fault-injection harness the crash-recovery, degradation and
resilience tests share.  It wraps the package's page stores and feeds
from outside, so nothing under ``src/`` knows it exists.
"""

from tests.support.faults import (
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
