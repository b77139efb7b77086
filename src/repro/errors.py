"""Exception hierarchy for the RASED reproduction.

Every error raised by this package derives from :class:`RasedError`, so
callers can catch one type at the dashboard boundary.  Subclasses are
organized by subsystem (storage, index, query, collection, synthesis) so
tests can assert on precise failure modes.
"""

from __future__ import annotations


class RasedError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigError(RasedError):
    """A component was constructed with invalid parameters."""


class DimensionError(RasedError):
    """An unknown dimension value or malformed dimension schema."""


class CalendarError(RasedError):
    """An invalid temporal key, date range, or hierarchy operation."""


class StorageError(RasedError):
    """Base class for page-store and warehouse failures."""


class PageNotFoundError(StorageError):
    """A page id was requested that is not present in the store."""


class PageCorruptError(StorageError):
    """A page failed checksum or header validation on read."""


class CircuitOpenError(StorageError):
    """A resilient client's circuit breaker is open: the upstream has
    failed repeatedly and calls are being rejected without attempting
    I/O until the cool-down elapses."""


class IndexError_(RasedError):
    """Hierarchical-index inconsistency (missing cube, bad rollup)."""


class CubeNotFoundError(IndexError_):
    """A temporal key has no materialized cube in the index."""


#: Read failures a query degrades around instead of propagating: the
#: cube's page is gone, fails validation, or was quarantined between
#: planning and fetch.  The answer becomes ``partial=true``.
DEGRADABLE_READ_ERRORS = (PageCorruptError, PageNotFoundError, CubeNotFoundError)


class QueryError(RasedError):
    """A malformed or unanswerable analysis/sample query."""


class DeadlineExceededError(RasedError):
    """A request's deadline expired before its work completed.

    Raised at phase boundaries inside the query path (so a doomed
    query stops issuing disk reads) and mapped to HTTP 504 by the
    dashboard's front door rather than the generic 400."""


class PlanError(QueryError):
    """The level optimizer could not cover the requested date range."""


class ParseError(RasedError):
    """Malformed OSM XML input (diff, changeset, or history file)."""


class GeocodeError(RasedError):
    """A location could not be resolved to any known zone."""


class SimulationError(RasedError):
    """The synthetic-world simulator reached an inconsistent state."""
