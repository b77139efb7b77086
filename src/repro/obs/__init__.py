"""Observability: metrics, causal traces, flight recorder, SLOs, logs.

The subsystem's layers, bottom to top:

* :mod:`repro.obs.metrics` — the :class:`MetricsRegistry` of counters
  and histograms that every layer (executor, cache, optimizer, disks,
  warehouse, ingestion pipeline, HTTP server) reports into, with JSON
  and Prometheus text export;
* :mod:`repro.obs.span` — causal span trees: a ``trace_id``/``span_id``/
  parent identity per operation, carried in a ``ContextVar`` on the
  request's one thread, so a request's admission verdict, plan, disk
  reads, and aggregation land in one connected tree;
* :mod:`repro.obs.recorder` — the :class:`FlightRecorder`, a bounded
  ring of completed traces with tail-based retention (errors, partial
  answers, deadline expiries and the slowest decile always kept);
* :mod:`repro.obs.slo` — availability/latency objectives over sliding
  windows with multi-window burn-rate alerts (``/health``,
  ``/debug/slo``);
* :mod:`repro.obs.log` — opt-in structured JSON event lines correlated
  to traces by ``trace_id``.

What one query did — counters and per-phase time — is not kept here:
:class:`repro.core.query.QueryStats` is the one record, and the
``query.execute`` span, the query metrics and the API's ``stats``
object are views the executor and server derive from it.

A :class:`repro.system.RasedSystem` owns a private registry, tracer,
recorder and SLO tracker; standalone components default to the
process-wide registry from :func:`get_registry`.  See README.md
§ Observability for the metric name inventory and the ``/debug/*``
endpoints.
"""

from repro.obs.log import EventLog
from repro.obs.metrics import MetricsRegistry, get_registry, metric_key
from repro.obs.recorder import FlightRecorder
from repro.obs.slo import SLOConfig, SLOTracker
from repro.obs.span import Tracer

__all__ = [
    "EventLog",
    "FlightRecorder",
    "MetricsRegistry",
    "SLOConfig",
    "SLOTracker",
    "Tracer",
    "get_registry",
    "metric_key",
]
