"""Observability: metrics, tracing, workload analytics, logging.

The one layer every part of the serving stack reports into:

* :mod:`repro.obs.metrics` -- the process-wide :class:`MetricsRegistry` of
  labeled counter/gauge/histogram families with Prometheus-text and JSON
  rendering, the counter deltas process-pool workers ship home, and the
  strict text-format parser the tests and the e2e smoke validate
  ``/metrics`` with.  The engine's ``repro_engine_*`` and the planner's
  ``repro_planner_*`` totals are ordinary counter families on it.
* :mod:`repro.obs.tracing` -- dependency-free nested spans with a global
  :class:`Tracer`, a ring buffer of finished traces, and a near-free disabled
  path (the :data:`NULL_SPAN` singleton).
* :mod:`repro.obs.workload` -- per-query-shape latency/cardinality/strategy
  aggregates and the top-K slow-query table (``GET /v1/debug/workload``).
* :mod:`repro.obs.resources` -- mapped-page residency via ``mincore`` plus
  RSS / page-fault / open-fd process gauges.
* :mod:`repro.obs.logging` -- JSON-lines / key=value structured logging with
  field passing, used for the server's access and slow-query logs.
"""

from repro.obs.logging import JsonLineFormatter, KeyValueFormatter, configure_logging, get_logger
from repro.obs.metrics import (
    MetricsRegistry,
    get_registry,
    parse_prometheus_text,
    set_registry,
)
from repro.obs.resources import (
    document_residency,
    mapped_residency,
    process_resources,
    register_process_metrics,
)
from repro.obs.tracing import NULL_SPAN, Span, Tracer, current_span, get_tracer, set_tracer
from repro.obs.workload import WorkloadAnalytics, fingerprint, get_workload, set_workload

__all__ = [
    "Tracer",
    "Span",
    "NULL_SPAN",
    "get_tracer",
    "set_tracer",
    "current_span",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "parse_prometheus_text",
    "WorkloadAnalytics",
    "fingerprint",
    "get_workload",
    "set_workload",
    "document_residency",
    "mapped_residency",
    "process_resources",
    "register_process_metrics",
    "configure_logging",
    "get_logger",
    "JsonLineFormatter",
    "KeyValueFormatter",
]
