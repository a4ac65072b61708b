"""HTTP-server metrics: a thin façade over the process-wide registry.

Until PR 8 this module *was* the metrics implementation; the registry now
lives in :mod:`repro.obs.metrics` where the store, the query service and the
storage codec register instruments without importing the server.
:class:`ServerMetrics` keeps its original surface -- ``observe_request``,
``observe_rejection``, ``render`` -- but every family lives on the shared
:class:`~repro.obs.metrics.MetricsRegistry`, whose renderer emits each
family's ``# HELP``/``# TYPE`` header exactly once (the old renderer skipped
``# HELP`` for engine and gauge families and re-emitted ``# TYPE`` per
sample name).

Constructing a ``ServerMetrics`` also declares the ``engine_*`` and
``planner_*`` counter families (recorded by the XPath engine and planner) and
registers the ``process_*`` callback families, so a bare server exposes the
full process picture, at 0, from its first scrape.
"""

from __future__ import annotations

from typing import Mapping

from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry, get_registry
from repro.obs.resources import register_process_metrics
from repro.xpath.engine import ENGINE_METRICS
from repro.xpath.planner import PLANNER_METRICS

__all__ = ["ServerMetrics", "LATENCY_BUCKETS"]

#: Histogram upper bounds in seconds, chosen around the paper's query costs:
#: sub-millisecond cached counts up to multi-second cold corpus sweeps.
LATENCY_BUCKETS = DEFAULT_BUCKETS

#: Help strings for the live service gauges the server folds in at scrape
#: time (anything unlisted gets a generic line).
_GAUGE_HELP = {
    "inflight_requests": "Requests currently being handled.",
    "plan_cache_hits_total": "Compiled-plan cache hits.",
    "plan_cache_misses_total": "Compiled-plan cache misses.",
    "plan_cache_hit_ratio": "Compiled-plan cache hit ratio since start.",
    "plan_cache_entries": "Compiled plans currently cached.",
    "store_cache_resident_documents": "Documents resident in the store LRU.",
}


class ServerMetrics:
    """Thread-safe HTTP metrics behind ``GET /metrics``.

    Defaults to the process-global registry so the page includes every family
    the library layers registered; pass ``registry`` (or a non-default
    ``namespace``) to isolate an instance.
    """

    def __init__(self, namespace: str = "repro", registry: MetricsRegistry | None = None):
        if registry is None:
            shared = get_registry()
            registry = shared if namespace == shared.namespace else MetricsRegistry(namespace)
        self._registry = registry
        self._requests = registry.counter(
            "http_requests_total",
            "Requests served, by route pattern, method and status.",
            labels=("route", "method", "status"),
        )
        self._rejected = registry.counter(
            "http_rejected_total", "Requests refused before routing, by reason.", labels=("reason",)
        )
        self._latency = registry.histogram(
            "http_request_seconds",
            "Request latency, by route pattern.",
            labels=("route",),
            buckets=LATENCY_BUCKETS,
        )
        ENGINE_METRICS.declare(registry)
        PLANNER_METRICS.declare(registry)
        register_process_metrics(registry)

    @property
    def registry(self) -> MetricsRegistry:
        """The registry this façade renders."""
        return self._registry

    def observe_request(self, route: str, method: str, status: int, seconds: float) -> None:
        """Record one completed request under its *route pattern* (not raw path)."""
        self._requests.labels(route=route, method=method, status=str(int(status))).inc()
        self._latency.labels(route=route).observe(seconds)

    def observe_rejection(self, reason: str) -> None:
        """Record a request the server refused before routing (oversize, parse error)."""
        self._rejected.labels(reason=reason).inc()

    def render(self, gauges: Mapping[str, float] | None = None) -> str:
        """The full Prometheus text page.

        ``gauges`` maps a bare metric name (namespaced automatically) to its
        current value -- the server passes the plan-cache hit rate and the
        in-flight request count this way, so the page always reflects live
        service state without the registry knowing the service.
        """
        for name, value in (gauges or {}).items():
            self._registry.gauge(name, _GAUGE_HELP.get(name, "Live service gauge.")).set(value)
        return self._registry.render()
