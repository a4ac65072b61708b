"""Query-shape workload analytics: what the *aggregate* traffic looks like.

PR 6's tracing and EXPLAIN describe one query; this module describes the
workload.  Every query served by :class:`~repro.service.QueryService` is
normalised to a **structural fingerprint** -- axes and tag names kept, text
literals bucketed to ``"$str"`` and bare numbers to ``$num`` -- so
``//item[contains(., "gold")]`` and ``//item[contains(., "silver")]`` land in
the same shape.  Per shape the analytics keep a latency histogram,
result/visited cardinalities, the strategy mix and failure counts, plus a
bounded top-K slow-query table with request ids across all shapes.

The data closes the loop on cost-based planning: ``record`` takes the
planner's ``estimated_cost`` for each sweep, and every shape reports its
estimated-versus-actual ratio (estimate over visited nodes) -- the number to
watch when tuning the cost model or an admission budget.

Recording happens once per query at ``run_many`` completion -- off the
rank/select hot loops, same discipline as the ``engine_*`` counters.  The
server exposes the snapshot as ``GET /v1/debug/workload`` and ``repro-serve`` can
switch recording off with ``--no-workload``.
"""

from __future__ import annotations

import heapq
import itertools
import re
import threading

from repro.obs.metrics import DEFAULT_BUCKETS, _format_value

__all__ = ["WorkloadAnalytics", "fingerprint", "get_workload", "set_workload"]

_STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"|\'(?:[^\'\\]|\\.)*\'')
_NUMBER_RE = re.compile(r"(?<![\w.$])\d+(?:\.\d+)?(?![\w.])")
_WS_RE = re.compile(r"\s+")

_FINGERPRINT_CACHE: dict[str, str] = {}
_FINGERPRINT_CACHE_CAP = 4096
_FINGERPRINT_LOCK = threading.Lock()


def fingerprint(query: str) -> str:
    """The structural shape of ``query``: literals bucketed, whitespace folded.

    Purely lexical (no parse), so it never fails and costs a few regex passes;
    results are memoised per query text.
    """
    cached = _FINGERPRINT_CACHE.get(query)
    if cached is not None:
        return cached
    shape = _STRING_RE.sub('"$str"', query)
    shape = _NUMBER_RE.sub("$num", shape)
    shape = _WS_RE.sub(" ", shape).strip()
    with _FINGERPRINT_LOCK:
        if len(_FINGERPRINT_CACHE) >= _FINGERPRINT_CACHE_CAP:
            _FINGERPRINT_CACHE.clear()
        _FINGERPRINT_CACHE[query] = shape
    return shape


class _ShapeHistogram:
    """Latency histogram over :data:`DEFAULT_BUCKETS` with approximate quantiles."""

    __slots__ = ("counts", "inf", "total", "sum", "min", "max")

    def __init__(self):
        self.counts = [0] * len(DEFAULT_BUCKETS)
        self.inf = 0
        self.total = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        self.total += 1
        self.sum += seconds
        self.min = seconds if self.min is None else min(self.min, seconds)
        self.max = max(self.max, seconds)
        for i, bound in enumerate(DEFAULT_BUCKETS):
            if seconds <= bound:
                self.counts[i] += 1
                return
        self.inf += 1

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile observation."""
        if not self.total:
            return 0.0
        target = q * self.total
        running = 0
        for bound, count in zip(DEFAULT_BUCKETS, self.counts):
            running += count
            if running >= target:
                return bound
        return self.max

    def as_dict(self) -> dict:
        buckets = []
        running = 0
        for bound, count in zip(DEFAULT_BUCKETS, self.counts):
            running += count
            buckets.append({"le": _format_value(bound), "count": running})
        buckets.append({"le": "+Inf", "count": self.total})
        return {
            "count": self.total,
            "sum_seconds": self.sum,
            "avg_seconds": self.sum / self.total if self.total else 0.0,
            "min_seconds": self.min or 0.0,
            "max_seconds": self.max,
            "p50_seconds": self.quantile(0.50),
            "p95_seconds": self.quantile(0.95),
            "p99_seconds": self.quantile(0.99),
            "buckets": buckets,
        }


class _Cardinality:
    """Running min/max/total of one per-query integer (results, visited nodes)."""

    __slots__ = ("total", "min", "max")

    def __init__(self):
        self.total = 0
        self.min: int | None = None
        self.max = 0

    def observe(self, value: int) -> None:
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = max(self.max, value)

    def as_dict(self, count: int) -> dict:
        return {
            "total": self.total,
            "min": self.min or 0,
            "max": self.max,
            "avg": self.total / count if count else 0.0,
        }


class _Shape:
    __slots__ = (
        "shape",
        "queries",
        "failures",
        "latency",
        "results",
        "visited",
        "strategies",
        "example",
        "last_request_id",
        "estimated_cost_total",
        "estimated_queries",
        "estimated_visited_total",
    )

    def __init__(self, shape: str, example: str):
        self.shape = shape
        self.queries = 0
        self.failures = 0
        self.latency = _ShapeHistogram()
        self.results = _Cardinality()
        self.visited = _Cardinality()
        self.strategies: dict[str, int] = {}
        self.example = example
        self.last_request_id: str | None = None
        #: Cost-model accounting: accumulated planner estimates plus the
        #: actual visited-node totals of exactly those queries, so the
        #: estimated-versus-actual ratio compares like with like.
        self.estimated_cost_total = 0.0
        self.estimated_queries = 0
        self.estimated_visited_total = 0

    def as_dict(self) -> dict:
        out = {
            "shape": self.shape,
            "queries": self.queries,
            "failures": self.failures,
            "latency": self.latency.as_dict(),
            "results": self.results.as_dict(self.queries),
            "visited": self.visited.as_dict(self.queries),
            "strategies": dict(sorted(self.strategies.items())),
            "example": self.example,
            "last_request_id": self.last_request_id,
        }
        if self.estimated_queries:
            out["estimated_cost"] = {
                "queries": self.estimated_queries,
                "total": self.estimated_cost_total,
                "avg": self.estimated_cost_total / self.estimated_queries,
                "actual_visited_avg": self.estimated_visited_total / self.estimated_queries,
                # >1 means the planner over-estimates this shape, <1 under-
                # estimates; None until a query of the shape visited anything.
                "estimated_vs_actual": (
                    self.estimated_cost_total / self.estimated_visited_total
                    if self.estimated_visited_total
                    else None
                ),
            }
        return out


class WorkloadAnalytics:
    """Bounded, thread-safe per-shape aggregates plus a top-K slow-query table.

    ``max_shapes`` caps memory: once full, queries of unseen shapes fold into
    a catch-all ``"(other)"`` shape instead of growing the table.
    """

    def __init__(self, max_shapes: int = 256, slow_query_capacity: int = 32, enabled: bool = True):
        if max_shapes < 1 or slow_query_capacity < 1:
            raise ValueError("max_shapes and slow_query_capacity must be at least 1")
        self._lock = threading.Lock()
        self._max_shapes = int(max_shapes)
        self._slow_capacity = int(slow_query_capacity)
        self._shapes: dict[str, _Shape] = {}
        #: Min-heap of ``(seconds, tie, entry)`` -- the root is the *fastest*
        #: of the kept slow queries, evicted first.
        self._slow: list[tuple[float, int, dict]] = []
        self._tie = itertools.count()
        self._total_queries = 0
        self._total_failures = 0
        self._sweeps = 0
        self._sweep_seconds = 0.0
        self._load_seconds = 0.0
        self._eval_seconds = 0.0
        self.enabled = bool(enabled)

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    # -- recording ---------------------------------------------------------------------

    def record(
        self,
        query: str,
        seconds: float,
        *,
        result_count: int = 0,
        visited: int = 0,
        strategies: dict[str, int] | None = None,
        failures: int = 0,
        request_id: str | None = None,
        estimated_cost: float | None = None,
    ) -> None:
        """Fold one finished query into its shape's aggregates.

        ``seconds`` is the evaluation time attributable to *this* query
        (summed across shards; batch sweep overheads are tracked separately by
        :meth:`record_sweep`).  ``estimated_cost`` is the planner's summed
        estimate for the sweep (node-visit units); each shape reports the
        estimated-versus-actual ratio against the visited totals of exactly
        the queries that carried an estimate.
        """
        if not self.enabled:
            return
        shape_key = fingerprint(query)
        with self._lock:
            shape = self._shapes.get(shape_key)
            if shape is None:
                if len(self._shapes) >= self._max_shapes:
                    shape = self._shapes.setdefault("(other)", _Shape("(other)", query))
                else:
                    shape = self._shapes[shape_key] = _Shape(shape_key, query)
            shape.queries += 1
            shape.failures += failures
            shape.latency.observe(seconds)
            shape.results.observe(int(result_count))
            shape.visited.observe(int(visited))
            for strategy, count in (strategies or {}).items():
                shape.strategies[strategy] = shape.strategies.get(strategy, 0) + count
            if request_id:
                shape.last_request_id = request_id
            if estimated_cost is not None:
                shape.estimated_cost_total += float(estimated_cost)
                shape.estimated_queries += 1
                shape.estimated_visited_total += int(visited)
            self._total_queries += 1
            self._total_failures += failures
            entry = (float(seconds), next(self._tie))
            if len(self._slow) < self._slow_capacity:
                heapq.heappush(
                    self._slow,
                    (*entry, self._slow_entry(query, shape_key, seconds, result_count, request_id)),
                )
            elif seconds > self._slow[0][0]:
                heapq.heapreplace(
                    self._slow,
                    (*entry, self._slow_entry(query, shape_key, seconds, result_count, request_id)),
                )

    @staticmethod
    def _slow_entry(query, shape, seconds, result_count, request_id) -> dict:
        return {
            "query": query,
            "shape": shape,
            "seconds": float(seconds),
            "result_count": int(result_count),
            "request_id": request_id,
        }

    def record_sweep(self, elapsed_seconds: float, load_seconds: float, eval_seconds: float) -> None:
        """Fold one scatter-gather sweep's stage totals (shared by its batch)."""
        if not self.enabled:
            return
        with self._lock:
            self._sweeps += 1
            self._sweep_seconds += elapsed_seconds
            self._load_seconds += load_seconds
            self._eval_seconds += eval_seconds

    # -- reading -----------------------------------------------------------------------

    def snapshot(self, limit: int | None = None) -> dict:
        """A JSON-friendly view: shapes by query count, slowest queries first."""
        with self._lock:
            shapes = sorted(self._shapes.values(), key=lambda s: (-s.queries, s.shape))
            if limit is not None:
                shapes = shapes[: max(0, int(limit))]
            shape_dicts = [shape.as_dict() for shape in shapes]
            slow = [entry for _, _, entry in sorted(self._slow, reverse=True)]
            if limit is not None:
                slow = slow[: max(0, int(limit))]
            return {
                "enabled": self.enabled,
                "total_queries": self._total_queries,
                "total_failures": self._total_failures,
                "num_shapes": len(self._shapes),
                "sweeps": {
                    "count": self._sweeps,
                    "elapsed_seconds": self._sweep_seconds,
                    "load_seconds": self._load_seconds,
                    "eval_seconds": self._eval_seconds,
                },
                "shapes": shape_dicts,
                "slow_queries": slow,
            }

    def reset(self) -> None:
        """Drop every aggregate (tests and operator resets)."""
        with self._lock:
            self._shapes.clear()
            self._slow.clear()
            self._total_queries = 0
            self._total_failures = 0
            self._sweeps = 0
            self._sweep_seconds = 0.0
            self._load_seconds = 0.0
            self._eval_seconds = 0.0

    def __repr__(self) -> str:
        return (
            f"WorkloadAnalytics(enabled={self.enabled}, queries={self._total_queries}, "
            f"shapes={len(self._shapes)})"
        )


_WORKLOAD = WorkloadAnalytics()
_WORKLOAD_LOCK = threading.Lock()


def get_workload() -> WorkloadAnalytics:
    """The process-global workload analytics the service records into."""
    return _WORKLOAD


def set_workload(workload: WorkloadAnalytics) -> WorkloadAnalytics:
    """Swap the global analytics (tests); returns the previous one."""
    global _WORKLOAD
    with _WORKLOAD_LOCK:
        previous, _WORKLOAD = _WORKLOAD, workload
    return previous
