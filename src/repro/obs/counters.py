"""Process-wide engine counters aggregated across queries.

Per-query numbers live in :class:`repro.xpath.runtime.EvaluationStatistics`;
this module accumulates them into one thread-safe, monotonically increasing
set of totals that ``/metrics`` renders as the ``repro_engine_*`` Prometheus
families.  Counters are folded in *once per finished query* (at the end of
``XPathEngine._execute``) rather than incremented inside the succinct-structure
hot loops, so instrumentation cost stays off the rank/select fast paths.

Note the scalar-vs-batch semantics: ``kernel_batch_calls_total`` counts batch
*invocations* (one ``parent_many`` over 10k nodes is one call), while
``select_calls_total``/``rank_calls_total`` count engine-level scalar
operations.  The two families are therefore not comparable element-for-element.
"""

from __future__ import annotations

import threading

__all__ = [
    "EngineCounters",
    "ENGINE_COUNTERS",
    "register_engine_metrics",
    "PlannerCounters",
    "PLANNER_COUNTERS",
    "register_planner_metrics",
]

#: Counter field names, in the order they are rendered.
_FIELDS = (
    "queries_total",
    "queries_top_down_total",
    "queries_bottom_up_total",
    "visited_nodes_total",
    "marked_nodes_total",
    "result_nodes_total",
    "jumps_total",
    "text_queries_total",
    "fm_index_queries_total",
    "rank_calls_total",
    "select_calls_total",
    "kernel_batch_calls_total",
)


class EngineCounters:
    """Thread-safe monotonic totals over every query the process evaluated."""

    __slots__ = ("_lock",) + tuple(f"_{name}" for name in _FIELDS)

    def __init__(self):
        self._lock = threading.Lock()
        for name in _FIELDS:
            setattr(self, f"_{name}", 0)

    def record_query(self, stats) -> None:
        """Fold one finished query's :class:`EvaluationStatistics` into the totals."""
        with self._lock:
            self._queries_total += 1
            if stats.strategy == "bottom-up":
                self._queries_bottom_up_total += 1
            else:
                self._queries_top_down_total += 1
            self._visited_nodes_total += stats.visited_nodes
            self._marked_nodes_total += stats.marked_nodes
            self._result_nodes_total += stats.result_nodes
            self._jumps_total += stats.jumps
            self._text_queries_total += stats.text_queries
            if stats.used_fm_index:
                self._fm_index_queries_total += 1
            self._rank_calls_total += getattr(stats, "rank_calls", 0)
            self._select_calls_total += getattr(stats, "select_calls", 0)
            self._kernel_batch_calls_total += getattr(stats, "kernel_batch_calls", 0)

    def snapshot(self) -> dict[str, int]:
        """A consistent point-in-time copy of every counter."""
        with self._lock:
            return {name: getattr(self, f"_{name}") for name in _FIELDS}

    def delta_since(self, before: dict[str, int]) -> dict[str, int]:
        """What accumulated since ``before`` (an earlier :meth:`snapshot`).

        This is the wire format of the cross-process counter fix: a pool
        worker snapshots around its shard batch and ships the delta home,
        where the parent folds it via :meth:`merge` -- so ``/metrics`` counts
        process-executor queries exactly like inline ones.
        """
        now = self.snapshot()
        return {name: now[name] - int(before.get(name, 0)) for name in _FIELDS}

    def merge(self, delta: dict[str, int]) -> None:
        """Fold a :meth:`delta_since` dict from another process into the totals."""
        with self._lock:
            for name in _FIELDS:
                amount = int(delta.get(name, 0))
                if amount:
                    setattr(self, f"_{name}", getattr(self, f"_{name}") + amount)

    def reset(self) -> None:
        """Zero every counter (tests only; Prometheus counters must not reset in production)."""
        with self._lock:
            for name in _FIELDS:
                setattr(self, f"_{name}", 0)

    def __repr__(self) -> str:
        snap = self.snapshot()
        return f"EngineCounters(queries={snap['queries_total']})"


#: The process-global aggregate the server's ``/metrics`` endpoint reads.
ENGINE_COUNTERS = EngineCounters()

_HELP = {
    "queries_total": "Queries evaluated by the engine.",
    "queries_top_down_total": "Queries evaluated with the top-down strategy.",
    "queries_bottom_up_total": "Queries evaluated with the bottom-up strategy.",
    "visited_nodes_total": "Tree nodes visited during evaluation.",
    "marked_nodes_total": "Nodes marked by the tree automaton.",
    "result_nodes_total": "Nodes returned as query results.",
    "jumps_total": "Tagged-descendant jumps taken instead of child walks.",
    "text_queries_total": "Text-predicate evaluations.",
    "fm_index_queries_total": "Queries that touched the FM-index.",
    "rank_calls_total": "Scalar rank operations issued by the engine.",
    "select_calls_total": "Scalar select operations issued by the engine.",
    "kernel_batch_calls_total": "Vectorized batch-kernel invocations.",
}


def register_engine_metrics(registry=None) -> None:
    """Expose :data:`ENGINE_COUNTERS` as ``engine_*`` callback counters.

    Idempotent; values are read from the live counters at render time, so the
    families track the process totals without a second accounting path.
    """
    from repro.obs.metrics import get_registry

    registry = registry if registry is not None else get_registry()
    for name in _FIELDS:
        registry.counter_callback(
            f"engine_{name}",
            _HELP.get(name, "Engine counter."),
            lambda field=name: ENGINE_COUNTERS.snapshot()[field],
        )


# -- planner counters ------------------------------------------------------------------

#: Planner counter field names, in render order.  ``estimated_cost_total`` is
#: a float (node-visit units, see :mod:`repro.xpath.cost`); the rest are ints.
_PLANNER_FIELDS = (
    "plans_total",
    "plans_bottom_up_total",
    "plans_top_down_total",
    "plans_naive_text_total",
    "wildcard_candidate_fallbacks_total",
    "estimated_cost_total",
)


class PlannerCounters:
    """Thread-safe totals over every plan the process built.

    Plans are counted at *build* time (cache misses), not per execution --
    the per-execution strategy mix already lives on :class:`EngineCounters`.
    Like the engine counters, pool workers accumulate into their own
    process-global instance and ship :meth:`delta_since` dicts home, where the
    parent folds them via :meth:`merge`.
    """

    __slots__ = ("_lock",) + tuple(f"_{name}" for name in _PLANNER_FIELDS)

    def __init__(self):
        self._lock = threading.Lock()
        for name in _PLANNER_FIELDS:
            setattr(self, f"_{name}", 0.0 if name == "estimated_cost_total" else 0)

    def record_plan(self, plan) -> None:
        """Fold one freshly built :class:`~repro.xpath.planner.QueryPlan`."""
        with self._lock:
            self._plans_total += 1
            if plan.strategy == "bottom-up":
                self._plans_bottom_up_total += 1
            else:
                self._plans_top_down_total += 1
            if plan.uses_naive_text:
                self._plans_naive_text_total += 1
            if plan.estimated_cost is not None:
                self._estimated_cost_total += float(plan.estimated_cost)

    def record_wildcard_fallback(self) -> None:
        """A wildcard/node() last step fell back to the element-count bound."""
        with self._lock:
            self._wildcard_candidate_fallbacks_total += 1

    def snapshot(self) -> dict[str, float]:
        """A consistent point-in-time copy of every counter."""
        with self._lock:
            return {name: getattr(self, f"_{name}") for name in _PLANNER_FIELDS}

    def delta_since(self, before: dict[str, float]) -> dict[str, float]:
        """What accumulated since ``before`` (cross-process wire format)."""
        now = self.snapshot()
        return {name: now[name] - before.get(name, 0) for name in _PLANNER_FIELDS}

    def merge(self, delta: dict[str, float]) -> None:
        """Fold a :meth:`delta_since` dict from another process into the totals."""
        with self._lock:
            for name in _PLANNER_FIELDS:
                amount = delta.get(name, 0)
                if amount:
                    setattr(self, f"_{name}", getattr(self, f"_{name}") + amount)

    def reset(self) -> None:
        """Zero every counter (tests only)."""
        with self._lock:
            for name in _PLANNER_FIELDS:
                setattr(self, f"_{name}", 0.0 if name == "estimated_cost_total" else 0)

    def __repr__(self) -> str:
        snap = self.snapshot()
        return f"PlannerCounters(plans={snap['plans_total']})"


#: The process-global planner aggregate ``/metrics`` renders as ``repro_planner_*``.
PLANNER_COUNTERS = PlannerCounters()

_PLANNER_HELP = {
    "plans_total": "Query plans built (plan-cache misses).",
    "plans_bottom_up_total": "Plans that chose the bottom-up (text-seeded) strategy.",
    "plans_top_down_total": "Plans that chose the top-down automaton strategy.",
    "plans_naive_text_total": "Plans forced onto the naive text store (mixed content).",
    "wildcard_candidate_fallbacks_total": "Wildcard last steps costed via the element-count bound.",
    "estimated_cost_total": "Sum of estimated plan costs (node-visit units).",
}


def register_planner_metrics(registry=None) -> None:
    """Expose :data:`PLANNER_COUNTERS` as ``planner_*`` callback counters."""
    from repro.obs.metrics import get_registry

    registry = registry if registry is not None else get_registry()
    for name in _PLANNER_FIELDS:
        registry.counter_callback(
            f"planner_{name}",
            _PLANNER_HELP.get(name, "Planner counter."),
            lambda field=name: PLANNER_COUNTERS.snapshot()[field],
        )
