"""The XPath engine facade: parse, plan, compile, evaluate, serialise.

This is the component a :class:`~repro.core.document.Document` delegates its
query methods to.  Each evaluation goes through the pipeline of the paper:

1. parse the query into the Core+ AST;
2. plan the strategy (top-down automaton run versus bottom-up from text
   matches, FM-index versus plain text);
3. compile the query to a marking tree automaton (cached per query string);
4. run the evaluator in counting or materialisation mode;
5. optionally serialise the selected subtrees back to XML.

Steps 1 and 3 are document-independent and live in a reusable
:class:`~repro.xpath.plan.PreparedQuery`; every query method of the engine
accepts either a query string (prepared and cached inside the engine) or an
externally shared prepared query (the compiled-plan cache of
:class:`~repro.service.QueryService` passes those in, so a corpus-wide query
parses and compiles once instead of once per document).
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field

from repro.core.errors import ReproError
from repro.core.options import EvaluationOptions
from repro.obs.metrics import CounterGroup
from repro.obs.tracing import get_tracer
from repro.xpath.ast import ImpossibleTest, NameTest, TextTest
from repro.xpath.bottomup import BottomUpEvaluator
from repro.xpath.compiler import CompiledQuery
from repro.xpath.evaluator import TopDownEvaluator
from repro.xpath.plan import PreparedQuery, prepare_query
from repro.xpath.planner import QueryPlan, QueryPlanner, as_builtin_predicate, collect_text_predicates
from repro.xpath.runtime import EvaluationStatistics, TextPredicateRuntime

__all__ = ["QueryResult", "XPathEngine", "ENGINE_METRICS", "record_query"]

#: The ``engine_*`` totals over every query the process evaluated, folded in
#: once per finished query (:func:`record_query`), never inside the
#: rank/select loops.  ``kernel_batch_calls_total`` counts batch *invocations*
#: while ``rank_calls_total``/``select_calls_total`` count engine-level scalar
#: operations, so the two are not comparable element-for-element.
ENGINE_METRICS = CounterGroup(
    {
        "engine_queries_total": "Queries evaluated by the engine.",
        "engine_queries_top_down_total": "Queries evaluated with the top-down strategy.",
        "engine_queries_bottom_up_total": "Queries evaluated with the bottom-up strategy.",
        "engine_visited_nodes_total": "Tree nodes visited during evaluation.",
        "engine_marked_nodes_total": "Nodes marked by the tree automaton.",
        "engine_result_nodes_total": "Nodes returned as query results.",
        "engine_jumps_total": "Tagged-descendant jumps taken instead of child walks.",
        "engine_text_queries_total": "Text-predicate evaluations.",
        "engine_fm_index_queries_total": "Queries that touched the FM-index.",
        "engine_rank_calls_total": "Scalar rank operations issued by the engine.",
        "engine_select_calls_total": "Scalar select operations issued by the engine.",
        "engine_kernel_batch_calls_total": "Vectorized batch-kernel invocations.",
    }
)

#: ``(EvaluationStatistics field, family)`` pairs summed once per query.
_SUMMED_FIELDS = tuple(
    (name, f"engine_{name}_total")
    for name in (
        "visited_nodes",
        "marked_nodes",
        "result_nodes",
        "jumps",
        "text_queries",
        "rank_calls",
        "select_calls",
        "kernel_batch_calls",
    )
)


def record_query(stats: EvaluationStatistics) -> None:
    """Fold one finished query's statistics into the ``engine_*`` counters."""
    counters = ENGINE_METRICS.children()
    counters["engine_queries_total"].inc()
    if stats.strategy == "bottom-up":
        counters["engine_queries_bottom_up_total"].inc()
    else:
        counters["engine_queries_top_down_total"].inc()
    for field_name, family in _SUMMED_FIELDS:
        amount = getattr(stats, field_name)
        if amount:
            counters[family].inc(amount)
    if stats.used_fm_index:
        counters["engine_fm_index_queries_total"].inc()


@dataclass
class QueryResult:
    """The outcome of one query evaluation."""

    query: str
    count: int
    nodes: list[int] | None = None
    plan: QueryPlan | None = None
    statistics: EvaluationStatistics = field(default_factory=EvaluationStatistics)
    elapsed_seconds: float = 0.0

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return iter(self.nodes or ())


class XPathEngine:
    """Evaluates Core+ queries over one indexed document.

    Every public method takes ``query`` as either a string or a
    :class:`~repro.xpath.plan.PreparedQuery`.
    """

    def __init__(self, document):
        # A weak reference: the document owns the engine, and a strong back
        # edge would make the pair collectible only by the cycle detector --
        # which keeps mmap-backed documents (and their mappings) alive past
        # LRU eviction.  The weakref keeps teardown purely refcount-driven.
        self._document_ref = weakref.ref(document)
        self._prepared: dict[str, PreparedQuery] = {}
        self._plan_cache: dict[tuple[str, bool], QueryPlan] = {}

    @property
    def _document(self):
        document = self._document_ref()
        if document is None:
            raise ReproError("the document backing this engine has been released")
        return document

    # -- compilation -------------------------------------------------------------------------------------

    def prepare(self, query: str | PreparedQuery) -> PreparedQuery:
        """Parse ``query`` into a reusable prepared plan (cached per string)."""
        if isinstance(query, PreparedQuery):
            return query
        prepared = self._prepared.get(query)
        if prepared is None:
            prepared = prepare_query(query)
            self._prepared[query] = prepared
        return prepared

    def parse(self, query: str | PreparedQuery):
        """Parse ``query`` (cached)."""
        return self.prepare(query).ast

    def compile(self, query: str | PreparedQuery) -> CompiledQuery:
        """Compile ``query`` to its marking automaton (cached per tag table)."""
        return self.prepare(query).bind(self._document.tree.tag_names())

    def plan(self, query: str | PreparedQuery, options: EvaluationOptions | None = None) -> QueryPlan:
        """The evaluation plan -- strategy, cardinalities, cost estimates --
        without running the query.

        This is the pre-flight path the service's cost estimation and the
        server's admission control use: planning touches only the succinct
        cardinality directories and the FM-index (for anchored predicates),
        never the evaluators, and is memoised per (query, allow_bottom_up).
        """
        options = options or EvaluationOptions()
        prepared = self.prepare(query)
        runtime = TextPredicateRuntime(self._document, EvaluationStatistics())
        planner = QueryPlanner(self._document, runtime, plan_cache=self._plan_cache)
        return planner.plan(
            prepared.ast,
            allow_bottom_up=options.allow_bottom_up,
            cache_key=(prepared.text, options.allow_bottom_up),
        )

    def explain(self, query: str | PreparedQuery, options: EvaluationOptions | None = None) -> str:
        """Describe the compiled automaton and the chosen strategy."""
        options = options or EvaluationOptions()
        prepared = self.prepare(query)
        compiled = self.compile(prepared)
        stats = EvaluationStatistics()
        runtime = TextPredicateRuntime(self._document, stats)
        plan = QueryPlanner(self._document, runtime).plan(prepared.ast, options.allow_bottom_up)
        lines = [f"query: {prepared.text}", f"strategy: {plan.describe()}"]
        lines.extend(f"  note: {reason}" for reason in plan.reasons)
        lines.append(compiled.describe(self._document.tree.tag_names()))
        return "\n".join(lines)

    # -- evaluation --------------------------------------------------------------------------------------------

    def _execute(
        self, query: str | PreparedQuery, options: EvaluationOptions, want_nodes: bool
    ) -> QueryResult:
        started = time.perf_counter()
        stats = EvaluationStatistics()
        runtime = TextPredicateRuntime(self._document, stats)
        tracer = get_tracer()
        with tracer.span("engine.query") as query_span:
            with tracer.span("engine.parse"):
                prepared = self.prepare(query)
            query_span.set_attribute("query", prepared.text)
            with tracer.span("engine.plan") as plan_span:
                planner = QueryPlanner(self._document, runtime, plan_cache=self._plan_cache)
                plan = planner.plan(
                    prepared.ast,
                    allow_bottom_up=options.allow_bottom_up,
                    cache_key=(prepared.text, options.allow_bottom_up),
                )
                plan_span.set_attribute("strategy", plan.strategy)
                plan_span.set_attribute("seed_estimate", plan.seed_estimate)
                plan_span.set_attribute("candidate_estimate", plan.candidate_estimate)
                plan_span.set_attribute("estimated_cost", plan.estimated_cost)
                plan_span.set_attribute("reasons", list(plan.reasons))
            stats.strategy = plan.strategy

            if plan.strategy == "bottom-up":
                with tracer.span("engine.evaluate", strategy="bottom-up") as eval_span:
                    evaluator = BottomUpEvaluator(
                        document=self._document,
                        path=prepared.ast,
                        anchor=plan.anchor_predicates,
                        predicate_runtime=runtime,
                        stats=stats,
                    )
                    nodes = evaluator.run()
                    count = len(nodes)
                    result_nodes = nodes if want_nodes else None
                    eval_span.set_attribute("count", count)
            else:
                with tracer.span("engine.bind"):
                    compiled = self.compile(prepared)
                use_counting_mode = not want_nodes and compiled.count_safe
                run_options = options.replace(counting=use_counting_mode)
                with tracer.span(
                    "engine.evaluate", strategy="top-down", counting=use_counting_mode
                ) as eval_span:
                    evaluator = TopDownEvaluator(
                        self._document,
                        compiled,
                        options=run_options,
                        predicate_runtime=runtime,
                        stats=stats,
                    )
                    if use_counting_mode:
                        count = evaluator.count()
                        result_nodes = None
                    else:
                        nodes = evaluator.materialize()
                        count = len(nodes)
                        result_nodes = nodes if want_nodes else None
                    eval_span.set_attribute("count", count)
            stats.result_nodes = count
            query_span.set_attribute("count", count)
        record_query(stats)
        elapsed = time.perf_counter() - started
        return QueryResult(
            query=prepared.text,
            count=count,
            nodes=result_nodes,
            plan=plan,
            statistics=stats,
            elapsed_seconds=elapsed,
        )

    def explain_data(
        self,
        query: str | PreparedQuery,
        options: EvaluationOptions | None = None,
        want_nodes: bool = False,
    ) -> dict:
        """Evaluate ``query`` and return the full EXPLAIN record.

        The record carries the chosen plan with its heuristic inputs, the
        *exact* cardinalities those inputs came from (per-step tag counts via
        the tag sequence's rank directory, per-predicate match counts via the
        FM-index), the evaluation statistics, and a span tree of the stages.
        Tracing is forced for the duration, so EXPLAIN works even when the
        global tracer is disabled.
        """
        options = options or EvaluationOptions()
        tracer = get_tracer()
        root = tracer.span("explain", force=True)
        with root:
            result = self._execute(query, options, want_nodes=want_nodes)
        plan = result.plan or QueryPlan()
        return {
            "query": result.query,
            "strategy": plan.strategy,
            "estimated_cost": plan.estimated_cost,
            "plan": plan.as_dict(),
            "cardinalities": self.exact_cardinalities(query),
            "statistics": result.statistics.as_dict(),
            "count": result.count,
            "nodes": result.nodes if want_nodes else None,
            "elapsed_seconds": result.elapsed_seconds,
            "trace": root.to_dict(),
        }

    def exact_cardinalities(self, query: str | PreparedQuery) -> dict:
        """Exact per-step and per-predicate input cardinalities of the plan heuristic.

        Step counts come from the tag sequence's rank directory
        (``TagSequence.rank``-backed ``tag_count``); text-predicate match
        counts come from FM-index ``count``/``locate``.
        """
        prepared = self.prepare(query)
        tree = self._document.tree
        steps = []
        for step in prepared.ast.steps:
            if isinstance(step.test, NameTest):
                tag = tree.tag_id(step.test.name)
                tag_count = tree.tag_count(tag) if tag >= 0 else 0
            elif isinstance(step.test, TextTest):
                tag_count = tree.num_texts
            elif isinstance(step.test, ImpossibleTest):
                tag_count = 0
            else:
                tag_count = None
            steps.append({"step": f"{step.axis.value}::{step.test.describe()}", "tag_count": tag_count})
        runtime = TextPredicateRuntime(self._document)
        predicates = []
        for predicate in collect_text_predicates(prepared.ast):
            builtin = as_builtin_predicate(predicate)
            if builtin.kind == "pssm":
                label = f"pssm({builtin.pattern!r}, {builtin.threshold})"
            else:
                label = f"{builtin.kind}({builtin.pattern!r})"
            predicates.append({"predicate": label, "matching_texts": runtime.estimated_matches(builtin)})
        return {"steps": steps, "text_predicates": predicates}

    def count(self, query: str | PreparedQuery, options: EvaluationOptions | None = None) -> int:
        """Number of nodes selected by ``query`` (counting mode)."""
        return self._execute(query, options or EvaluationOptions(), want_nodes=False).count

    def materialize(self, query: str | PreparedQuery, options: EvaluationOptions | None = None) -> list[int]:
        """The selected nodes, in document order."""
        result = self._execute(query, options or EvaluationOptions(), want_nodes=True)
        return result.nodes or []

    def evaluate(
        self,
        query: str | PreparedQuery,
        options: EvaluationOptions | None = None,
        want_nodes: bool = True,
    ) -> QueryResult:
        """Full evaluation returning the result object (nodes, plan, statistics)."""
        return self._execute(query, options or EvaluationOptions(), want_nodes=want_nodes)

    def serialize(self, query: str | PreparedQuery, options: EvaluationOptions | None = None) -> list[str]:
        """Evaluate and serialise each selected node back to XML text."""
        nodes = self.materialize(query, options)
        return [self._document.serialize_node(node) for node in nodes]
