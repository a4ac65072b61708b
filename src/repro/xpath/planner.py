"""Query planning: evaluation strategy selection.

Section 6.6 of the paper describes the decision procedure SXSI applies before
evaluating a query with text predicates:

1. determine whether the query *can* be run bottom-up (it has the shape
   ``/axis::step/.../axis::step[pred]`` with forward ``child``/``descendant``
   steps and predicates on the last step only);
2. determine whether the text predicates apply to a single text node (the
   selected element is known to be PCDATA, or the step ends in ``text()``);
   if not, the naive text representation must be used to preserve XPath's
   string-value semantics over mixed content;
3. choose bottom-up when the text predicate is selective (fewer matching texts
   than candidate elements), top-down otherwise.

The planner implements those checks over the parsed AST and the document
statistics, and records the decision so benchmarks can report the strategy
markers (down-arrow / up-arrow, FM-index / naive) of Figure 14.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs.metrics import CounterGroup
from repro.xpath.ast import (
    AndExpr,
    Axis,
    ImpossibleTest,
    LocationPath,
    NameTest,
    NotExpr,
    OrExpr,
    PathExpr,
    Predicate,
    PssmPredicate,
    Step,
    TextPredicate,
    TextTest,
    WildcardTest,
)
from repro.xpath.cost import CostEstimate, element_candidate_bound, estimate_plan_costs
from repro.xpath.formula import BuiltinPredicate
from repro.xpath.runtime import TextPredicateRuntime

__all__ = [
    "QueryPlan",
    "QueryPlanner",
    "PLANNER_METRICS",
    "collect_text_predicates",
    "as_builtin_predicate",
]

#: The ``planner_*`` totals over every plan the process built.  Plans count at
#: *build* time (plan-cache misses), not per execution -- the per-execution
#: strategy mix is on the ``engine_*`` counters.  ``planner_estimated_cost_total``
#: sums floats in node-visit units (see :mod:`repro.xpath.cost`).
PLANNER_METRICS = CounterGroup(
    {
        "planner_plans_total": "Query plans built (plan-cache misses).",
        "planner_plans_bottom_up_total": "Plans that chose the bottom-up (text-seeded) strategy.",
        "planner_plans_top_down_total": "Plans that chose the top-down automaton strategy.",
        "planner_plans_naive_text_total": "Plans forced onto the naive text store (mixed content).",
        "planner_wildcard_candidate_fallbacks_total": "Wildcard last steps costed via the element-count bound.",
        "planner_estimated_cost_total": "Sum of estimated plan costs (node-visit units).",
    }
)


def collect_text_predicates(path: LocationPath) -> list[TextPredicate | PssmPredicate]:
    """Every text/PSSM predicate anywhere in ``path`` (steps and filter paths)."""
    found: list[TextPredicate | PssmPredicate] = []

    def visit_predicate(predicate: Predicate) -> None:
        if isinstance(predicate, (TextPredicate, PssmPredicate)):
            found.append(predicate)
        elif isinstance(predicate, (AndExpr, OrExpr)):
            visit_predicate(predicate.left)
            visit_predicate(predicate.right)
        elif isinstance(predicate, NotExpr):
            visit_predicate(predicate.operand)
        elif isinstance(predicate, PathExpr):
            visit_path(predicate.path)

    def visit_path(p: LocationPath) -> None:
        for step in p.steps:
            for predicate in step.predicates:
                visit_predicate(predicate)

    visit_path(path)
    return found


def as_builtin_predicate(predicate: TextPredicate | PssmPredicate) -> BuiltinPredicate:
    """The runtime-evaluable form of an AST text/PSSM predicate."""
    if isinstance(predicate, TextPredicate):
        return BuiltinPredicate(-1, predicate.kind, predicate.pattern)
    return BuiltinPredicate(-1, "pssm", predicate.matrix_name, predicate.threshold)


@dataclass
class QueryPlan:
    """The chosen evaluation strategy and the reasons behind it."""

    strategy: str = "top-down"
    uses_fm_index: bool = False
    uses_naive_text: bool = False
    anchor_predicates: list[BuiltinPredicate] = field(default_factory=list)
    seed_estimate: int | None = None
    candidate_estimate: int | None = None
    reasons: list[str] = field(default_factory=list)
    #: Cost-model outputs (node-visit units; see :mod:`repro.xpath.cost`).
    estimated_cost: float | None = None
    result_estimate: int | None = None
    cost: CostEstimate | None = None

    def describe(self) -> str:
        """One-line summary, e.g. ``bottom-up (FM-index), 42 seeds``."""
        text_part = "FM-index" if self.uses_fm_index else ("naive text" if self.uses_naive_text else "tree only")
        extra = ""
        if self.seed_estimate is not None:
            extra = f", {self.seed_estimate} seeds"
        if self.estimated_cost is not None:
            extra += f", ~{self.estimated_cost:.0f} cost"
        return f"{self.strategy} ({text_part}){extra}"

    def as_dict(self) -> dict:
        """The plan and its heuristic inputs as a JSON-serialisable record."""
        return {
            "strategy": self.strategy,
            "uses_fm_index": self.uses_fm_index,
            "uses_naive_text": self.uses_naive_text,
            "seed_estimate": self.seed_estimate,
            "candidate_estimate": self.candidate_estimate,
            "reasons": list(self.reasons),
            "estimated_cost": self.estimated_cost,
            "result_estimate": self.result_estimate,
            "costs": self.cost.as_dict() if self.cost is not None else None,
            "summary": self.describe(),
        }


class QueryPlanner:
    """Chooses between top-down and bottom-up evaluation for a parsed query.

    The decision is deterministic per (document, query, ``allow_bottom_up``)
    but involves text-index match estimation, so callers that evaluate the
    same query repeatedly (the engine, the service layer) pass a persistent
    ``plan_cache`` dict and a ``cache_key``; the planner then memoises the
    built plans there.
    """

    def __init__(
        self,
        document,
        predicate_runtime: TextPredicateRuntime,
        plan_cache: dict[tuple, QueryPlan] | None = None,
    ):
        self._document = document
        self._runtime = predicate_runtime
        self._plan_cache = plan_cache

    # -- public API ------------------------------------------------------------------------------------

    def plan(self, path: LocationPath, allow_bottom_up: bool = True, cache_key: tuple | None = None) -> QueryPlan:
        """Build the evaluation plan for ``path`` (memoised under ``cache_key``)."""
        if self._plan_cache is not None and cache_key is not None:
            cached = self._plan_cache.get(cache_key)
            if cached is not None:
                return cached
        plan = self._build_plan(path, allow_bottom_up)
        if self._plan_cache is not None and cache_key is not None:
            self._plan_cache[cache_key] = plan
        return plan

    def _build_plan(self, path: LocationPath, allow_bottom_up: bool) -> QueryPlan:
        plan = QueryPlan()
        text_predicates = self._collect_text_predicates(path)
        if text_predicates:
            plan.uses_fm_index = True

        if not allow_bottom_up:
            plan.reasons.append("bottom-up disabled by options")
            self._check_mixed_content(path, plan)
            return self._finalise(plan, path, len(text_predicates))

        if not self._spine_is_bottom_up_capable(path):
            plan.reasons.append("query shape requires the top-down run (intermediate filters or axes)")
            self._check_mixed_content(path, plan)
            return self._finalise(plan, path, len(text_predicates))

        anchors = self._extract_anchor(path.last_step)
        if not anchors:
            plan.reasons.append("no required text predicate to seed a bottom-up run")
            self._check_mixed_content(path, plan)
            return self._finalise(plan, path, len(text_predicates))

        if any(isinstance(a, TextPredicate) and a.pattern == "" for a in anchors):
            # A predicate the empty string satisfies also holds on nodes with
            # *no* text below them, which no text-index seed can reach: the
            # bottom-up run would silently miss them.
            plan.reasons.append("anchor predicate accepts the empty string value: top-down")
            self._check_mixed_content(path, plan)
            return self._finalise(plan, path, len(text_predicates))

        if not self._anchors_have_single_text_semantics(path.last_step, anchors):
            plan.reasons.append("predicate may span several text nodes (mixed content): naive text strategy")
            plan.uses_naive_text = True
            plan.uses_fm_index = False
            return self._finalise(plan, path, len(text_predicates))

        builtins = [self._as_builtin(a) for a in anchors]
        # Seed collection is array-valued: each anchor's matching ids come
        # back as one sorted numpy array (computed through the batched
        # FM-index locate path) that the bottom-up evaluator will reuse.
        # Disjunctive anchors are a *union* of those arrays -- summing the
        # sizes double-counts texts matched by several branches and inflates
        # the seed estimate past the real seed set the evaluator walks.
        seeds = int(self._seed_id_union(builtins).size)
        candidates = self._candidate_estimate(path.last_step)
        if candidates is None:
            # Wildcard/node() last step: no per-tag count exists, but the
            # selectivity guard must still run -- skipping it picked bottom-up
            # unconditionally, however unselective the predicate.  Bound the
            # candidates by the element count the tree gives exactly.
            candidates = element_candidate_bound(self._document.tree)
            plan.reasons.append(
                f"wildcard last step: bounding candidates by the document's {candidates} element nodes"
            )
            PLANNER_METRICS.children()["planner_wildcard_candidate_fallbacks_total"].inc()
        plan.seed_estimate = seeds
        plan.candidate_estimate = candidates
        if seeds > candidates:
            plan.reasons.append(
                f"text predicate not selective enough ({seeds} texts vs {candidates} candidate elements)"
            )
            return self._finalise(plan, path, len(text_predicates))
        plan.strategy = "bottom-up"
        plan.anchor_predicates = builtins
        plan.reasons.append(f"selective text predicate: {seeds} matching texts")
        return self._finalise(plan, path, len(text_predicates))

    def _seed_id_union(self, builtins: list[BuiltinPredicate]) -> np.ndarray:
        """The distinct text ids any anchor matches (arrays are sorted already)."""
        arrays = [self._runtime.matching_id_array(builtin) for builtin in builtins]
        if len(arrays) == 1:
            return arrays[0]
        return np.unique(np.concatenate(arrays)) if arrays else np.empty(0, dtype=np.int64)

    def _finalise(self, plan: QueryPlan, path: LocationPath, num_text_predicates: int) -> QueryPlan:
        """Attach the cost-model outputs and fold the plan into the counters."""
        tree = self._document.tree
        plan.cost = estimate_plan_costs(
            tree,
            path,
            seeds=plan.seed_estimate,
            candidates=plan.candidate_estimate,
            num_text_predicates=num_text_predicates,
        )
        plan.estimated_cost = plan.cost.for_strategy(plan.strategy)
        plan.result_estimate = plan.cost.result
        counters = PLANNER_METRICS.children()
        counters["planner_plans_total"].inc()
        if plan.strategy == "bottom-up":
            counters["planner_plans_bottom_up_total"].inc()
        else:
            counters["planner_plans_top_down_total"].inc()
        if plan.uses_naive_text:
            counters["planner_plans_naive_text_total"].inc()
        if plan.estimated_cost is not None:
            counters["planner_estimated_cost_total"].inc(float(plan.estimated_cost))
        return plan

    # -- helpers ---------------------------------------------------------------------------------------------

    def _collect_text_predicates(self, path: LocationPath) -> list[TextPredicate | PssmPredicate]:
        return collect_text_predicates(path)

    def _spine_is_bottom_up_capable(self, path: LocationPath) -> bool:
        steps = path.steps
        for index, step in enumerate(steps):
            if step.axis not in (Axis.CHILD, Axis.DESCENDANT):
                return False
            if index != len(steps) - 1 and step.predicates:
                return False
        return bool(steps) and bool(steps[-1].predicates)

    def _extract_anchor(self, step: Step) -> list[TextPredicate | PssmPredicate]:
        """Find a *required* text-predicate conjunct to seed the bottom-up run.

        Walks the conjunction structure of the last step's predicates; a
        conjunct qualifies when it is a text predicate on the step itself, a
        pure descendant/child chain ending in one, or a disjunction whose
        branches all qualify (the seed set is then the union).
        """

        def anchored(predicate: Predicate) -> list[TextPredicate | PssmPredicate] | None:
            if isinstance(predicate, (TextPredicate, PssmPredicate)):
                return [predicate]
            if isinstance(predicate, OrExpr):
                left = anchored(predicate.left)
                right = anchored(predicate.right)
                if left is not None and right is not None:
                    return left + right
                return None
            if isinstance(predicate, PathExpr):
                return self._anchored_chain(predicate.path)
            return None

        for top in step.predicates:
            # Walk the conjunction tree looking for one anchored conjunct.
            stack = [top]
            while stack:
                predicate = stack.pop()
                if isinstance(predicate, AndExpr):
                    stack.append(predicate.left)
                    stack.append(predicate.right)
                    continue
                result = anchored(predicate)
                if result:
                    return result
        return []

    def _anchored_chain(self, path: LocationPath) -> list[TextPredicate | PssmPredicate] | None:
        """A filter path qualifies when it is a child/descendant chain whose
        last step carries (only) text predicates."""
        if not path.steps:
            return None
        for step in path.steps[:-1]:
            if step.axis not in (Axis.CHILD, Axis.DESCENDANT) or step.predicates:
                return None
        last = path.steps[-1]
        if last.axis not in (Axis.CHILD, Axis.DESCENDANT):
            return None
        anchors: list[TextPredicate | PssmPredicate] = []
        for predicate in last.predicates:
            if isinstance(predicate, (TextPredicate, PssmPredicate)):
                anchors.append(predicate)
            else:
                return None
        return anchors or None

    def _anchors_have_single_text_semantics(self, step: Step, anchors) -> bool:
        """Whether the anchored predicates are guaranteed to apply to single texts."""
        document = self._document
        targets: list[Step] = []
        for predicate in step.predicates:
            targets.extend(self._anchor_target_steps(step, predicate))
        if not targets:
            targets = [step]
        for target in targets:
            if isinstance(target.test, TextTest):
                continue
            if isinstance(target.test, NameTest) and document.is_pcdata_only(target.test.name):
                continue
            if isinstance(target.test, WildcardTest):
                return False
            if isinstance(target.test, NameTest):
                return False
        return True

    def _anchor_target_steps(self, step: Step, predicate: Predicate) -> list[Step]:
        if isinstance(predicate, (TextPredicate, PssmPredicate)):
            return [step]
        if isinstance(predicate, AndExpr):
            return self._anchor_target_steps(step, predicate.left) + self._anchor_target_steps(step, predicate.right)
        if isinstance(predicate, OrExpr):
            return self._anchor_target_steps(step, predicate.left) + self._anchor_target_steps(step, predicate.right)
        if isinstance(predicate, PathExpr) and predicate.path.steps:
            last = predicate.path.steps[-1]
            if any(isinstance(p, (TextPredicate, PssmPredicate)) for p in last.predicates):
                return [last]
        return []

    def _as_builtin(self, predicate: TextPredicate | PssmPredicate) -> BuiltinPredicate:
        return as_builtin_predicate(predicate)

    def _candidate_estimate(self, step: Step) -> int | None:
        tree = self._document.tree
        if isinstance(step.test, NameTest):
            tag = tree.tag_id(step.test.name)
            return tree.tag_count(tag) if tag >= 0 else 0
        if isinstance(step.test, TextTest):
            return tree.num_texts
        if isinstance(step.test, ImpossibleTest):
            return 0
        return None

    def _check_mixed_content(self, path: LocationPath, plan: QueryPlan) -> None:
        """Record whether any text predicate may need the naive (plain) text store."""
        for step in path.steps:
            for predicate in step.predicates:
                for target in self._anchor_target_steps(step, predicate):
                    if isinstance(target.test, TextTest):
                        continue
                    if isinstance(target.test, NameTest) and self._document.is_pcdata_only(target.test.name):
                        continue
                    if self._collect_text_predicates(path):
                        plan.uses_naive_text = True
