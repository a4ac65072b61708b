"""The planner's cost model: per-strategy work and result-size estimates.

The ROADMAP's cost-based-planning item observes that the succinct structures
answer the cardinality questions a cost model needs *exactly* and in
O(1)/O(polylog):

* per-tag element counts come from the tag sequence's rank directory
  (``SuccinctTree.tag_count``);
* text and node totals are stored document statistics;
* text-predicate match counts come from FM-index ``count``/``locate`` (the
  planner already materialises the anchor seed arrays, so their sizes are
  free by the time costing runs);
* attribute-interior sizes come from BP ``subtree_size`` over the ``@``
  containers, which lets the wildcard candidate bound exclude the attribute
  machinery the candidate walk never visits.

Costs are expressed in **node visits**: one unit is roughly one tree-node
touch (a rank/select-backed navigation step).  That makes the estimate
directly comparable to ``EvaluationStatistics.visited_nodes``, which is what
the workload analytics and the ``bench_planner_cost`` leg use to hold the
model to estimated-vs-actual account.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.xpath.ast import (
    ImpossibleTest,
    LocationPath,
    NameTest,
    NodeTypeTest,
    Step,
    TextTest,
    WildcardTest,
)

__all__ = [
    "CostEstimate",
    "depth_hint",
    "element_candidate_bound",
    "step_cardinality",
    "estimate_plan_costs",
]

#: Fraction of the document's element nodes the top-down automaton touches
#: regardless of the query: the jump-driven run maintains a frontier over the
#: relevant-tag occurrences and their root spines, and measurement (the
#: ``bench_planner_cost`` leg) shows that frontier is document-size
#: proportional and nearly query-independent.  Charging it keeps the
#: estimate's *ordering* aligned with measured ``visited_nodes`` across
#: documents of different sizes -- the axis admission control prices.
TOP_DOWN_FRONTIER_FRACTION = 0.25

#: Labels the candidate walk never yields: text leaves, the attribute
#: container, attribute-value leaves and the synthetic root.
_SPECIAL_LABELS = ("#", "@", "%", "&")


def depth_hint(num_nodes: int) -> int:
    """Expected ancestor-walk length: ``ceil(log2 n)``, capped.

    Real documents are bushy, so the balanced-tree log is the right order of
    magnitude for a seed's root path; the cap keeps one degenerate chain
    document from dominating every estimate.
    """
    if num_nodes <= 1:
        return 1
    return min(64, int(math.ceil(math.log2(num_nodes + 1))))


def element_candidate_bound(tree) -> int:
    """How many nodes a wildcard last step can select, exactly.

    ``num_nodes`` minus the special labels minus the attribute-name nodes
    hiding inside ``@`` subtrees (each attribute contributes one name node and
    one ``%`` value leaf, so the name nodes are half the ``@`` interior --
    counted via BP subtree sizes).  This is the conservative fallback the
    planner uses when the last step gives no per-tag count.
    """
    total = int(tree.num_nodes)
    for label in _SPECIAL_LABELS:
        tag = tree.tag_id(label)
        if tag >= 0:
            total -= int(tree.tag_count(tag))
    at = tree.tag_id("@")
    if at >= 0 and tree.tag_count(at):
        containers = tree.tagged_nodes(at)
        interiors = tree.subtree_size_many(containers) - 1
        total -= int(interiors.sum()) // 2
    return max(0, total)


def step_cardinality(tree, step: Step) -> int:
    """An exact upper bound on the nodes one step can select, per test kind."""
    test = step.test
    if isinstance(test, NameTest):
        tag = tree.tag_id(test.name)
        return int(tree.tag_count(tag)) if tag >= 0 else 0
    if isinstance(test, TextTest):
        return int(tree.num_texts)
    if isinstance(test, ImpossibleTest):
        return 0
    if isinstance(test, NodeTypeTest):
        return element_candidate_bound(tree) + int(tree.num_texts)
    if isinstance(test, WildcardTest):
        return element_candidate_bound(tree)
    return element_candidate_bound(tree) + int(tree.num_texts)


@dataclass
class CostEstimate:
    """Per-strategy work estimates for one (document, query) pair.

    ``top_down`` is always available; ``bottom_up`` is ``None`` when the query
    has no anchored text predicate to seed from.  ``result`` is an upper bound
    on the number of result nodes.  All work figures are in node-visit units
    (comparable to ``EvaluationStatistics.visited_nodes``).
    """

    top_down: float
    bottom_up: float | None = None
    result: int | None = None
    depth: int = 1
    unit: str = "node-visits"

    def for_strategy(self, strategy: str) -> float:
        if strategy == "bottom-up" and self.bottom_up is not None:
            return self.bottom_up
        return self.top_down

    def as_dict(self) -> dict:
        return {
            "top_down": round(self.top_down, 3),
            "bottom_up": None if self.bottom_up is None else round(self.bottom_up, 3),
            "result_estimate": self.result,
            "depth_hint": self.depth,
            "unit": self.unit,
        }


def estimate_plan_costs(
    tree,
    path: LocationPath,
    *,
    seeds: int | None = None,
    candidates: int | None = None,
    num_text_predicates: int = 0,
) -> CostEstimate:
    """Cost both strategies from exact cardinalities.

    ``seeds`` is the anchored text-match count (FM-index backed, ``None`` when
    the query has no anchor) and ``candidates`` the last-step element bound.

    * **top-down** pays a document-proportional automaton frontier
      (:data:`TOP_DOWN_FRONTIER_FRACTION` of the element nodes -- the jump
      run's nearly query-independent floor), plus the sum of per-step
      cardinalities, plus text-predicate work: each predicate is evaluated
      once per last-step candidate reaching it, and one evaluation costs
      about one node-visit unit (an FM-index count, or a text fetch on the
      naive path).
    * **bottom-up** climbs from each seed text to the root (``seeds x depth``)
      and verifies the spine on the surviving candidates.
    """
    depth = depth_hint(int(tree.num_nodes))
    spine = [step_cardinality(tree, step) for step in path.steps]
    step_work = float(sum(spine))
    frontier = TOP_DOWN_FRONTIER_FRACTION * element_candidate_bound(tree)
    text_work = float(spine[-1] if spine else 0) * num_text_predicates
    top_down = max(1.0, frontier + step_work + text_work)

    bottom_up: float | None = None
    result: int | None = None
    last = spine[-1] if spine else 0
    if seeds is not None:
        climb = float(seeds) * (1 + depth)
        survivors = min(float(seeds) * depth, float(candidates) if candidates is not None else float("inf"))
        bottom_up = max(1.0, climb + survivors * max(1, len(path.steps)))
        result = int(min(last, seeds * depth)) if spine else int(seeds) * depth
    elif spine:
        result = int(last)
    return CostEstimate(top_down=top_down, bottom_up=bottom_up, result=result, depth=depth)
