"""Run-time support for automaton evaluation.

Three concerns of Section 5.5 live here:

* **Result sets** (Section 5.5.3/5.5.4): the marks accumulated by an accepting
  run.  In counting mode they are plain integers; in materialisation mode they
  are concatenation trees with O(1) union and lazily expanded "all ``tag``
  descendants of ``x``" nodes, so marking never copies lists.
* **Built-in predicate evaluation**: text predicates (``contains`` & friends)
  and PSSM predicates are answered through the text collection -- via the
  FM-index when the predicate applies to a single text (the paper's fast
  path), and via the plain string value otherwise (mixed content).
* **Statistics**: visited/marked node counts, used by Figure 13.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.obs.tracing import get_tracer

__all__ = [
    "EvaluationStatistics",
    "ResultSemiring",
    "CountingSemiring",
    "MaterializingSemiring",
    "TextPredicateRuntime",
]


@dataclass
class EvaluationStatistics:
    """Counters gathered during one query evaluation (Figure 13).

    The call counters sit at engine granularity, not inside the succinct
    structures: ``rank_calls``/``select_calls`` count scalar engine-level
    operations (one navigation answered per call), while
    ``kernel_batch_calls`` counts batch-kernel *invocations* -- one
    ``parent_many`` over ten thousand nodes is a single call.  The two
    are therefore deliberately not element-comparable.
    """

    visited_nodes: int = 0
    marked_nodes: int = 0
    result_nodes: int = 0
    jumps: int = 0
    text_queries: int = 0
    strategy: str = "top-down"
    used_fm_index: bool = False
    rank_calls: int = 0
    select_calls: int = 0
    kernel_batch_calls: int = 0

    def as_dict(self) -> dict:
        """The counters as a plain dictionary (handy for benchmark reports)."""
        return {
            "visited": self.visited_nodes,
            "marked": self.marked_nodes,
            "results": self.result_nodes,
            "jumps": self.jumps,
            "text_queries": self.text_queries,
            "strategy": self.strategy,
            "used_fm_index": self.used_fm_index,
            "rank_calls": self.rank_calls,
            "select_calls": self.select_calls,
            "kernel_batch_calls": self.kernel_batch_calls,
        }


# ---------------------------------------------------------------------------
# Result sets
# ---------------------------------------------------------------------------


class ResultSemiring:
    """Interface of the result-set algebra used by the formula evaluator."""

    def empty(self):
        """The neutral result (no marks)."""
        raise NotImplementedError

    def mark(self, node: int):
        """The result marking exactly ``node``."""
        raise NotImplementedError

    def union(self, a, b):
        """Union of two (disjoint) results; must be O(1)."""
        raise NotImplementedError

    def collect_tagged_range(self, tree, lo: int, hi: int, tag: int):
        """All ``tag``-labelled nodes with opening parenthesis in ``[lo, hi)``."""
        raise NotImplementedError

    def count(self, result) -> int:
        """Number of marked nodes in ``result``."""
        raise NotImplementedError

    def materialize(self, result) -> list[int]:
        """The marked nodes in document order (only meaningful when materialising)."""
        raise NotImplementedError


class CountingSemiring(ResultSemiring):
    """Results are integers: marking increments, union adds (Section 5.5.3)."""

    def empty(self) -> int:
        return 0

    def mark(self, node: int) -> int:
        return 1

    def union(self, a: int, b: int) -> int:
        return a + b

    def collect_tagged_range(self, tree, lo: int, hi: int, tag: int) -> int:
        return tree.tag_sequence.count_in_range(tag, lo, hi)

    def count(self, result: int) -> int:
        return int(result)

    def materialize(self, result: int) -> list[int]:
        raise TypeError("counting results cannot be materialised; re-run in materialisation mode")


class _Concat:
    """Internal node of a lazy concatenation tree."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


class _TaggedRange:
    """Lazy 'all tag-labelled nodes in a parenthesis range' marker."""

    __slots__ = ("lo", "hi", "tag")

    def __init__(self, lo: int, hi: int, tag: int):
        self.lo = lo
        self.hi = hi
        self.tag = tag


class MaterializingSemiring(ResultSemiring):
    """Results are concatenation trees over node identifiers (lazy result sets)."""

    _EMPTY = None

    def empty(self):
        return self._EMPTY

    def mark(self, node: int):
        return node

    def union(self, a, b):
        if a is self._EMPTY:
            return b
        if b is self._EMPTY:
            return a
        return _Concat(a, b)

    def collect_tagged_range(self, tree, lo: int, hi: int, tag: int):
        return _TaggedRange(lo, hi, tag)

    def _walk(self, tree, result) -> Iterable[int]:
        stack = [result]
        while stack:
            item = stack.pop()
            if item is self._EMPTY:
                continue
            if isinstance(item, _Concat):
                stack.append(item.right)
                stack.append(item.left)
            elif isinstance(item, _TaggedRange):
                tags = tree.tag_sequence
                first = tags.rank(item.tag, item.lo)
                last = tags.rank(item.tag, item.hi)
                for occurrence in range(first + 1, last + 1):
                    yield tags.select(item.tag, occurrence)
            else:
                yield item

    def count(self, result) -> int:  # pragma: no cover - needs the tree
        raise TypeError("use count_with_tree(); lazy ranges need the tag index to be counted")

    def materialize_with_tree(self, tree, result) -> list[int]:
        """Flatten the concatenation tree into a sorted list of node identifiers."""
        nodes = sorted(set(self._walk(tree, result)))
        return nodes

    def materialize(self, result) -> list[int]:  # pragma: no cover - needs the tree
        raise TypeError("use materialize_with_tree(); lazy ranges need the tree index")

    def count_with_tree(self, tree, result) -> int:
        """Count marked nodes, expanding lazy ranges through the tag index only."""
        total = 0
        stack = [result]
        while stack:
            item = stack.pop()
            if item is self._EMPTY:
                continue
            if isinstance(item, _Concat):
                stack.append(item.right)
                stack.append(item.left)
            elif isinstance(item, _TaggedRange):
                total += tree.tag_sequence.count_in_range(item.tag, item.lo, item.hi)
            else:
                total += 1
        return total


# ---------------------------------------------------------------------------
# Built-in predicate evaluation
# ---------------------------------------------------------------------------


@dataclass
class _PredicatePlan:
    """Cached evaluation data for one built-in predicate."""

    #: Sorted text identifiers matching the predicate (the canonical form;
    #: the bottom-up seeds and the planner consume this array directly).
    matching_id_array: np.ndarray | None = None
    #: Same identifiers as a set, materialised lazily for membership tests.
    matching_text_ids: set[int] | None = None
    uses_fm_index: bool = False


class TextPredicateRuntime:
    """Evaluates built-in predicates against the document's text collection.

    The fast path precomputes, per predicate, the set of matching *text
    identifiers* using the FM-index operations of Section 3.2; a predicate on a
    node whose string value is a single text then reduces to one membership
    test.  Mixed-content nodes (several texts concatenated) fall back to the
    plain string value, preserving XPath semantics (Section 6.6's discussion of
    queries M10/M11).
    """

    def __init__(self, document, stats: EvaluationStatistics | None = None):
        self._document = document
        self._stats = stats or EvaluationStatistics()
        self._plans: dict[tuple, _PredicatePlan] = {}

    # -- matching-id computation ------------------------------------------------------------------

    def _compute_matching_ids(self, predicate) -> _PredicatePlan:
        document = self._document
        plan = _PredicatePlan()
        self._stats.text_queries += 1
        self._stats.kernel_batch_calls += 1
        with get_tracer().span(
            "engine.text_predicate", kind=predicate.kind, pattern=str(predicate.pattern)
        ) as span:
            ids = document.match_text_predicate(predicate.kind, predicate.pattern, predicate.threshold)
            plan.matching_id_array = np.unique(np.asarray(ids, dtype=np.int64))
            span.set_attribute("matching_texts", int(plan.matching_id_array.size))
        plan.uses_fm_index = True
        self._stats.used_fm_index = True
        return plan

    def _plan_for(self, predicate) -> _PredicatePlan:
        key = (predicate.kind, predicate.pattern, predicate.threshold)
        plan = self._plans.get(key)
        if plan is None or plan.matching_id_array is None:
            plan = self._compute_matching_ids(predicate)
            self._plans[key] = plan
        return plan

    def matching_id_array(self, predicate) -> np.ndarray:
        """Sorted text identifiers whose text satisfies ``predicate`` (shared array)."""
        array = self._plan_for(predicate).matching_id_array
        assert array is not None
        return array

    def matching_text_ids(self, predicate) -> set[int]:
        """The set of text identifiers whose text satisfies ``predicate``."""
        plan = self._plan_for(predicate)
        if plan.matching_text_ids is None:
            plan.matching_text_ids = set(int(d) for d in plan.matching_id_array)
        return plan.matching_text_ids

    def estimated_matches(self, predicate) -> int:
        """Number of matching texts (used by the planner to pick a strategy)."""
        return int(self.matching_id_array(predicate).size)

    # -- per-node evaluation -----------------------------------------------------------------------------

    def _string_value_matches(self, predicate, value: str) -> bool:
        if predicate.kind == "pssm":
            matrix, threshold = self._document.pssm_matrix(predicate.pattern, predicate.threshold)
            encoded = value.encode("utf-8", errors="replace")
            if len(encoded) < matrix.length:
                return False
            return any(
                matrix.score_window(encoded[i : i + matrix.length]) >= threshold
                for i in range(len(encoded) - matrix.length + 1)
            )
        pattern = predicate.pattern
        if predicate.kind == "contains":
            return pattern in value
        if predicate.kind == "starts-with":
            return value.startswith(pattern)
        if predicate.kind == "ends-with":
            return value.endswith(pattern)
        if predicate.kind == "equals":
            return value == pattern
        raise ValueError(f"unknown predicate kind {predicate.kind!r}")

    def evaluate(self, predicate, node: int) -> bool:
        """Whether ``predicate`` holds on the string value of ``node``."""
        tree = self._document.tree
        first, last = tree.text_ids(node)
        if last - first == 1:
            return (first) in self.matching_text_ids(predicate)
        if last == first:
            return self._string_value_matches(predicate, "")
        # Mixed content: the searched string may span several texts, so the
        # single-text index answer is not sufficient (queries M10/M11).
        value = self._document.string_value(node)
        return self._string_value_matches(predicate, value)
