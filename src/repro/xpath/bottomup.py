"""Bottom-up query evaluation seeded by text matches.

Section 5.4.2 of the paper: for queries of the shape

.. code-block:: text

    /axis::step/.../axis::step[ pred ]

with a highly selective text predicate, it is much faster to ask the text
index for the matching texts first, and then verify -- for each matching text
leaf -- that its upward path matches the query spine, than to run the
automaton over the whole document.

The implementation follows the same idea as the paper's ``BottomUpRun`` /
``MatchAbove`` pair but is organised around memoised upward verification
(one entry per (ancestor, spine position)), which gives the same sharing of
work between candidates that the paper obtains by walking matches left to
right up to their lowest common ancestors, without deep recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import UnsupportedQueryError
from repro.tree.succinct_tree import NIL
from repro.xpath.ast import (
    AndExpr,
    Axis,
    LocationPath,
    NameTest,
    NodeTypeTest,
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
from repro.xpath.formula import BuiltinPredicate
from repro.xpath.runtime import EvaluationStatistics, TextPredicateRuntime

__all__ = ["BottomUpEvaluator", "DirectPredicateChecker"]


class DirectPredicateChecker:
    """Evaluates Core+ predicates directly over the succinct tree.

    Used by the bottom-up strategy to validate candidate nodes; text
    predicates go through the shared :class:`TextPredicateRuntime` (and hence
    the FM-index), structural predicates are checked by navigating the tree
    with the tagged-jump primitives.
    """

    def __init__(self, document, predicate_runtime: TextPredicateRuntime):
        self._document = document
        self._tree = document.tree
        self._runtime = predicate_runtime

    # -- predicates -------------------------------------------------------------------------

    def check(self, predicate: Predicate, node: int) -> bool:
        """Whether ``predicate`` holds at ``node``."""
        if isinstance(predicate, AndExpr):
            return self.check(predicate.left, node) and self.check(predicate.right, node)
        if isinstance(predicate, OrExpr):
            return self.check(predicate.left, node) or self.check(predicate.right, node)
        if isinstance(predicate, NotExpr):
            return not self.check(predicate.operand, node)
        if isinstance(predicate, TextPredicate):
            return self._runtime.evaluate(self._builtin(predicate), node)
        if isinstance(predicate, PssmPredicate):
            return self._runtime.evaluate(self._builtin(predicate), node)
        if isinstance(predicate, PathExpr):
            return self._exists(list(predicate.path.steps), 0, node)
        raise UnsupportedQueryError(f"unsupported predicate {predicate!r}")

    def _builtin(self, predicate: Predicate) -> BuiltinPredicate:
        if isinstance(predicate, TextPredicate):
            return BuiltinPredicate(hash((predicate.kind, predicate.pattern)) & 0x7FFFFFFF, predicate.kind, predicate.pattern)
        assert isinstance(predicate, PssmPredicate)
        return BuiltinPredicate(
            hash(("pssm", predicate.matrix_name, predicate.threshold)) & 0x7FFFFFFF,
            "pssm",
            predicate.matrix_name,
            predicate.threshold,
        )

    # -- relative path existence --------------------------------------------------------------------

    def _matches_test(self, node: int, test) -> bool:
        tree = self._tree
        name = tree.tag_name_of(node)
        if isinstance(test, NameTest):
            return name == test.name
        if isinstance(test, WildcardTest):
            return name not in ("&", "#", "@", "%")
        if isinstance(test, TextTest):
            return name == "#"
        if isinstance(test, NodeTypeTest):
            return name not in ("&", "@", "%")
        return False

    def _candidates(self, step: Step, context: int):
        tree = self._tree
        if step.axis is Axis.CHILD:
            for child in tree.children(context):
                if tree.tag_name_of(child) == "@":
                    continue
                if self._matches_test(child, step.test):
                    yield child
        elif step.axis is Axis.DESCENDANT:
            if isinstance(step.test, NameTest):
                tag = tree.tag_id(step.test.name)
                if tag < 0:
                    return
                node = tree.tagged_desc(context, tag)
                close = tree.close(context)
                while node != NIL and node < close:
                    if not self._inside_attributes(node, context):
                        yield node
                    node = tree.tagged_foll(node, tag)
            else:
                yield from self._descendants_matching(context, step.test)
        elif step.axis is Axis.ATTRIBUTE:
            for child in tree.children(context):
                if tree.tag_name_of(child) != "@":
                    continue
                for attribute in tree.children(child):
                    if isinstance(step.test, NameTest):
                        if tree.tag_name_of(attribute) == step.test.name:
                            yield attribute
                    else:
                        yield attribute
        elif step.axis is Axis.FOLLOWING_SIBLING:
            sibling = tree.next_sibling(context)
            while sibling != NIL:
                if self._matches_test(sibling, step.test):
                    yield sibling
                sibling = tree.next_sibling(sibling)
        elif step.axis is Axis.SELF:
            if self._matches_test(context, step.test):
                yield context
        else:  # pragma: no cover - exhaustive
            raise UnsupportedQueryError(f"axis {step.axis} not supported")

    def _inside_attributes(self, node: int, context: int) -> bool:
        tree = self._tree
        current = tree.parent(node)
        while current != NIL and current != context:
            if tree.tag_name_of(current) == "@":
                return True
            current = tree.parent(current)
        return False

    def _descendants_matching(self, context: int, test):
        tree = self._tree
        stack = [child for child in tree.children(context)][::-1]
        while stack:
            node = stack.pop()
            if tree.tag_name_of(node) == "@":
                continue
            if self._matches_test(node, test):
                yield node
            stack.extend(list(tree.children(node))[::-1])

    def _exists(self, steps: list[Step], index: int, context: int) -> bool:
        if index >= len(steps):
            return True
        step = steps[index]
        for candidate in self._candidates(step, context):
            if all(self.check(p, candidate) for p in step.predicates):
                if self._exists(steps, index + 1, candidate):
                    return True
        return False

    def select(self, steps: list[Step], index: int, context: int, out: set[int]) -> None:
        """Collect every node selected by ``steps[index:]`` from ``context``."""
        if index >= len(steps):
            out.add(context)
            return
        step = steps[index]
        for candidate in self._candidates(step, context):
            if all(self.check(p, candidate) for p in step.predicates):
                self.select(steps, index + 1, candidate, out)


@dataclass
class BottomUpEvaluator:
    """Evaluates an eligible query bottom-up from matching text identifiers.

    Parameters
    ----------
    document:
        The indexed document.
    path:
        The parsed query; its spine must use only ``child``/``descendant``
        axes with predicates on the last step only (the planner guarantees
        this before choosing the strategy).
    anchor:
        The text predicates providing the seeds, as built-in predicates; the
        seed set is the union of their matching text identifiers.
    predicate_runtime:
        Shared text-predicate runtime (so seed computations are reused).
    stats:
        Statistics collector.
    """

    document: object
    path: LocationPath
    anchor: list[BuiltinPredicate]
    predicate_runtime: TextPredicateRuntime
    stats: EvaluationStatistics = field(default_factory=EvaluationStatistics)

    def __post_init__(self) -> None:
        self._tree = self.document.tree
        self._checker = DirectPredicateChecker(self.document, self.predicate_runtime)
        self._verify_cache: dict[tuple[int, int], bool] = {}
        self.stats.strategy = "bottom-up"

    # -- seeds --------------------------------------------------------------------------------------

    def _seed_text_id_array(self) -> np.ndarray:
        """The union of the anchors' matching text identifiers, as a sorted array."""
        arrays = [self.predicate_runtime.matching_id_array(predicate) for predicate in self.anchor]
        if not arrays:
            return np.zeros(0, dtype=np.int64)
        if len(arrays) == 1:
            return arrays[0]
        return np.unique(np.concatenate(arrays))

    # -- upward verification -----------------------------------------------------------------------------

    def _matches_step_test(self, node: int, step: Step) -> bool:
        return self._checker._matches_test(node, step.test)  # noqa: SLF001 - same component

    def _verify_spine(self, node: int, index: int) -> bool:
        """Whether ``node`` can play the role of spine step ``index`` (0-based)."""
        key = (node, index)
        cached = self._verify_cache.get(key)
        if cached is not None:
            return cached
        tree = self._tree
        steps = self.path.steps
        step = steps[index]
        result = False
        if index == 0:
            if step.axis is Axis.CHILD:
                result = tree.parent(node) == tree.root
            else:
                result = True
        else:
            previous = steps[index - 1]
            if step.axis is Axis.CHILD:
                parent = tree.parent(node)
                result = (
                    parent != NIL
                    and self._matches_step_test(parent, previous)
                    and self._verify_spine(parent, index - 1)
                )
            else:  # descendant
                ancestor = tree.parent(node)
                while ancestor != NIL:
                    if self._matches_step_test(ancestor, previous) and self._verify_spine(ancestor, index - 1):
                        result = True
                        break
                    ancestor = tree.parent(ancestor)
        self._verify_cache[key] = result
        return result

    # -- candidate collection ----------------------------------------------------------------------------

    @staticmethod
    def _membership(values: np.ndarray, sorted_array: np.ndarray) -> np.ndarray:
        """Boolean mask: which ``values`` occur in the sorted ``sorted_array``."""
        idx = np.searchsorted(sorted_array, values)
        mask = idx < sorted_array.size
        mask[mask] = sorted_array[idx[mask]] == values[mask]
        return mask

    def _match_test_mask(self, nodes: np.ndarray, step: Step) -> np.ndarray:
        """Vectorised ``_matches_test`` over an array of nodes."""
        tree = self._tree
        tags = tree.tag_many(nodes)
        test = step.test
        if isinstance(test, NameTest):
            tag = tree.tag_id(test.name)
            return tags == tag if tag >= 0 else np.zeros(nodes.size, dtype=bool)
        if isinstance(test, TextTest):
            return tags == tree.tag_id("#")
        if isinstance(test, WildcardTest):
            excluded = ("&", "#", "@", "%")
        elif isinstance(test, NodeTypeTest):
            excluded = ("&", "@", "%")
        else:
            return np.zeros(nodes.size, dtype=bool)
        mask = np.ones(nodes.size, dtype=bool)
        for name in excluded:
            special = tree.tag_id(name)
            if special >= 0:
                mask &= tags != special
        return mask

    def _inside_attribute_mask(self, nodes: np.ndarray) -> np.ndarray:
        """Which ``nodes`` lie strictly inside some ``@`` container subtree.

        A node is inside an attribute subtree iff some ``@`` node opens before
        it and closes after it; the prefix maximum of the containers' closing
        positions answers that for the whole batch with one ``searchsorted``.
        """
        tree = self._tree
        at_tag = tree.tag_id("@")
        out = np.zeros(nodes.size, dtype=bool)
        if at_tag < 0:
            return out
        containers = tree.tagged_nodes(at_tag)
        if containers.size == 0:
            return out
        reach = np.maximum.accumulate(tree.close_many(containers))
        preceding = np.searchsorted(containers, nodes, side="left")
        has_preceding = preceding > 0
        out[has_preceding] = reach[preceding[has_preceding] - 1] > nodes[has_preceding]
        return out

    def _collect_candidates(self, last_step: Step) -> list[int]:
        """Array-valued candidate collection: seeds -> leaves -> ancestor closure.

        The ancestor closure is computed level by level with one
        ``parent_many`` call per tree level; shared ancestors are deduplicated
        each round, so each one is visited once however many seeds lie below it.
        """
        tree = self._tree
        seeds = self._seed_text_id_array()
        if seeds.size == 0:
            return []
        self.stats.kernel_batch_calls += 1
        leaves = tree.node_of_text_many(seeds)
        self.stats.visited_nodes += int(leaves.size)
        nodes = np.unique(leaves)
        frontier = nodes
        while frontier.size:
            self.stats.kernel_batch_calls += 1
            parents = tree.parent_many(frontier)
            parents = np.unique(parents[parents != NIL])
            frontier = parents[~self._membership(parents, nodes)]
            if frontier.size:
                nodes = np.union1d(nodes, frontier)
        keep = self._match_test_mask(nodes, last_step) & ~self._inside_attribute_mask(nodes)
        return [int(node) for node in nodes[keep]]

    # -- the run ---------------------------------------------------------------------------------------------

    def run(self) -> list[int]:
        """Return the selected nodes (document order)."""
        steps = self.path.steps
        last_index = len(steps) - 1
        last_step = steps[last_index]
        self.stats.used_fm_index = True

        candidates = self._collect_candidates(last_step)

        results: list[int] = []
        for candidate in candidates:
            self.stats.visited_nodes += 1
            if not all(self._checker.check(p, candidate) for p in last_step.predicates):
                continue
            if not self._verify_spine(candidate, last_index):
                continue
            self.stats.marked_nodes += 1
            results.append(candidate)
        self.stats.result_nodes = len(results)
        return results

    def count(self) -> int:
        """Number of selected nodes."""
        return len(self.run())
