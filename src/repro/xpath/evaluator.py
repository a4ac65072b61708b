"""Top-down evaluation of marking tree automata over the succinct tree.

This is the ``TopDownRun`` of Figure 5 in the paper, together with the
optimisations of Sections 5.4.1 and 5.5:

* **Jumping to relevant nodes** -- when every state of the current set only
  loops over uninteresting labels, the evaluator calls ``TaggedDesc`` /
  ``TaggedFoll`` to move straight to the next node that can change the state,
  instead of walking first-child/next-sibling edges one by one.
* **Memoisation ("just-in-time compilation")** -- the transition analysis for a
  (state set, label) pair is computed once and cached.
* **Lazy result sets** -- a state set meaning "collect every ``tag`` descendant
  of this region" is answered with a constant number of index calls.
* **Early evaluation of formulas** -- after the first-child recursion returns,
  formulas are partially evaluated; when every transition is already decided
  the next-sibling recursion is skipped.
* **Relative tag-position tables** -- jumps towards labels that cannot occur in
  the target region are dropped.

The run is implemented iteratively (explicit frame stack) so that document
depth or long sibling chains never hit Python's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.options import EvaluationOptions
from repro.tree.succinct_tree import NIL
from repro.xpath import formula as F
from repro.xpath.automaton import Automaton
from repro.xpath.compiler import CompiledQuery
from repro.xpath.runtime import (
    CountingSemiring,
    EvaluationStatistics,
    MaterializingSemiring,
    ResultSemiring,
    TextPredicateRuntime,
)

__all__ = ["TopDownEvaluator"]

_UNDECIDED = object()


@dataclass
class _Frame:
    node: int
    states: frozenset[int]
    limit: int
    phase: int = 0
    trans: list | None = None
    q1: frozenset[int] = frozenset()
    q2: frozenset[int] = frozenset()
    r1: dict | None = None
    r2: dict | None = None


class TopDownEvaluator:
    """Evaluates a compiled query top-down over a document."""

    def __init__(
        self,
        document,
        compiled: CompiledQuery,
        options: EvaluationOptions | None = None,
        predicate_runtime: TextPredicateRuntime | None = None,
        stats: EvaluationStatistics | None = None,
    ):
        self._document = document
        self._tree = document.tree
        self._tables = document.tag_tables
        self._compiled = compiled
        self._automaton: Automaton = compiled.automaton
        self._options = options or EvaluationOptions()
        self._stats = stats or EvaluationStatistics()
        self._predicates = predicate_runtime or TextPredicateRuntime(document, self._stats)
        self._semiring: ResultSemiring = (
            CountingSemiring() if self._options.counting else MaterializingSemiring()
        )
        self._num_real_tags = self._tree.num_tags
        self._at_tag = self._tree.tag_id("@")

        self._trans_cache: dict[tuple[frozenset[int], int], tuple[list, frozenset[int], frozenset[int]]] = {}
        self._jump_cache: dict[frozenset[int], frozenset[int] | None] = {}
        self._collect_cache: dict[frozenset[int], int | None] = {}

    # -- public API ------------------------------------------------------------------------------

    @property
    def statistics(self) -> EvaluationStatistics:
        """Counters gathered during the run."""
        return self._stats

    @property
    def semiring(self) -> ResultSemiring:
        """The result algebra used by this run."""
        return self._semiring

    def run(self):
        """Run the automaton from the document root; return the accumulated result."""
        top_states = frozenset(self._automaton.top_states)
        mapping = self._evaluate(self._tree.root, top_states, self._tree.root)
        result = self._semiring.empty()
        for state in self._automaton.top_states:
            if state in mapping:
                result = self._semiring.union(result, mapping[state])
        return result

    def count(self) -> int:
        """Run and return the number of marked nodes."""
        result = self.run()
        if isinstance(self._semiring, CountingSemiring):
            return self._semiring.count(result)
        return self._semiring.count_with_tree(self._tree, result)

    def materialize(self) -> list[int]:
        """Run and return the marked nodes in document order."""
        if isinstance(self._semiring, CountingSemiring):
            raise TypeError("cannot materialise in counting mode")
        result = self.run()
        nodes = self._semiring.materialize_with_tree(self._tree, result)
        self._stats.result_nodes = len(nodes)
        return nodes

    # -- analyses over state sets (memoised) ---------------------------------------------------------

    def _transitions(self, states: frozenset[int], tag: int):
        key = (states, tag)
        if self._options.memoization:
            cached = self._trans_cache.get(key)
            if cached is not None:
                return cached
        pairs = []
        down1: set[int] = set()
        down2: set[int] = set()
        for state in states:
            for transition in self._automaton.transitions_for(state, tag):
                pairs.append((state, transition.formula))
                down1 |= transition.formula.down1_states
                down2 |= transition.formula.down2_states
        analysis = (pairs, frozenset(down1), frozenset(down2))
        if self._options.memoization:
            self._trans_cache[key] = analysis
        return analysis

    def _is_self_loop(self, formula, state: int) -> bool:
        """Whether ``formula`` is exactly ``DOWN1(state) & DOWN2(state)``."""
        atoms: list = []
        stack = [formula]
        while stack:
            node = stack.pop()
            if node.kind == F.AND:
                stack.append(node.left)
                stack.append(node.right)
            else:
                atoms.append(node)
        if len(atoms) != 2:
            return False
        kinds = {atom.kind for atom in atoms}
        if kinds != {F.DOWN1, F.DOWN2}:
            return False
        return all(atom.state == state for atom in atoms)

    def _jump_spec(self, states: frozenset[int]) -> frozenset[int] | None:
        """Trigger labels if the state set allows flattened jumping, else ``None``.

        A set is jumpable when every state is a bottom state whose co-finite
        default transition is exactly its own first-child/next-sibling loop,
        and every finite-guard transition keeps its next-sibling obligations
        inside the set (so flattening the region is sound).
        """
        if states in self._jump_cache:
            return self._jump_cache[states]
        triggers: set[int] = set()
        spec: frozenset[int] | None = None
        ok = True
        for state in states:
            if state not in self._automaton.bottom_states:
                ok = False
                break
            default_ok = False
            for transition in self._automaton.transitions_of(state):
                if transition.guard.cofinite:
                    if not self._is_self_loop(transition.formula, state):
                        ok = False
                        break
                    default_ok = True
                else:
                    if not transition.formula.down2_states <= states:
                        ok = False
                        break
                    triggers |= transition.guard.labels
            if not ok or not default_ok:
                ok = False
                break
        if ok:
            spec = frozenset(triggers)
        self._jump_cache[states] = spec
        return spec

    def _collect_spec(self, states: frozenset[int]) -> int | None:
        """The tag to bulk-collect if the set means "mark every ``tag`` below"."""
        if states in self._collect_cache:
            return self._collect_cache[states]
        result: int | None = None
        if len(states) == 1:
            (state,) = states
            if state in self._automaton.bottom_states and state in self._automaton.marking_states:
                collect_tag: int | None = None
                valid = True
                for transition in self._automaton.transitions_of(state):
                    formula = transition.formula
                    if transition.guard.cofinite:
                        if not self._is_self_loop(formula, state):
                            valid = False
                            break
                    elif transition.guard.labels == frozenset((self._at_tag,)):
                        if formula.kind != F.DOWN2 or formula.state != state:
                            valid = False
                            break
                    else:
                        if len(transition.guard.labels) != 1:
                            valid = False
                            break
                        if not self._is_mark_and_loop(formula, state):
                            valid = False
                            break
                        collect_tag = next(iter(transition.guard.labels))
                if valid and collect_tag is not None and collect_tag < self._num_real_tags:
                    # Correctness guard: the bulk count must not pick up nodes
                    # hidden inside attribute subtrees.
                    if not self._tables.occurs_as_descendant(self._at_tag, collect_tag):
                        result = collect_tag
        self._collect_cache[states] = result
        return result

    def _is_mark_and_loop(self, formula, state: int) -> bool:
        """Whether ``formula`` is ``mark & DOWN1(state) & DOWN2(state)`` (possibly with the
        mark wrapped in the ``OPT`` combinator the compiler emits)."""
        atoms: list = []
        stack = [formula]
        while stack:
            node = stack.pop()
            if node.kind == F.AND:
                stack.append(node.left)
                stack.append(node.right)
            elif node.kind == F.OPT and node.left.kind == F.MARK:
                atoms.append(node.left)
            else:
                atoms.append(node)
        if len(atoms) != 3:
            return False
        kinds = sorted(atom.kind for atom in atoms)
        if kinds != sorted((F.MARK, F.DOWN1, F.DOWN2)):
            return False
        return all(atom.kind == F.MARK or atom.state == state for atom in atoms)

    # -- call resolution (jumping) ----------------------------------------------------------------------

    def _resolve_down1(self, parent: int, states: frozenset[int]) -> tuple[int, int, frozenset[int]]:
        tree = self._tree
        if self._options.jumping:
            triggers = self._jump_spec(states)
            if triggers is not None:
                self._stats.jumps += 1
                parent_tag = tree.tag(parent)
                best = NIL
                for tag in triggers:
                    if tag >= self._num_real_tags:
                        continue
                    if self._options.use_tag_tables and not self._tables.occurs_as_descendant(parent_tag, tag):
                        continue
                    self._stats.select_calls += 1
                    candidate = tree.tagged_desc(parent, tag)
                    if candidate != NIL and (best == NIL or candidate < best):
                        best = candidate
                return best, parent, states
        return tree.first_child(parent), parent, states

    def _resolve_down2(self, node: int, states: frozenset[int], limit: int) -> tuple[int, int, frozenset[int]]:
        tree = self._tree
        if self._options.jumping:
            triggers = self._jump_spec(states)
            if triggers is not None:
                self._stats.jumps += 1
                close_limit = tree.close(limit)
                limit_tag = tree.tag(limit)
                best = NIL
                for tag in triggers:
                    if tag >= self._num_real_tags:
                        continue
                    if self._options.use_tag_tables and not self._tables.occurs_as_descendant(limit_tag, tag):
                        continue
                    self._stats.select_calls += 1
                    candidate = tree.tagged_foll(node, tag)
                    if candidate != NIL and candidate < close_limit and (best == NIL or candidate < best):
                        best = candidate
                return best, limit, states
        return tree.next_sibling(node), limit, states

    # -- formula evaluation --------------------------------------------------------------------------------

    def _bottom_result(self, states: frozenset[int]) -> dict:
        empty = self._semiring.empty()
        return {state: empty for state in states if state in self._automaton.bottom_states}

    def _eval_formula(self, formula, r1: dict, r2: dict, node: int):
        kind = formula.kind
        semiring = self._semiring
        if kind == F.TRUE:
            return True, semiring.empty()
        if kind == F.FALSE:
            return False, semiring.empty()
        if kind == F.MARK:
            self._stats.marked_nodes += 1
            return True, semiring.mark(node)
        if kind == F.PRED:
            return self._predicates.evaluate(formula.predicate, node), semiring.empty()
        if kind == F.DOWN1:
            if formula.state in r1:
                return True, r1[formula.state]
            return False, semiring.empty()
        if kind == F.DOWN2:
            if formula.state in r2:
                return True, r2[formula.state]
            return False, semiring.empty()
        if kind == F.NOT:
            value, _ = self._eval_formula(formula.left, r1, r2, node)
            return not value, semiring.empty()
        if kind == F.AND:
            left_value, left_marks = self._eval_formula(formula.left, r1, r2, node)
            if not left_value:
                return False, semiring.empty()
            right_value, right_marks = self._eval_formula(formula.right, r1, r2, node)
            if not right_value:
                return False, semiring.empty()
            return True, semiring.union(left_marks, right_marks)
        if kind == F.OR:
            left_value, left_marks = self._eval_formula(formula.left, r1, r2, node)
            right_value, right_marks = self._eval_formula(formula.right, r1, r2, node)
            if left_value and right_value:
                return True, semiring.union(left_marks, right_marks)
            if left_value:
                return True, left_marks
            if right_value:
                return True, right_marks
            return False, semiring.empty()
        if kind == F.OPT:
            value, marks = self._eval_formula(formula.left, r1, r2, node)
            return True, marks if value else semiring.empty()
        if kind == F.ORELSE:
            value, marks = self._eval_formula(formula.left, r1, r2, node)
            if value:
                return True, marks
            return self._eval_formula(formula.right, r1, r2, node)
        raise AssertionError(f"unknown formula kind {kind!r}")

    def _can_mark(self, formula) -> bool:
        if formula.has_mark:
            return True
        carrying = self._automaton.mark_carrying_states
        return bool((formula.down1_states | formula.down2_states) & carrying)

    def _partial_eval(self, formula, r1: dict, node: int):
        """Evaluate with only ``r1`` known; return (value, marks) or ``_UNDECIDED``."""
        kind = formula.kind
        semiring = self._semiring
        if kind == F.TRUE:
            return True, semiring.empty()
        if kind == F.FALSE:
            return False, semiring.empty()
        if kind == F.MARK:
            # Marks produced during partial evaluation are not counted in the
            # statistics: spine formulas always carry a DOWN2 atom, so whenever
            # a mark matters the full evaluation runs (and counts it) anyway.
            return True, semiring.mark(node)
        if kind == F.PRED:
            return self._predicates.evaluate(formula.predicate, node), semiring.empty()
        if kind == F.DOWN1:
            if formula.state in r1:
                return True, r1[formula.state]
            return False, semiring.empty()
        if kind == F.DOWN2:
            return _UNDECIDED
        if kind == F.NOT:
            inner = self._partial_eval(formula.left, r1, node)
            if inner is _UNDECIDED:
                return _UNDECIDED
            return not inner[0], semiring.empty()
        if kind == F.AND:
            left = self._partial_eval(formula.left, r1, node)
            if left is not _UNDECIDED and not left[0]:
                return False, semiring.empty()
            right = self._partial_eval(formula.right, r1, node)
            if right is not _UNDECIDED and not right[0]:
                return False, semiring.empty()
            if left is _UNDECIDED or right is _UNDECIDED:
                return _UNDECIDED
            return True, semiring.union(left[1], right[1])
        if kind == F.OR:
            left = self._partial_eval(formula.left, r1, node)
            right = self._partial_eval(formula.right, r1, node)
            if left is not _UNDECIDED and right is not _UNDECIDED:
                left_value, left_marks = left
                right_value, right_marks = right
                if left_value and right_value:
                    return True, semiring.union(left_marks, right_marks)
                if left_value:
                    return True, left_marks
                if right_value:
                    return True, right_marks
                return False, semiring.empty()
            decided, undecided_formula = (left, formula.right) if right is _UNDECIDED else (right, formula.left)
            if decided is not _UNDECIDED and decided[0] and not self._can_mark(undecided_formula):
                return True, decided[1]
            return _UNDECIDED
        if kind == F.OPT:
            inner = self._partial_eval(formula.left, r1, node)
            if inner is _UNDECIDED:
                if not self._can_mark(formula.left):
                    return True, semiring.empty()
                return _UNDECIDED
            value, marks = inner
            return True, marks if value else semiring.empty()
        if kind == F.ORELSE:
            preferred = self._partial_eval(formula.left, r1, node)
            if preferred is _UNDECIDED:
                return _UNDECIDED
            if preferred[0]:
                return preferred
            return self._partial_eval(formula.right, r1, node)
        raise AssertionError(f"unknown formula kind {kind!r}")

    # -- the iterative run ----------------------------------------------------------------------------------

    def _evaluate(self, node: int, states: frozenset[int], limit: int) -> dict:
        stack = [_Frame(node, states, limit)]
        final_result: dict = {}

        def finish(result: dict) -> None:
            nonlocal final_result
            stack.pop()
            if stack:
                parent = stack[-1]
                if parent.phase == 1:
                    parent.r1 = result
                else:
                    parent.r2 = result
            else:
                final_result = result

        while stack:
            frame = stack[-1]

            if frame.phase == 0:
                if frame.node == NIL or not frame.states:
                    finish(self._bottom_result(frame.states))
                    continue
                self._stats.visited_nodes += 1
                if self._options.lazy_result_sets:
                    collect_tag = self._collect_spec(frame.states)
                    if collect_tag is not None:
                        (state,) = frame.states
                        hi = self._tree.close(frame.limit)
                        # A lazy tagged-range mark costs two tag-sequence rank
                        # probes when later counted or expanded.
                        self._stats.rank_calls += 2
                        marks = self._semiring.collect_tagged_range(self._tree, frame.node, hi, collect_tag)
                        self._stats.marked_nodes += 1
                        finish({state: marks})
                        continue
                tag = self._tree.tag(frame.node)
                trans, q1, q2 = self._transitions(frame.states, tag)
                if not trans:
                    finish({})
                    continue
                frame.trans, frame.q1, frame.q2 = trans, q1, q2
                frame.phase = 1
                if q1:
                    child, child_limit, child_states = self._resolve_down1(frame.node, q1)
                    stack.append(_Frame(child, child_states, child_limit))
                else:
                    frame.r1 = {}
                continue

            if frame.phase == 1:
                assert frame.r1 is not None
                if self._options.early_evaluation:
                    partial = [(state, self._partial_eval(formula, frame.r1, frame.node)) for state, formula in frame.trans]
                    if all(entry is not _UNDECIDED for _, entry in partial):
                        result: dict = {}
                        for state, entry in partial:
                            value, marks = entry
                            if value:
                                result[state] = (
                                    self._semiring.union(result[state], marks) if state in result else marks
                                )
                        finish(result)
                        continue
                frame.phase = 2
                if frame.q2:
                    down2_states = frame.q2
                    if self._options.jumping and self._tree.parent(frame.node) != frame.limit:
                        # The region of this frame was flattened by a jump; keep
                        # the (closed, jumpable) state set so the flattened
                        # next-sibling region is handled correctly.
                        down2_states = frame.states
                    sibling, sibling_limit, sibling_states = self._resolve_down2(frame.node, down2_states, frame.limit)
                    stack.append(_Frame(sibling, sibling_states, sibling_limit))
                else:
                    frame.r2 = {}
                continue

            # phase 2: combine
            assert frame.r1 is not None and frame.r2 is not None
            result = {}
            for state, formula in frame.trans:
                value, marks = self._eval_formula(formula, frame.r1, frame.r2, frame.node)
                if value:
                    result[state] = self._semiring.union(result[state], marks) if state in result else marks
            finish(result)

        return final_result
