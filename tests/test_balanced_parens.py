"""Tests for the balanced-parentheses structure (range-min-max navigation)."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import MappedFile
from repro.tree import NIL, BalancedParentheses, SuccinctTree


def random_tree_parens(rng: random.Random, num_nodes: int) -> str:
    """Generate the parentheses string of a random tree with ``num_nodes`` nodes."""

    def subtree(nodes: int) -> str:
        if nodes == 1:
            return "()"
        remaining = nodes - 1
        parts = []
        while remaining:
            take = rng.randint(1, remaining)
            parts.append(subtree(take))
            remaining -= take
        return "(" + "".join(parts) + ")"

    return subtree(num_nodes)


def random_walk_parens(rng: random.Random, num_nodes: int, p_open: float) -> str:
    """A random single-rooted tree of ``num_nodes`` nodes; ``p_open`` sets how deep it grows."""
    out, depth, opened = ["("], 1, 1
    while depth:
        if opened < num_nodes and rng.random() < p_open:
            out.append("(")
            depth, opened = depth + 1, opened + 1
        elif depth > 1 or opened == num_nodes:
            out.append(")")
            depth -= 1
    return "".join(out)


def naive_excess(parens: str) -> list[int]:
    excess, running = [], 0
    for c in parens:
        running += 1 if c == "(" else -1
        excess.append(running)
    return excess


def naive_parents(parens: str) -> dict[int, int]:
    stack, parents = [], {}
    for i, c in enumerate(parens):
        if c == "(":
            parents[i] = stack[-1] if stack else -1
            stack.append(i)
        else:
            stack.pop()
    return parents


def naive_matches(parens: str) -> dict[int, int]:
    stack, matches = [], {}
    for i, c in enumerate(parens):
        if c == "(":
            stack.append(i)
        else:
            matches[stack.pop()] = i
    return matches


def naive_enclose(parens: str, i: int) -> int:
    matches = naive_matches(parens)
    best = -1
    for open_pos, close_pos in matches.items():
        if open_pos < i and close_pos > matches.get(i, i):
            if open_pos > best:
                best = open_pos
    return best


class TestValidation:
    def test_rejects_unbalanced(self):
        with pytest.raises(ValueError):
            BalancedParentheses("(()")
        with pytest.raises(ValueError):
            BalancedParentheses("(()))(")

    def test_accepts_empty(self):
        assert len(BalancedParentheses("")) == 0

    def test_str_roundtrip(self):
        assert str(BalancedParentheses("(()())")) == "(()())"


class TestSmallExamples:
    PARENS = "((()())(()))"

    @pytest.fixture(scope="class")
    def bp(self):
        return BalancedParentheses(self.PARENS)

    def test_is_open(self, bp):
        assert bp.is_open(0)
        assert not bp.is_open(len(self.PARENS) - 1)

    def test_excess(self, bp):
        excess = 0
        for i, c in enumerate(self.PARENS):
            excess += 1 if c == "(" else -1
            assert bp.excess(i) == excess

    def test_find_close_matches_naive(self, bp):
        for open_pos, close_pos in naive_matches(self.PARENS).items():
            assert bp.find_close(open_pos) == close_pos

    def test_find_open_matches_naive(self, bp):
        for open_pos, close_pos in naive_matches(self.PARENS).items():
            assert bp.find_open(close_pos) == open_pos

    def test_enclose(self, bp):
        assert bp.enclose(0) == -1
        assert bp.enclose(1) == 0
        assert bp.enclose(2) == 1
        assert bp.enclose(4) == 1
        assert bp.enclose(7) == 0
        assert bp.enclose(8) == 7

    def test_rank_select_open(self, bp):
        opens = [i for i, c in enumerate(self.PARENS) if c == "("]
        for j, position in enumerate(opens, start=1):
            assert bp.select_open(j) == position
            assert bp.rank_open(position) == j - 1

    def test_wrong_parenthesis_kind_raises(self, bp):
        with pytest.raises(ValueError):
            bp.find_close(len(self.PARENS) - 1)
        with pytest.raises(ValueError):
            bp.find_open(0)
        with pytest.raises(ValueError):
            bp.enclose(len(self.PARENS) - 1)


class TestLargeAndRandom:
    def test_deep_tree_crosses_many_blocks(self):
        # A path of 5000 nodes: find_close of the root must search far ahead.
        parens = "(" * 5000 + ")" * 5000
        bp = BalancedParentheses(parens)
        assert bp.find_close(0) == len(parens) - 1
        assert bp.find_close(4999) == 5000
        assert bp.enclose(4999) == 4998

    def test_wide_tree(self):
        parens = "(" + "()" * 3000 + ")"
        bp = BalancedParentheses(parens)
        assert bp.find_close(0) == len(parens) - 1
        assert bp.enclose(5999) == 0

    @given(st.integers(min_value=1, max_value=120), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_random_trees_match_naive(self, num_nodes, seed):
        rng = random.Random(seed)
        parens = random_tree_parens(rng, num_nodes)
        bp = BalancedParentheses(parens)
        matches = naive_matches(parens)
        for open_pos, close_pos in matches.items():
            assert bp.find_close(open_pos) == close_pos
            assert bp.find_open(close_pos) == open_pos
        probe = rng.sample(sorted(matches), min(10, len(matches)))
        for open_pos in probe:
            assert bp.enclose(open_pos) == naive_enclose(parens, open_pos)


# Several 4096-position super-blocks, with a partial last block and super-block.
BIG_TREES = {
    "shallow": random_walk_parens(random.Random(1), 3100, 0.45),
    "deep": random_walk_parens(random.Random(2), 3100, 0.7),
    "random": random_walk_parens(random.Random(3), 2600, 0.5),
}


def _mapped(bp: BalancedParentheses, tmp_path) -> BalancedParentheses:
    path = tmp_path / "parens.bin"
    path.write_bytes(bp.to_bytes())
    mapped = BalancedParentheses.read(MappedFile(path).source())
    assert not mapped._bv._words.flags.writeable
    assert not mapped._block_min.flags.writeable
    return mapped


@pytest.fixture(params=["heap", "mapped"])
def big_tree(request, tmp_path):
    """(parentheses string, structure) for each big tree, on the heap and mapped."""

    def build(name: str) -> tuple[str, BalancedParentheses]:
        parens = BIG_TREES[name]
        bp = BalancedParentheses(parens)
        return parens, (_mapped(bp, tmp_path) if request.param == "mapped" else bp)

    return build


class TestSuperBlocks:
    @pytest.mark.parametrize("name", sorted(BIG_TREES))
    def test_every_node_matches_naive(self, big_tree, name):
        parens, bp = big_tree(name)
        assert len(parens) > 4096 and len(parens) % 64 and (len(parens) // 64 + 1) % 64
        parents = naive_parents(parens)
        for open_pos, close_pos in naive_matches(parens).items():
            assert bp.find_close(open_pos) == close_pos
            assert bp.find_open(close_pos) == open_pos
            assert bp.enclose(open_pos) == parents[open_pos]
        for open_pos in random.Random(4).sample(sorted(parents), 20):
            assert naive_enclose(parens, open_pos) == parents[open_pos]

    @pytest.mark.parametrize("name", sorted(BIG_TREES))
    def test_searches_match_brute_force(self, big_tree, name):
        parens, bp = big_tree(name)
        excess = naive_excess(parens)
        n = len(parens)

        def fwd(i: int, target: int) -> int:
            return next((j for j in range(i + 1, n) if excess[j] == target), -1)

        def bwd(i: int, target: int) -> int:
            return next((j for j in range(i - 1, -1, -1) if excess[j] == target), -1)

        rng = random.Random(5)
        top = max(excess) + 2
        cases = [(rng.randrange(-1, n), rng.randrange(-2, top)) for _ in range(300)]
        # Matches exactly at, and searches crossing, word and super-block edges.
        for edge in (63, 64, 4095, 4096):
            for distance in (1, 2, 9, 64, 65, 300):
                cases += [(max(edge - distance, -1), excess[edge]), (edge + distance, excess[edge])]
        for i, target in cases:
            assert bp.fwd_search(i, target) == fwd(i, target), (i, target)
            if i >= 0:
                assert bp.bwd_search(i, target) == bwd(i, target), (i, target)
        for edge in (63, 64, 4095, 4096):
            assert bp.fwd_search(edge - 1, excess[edge]) == edge
            assert bp.bwd_search(edge + 1, excess[edge]) == edge
        assert bp.fwd_search(0, -1) == -1 and bp.fwd_search(n - 1, 0) == -1
        assert bp.bwd_search(0, 0) == -1 and bp.bwd_search(n, top) == -1

    def test_bwd_search_virtual_position(self, big_tree):
        parens, bp = big_tree("deep")
        # Nothing before the root's close has excess 0: the match is the
        # virtual position -1, so find_open lands on the root.
        assert bp.bwd_search(len(parens) - 1, 0) == -1
        assert bp.find_open(len(parens) - 1) == 0
        assert bp.enclose(0) == -1 and bp.enclose(1) == 0


def test_min_max_directory_matches_per_block_brute_force():
    parens = BIG_TREES["random"]
    bp = BalancedParentheses(parens)
    excess = np.array(naive_excess(parens), dtype=np.int64)
    blocks = [excess[lo : lo + 64] for lo in range(0, excess.size, 64)]
    assert excess.size % 64 and len(blocks) % 64  # partial last block and super-block
    supers = [range(lo, min(lo + 64, len(blocks))) for lo in range(0, len(blocks), 64)]
    expected = {
        "_block_min": [int(b.min()) for b in blocks],
        "_block_max": [int(b.max()) for b in blocks],
        "_super_min": [min(int(blocks[b].min()) for b in s) for s in supers],
        "_super_max": [max(int(blocks[b].max()) for b in s) for s in supers],
    }
    for name, values in expected.items():
        array = getattr(bp, name)
        assert array.dtype == np.int64
        assert array.tolist() == values, name


def test_batch_close_and_parent_keep_dtype_and_nil():
    tree = SuccinctTree("(()(()))", [0] * 8, ["a"])
    for kernel in (tree.close_many, tree.parent_many):
        empty = kernel(np.zeros(0, dtype=np.int64))
        assert empty.dtype == np.int64 and empty.size == 0
    assert tree.close_many(np.array([0])).tolist() == [7]
    assert tree.parent_many(np.array([0])).tolist() == [NIL]
    assert tree.parent_many(np.array([0, 1, 3, 4])).tolist() == [NIL, 0, 0, 3]
    assert tree.parent_many([1]).dtype == np.int64
