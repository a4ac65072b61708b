"""Property tests: every batch (``*_many``) kernel equals a scalar loop.

The vectorised kernels added for the batch hot path must agree with their
scalar reference methods *exactly*, on randomized inputs including the nasty
corners: empty arrays, positions just outside the valid range (where the
scalar semantics clamp), all-zeros and all-ones bitmaps, single-symbol and
skewed-alphabet sequences, and degenerate (chain / flat) trees.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.baseline import DomEngine
from repro.bits.bitvector import BitVector
from repro.bits.intarray import PackedIntArray
from repro.bits.sparse import SparseBitVector
from repro.core.document import Document
from repro.sequence.runlength import RunLengthSequence
from repro.sequence.wavelet_tree import WaveletTree
from repro.text.fm_index import FMIndex
from repro.xmlmodel.model import build_model

RNG = np.random.default_rng(20260726)

#: Bit densities covering the all-zeros / all-ones extremes explicitly.
DENSITIES = [0.0, 0.03, 0.5, 0.97, 1.0]
#: Lengths covering the empty vector and word-boundary-straddling sizes.
LENGTHS = [0, 1, 63, 64, 65, 129, 1017]


def random_bits(length: int, density: float) -> np.ndarray:
    return RNG.random(length) < density


def boundary_positions(length: int) -> np.ndarray:
    """Query positions hugging (and slightly crossing) the valid range."""
    probes = [-3, -1, 0, 1, length - 1, length, length + 1, length + 5]
    drawn = RNG.integers(-2, length + 3, size=64) if length else np.zeros(0, dtype=np.int64)
    return np.concatenate((np.array(probes, dtype=np.int64), drawn))


# ---------------------------------------------------------------------------
# bits layer
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("density", DENSITIES)
def test_bitvector_batch_equals_scalar(length, density):
    bits = random_bits(length, density)
    bv = BitVector(bits)
    pos = boundary_positions(length)
    assert np.array_equal(bv.rank1_many(pos), [bv.rank1(int(i)) for i in pos])
    assert np.array_equal(bv.rank0_many(pos), [bv.rank0(int(i)) for i in pos])
    if length:
        valid = RNG.integers(0, length, size=48)
        assert np.array_equal(bv.get_many(valid), [bv[int(i)] for i in valid])
    if bv.count_ones:
        ranks = np.unique(RNG.integers(1, bv.count_ones + 1, size=48))
        ranks = np.concatenate((ranks, [1, bv.count_ones]))
        assert np.array_equal(bv.select1_many(ranks), [bv.select1(int(j)) for j in ranks])
    if bv.count_zeros:
        ranks = np.unique(RNG.integers(1, bv.count_zeros + 1, size=48))
        ranks = np.concatenate((ranks, [1, bv.count_zeros]))
        assert np.array_equal(bv.select0_many(ranks), [bv.select0(int(j)) for j in ranks])


def test_bitvector_batch_empty_inputs():
    bv = BitVector([1, 0, 1])
    for kernel in (bv.rank1_many, bv.rank0_many, bv.select1_many, bv.select0_many, bv.get_many):
        out = kernel(np.zeros(0, dtype=np.int64))
        assert out.size == 0 and out.dtype == np.int64


def test_bitvector_batch_select_out_of_range():
    bv = BitVector([1, 0, 1])
    with pytest.raises(ValueError):
        bv.select1_many([1, 3])
    with pytest.raises(ValueError):
        bv.select0_many([0])
    with pytest.raises(IndexError):
        bv.get_many([3])


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("density", [0.0, 0.05, 0.9, 1.0])
def test_sparse_bitvector_batch_equals_scalar(length, density):
    bits = random_bits(length, density)
    sbv = SparseBitVector(np.flatnonzero(bits), length)
    pos = boundary_positions(length)
    assert np.array_equal(sbv.rank1_many(pos), [sbv.rank1(int(i)) for i in pos])
    assert np.array_equal(sbv.rank0_many(pos), [sbv.rank0(int(i)) for i in pos])
    assert np.array_equal(sbv.next_one_many(pos), [sbv.next_one(int(i)) for i in pos])
    if length:
        valid = RNG.integers(0, length, size=48)
        assert np.array_equal(sbv.get_many(valid), [sbv[int(i)] for i in valid])
    if sbv.count_ones:
        ranks = RNG.integers(1, sbv.count_ones + 1, size=32)
        assert np.array_equal(sbv.select1_many(ranks), [sbv.select1(int(j)) for j in ranks])
    for kernel in (sbv.rank1_many, sbv.select1_many, sbv.next_one_many, sbv.get_many):
        assert kernel(np.zeros(0, dtype=np.int64)).size == 0


def test_sparse_bitvector_batch_out_of_range():
    sbv = SparseBitVector([1, 4], 6)
    with pytest.raises(ValueError):
        sbv.select1_many([0])
    with pytest.raises(IndexError):
        sbv.get_many([6])


@pytest.mark.parametrize("width", [1, 5, 7, 13, 24, 33, 48, 63, None])
def test_packed_int_array_get_many(width):
    values = RNG.integers(0, 2 ** min(width or 40, 40), size=301)
    packed = PackedIntArray(values, width=width)
    idx = RNG.integers(-len(packed), len(packed), size=200)
    assert np.array_equal(packed.get_many(idx), [packed[int(i)] for i in idx])
    assert packed.get_many(np.zeros(0, dtype=np.int64)).size == 0
    with pytest.raises(IndexError):
        packed.get_many([len(packed)])


def test_packed_int_array_get_many_rejects_full_width():
    packed = PackedIntArray([1, 2, 3], width=64)
    with pytest.raises(ValueError):
        packed.get_many([0])


# ---------------------------------------------------------------------------
# sequence layer
# ---------------------------------------------------------------------------


def sequences():
    yield []
    yield [7]
    yield [3] * 80  # single symbol, all runs
    yield RNG.integers(0, 5, size=257).tolist()  # small alphabet
    yield RNG.integers(0, 200, size=300).tolist()  # wide alphabet
    yield np.repeat(RNG.integers(0, 4, size=40), RNG.integers(1, 12, size=40)).tolist()  # runs


@pytest.mark.parametrize("factory", [WaveletTree, RunLengthSequence])
def test_sequence_batch_equals_scalar(factory):
    for seq in sequences():
        structure = factory(seq)
        length = len(seq)
        pos = boundary_positions(length)
        probe_symbols = sorted(set(seq))[:6] + [9999]
        for symbol in probe_symbols:
            got = structure.rank_many(symbol, pos)
            assert np.array_equal(got, [structure.rank(symbol, int(i)) for i in pos]), (factory, symbol)
            total = structure.count(symbol)
            if total:
                ranks = np.concatenate((RNG.integers(1, total + 1, size=24), [1, total]))
                assert np.array_equal(
                    structure.select_many(symbol, ranks), [structure.select(symbol, int(j)) for j in ranks]
                )
            else:
                with pytest.raises(ValueError):
                    structure.select_many(symbol, [1])
        if length:
            valid = RNG.integers(0, length, size=64)
            assert np.array_equal(structure.access_many(valid), [structure.access(int(i)) for i in valid])
            with pytest.raises(IndexError):
                structure.access_many([length])
        for kernel in (structure.access_many, lambda a: structure.rank_many(0, a)):
            assert kernel(np.zeros(0, dtype=np.int64)).size == 0


# ---------------------------------------------------------------------------
# FM-index
# ---------------------------------------------------------------------------

TEXTS = [b"hello world", b"", b"abracadabra", b"world of worlds", b"aaaa", b"hello", b"xyz" * 30]


@pytest.mark.parametrize("factory", [WaveletTree, RunLengthSequence])
@pytest.mark.parametrize("sample_rate", [4, 64])
def test_fm_index_batch_equals_scalar(factory, sample_rate):
    fm = FMIndex(TEXTS, sample_rate=sample_rate, sequence_factory=factory)
    fm._BATCH_LOCATE_CUTOFF = 0  # force the batched LF walk even on small row sets
    rows = np.arange(len(fm))
    assert np.array_equal(fm.locate_rows_many(rows), [fm.locate_row(int(r)) for r in rows])
    assert fm.locate_rows_many(np.zeros(0, dtype=np.int64)).size == 0
    symbols, ranks = fm._sequence.access_rank_many(rows)
    assert np.array_equal(symbols, [fm._sequence.access(int(r)) for r in rows])
    assert np.array_equal(ranks, [fm._sequence.rank(int(s), int(r)) for s, r in zip(symbols, rows)])
    sps = RNG.integers(0, len(fm), size=40)
    eps = np.minimum(sps + RNG.integers(0, 12, size=40), len(fm))
    for symbol in (ord("a"), ord("o"), ord("z"), ord("q")):
        batch_sp, batch_ep = fm.backward_step_many(symbol, sps, eps)
        scalar = [fm.backward_step(symbol, int(s), int(e)) for s, e in zip(sps, eps)]
        assert np.array_equal(batch_sp, [s for s, _ in scalar])
        assert np.array_equal(batch_ep, [e for _, e in scalar])
    positions = RNG.integers(0, len(fm), size=80)
    assert np.array_equal(fm.positions_to_docs(positions), [fm.position_to_doc(int(p))[0] for p in positions])


LONG_TEXTS = [(b"abracadabra hello world %d " % i) * 3 for i in range(12)]


@pytest.mark.parametrize("span", ["below-cutoff", "at-cutoff", "whole-index"])
def test_locate_range_either_side_of_cutoff_equals_scalar(span):
    # locate_range always goes through locate_rows_many, which picks the
    # per-row or the lockstep walk by row count alone: both must agree with
    # the scalar locate_row.
    fm = FMIndex(LONG_TEXTS, sample_rate=16)
    cutoff = fm._BATCH_LOCATE_CUTOFF
    assert len(fm) > cutoff + 100
    sp, ep = {"below-cutoff": (7, 6 + cutoff), "at-cutoff": (3, 3 + cutoff), "whole-index": (0, len(fm))}[span]
    assert np.array_equal(fm.locate_range(sp, ep), [fm.locate_row(row) for row in range(sp, ep)])


# ---------------------------------------------------------------------------
# tree layer
# ---------------------------------------------------------------------------


def tree_documents():
    """Random + degenerate documents (deep chain, flat fan-out, attribute-heavy)."""
    from repro.fuzz.xmlgen import XmlGenConfig, generate_xml

    rng = random.Random(99)
    for _ in range(6):
        yield generate_xml(rng, XmlGenConfig(max_depth=6))
    yield "<r>" + "".join(f"<a id='{i}'>t{i}</a>" for i in range(40)) + "</r>"  # flat
    deep = "<d0>" + "".join(f"<d{i}>" for i in range(1, 30))
    yield deep + "x" + "".join(f"</d{i}>" for i in range(29, 0, -1)) + "</d0>"  # chain


@pytest.mark.parametrize("xml", list(tree_documents()))
def test_tree_batch_navigation_equals_scalar(xml):
    document = Document.from_string(xml)
    tree = document.tree
    opens = tree.node_at_preorder_many(np.arange(1, tree.num_nodes + 1))
    assert np.array_equal(opens, [tree.node_at_preorder(p) for p in range(1, tree.num_nodes + 1)])
    assert np.array_equal(tree.close_many(opens), [tree.close(int(x)) for x in opens])
    assert np.array_equal(tree.parent_many(opens), [tree.parent(int(x)) for x in opens])
    assert np.array_equal(tree.tag_many(opens), [tree.tag(int(x)) for x in opens])
    assert np.array_equal(tree.preorder_many(opens), [tree.preorder(int(x)) for x in opens])
    assert np.array_equal(tree.subtree_size_many(opens), [tree.subtree_size(int(x)) for x in opens])
    assert np.array_equal(tree.depth_many(opens), [tree.depth(int(x)) for x in opens])
    assert np.array_equal(tree.is_text_leaf_many(opens), [tree.is_text_leaf(int(x)) for x in opens])
    assert np.array_equal(tree.subtree_size_many(opens), (tree.close_many(opens) - opens + 1) // 2)
    firsts, lasts = tree.text_ids_many(opens)
    scalar_ranges = [tree.text_ids(int(x)) for x in opens]
    assert np.array_equal(firsts, [r[0] for r in scalar_ranges])
    assert np.array_equal(lasts, [r[1] for r in scalar_ranges])
    if tree.num_texts:
        text_ids = np.arange(tree.num_texts)
        assert np.array_equal(tree.node_of_text_many(text_ids), [tree.node_of_text(int(i)) for i in text_ids])
    # Batch kernels of the aligned tag sequence.
    tags_structure = tree.tag_sequence
    every_position = np.arange(len(tags_structure))
    assert np.array_equal(tags_structure.tag_at_many(every_position), [tags_structure.tag_at(int(i)) for i in every_position])
    assert np.array_equal(
        tags_structure.closing_tag_at_many(every_position),
        [tags_structure.closing_tag_at(int(i)) for i in every_position],
    )
    for tag in range(tree.num_tags):
        pos = boundary_positions(len(tags_structure))
        assert np.array_equal(tags_structure.rank_many(tag, pos), [tags_structure.rank(tag, int(i)) for i in pos])
        assert np.array_equal(
            tags_structure.next_occurrence_many(tag, pos),
            [tags_structure.next_occurrence(tag, int(i)) for i in pos],
        )
        total = tags_structure.count(tag)
        if total:
            ranks = np.arange(1, total + 1)
            assert np.array_equal(tags_structure.select_many(tag, ranks), [tags_structure.select(tag, int(j)) for j in ranks])


def test_balanced_parens_batch_equals_scalar():
    document = Document.from_string("<a><b><c>x</c></b><b/><d>y</d></a>")
    par = document.tree.parentheses
    pos = np.arange(len(par))
    assert np.array_equal(par.is_open_many(pos), [par.is_open(int(i)) for i in pos])
    assert np.array_equal(par.rank_open_many(pos), [par.rank_open(int(i)) for i in pos])
    assert np.array_equal(par.excess_many(pos), [par.excess(int(i)) for i in pos])
    ranks = np.arange(1, par.rank_open(len(par)) + 1)
    assert np.array_equal(par.select_open_many(ranks), [par.select_open(int(j)) for j in ranks])


# ---------------------------------------------------------------------------
# engine: the batch kernels end to end, against the DOM engine
# ---------------------------------------------------------------------------

ENGINE_XML = (
    "<site><people>"
    + "".join(
        f"<person id='p{i}'><name>name{i % 7}</name><city>city{i % 3}</city></person>" for i in range(25)
    )
    + "</people><items>"
    + "".join(f"<item><name>widget{i % 5}</name></item>" for i in range(20))
    + "</items></site>"
)

ENGINE_QUERIES = [
    "//person[city[contains(., 'city1')]]/name",
    "//name[contains(., 'widget2')]",
    "//person[name[starts-with(., 'name3')]]",
    "//items//name",
    "//person[city = 'city0']",
]


@pytest.mark.parametrize("query", ENGINE_QUERIES)
def test_engine_matches_dom(query):
    document = Document.from_string(ENGINE_XML)
    dom = DomEngine(build_model(ENGINE_XML))
    assert [document.tree.preorder(node) for node in document.query(query)] == dom.preorders(query)
    assert document.count(query) == dom.count(query)
