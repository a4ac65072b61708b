"""The succinct XML tree: navigation, tagged jumps and text connections.

This module combines the balanced-parentheses structure ``Par``
(:class:`~repro.tree.balanced_parens.BalancedParentheses`), the tag sequence
``Tag`` (:class:`~repro.tree.tag_sequence.TagSequence`) and the leaf bitmap
``B`` into the tree interface of Section 4.2 of the paper:

* basic operations -- ``Close``, ``Preorder``, ``SubtreeSize``, ``IsAncestor``,
  ``IsLeaf``, ``FirstChild``, ``NextSibling``, ``Parent``;
* tag-connected operations -- ``SubtreeTags``, ``Tag``, ``TaggedDesc``,
  ``TaggedPrec``, ``TaggedFoll``;
* text connections -- ``LeafNumber``, ``TextIds``, ``XMLIdText``, ``XMLIdNode``.

Nodes are identified by the position of their opening parenthesis in ``Par``
(an integer); the distinguished value :data:`NIL` (= ``-1``) plays the role of
the paper's ``Nil`` node.
"""

from __future__ import annotations

from typing import BinaryIO, Iterator, Sequence

import numpy as np

from repro.bits.bitvector import BitVector
from repro.core.errors import CorruptedFileError
from repro.storage.codec import ChunkReader, ChunkWriter, Serializable
from repro.tree.balanced_parens import BalancedParentheses
from repro.tree.tag_sequence import TagSequence

__all__ = ["SuccinctTree", "NIL"]

#: The dummy node distinct from every real node (the paper's ``Nil``).
NIL = -1


class SuccinctTree(Serializable):
    """Succinct labeled tree over balanced parentheses.

    Parameters
    ----------
    parens:
        The balanced-parentheses bits (truthy = opening) in DFS order.
    node_tags:
        For every *opening* parenthesis position, the tag identifier of the
        node; entries at closing positions are ignored (may be ``-1``).
    tag_names:
        Tag identifier -> tag name.  Positions in this list define the tag
        identifiers used throughout.
    text_leaf_positions:
        Opening-parenthesis positions of the leaves that carry a text (the
        ``#`` and ``%`` labelled leaves of the model), in any order.  Text
        identifiers are assigned by document order of these leaves.
    """

    def __init__(
        self,
        parens: Sequence[int] | np.ndarray | str,
        node_tags: Sequence[int] | np.ndarray,
        tag_names: Sequence[str],
        text_leaf_positions: Sequence[int] | np.ndarray = (),
    ):
        self._par = BalancedParentheses(parens)
        length = len(self._par)
        tags = np.asarray(node_tags, dtype=np.int64)
        if tags.size != length:
            raise ValueError("node_tags must have one entry per parenthesis position")
        self._tag_names = list(tag_names)
        self._tag_ids = {name: i for i, name in enumerate(self._tag_names)}
        num_tags = len(self._tag_names)

        # Split into opening/closing views for the tag sequence.
        open_tags = np.full(length, -1, dtype=np.int64)
        closing_tags = np.full(length, -1, dtype=np.int64)
        open_positions = np.flatnonzero(self._par.to_numpy())
        open_tags[open_positions] = tags[open_positions]
        closing_tags[self.close_many(open_positions)] = tags[open_positions]
        self._tags = TagSequence(open_tags, num_tags, closing_tags)

        # Leaf bitmap B: marks opening parentheses of text-carrying leaves.
        self._text_bitmap = BitVector.from_positions(sorted(int(p) for p in text_leaf_positions), length)
        self._num_texts = self._text_bitmap.count_ones
        self._num_nodes = length // 2

    # -- persistence --------------------------------------------------------------------------

    def write(self, fp: BinaryIO) -> None:
        """Serialise parentheses, tag sequence, tag names and the leaf bitmap."""
        writer = ChunkWriter(fp)
        writer.header("SuccinctTree")
        writer.child("PARS", self._par)
        writer.child("TAGS", self._tags)
        writer.json("NAME", self._tag_names)
        writer.child("TXTB", self._text_bitmap)

    @classmethod
    def read(cls, fp: BinaryIO) -> "SuccinctTree":
        """Read a tree written by :meth:`write` without re-deriving any index."""
        reader = ChunkReader(fp)
        reader.header("SuccinctTree")
        tree = cls.__new__(cls)
        tree._par = reader.child("PARS", BalancedParentheses)
        tree._tags = reader.child("TAGS", TagSequence)
        names = reader.json("NAME")
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise CorruptedFileError("tag name table is not a list of strings")
        tree._tag_names = names
        tree._tag_ids = {name: i for i, name in enumerate(names)}
        tree._text_bitmap = reader.child("TXTB", BitVector)
        if len(tree._tags) != len(tree._par) or len(tree._text_bitmap) != len(tree._par):
            raise CorruptedFileError("tree component lengths disagree")
        # Deferred on mapped reads: counting the ones would fault the leaf
        # bitmap's rank directory before any query needs it.
        tree._num_texts = tree._text_bitmap.count_ones if reader.deep_checks else None
        tree._num_nodes = len(tree._par) // 2
        return tree

    def text_leaf_positions(self) -> list[int]:
        """Opening-parenthesis positions of the text-carrying leaves, in document order."""
        return self._text_bitmap.select1_many(np.arange(1, self.num_texts + 1)).tolist()

    # -- size / identity ----------------------------------------------------------------------

    def __len__(self) -> int:
        return self._num_nodes

    @property
    def num_nodes(self) -> int:
        """Number of tree nodes ``n``."""
        return self._num_nodes

    @property
    def num_texts(self) -> int:
        """Number of text-carrying leaves ``d``."""
        if self._num_texts is None:
            self._num_texts = self._text_bitmap.count_ones
        return self._num_texts

    @property
    def num_tags(self) -> int:
        """Number of distinct tag names ``t``."""
        return len(self._tag_names)

    @property
    def parentheses(self) -> BalancedParentheses:
        """The underlying parentheses structure (exposed for benchmarks)."""
        return self._par

    @property
    def tag_sequence(self) -> TagSequence:
        """The underlying tag sequence (exposed for benchmarks)."""
        return self._tags

    def size_in_bits(self) -> int:
        """Approximate space usage of parentheses + tags + leaf bitmap."""
        return self._par.size_in_bits() + self._tags.size_in_bits() + self._text_bitmap.size_in_bits()

    # -- tag name mapping --------------------------------------------------------------------------

    def tag_id(self, name: str) -> int:
        """Tag identifier of ``name`` or ``-1`` if the tag does not occur."""
        return self._tag_ids.get(name, -1)

    def tag_name(self, tag: int) -> str:
        """Tag name of identifier ``tag``."""
        return self._tag_names[tag]

    def tag_names(self) -> list[str]:
        """All tag names, indexed by tag identifier."""
        return list(self._tag_names)

    def tag_count(self, tag: int) -> int:
        """Total number of nodes labelled ``tag`` in the document."""
        if not 0 <= tag < len(self._tag_names):
            return 0
        return self._tags.count(tag)

    # -- basic tree operations (Section 4.2.1) ----------------------------------------------------------

    @property
    def root(self) -> int:
        """The root node (always position 0)."""
        return 0

    def close(self, x: int) -> int:
        """Position of the closing parenthesis matching node ``x``."""
        return self._par.find_close(x)

    def preorder(self, x: int) -> int:
        """Preorder number of ``x`` (1-based, as in the paper)."""
        return self._par.rank_open(x + 1)

    def node_at_preorder(self, preorder: int) -> int:
        """Inverse of :meth:`preorder`."""
        return self._par.select_open(preorder)

    def subtree_size(self, x: int) -> int:
        """Number of nodes in the subtree rooted at ``x``."""
        return (self.close(x) - x + 1) // 2

    def is_ancestor(self, x: int, y: int) -> bool:
        """Whether ``x`` is an ancestor of ``y`` (reflexively, as in the paper)."""
        return x <= y <= self.close(x)

    def is_leaf(self, x: int) -> bool:
        """Whether ``x`` has no children."""
        return not self._par.is_open(x + 1)

    def first_child(self, x: int) -> int:
        """First child of ``x`` or ``NIL``."""
        return x + 1 if self._par.is_open(x + 1) else NIL

    def next_sibling(self, x: int) -> int:
        """Next sibling of ``x`` or ``NIL``."""
        after = self.close(x) + 1
        if after < len(self._par) and self._par.is_open(after):
            return after
        return NIL

    def parent(self, x: int) -> int:
        """Parent of ``x`` or ``NIL`` for the root."""
        enclosing = self._par.enclose(x)
        return enclosing if enclosing >= 0 else NIL

    def depth(self, x: int) -> int:
        """Depth of ``x`` (the root has depth 1)."""
        return self._par.excess(x)

    def children(self, x: int) -> Iterator[int]:
        """Iterate over the children of ``x`` in document order."""
        child = self.first_child(x)
        while child != NIL:
            yield child
            child = self.next_sibling(child)

    def preorder_nodes(self) -> Iterator[int]:
        """Iterate over all nodes in preorder."""
        for preorder in range(1, self._num_nodes + 1):
            yield self._par.select_open(preorder)

    # -- tag-connected operations (Section 4.2.2) -------------------------------------------------------------

    def tag(self, x: int) -> int:
        """Tag identifier of node ``x``."""
        return self._tags.tag_at(x)

    def tag_name_of(self, x: int) -> str:
        """Tag name of node ``x``."""
        return self._tag_names[self.tag(x)]

    def subtree_tags(self, x: int, tag: int) -> int:
        """Number of ``tag``-labelled nodes within the subtree rooted at ``x`` (inclusive)."""
        return self._tags.count_in_range(tag, x, self.close(x) + 1)

    def tagged_desc(self, x: int, tag: int) -> int:
        """First ``tag``-labelled node, in preorder, strictly within ``x``'s subtree; ``NIL`` if none."""
        candidate = self._tags.next_occurrence(tag, x + 1)
        if candidate == -1 or candidate > self.close(x):
            return NIL
        return candidate

    def tagged_foll(self, x: int, tag: int) -> int:
        """First ``tag``-labelled node after ``x``'s subtree in preorder; ``NIL`` if none.

        When ``limit`` semantics are needed (jump bounded to an enclosing
        subtree) use :meth:`tagged_foll_below`.
        """
        candidate = self._tags.next_occurrence(tag, self.close(x) + 1)
        return candidate if candidate != -1 else NIL

    def tagged_foll_below(self, x: int, tag: int, limit: int) -> int:
        """Like :meth:`tagged_foll` but restricted to nodes inside ``limit``'s subtree."""
        candidate = self.tagged_foll(x, tag)
        if candidate == NIL or (limit != NIL and candidate > self.close(limit)):
            return NIL
        return candidate

    def tagged_prec(self, x: int, tag: int) -> int:
        """Last ``tag``-labelled node with preorder smaller than ``x``'s that is not an ancestor of ``x``."""
        rank = self._tags.rank(tag, x)
        while rank > 0:
            candidate = self._tags.select(tag, rank)
            if not self.is_ancestor(candidate, x):
                return candidate
            rank -= 1
        return NIL

    def tagged_nodes(self, tag: int) -> np.ndarray:
        """All ``tag``-labelled nodes of the document, in preorder."""
        return self._tags.occurrences(tag)

    # -- text connections (Section 4.2.3) --------------------------------------------------------------------

    def is_text_leaf(self, x: int) -> bool:
        """Whether ``x`` is a leaf carrying a text value."""
        return bool(self._text_bitmap[x])

    def leaf_number(self, x: int) -> int:
        """Number of text-carrying leaves up to position ``x`` (inclusive)."""
        if x < 0:
            return 0
        return self._text_bitmap.rank1(min(x, len(self._par) - 1) + 1)

    def text_ids(self, x: int) -> tuple[int, int]:
        """Half-open range of text identifiers descending from ``x`` (inclusive of ``x`` itself)."""
        first = self.leaf_number(x - 1)
        last = self.leaf_number(self.close(x))
        return first, last

    def text_id_of_node(self, x: int) -> int:
        """Text identifier held by the text leaf ``x`` (``-1`` if ``x`` has no text)."""
        if not self.is_text_leaf(x):
            return -1
        return self._text_bitmap.rank1(x + 1) - 1

    def node_of_text(self, text_id: int) -> int:
        """The tree node (leaf) holding text ``text_id``."""
        return self._text_bitmap.select1(text_id + 1)

    def xml_id_text(self, text_id: int) -> int:
        """Global (preorder) identifier of the node holding text ``text_id``."""
        return self.preorder(self.node_of_text(text_id))

    def xml_id_node(self, x: int) -> int:
        """Global (preorder) identifier of node ``x``."""
        return self.preorder(x)

    # -- batch navigation ------------------------------------------------------------------------------------
    #
    # The batch methods take numpy arrays of *opening-parenthesis* positions.
    # Rank, select, tag and leaf-bitmap lookups answer a whole array with a
    # constant number of numpy operations.  ``close_many`` and ``parent_many``
    # run the scalar ``find_close`` / ``enclose`` search per element: there is
    # one navigation implementation, and it needs no structure beyond the
    # serialised parentheses directory.

    def close_many(self, nodes: Sequence[int] | np.ndarray) -> np.ndarray:
        """:meth:`close` of every node in an array of opening positions."""
        starts = np.asarray(nodes, dtype=np.int64)
        return np.fromiter(map(self._par.find_close, starts.tolist()), dtype=np.int64, count=starts.size)

    def parent_many(self, nodes: Sequence[int] | np.ndarray) -> np.ndarray:
        """:meth:`parent` of every node (:data:`NIL` for the root)."""
        starts = np.asarray(nodes, dtype=np.int64)
        return np.fromiter(map(self._par.enclose, starts.tolist()), dtype=np.int64, count=starts.size)

    def subtree_size_many(self, nodes: Sequence[int] | np.ndarray) -> np.ndarray:
        """Vectorised :meth:`subtree_size`."""
        starts = np.asarray(nodes, dtype=np.int64)
        return (self.close_many(starts) - starts + 1) // 2

    def preorder_many(self, nodes: Sequence[int] | np.ndarray) -> np.ndarray:
        """Vectorised :meth:`preorder`."""
        return self._par.rank_open_many(np.asarray(nodes, dtype=np.int64) + 1)

    def node_at_preorder_many(self, preorders: Sequence[int] | np.ndarray) -> np.ndarray:
        """Vectorised :meth:`node_at_preorder`."""
        return self._par.select_open_many(preorders)

    def depth_many(self, nodes: Sequence[int] | np.ndarray) -> np.ndarray:
        """Vectorised :meth:`depth`."""
        return self._par.excess_many(nodes)

    def tag_many(self, nodes: Sequence[int] | np.ndarray) -> np.ndarray:
        """Vectorised :meth:`tag`."""
        return self._tags.tag_at_many(nodes)

    def is_text_leaf_many(self, nodes: Sequence[int] | np.ndarray) -> np.ndarray:
        """Vectorised :meth:`is_text_leaf` (boolean array)."""
        return self._text_bitmap.get_many(nodes).astype(bool)

    def node_of_text_many(self, text_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """Vectorised :meth:`node_of_text`."""
        return self._text_bitmap.select1_many(np.asarray(text_ids, dtype=np.int64) + 1)

    def text_ids_many(self, nodes: Sequence[int] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`text_ids`: half-open text ranges for every node."""
        starts = np.asarray(nodes, dtype=np.int64)
        firsts = self._text_bitmap.rank1_many(starts)
        lasts = self._text_bitmap.rank1_many(self.close_many(starts) + 1)
        return firsts, lasts
