"""Relative tag-position tables.

Section 5.5.6 of the paper: while indexing the document, SXSI builds four
tables telling, for each label ``l``, which labels occur respectively in
*child*, *descendant*, *following-sibling* and *following* position relative
to ``l``-labelled nodes.  At query compilation time these tables let the
engine drop ``TaggedDesc``/``TaggedFoll`` calls that can never succeed (for
example when a label is known not to be recursive), replacing them with a
constant "empty" answer.
"""

from __future__ import annotations

from typing import BinaryIO

from repro.core.errors import CorruptedFileError
from repro.storage.codec import ChunkReader, ChunkWriter, Serializable
from repro.tree.succinct_tree import SuccinctTree

__all__ = ["TagPositionTables"]


class TagPositionTables(Serializable):
    """The four relative tag-position tables of a document tree."""

    def __init__(self, tree: SuccinctTree):
        t = tree.num_tags
        self._num_tags = t
        self._descendants: list[set[int]] = [set() for _ in range(t)]
        self._children: list[set[int]] = [set() for _ in range(t)]
        self._following_siblings: list[set[int]] = [set() for _ in range(t)]
        self._following: list[set[int]] = [set() for _ in range(t)]
        self._build(tree)

    def _build(self, tree: SuccinctTree) -> None:
        # Descendant and child tables: one DFS keeping the stack of distinct
        # ancestor tags.  Following-sibling: per parent, accumulate the union
        # of the tags of later siblings from right to left.
        stack: list[int] = []
        order: list[int] = []

        def visit(node: int) -> None:
            tag = tree.tag(node)
            parent = stack[-1] if stack else -1
            if parent >= 0:
                self._children[parent].add(tag)
            for ancestor_tag in set(stack):
                self._descendants[ancestor_tag].add(tag)
            order.append(node)

        # Iterative DFS over (node, phase) to avoid recursion limits.
        todo: list[tuple[int, bool]] = [(tree.root, False)]
        while todo:
            node, leaving = todo.pop()
            if leaving:
                stack.pop()
                continue
            visit(node)
            stack.append(tree.tag(node))
            todo.append((node, True))
            children = list(tree.children(node))
            for child in reversed(children):
                todo.append((child, False))
            # Following-sibling sets for this sibling list.
            seen_after: set[int] = set()
            for child in reversed(children):
                child_tag = tree.tag(child)
                self._following_siblings[child_tag].update(seen_after)
                seen_after.add(child_tag)

        # Following table: tag b follows tag a iff some b-node starts after the
        # end of some a-node's subtree, i.e. iff the last start position of b is
        # larger than the earliest close position of a.
        earliest_close = [None] * self._num_tags
        latest_start = [None] * self._num_tags
        for node in order:
            tag = tree.tag(node)
            close = tree.close(node)
            if earliest_close[tag] is None or close < earliest_close[tag]:
                earliest_close[tag] = close
            if latest_start[tag] is None or node > latest_start[tag]:
                latest_start[tag] = node
        for a in range(self._num_tags):
            if earliest_close[a] is None:
                continue
            for b in range(self._num_tags):
                if latest_start[b] is not None and latest_start[b] > earliest_close[a]:
                    self._following[a].add(b)

    # -- persistence -------------------------------------------------------------------------

    _TABLE_NAMES = ("descendants", "children", "following_siblings", "following")

    def write(self, fp: BinaryIO) -> None:
        """Serialise the four tables (they are expensive to rebuild: one full DFS)."""
        writer = ChunkWriter(fp)
        writer.header("TagPositionTables")
        writer.int("NTAG", self._num_tags)
        tables = {
            name: [sorted(entry) for entry in getattr(self, f"_{name}")] for name in self._TABLE_NAMES
        }
        writer.json("TABS", tables)

    @classmethod
    def read(cls, fp: BinaryIO) -> "TagPositionTables":
        """Read tables written by :meth:`write`."""
        reader = ChunkReader(fp)
        reader.header("TagPositionTables")
        num_tags = reader.int("NTAG")
        payload = reader.json("TABS")
        tables = cls.__new__(cls)
        tables._num_tags = int(num_tags)
        for name in cls._TABLE_NAMES:
            rows = payload.get(name) if isinstance(payload, dict) else None
            if not isinstance(rows, list) or len(rows) != num_tags:
                raise CorruptedFileError(f"tag table {name!r} is missing or has the wrong arity")
            setattr(tables, f"_{name}", [set(int(tag) for tag in row) for row in rows])
        return tables

    def size_in_bits(self) -> int:
        """Approximate space usage: one small integer per table entry."""
        entries = sum(
            len(entry) for name in self._TABLE_NAMES for entry in getattr(self, f"_{name}")
        )
        width = max(1, int(max(self._num_tags - 1, 1)).bit_length())
        return entries * width + 4 * self._num_tags * 64

    # -- queries -----------------------------------------------------------------------------

    @property
    def num_tags(self) -> int:
        """Number of tags covered by the tables."""
        return self._num_tags

    def occurs_as_descendant(self, of_tag: int, tag: int) -> bool:
        """Whether ``tag`` occurs somewhere below an ``of_tag``-labelled node."""
        if not 0 <= of_tag < self._num_tags:
            return False
        return tag in self._descendants[of_tag]

    def occurs_as_child(self, of_tag: int, tag: int) -> bool:
        """Whether ``tag`` occurs as a direct child of an ``of_tag``-labelled node."""
        if not 0 <= of_tag < self._num_tags:
            return False
        return tag in self._children[of_tag]

    def occurs_as_following_sibling(self, of_tag: int, tag: int) -> bool:
        """Whether ``tag`` occurs as a following sibling of an ``of_tag``-labelled node."""
        if not 0 <= of_tag < self._num_tags:
            return False
        return tag in self._following_siblings[of_tag]

    def occurs_as_following(self, of_tag: int, tag: int) -> bool:
        """Whether ``tag`` occurs after (in document order, outside the subtree of) an ``of_tag`` node."""
        if not 0 <= of_tag < self._num_tags:
            return False
        return tag in self._following[of_tag]

    def descendants_of(self, tag: int) -> set[int]:
        """The set of tags occurring below ``tag``-labelled nodes (a copy)."""
        return set(self._descendants[tag]) if 0 <= tag < self._num_tags else set()

    def is_recursive(self, tag: int) -> bool:
        """Whether ``tag`` can occur below itself (drives the Table VI discussion)."""
        return self.occurs_as_descendant(tag, tag)
