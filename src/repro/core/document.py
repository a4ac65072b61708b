"""The ``Document`` facade: one XML document, fully indexed, queryable.

A :class:`Document` bundles the three ingredients of SXSI -- the succinct tree
index, the self-indexed text collection and the XPath engine -- behind a small
API:

>>> from repro import Document
>>> doc = Document.from_string("<a><b>hello</b><b>world</b></a>")
>>> doc.count("//b")
2
>>> doc.serialize("//b[contains(., 'world')]")
['<b>world</b>']
"""

from __future__ import annotations

import os
from dataclasses import asdict
from typing import BinaryIO, Iterable, Sequence

import numpy as np

from repro.core.errors import CorruptedFileError, StorageError
from repro.core.options import EvaluationOptions, IndexOptions
from repro.storage.codec import (
    ChunkReader,
    ChunkWriter,
    MappedFile,
    Serializable,
    peek_file_version,
    record_mapped_load,
    record_v1_fallback_load,
)
from repro.text.pssm import PositionWeightMatrix
from repro.text.rlcsa import RLCSAIndex
from repro.text.text_collection import TextCollection
from repro.text.word_index import WordTextIndex
from repro.tree.succinct_tree import SuccinctTree
from repro.tree.tag_tables import TagPositionTables
from repro.xmlmodel.model import DocumentModel, build_model
from repro.xmlmodel.serializer import serialize_subtree, serialize_text
from repro.xpath.engine import QueryResult, XPathEngine
from repro.xpath.plan import PreparedQuery

__all__ = ["Document"]


class Document(Serializable):
    """An indexed XML document supporting XPath Core+ search.

    Use the constructors :meth:`from_string`, :meth:`from_file`,
    :meth:`from_model` or :meth:`load` rather than ``__init__`` directly.
    """

    def __init__(self, model: DocumentModel, options: IndexOptions | None = None):
        self.options = options or IndexOptions()
        self._model: DocumentModel | None = model
        self._source_bytes = int(model.source_bytes)
        self.tree = SuccinctTree(model.parens, model.node_tags, model.tag_names, model.text_leaf_positions)
        self.tag_tables = TagPositionTables(self.tree)

        texts = model.texts if model.texts else [b""]
        if self.options.text_index == "rlcsa":
            self.text_collection = RLCSAIndex(texts, sample_rate=self.options.sample_rate)
        elif self.options.text_index == "none":
            self.text_collection = TextCollection(
                texts, sample_rate=self.options.sample_rate, keep_plain_text=True
            )
        else:
            self.text_collection = TextCollection(
                texts,
                sample_rate=self.options.sample_rate,
                keep_plain_text=self.options.keep_plain_text,
            )
        self.word_index: WordTextIndex | None = WordTextIndex(texts) if self.options.word_index else None
        self.word_semantics = False

        self._engine = XPathEngine(self)
        self._pcdata_only: dict[int, bool] = {}
        self._pssm_registry: dict[str, tuple[PositionWeightMatrix, float]] = {}
        self._mapped_file: MappedFile | None = None

    # -- constructors ---------------------------------------------------------------------------------

    @classmethod
    def from_string(cls, xml: str | bytes, options: IndexOptions | None = None) -> "Document":
        """Parse and index an XML document given as a string."""
        options = options or IndexOptions()
        model = build_model(xml, keep_whitespace=options.keep_whitespace)
        return cls(model, options)

    @classmethod
    def from_file(cls, path: str | os.PathLike, options: IndexOptions | None = None) -> "Document":
        """Parse and index an XML document stored on disk."""
        with open(path, "rb") as handle:
            return cls.from_string(handle.read(), options)

    @classmethod
    def from_model(cls, model: DocumentModel, options: IndexOptions | None = None) -> "Document":
        """Index a prebuilt document model (used by the synthetic generators)."""
        return cls(model, options)

    # -- persistence -------------------------------------------------------------------------------------

    def write(self, fp: BinaryIO) -> None:
        """Serialise every index of the document (tree, tag tables, text, word).

        The raw document model is *not* stored: the indexes replace it, and
        :attr:`model` is rebuilt from them on demand after a load.  PSSM
        registrations (:meth:`register_pssm`) are runtime state and are not
        persisted.
        """
        writer = ChunkWriter(fp)
        writer.header("Document")
        writer.json(
            "META",
            {
                "options": asdict(self.options),
                "source_bytes": self._source_bytes,
                "word_semantics": bool(self.word_semantics),
            },
        )
        writer.child("TREE", self.tree)
        writer.child("TTAB", self.tag_tables)
        writer.child("TXTC", self.text_collection)
        writer.int("WRD?", 0 if self.word_index is None else 1)
        if self.word_index is not None:
            writer.child("WIDX", self.word_index)

    @classmethod
    def read(cls, fp: BinaryIO) -> "Document":
        """Read a document written by :meth:`write`; no XML parsing, no index build."""
        reader = ChunkReader(fp)
        reader.header("Document")
        meta = reader.json("META")
        doc = cls.__new__(cls)
        try:
            doc.options = IndexOptions(**meta["options"])
        except (KeyError, TypeError) as exc:
            raise CorruptedFileError(f"invalid document metadata: {exc}") from exc
        doc._model = None
        doc._source_bytes = int(meta.get("source_bytes", 0))
        doc.tree = reader.child("TREE", SuccinctTree)
        doc.tag_tables = reader.child("TTAB", TagPositionTables)
        doc.text_collection = reader.child("TXTC", TextCollection)
        doc.word_index = reader.child("WIDX", WordTextIndex) if reader.int("WRD?") else None
        doc.word_semantics = bool(meta.get("word_semantics", False))
        doc._engine = XPathEngine(doc)
        doc._pcdata_only = {}
        doc._pssm_registry = {}
        doc._mapped_file = None
        return doc

    def save(self, path: str | os.PathLike) -> None:
        """Write the indexed document to ``path`` (see :meth:`write`)."""
        with open(path, "wb") as handle:
            self.write(handle)

    @classmethod
    def load(
        cls,
        path: str | os.PathLike,
        mapped: bool | None = None,
        verify: str | None = None,
    ) -> "Document":
        """Load a document previously written by :meth:`save`.

        ``mapped=None`` (the default) memory-maps v2 files and falls back to
        the eager copying reader for v1 files; ``mapped=True`` demands a
        mapping (raising :class:`StorageError` on a v1 file) and
        ``mapped=False`` forces eager heap copies regardless of version.
        ``verify`` selects the mapped checksum mode (``"eager"``, ``"lazy"``
        -- the default -- or ``"off"``); deferred checksums can be run later
        through :meth:`verify_integrity`.
        """
        if mapped is None or mapped:
            version = peek_file_version(path)
            if version < 2:
                if mapped:
                    raise StorageError(
                        f"{os.fspath(path)!r} is a v{version} file; mapped load needs format v2 "
                        "(re-save the document to upgrade it)"
                    )
                mapped = False
                record_v1_fallback_load()
            else:
                mapped = True
        if not mapped:
            with open(path, "rb") as handle:
                return cls.read(handle)
        mapped_file = MappedFile(path, verify=verify if verify is not None else "lazy")
        try:
            doc = cls.read(mapped_file.source())
        except Exception:
            mapped_file.close()
            raise
        mapped_file.end_parse()  # decoding is done; drop the fd, keep only the mapping
        doc._mapped_file = mapped_file
        record_mapped_load(mapped_file)
        return doc

    # -- mapped-storage surface --------------------------------------------------------------------------

    @property
    def is_mapped(self) -> bool:
        """Whether this document reads from a memory-mapped file."""
        return self._mapped_file is not None and not self._mapped_file.closed

    @property
    def mapped_bytes(self) -> int:
        """Bytes served through zero-copy views of the mapping (0 when unmapped)."""
        return self._mapped_file.mapped_bytes if self._mapped_file is not None else 0

    def verify_integrity(self) -> int:
        """Run any deferred (``verify="lazy"``) checksums now.

        Returns the number of checksums verified; raises
        :class:`CorruptedFileError` on a mismatch.  Unmapped documents were
        fully verified at load and return 0.
        """
        if self._mapped_file is None:
            return 0
        return self._mapped_file.verify_pending()

    def close(self) -> None:
        """Release the underlying mapping, if any.

        The document must not be queried afterwards.  Unmapped documents are
        unaffected.  Dropping the last reference has the same effect (the
        engine holds only a weak reference back, so teardown is refcounted).
        """
        if self._mapped_file is not None:
            self._mapped_file.close()

    # -- basic statistics --------------------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes of the model tree."""
        return self.tree.num_nodes

    @property
    def num_texts(self) -> int:
        """Number of texts (text and attribute values)."""
        return self.tree.num_texts

    @property
    def num_tags(self) -> int:
        """Number of distinct labels (tags, attribute names and specials)."""
        return self.tree.num_tags

    @property
    def engine(self) -> XPathEngine:
        """The underlying XPath engine."""
        return self._engine

    @property
    def model(self) -> DocumentModel:
        """The document model the indexes were built from.

        Documents revived through :meth:`load` do not carry the model; it is
        reconstructed (and cached) from the succinct indexes on first access.
        """
        if self._model is None:
            self._model = self._rebuild_model()
        return self._model

    def _rebuild_model(self) -> DocumentModel:
        tree = self.tree
        parens = tree.parentheses.to_numpy()
        node_tags = np.full(parens.size, -1, dtype=np.int64)
        tags = tree.tag_sequence
        for tag in range(tree.num_tags):
            node_tags[tags.occurrences(tag)] = tag
        texts = [self.text_collection.get_text(i) for i in range(tree.num_texts)]
        return DocumentModel(
            parens=parens,
            node_tags=node_tags,
            tag_names=list(tree.tag_names()),
            text_leaf_positions=tree.text_leaf_positions(),
            texts=texts,
            source_bytes=self._source_bytes,
        )

    def _component_bits(self) -> dict[str, int]:
        """Size in bits of every index component (single source for the size APIs)."""
        plain = self.text_collection.plain
        return {
            "tree": self.tree.size_in_bits(),
            "tag_tables": self.tag_tables.size_in_bits(),
            "text_index": self.text_collection.fm_index.size_in_bits(),
            "plain_text": plain.size_in_bits() if plain is not None else 0,
            "word_index": self.word_index.size_in_bits() if self.word_index is not None else 0,
        }

    def index_size_bits(self) -> dict[str, int]:
        """Approximate per-component index sizes in bits (Figure 8 material).

        Covers the paper's three components only; :meth:`stats` adds the tag
        tables and the optional word index.
        """
        bits = self._component_bits()
        return {
            "tree": bits["tree"],
            "text_index": bits["text_index"],
            "plain_text": bits["plain_text"],
            "total": bits["tree"] + bits["text_index"] + bits["plain_text"],
        }

    def stats(self) -> dict:
        """Per-component size breakdown of the index, in bits and bytes.

        Components: the succinct tree (parentheses + tags + leaf bitmap), the
        relative tag-position tables, the text self-index (FM or RLCSA), the
        optional plain-text store and the optional word index.
        """
        component_bits = self._component_bits()
        total_bits = sum(component_bits.values())
        total_bytes = (total_bits + 7) // 8
        mapped_bytes = self.mapped_bytes
        storage = {
            "mode": "mapped" if self.is_mapped else "heap",
            "mapped_bytes": mapped_bytes,
            "heap_bytes": max(0, total_bytes - mapped_bytes),
        }
        if self._mapped_file is not None:
            storage["verify"] = self._mapped_file.verify
            storage["file_bytes"] = self._mapped_file.size
            storage["pending_checksums"] = len(self._mapped_file.pending)
            from repro.obs.resources import mapped_residency

            residency = mapped_residency(self._mapped_file)
            if residency is not None:
                storage["residency"] = residency
        return {
            "num_nodes": self.num_nodes,
            "num_texts": self.num_texts,
            "num_tags": self.num_tags,
            "source_bytes": self._source_bytes,
            "components": {
                name: {"bits": bits, "bytes": (bits + 7) // 8} for name, bits in component_bits.items()
            },
            "total_bits": total_bits,
            "total_bytes": (total_bits + 7) // 8,
            "storage": storage,
        }

    # -- text access ----------------------------------------------------------------------------------------

    def get_text(self, text_id: int) -> str:
        """Content of text ``text_id`` as a string."""
        return self.text_collection.get_text_str(text_id)

    def string_value(self, node: int) -> str:
        """The XPath string value of ``node`` (concatenation of descendant texts)."""
        return serialize_text(self.tree, self.get_text, node)

    def serialize_node(self, node: int) -> str:
        """XML serialisation of the subtree rooted at ``node``."""
        return serialize_subtree(self.tree, self.get_text, node)

    def is_pcdata_only(self, tag_name: str) -> bool:
        """Whether every ``tag_name`` element holds at most one text and nothing else.

        This is the "content known to be PCDATA" information the paper keeps in
        its index to decide that a text predicate applies to a single text node.
        """
        tag = self.tree.tag_id(tag_name)
        if tag < 0:
            return True
        cached = self._pcdata_only.get(tag)
        if cached is not None:
            return cached
        result = True
        tree = self.tree
        text_tag = tree.tag_id("#")
        for node in tree.tagged_nodes(tag):
            node = int(node)
            first, last = tree.text_ids(node)
            if last - first > 1:
                result = False
                break
            child = tree.first_child(node)
            while child != -1:
                name = tree.tag(child)
                if name != text_tag and tree.tag_name_of(child) != "@":
                    result = False
                    break
                child = tree.next_sibling(child)
            if not result:
                break
        self._pcdata_only[tag] = result
        return result

    # -- text predicate dispatch (FM-index / plain / word index) ----------------------------------------------

    def match_text_predicate(self, kind: str, pattern: str, threshold: float | None = None) -> np.ndarray:
        """Text identifiers whose content satisfies the predicate ``kind(pattern)``."""
        ids = self._match_text_predicate(kind, pattern, threshold)
        # A document without any text is indexed over one phantom empty text
        # (the FM-index needs content); identifiers past the tree's real text
        # leaves must never escape to the planner or the bottom-up seeds.
        ids = np.asarray(ids)
        if ids.size:
            ids = ids[ids < self.tree.num_texts]
        return ids

    def _match_text_predicate(self, kind: str, pattern: str, threshold: float | None) -> np.ndarray:
        if kind == "pssm":
            matrix, score = self.pssm_matrix(pattern, threshold)
            from repro.text.pssm import pssm_search

            return pssm_search(self.text_collection, matrix, score)
        if self.word_semantics and self.word_index is not None and kind == "contains":
            return self.word_index.contains(pattern)
        collection = self.text_collection
        if kind == "contains":
            return collection.contains_auto(pattern, cutoff=self.options.contains_cutoff)
        if kind == "starts-with":
            return collection.starts_with(pattern)
        if kind == "ends-with":
            return collection.ends_with(pattern)
        if kind == "equals":
            return collection.equals(pattern)
        raise ValueError(f"unknown text predicate kind {kind!r}")

    # -- PSSM registry (Section 6.7 extension) ---------------------------------------------------------------------

    def register_pssm(self, name: str, matrix: PositionWeightMatrix, threshold: float) -> None:
        """Register a scoring matrix so queries can refer to it as ``PSSM(., name)``."""
        self._pssm_registry[name] = (matrix, float(threshold))

    def pssm_matrix(self, name: str, threshold: float | None = None) -> tuple[PositionWeightMatrix, float]:
        """Look up a registered matrix; an explicit query threshold overrides the registered one."""
        if name not in self._pssm_registry:
            raise KeyError(f"no PSSM matrix registered under the name {name!r}")
        matrix, registered = self._pssm_registry[name]
        return matrix, float(threshold) if threshold is not None else registered

    # -- queries -----------------------------------------------------------------------------------------------------
    #
    # ``query`` is a string or a :class:`~repro.xpath.plan.PreparedQuery`; pass
    # the latter (see :meth:`prepare`) to share one parsed/compiled plan across
    # many documents.

    def prepare(self, query: str | PreparedQuery) -> PreparedQuery:
        """Parse ``query`` once into a plan reusable across documents."""
        return self._engine.prepare(query)

    def count(self, query: str | PreparedQuery, options: EvaluationOptions | None = None) -> int:
        """Number of nodes selected by ``query``."""
        return self._engine.count(query, options)

    def query(self, query: str | PreparedQuery, options: EvaluationOptions | None = None) -> list[int]:
        """The nodes selected by ``query`` (document order, as tree node handles)."""
        return self._engine.materialize(query, options)

    def evaluate(
        self,
        query: str | PreparedQuery,
        options: EvaluationOptions | None = None,
        want_nodes: bool = True,
    ) -> QueryResult:
        """Full evaluation: nodes, count, plan and statistics."""
        return self._engine.evaluate(query, options, want_nodes=want_nodes)

    def serialize(self, query: str | PreparedQuery, options: EvaluationOptions | None = None) -> list[str]:
        """Evaluate ``query`` and serialise every selected subtree to XML."""
        return self._engine.serialize(query, options)

    def explain(self, query: str | PreparedQuery, options: EvaluationOptions | None = None) -> str:
        """Describe how ``query`` would be evaluated (automaton + strategy)."""
        return self._engine.explain(query, options)

    def explain_data(self, query: str | PreparedQuery, options: EvaluationOptions | None = None) -> dict:
        """Evaluate ``query`` and return the EXPLAIN record (plan, cardinalities, span tree)."""
        return self._engine.explain_data(query, options)

    # -- convenience ---------------------------------------------------------------------------------------------------

    def node_path(self, node: int) -> str:
        """Human-readable path of a node (for debugging and examples)."""
        parts: list[str] = []
        current = node
        while current != -1:
            parts.append(self.tree.tag_name_of(current))
            current = self.tree.parent(current)
        return "/" + "/".join(reversed(parts))

    def tag_counts(self) -> dict[str, int]:
        """Number of nodes per tag name."""
        return {name: self.tree.tag_count(tag) for tag, name in enumerate(self.tree.tag_names())}

    def preorder_ids(self, nodes: Iterable[int]) -> list[int]:
        """Convert tree node handles to global preorder identifiers."""
        return [self.tree.preorder(node) for node in nodes]

    @staticmethod
    def texts_of_model(model: DocumentModel) -> Sequence[bytes]:
        """The text values of a model, in document order (helper for tools)."""
        return list(model.texts)
