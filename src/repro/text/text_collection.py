"""The SXSI text collection: FM-index plus XPath-oriented query operations.

This module implements Section 3.2 of the paper.  On top of the raw FM-index
it provides the operations the XPath evaluator needs, each returning *text
identifiers* (the ``d`` texts are numbered left-to-right in document order):

* ``starts_with(P)``, ``ends_with(P)``, ``equals(P)``, ``contains(P)``,
* lexicographic comparison operators (``<``, ``<=``, ``>``, ``>=``),
* global occurrence counting (``global_count``), per-text counting and
  existence checks,
* text extraction (``get_text``), either from the self-index or from the
  optional plain-text store (Section 3.4).

The optional plain store also lets the caller reproduce the paper's strategy
of using the cheap ``global_count`` to decide whether a ``contains`` query
should run over the FM-index or over the plain buffers (Section 6.3).
"""

from __future__ import annotations

from typing import BinaryIO, Callable, Iterable, Sequence

import numpy as np

from repro.core.errors import CorruptedFileError
from repro.sequence.wavelet_tree import WaveletTree
from repro.storage.codec import ChunkReader, ChunkWriter, Serializable
from repro.text.fm_index import FMIndex
from repro.text.naive_text import NaiveTextCollection

__all__ = ["TextCollection"]


class TextCollection(Serializable):
    """Indexed text collection with the XPath text-predicate operations.

    Parameters
    ----------
    texts:
        The texts, in document order (text identifiers are their indexes).
        ``str`` items are encoded as UTF-8.
    sample_rate:
        Locate sampling step ``l`` of the underlying FM-index.
    keep_plain_text:
        Whether to keep a plain copy of the texts next to the self-index
        (faster extraction and reporting for large result sets; roughly the
        "1--2 times the original size" configuration of the paper).
    sequence_factory:
        Rank structure used for the BWT; see :class:`~repro.text.fm_index.FMIndex`.
    """

    def __init__(
        self,
        texts: Sequence[bytes | str],
        sample_rate: int = 64,
        keep_plain_text: bool = True,
        sequence_factory: Callable = WaveletTree,
    ):
        encoded = [t.encode("utf-8") if isinstance(t, str) else bytes(t) for t in texts]
        if not encoded:
            encoded = [b""]
        self._fm = FMIndex(encoded, sample_rate=sample_rate, sequence_factory=sequence_factory)
        self._plain: NaiveTextCollection | None = NaiveTextCollection(encoded) if keep_plain_text else None
        self._num_texts = len(encoded)

    #: Subclasses register here so ``TextCollection.read`` revives the right class.
    _REGISTRY: dict[str, type] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        TextCollection._REGISTRY[cls.__name__] = cls

    # -- persistence -----------------------------------------------------------------

    def write(self, fp: BinaryIO) -> None:
        """Serialise the FM-index plus the optional plain store.

        The header kind records the concrete class, so reading the bytes back
        through :meth:`TextCollection.read` revives subclasses such as
        :class:`~repro.text.rlcsa.RLCSAIndex` transparently.
        """
        writer = ChunkWriter(fp)
        writer.header(type(self).__name__)
        writer.child("FMIX", self._fm)
        writer.int("PLN?", 0 if self._plain is None else 1)
        if self._plain is not None:
            writer.child("PLNT", self._plain)

    @classmethod
    def read(cls, fp: BinaryIO) -> "TextCollection":
        """Read a collection written by :meth:`write`, reviving the saved class."""
        from repro.text import rlcsa  # noqa: F401 - registers RLCSAIndex in _REGISTRY

        registry = {TextCollection.__name__: TextCollection, **TextCollection._REGISTRY}
        reader = ChunkReader(fp)
        kind = reader.header(tuple(registry))
        target = registry[kind]
        if cls is not TextCollection and not issubclass(target, cls):
            raise CorruptedFileError(f"expected a {cls.__name__} payload, found {kind!r}")
        collection = target.__new__(target)
        collection._fm = reader.child("FMIX", FMIndex)
        collection._plain = reader.child("PLNT", NaiveTextCollection) if reader.int("PLN?") else None
        collection._num_texts = collection._fm.num_texts
        return collection

    # -- accessors -------------------------------------------------------------------

    @property
    def num_texts(self) -> int:
        """Number of texts ``d`` in the collection."""
        return self._num_texts

    @property
    def fm_index(self) -> FMIndex:
        """The underlying FM-index (exposed for benchmarks and extensions)."""
        return self._fm

    @property
    def plain(self) -> NaiveTextCollection | None:
        """The optional plain-text store, or ``None`` when not kept."""
        return self._plain

    def documents(self) -> Iterable[int]:
        """Iterate over all text identifiers."""
        return range(self._num_texts)

    def get_text(self, doc_id: int) -> bytes:
        """Return the content of text ``doc_id``.

        Uses the plain store when available (O(1) per symbol), falling back to
        extraction from the self-index otherwise.
        """
        if self._plain is not None:
            return self._plain.get_text(doc_id)
        return self._fm.extract(doc_id)

    def get_text_str(self, doc_id: int) -> str:
        """Return the content of text ``doc_id`` decoded as UTF-8."""
        return self.get_text(doc_id).decode("utf-8", errors="replace")

    def size_in_bits(self) -> int:
        """Approximate total space usage (index plus optional plain store)."""
        total = self._fm.size_in_bits()
        if self._plain is not None:
            total += self._plain.size_in_bits()
        return total

    @staticmethod
    def _as_bytes(pattern: bytes | str) -> bytes:
        return pattern.encode("utf-8") if isinstance(pattern, str) else bytes(pattern)

    # -- counting -----------------------------------------------------------------------

    def global_count(self, pattern: bytes | str) -> int:
        """Total number of occurrences of ``pattern`` in the whole collection.

        This is the cheap ``O(|P| log sigma)`` count the paper uses both as a
        result in itself and as the cost estimate that drives the FM-vs-plain
        and top-down-vs-bottom-up decisions.
        """
        return self._fm.count(self._as_bytes(pattern))

    # -- membership-style predicates ------------------------------------------------------

    def starts_with(self, pattern: bytes | str) -> np.ndarray:
        """Identifiers of texts that start with ``pattern`` (sorted)."""
        pattern = self._as_bytes(pattern)
        if not pattern:
            return np.arange(self._num_texts, dtype=np.int64)
        sp, ep = self._fm.backward_search(pattern)
        return self._fm.dollar_docs_in_range(sp, ep)

    def ends_with(self, pattern: bytes | str) -> np.ndarray:
        """Identifiers of texts that end with ``pattern`` (sorted)."""
        pattern = self._as_bytes(pattern)
        if not pattern:
            return np.arange(self._num_texts, dtype=np.int64)
        sp, ep = self._fm.dollar_row_range(0, self._num_texts - 1)
        sp, ep = self._fm.backward_search(pattern, sp, ep)
        positions = self._fm.locate_range(sp, ep)
        return np.unique(self._fm.positions_to_docs(positions))

    def equals(self, pattern: bytes | str) -> np.ndarray:
        """Identifiers of texts exactly equal to ``pattern`` (sorted)."""
        pattern = self._as_bytes(pattern)
        sp, ep = self._fm.dollar_row_range(0, self._num_texts - 1)
        if pattern:
            sp, ep = self._fm.backward_search(pattern, sp, ep)
        return self._fm.dollar_docs_in_range(sp, ep)

    def contains(self, pattern: bytes | str) -> np.ndarray:
        """Identifiers of texts containing ``pattern`` (sorted, deduplicated).

        The occurrence rows are located in one batched LF walk
        (:meth:`~repro.text.fm_index.FMIndex.locate_rows_many`) and mapped to
        text identifiers with a single ``searchsorted``.
        """
        pattern = self._as_bytes(pattern)
        if not pattern:
            return np.arange(self._num_texts, dtype=np.int64)
        sp, ep = self._fm.backward_search(pattern)
        positions = self._fm.locate_range(sp, ep)
        return np.unique(self._fm.positions_to_docs(positions))

    def contains_count(self, pattern: bytes | str) -> int:
        """Number of distinct texts containing ``pattern``."""
        return int(self.contains(pattern).size)

    def contains_exists(self, pattern: bytes | str) -> bool:
        """Whether at least one text contains ``pattern``."""
        pattern = self._as_bytes(pattern)
        if not pattern:
            return self._num_texts > 0
        sp, ep = self._fm.backward_search(pattern)
        return ep > sp

    def report_occurrences(self, pattern: bytes | str) -> list[tuple[int, int]]:
        """All occurrences of ``pattern`` as ``(text identifier, offset)`` pairs (sorted)."""
        pattern = self._as_bytes(pattern)
        if not pattern:
            return []
        sp, ep = self._fm.backward_search(pattern)
        positions = np.sort(self._fm.locate_range(sp, ep))
        docs = self._fm.positions_to_docs(positions)
        offsets = positions - self._fm.text_starts[docs]
        return [(int(doc), int(offset)) for doc, offset in zip(docs, offsets)]

    # -- lexicographic comparison operators -------------------------------------------------

    def less_than(self, pattern: bytes | str) -> np.ndarray:
        """Identifiers of texts lexicographically smaller than ``pattern``."""
        pattern = self._as_bytes(pattern)
        if not pattern:
            return np.zeros(0, dtype=np.int64)
        sp, _ = self._fm.backward_search(pattern)
        return self._fm.dollar_docs_in_range(0, sp)

    def less_equal(self, pattern: bytes | str) -> np.ndarray:
        """Identifiers of texts lexicographically smaller than or equal to ``pattern``."""
        smaller = set(int(d) for d in self.less_than(pattern))
        smaller.update(int(d) for d in self.equals(pattern))
        return np.array(sorted(smaller), dtype=np.int64)

    def greater_equal(self, pattern: bytes | str) -> np.ndarray:
        """Identifiers of texts lexicographically greater than or equal to ``pattern``."""
        smaller = set(int(d) for d in self.less_than(pattern))
        return np.array([d for d in range(self._num_texts) if d not in smaller], dtype=np.int64)

    def greater_than(self, pattern: bytes | str) -> np.ndarray:
        """Identifiers of texts lexicographically greater than ``pattern``."""
        not_greater = set(int(d) for d in self.less_equal(pattern))
        return np.array([d for d in range(self._num_texts) if d not in not_greater], dtype=np.int64)

    # -- plain-text strategy helpers ------------------------------------------------------------

    def contains_via_plain(self, pattern: bytes | str) -> np.ndarray:
        """``contains`` answered by scanning the plain store (the naive strategy)."""
        if self._plain is None:
            return self.contains(pattern)
        return self._plain.contains(self._as_bytes(pattern))

    def contains_auto(self, pattern: bytes | str, cutoff: int = 20_000) -> np.ndarray:
        """``contains`` with the paper's strategy switch.

        The cheap global count decides whether to report over the FM-index
        (few occurrences) or to scan the plain texts (many occurrences); the
        default cut-off mirrors the order of magnitude observed in Table II.
        """
        pattern = self._as_bytes(pattern)
        if self._plain is not None and self.global_count(pattern) > cutoff:
            return self._plain.contains(pattern)
        return self.contains(pattern)
