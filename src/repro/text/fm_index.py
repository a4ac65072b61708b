"""FM-index over a text collection.

This is the self-index of Section 3: the collection's concatenation ``T`` is
represented only through its Burrows--Wheeler transform, indexed by a
(Huffman-shaped) wavelet tree, together with

* the ``C`` array of cumulative symbol counts,
* the ``Doc`` array mapping ``$``-rows of the BWT to text identifiers,
* a sampling of text positions (``Bs`` bitmap + ``Ps`` samples array) used to
  locate occurrences, with the sampling step ``l`` exposed as ``sample_rate``
  (the paper evaluates ``l = 64`` and ``l = 4`` in Tables II and III).

The index *replaces* the collection: any text can be extracted back from it,
and counting/locating pattern occurrences never touches the original strings.
"""

from __future__ import annotations

from typing import BinaryIO, Callable, Iterable, Sequence

import numpy as np

from repro.bits.bitvector import BitVector
from repro.core.errors import CorruptedFileError, StorageError
from repro.sequence.runlength import RunLengthSequence
from repro.sequence.wavelet_tree import WaveletTree
from repro.storage.codec import ChunkReader, ChunkWriter, Serializable
from repro.text.bwt import TERMINATOR, bwt_of_collection

__all__ = ["FMIndex"]

#: BWT rank/select representations the codec knows how to revive.
_SEQUENCE_KINDS: dict[str, type] = {
    "WaveletTree": WaveletTree,
    "RunLengthSequence": RunLengthSequence,
}


class FMIndex(Serializable):
    """Self-index for a collection of byte strings.

    Parameters
    ----------
    texts:
        The collection, one ``bytes`` object per text.  Texts must not contain
        the NUL byte (it is used as the ``$`` terminator).
    sample_rate:
        Sampling step ``l`` for the locate structure: every ``l``-th position
        of the concatenation is sampled.  Smaller values make ``locate`` (and
        therefore ``contains`` reporting) faster at the price of space.
    sequence_factory:
        Callable building the rank/select structure over the BWT.  Defaults to
        :class:`~repro.sequence.wavelet_tree.WaveletTree`; passing a run-length
        sequence yields the RLCSA flavour used for repetitive collections.
    """

    def __init__(
        self,
        texts: Sequence[bytes],
        sample_rate: int = 64,
        sequence_factory: Callable[[np.ndarray], object] = WaveletTree,
    ):
        if sample_rate < 1:
            raise ValueError("sample_rate must be >= 1")
        self._texts_lengths = np.array([len(t) for t in texts], dtype=np.int64)
        transform = bwt_of_collection(list(texts))
        self._length = transform.length
        self._num_texts = transform.num_texts
        self._sample_rate = int(sample_rate)
        self._text_starts = transform.text_starts
        self._doc_row_map = transform.doc_row_map

        bwt = transform.bwt
        self._sequence = sequence_factory(bwt)

        # C array over the byte alphabet (0 = terminator).
        counts = np.bincount(bwt, minlength=256)
        self._c_array = np.zeros(257, dtype=np.int64)
        np.cumsum(counts, out=self._c_array[1:])

        # Locate sampling: mark rows whose suffix position is a multiple of l.
        sa = transform.suffix_array
        sampled_rows = np.flatnonzero(sa % self._sample_rate == 0)
        self._sample_bitmap = BitVector.from_positions(sampled_rows, self._length)
        self._samples = sa[sampled_rows].astype(np.int64)

        # Dollar-row bookkeeping: rows of the BWT holding a terminator, in order.
        self._dollar_rows = np.flatnonzero(bwt == TERMINATOR)

    # -- persistence --------------------------------------------------------------

    def write(self, fp: BinaryIO) -> None:
        """Serialise the whole self-index (BWT sequence, C array, samples, Doc)."""
        kind = type(self._sequence).__name__
        if kind not in _SEQUENCE_KINDS:
            raise StorageError(f"cannot persist an FM-index over a {kind} sequence")
        writer = ChunkWriter(fp)
        writer.header("FMIndex")
        writer.int("NLEN", self._length)
        writer.int("NTXT", self._num_texts)
        writer.int("SRAT", self._sample_rate)
        writer.array("TLEN", self._texts_lengths)
        writer.array("TSTR", self._text_starts)
        writer.array("DOCR", self._doc_row_map)
        writer.array("CARR", self._c_array)
        writer.json("SEQK", kind)
        writer.child("SEQ_", self._sequence)
        writer.child("SBMP", self._sample_bitmap)
        writer.array("SAMP", self._samples)
        writer.array("DROW", self._dollar_rows)

    @classmethod
    def read(cls, fp: BinaryIO) -> "FMIndex":
        """Read an FM-index written by :meth:`write` (no BWT reconstruction)."""
        reader = ChunkReader(fp)
        reader.header("FMIndex")
        fm = cls.__new__(cls)
        fm._length = reader.int("NLEN")
        fm._num_texts = reader.int("NTXT")
        fm._sample_rate = reader.int("SRAT")
        if fm._length < 0 or fm._num_texts < 0 or fm._sample_rate < 1:
            raise CorruptedFileError("FM-index geometry is invalid")
        fm._texts_lengths = reader.array("TLEN").astype(np.int64, copy=False)
        fm._text_starts = reader.array("TSTR").astype(np.int64, copy=False)
        fm._doc_row_map = reader.array("DOCR").astype(np.int64, copy=False)
        fm._c_array = reader.array("CARR").astype(np.int64, copy=False)
        kind = reader.json("SEQK")
        sequence_cls = _SEQUENCE_KINDS.get(kind)
        if sequence_cls is None:
            raise CorruptedFileError(f"unknown BWT sequence kind {kind!r}")
        fm._sequence = reader.child("SEQ_", sequence_cls)
        fm._sample_bitmap = reader.child("SBMP", BitVector)
        fm._samples = reader.array("SAMP").astype(np.int64, copy=False)
        fm._dollar_rows = reader.array("DROW").astype(np.int64, copy=False)
        if len(fm._sequence) != fm._length or len(fm._sample_bitmap) != fm._length:
            raise CorruptedFileError("FM-index component lengths disagree")
        if fm._texts_lengths.size != fm._num_texts or fm._text_starts.size != fm._num_texts:
            raise CorruptedFileError("FM-index text bookkeeping arrays disagree")
        return fm

    # -- basic accessors ----------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    @property
    def num_texts(self) -> int:
        """Number of texts ``d`` in the collection."""
        return self._num_texts

    @property
    def sample_rate(self) -> int:
        """The locate sampling step ``l``."""
        return self._sample_rate

    @property
    def text_starts(self) -> np.ndarray:
        """Global starting position of each text in the concatenation (copy)."""
        return self._text_starts.copy()

    def text_length(self, doc_id: int) -> int:
        """Length in bytes of text ``doc_id`` (terminator excluded)."""
        return int(self._texts_lengths[doc_id])

    def size_in_bits(self) -> int:
        """Approximate space usage of the index, in bits."""
        total = 0
        if hasattr(self._sequence, "size_in_bits"):
            total += int(self._sequence.size_in_bits())
        total += self._c_array.size * 64
        total += self._sample_bitmap.size_in_bits()
        total += int(self._samples.size) * 64
        total += int(self._doc_row_map.size) * max(1, int(self._num_texts - 1).bit_length())
        return total

    # -- core FM-index machinery ----------------------------------------------------

    def _rank(self, symbol: int, i: int) -> int:
        return self._sequence.rank(symbol, i)

    def _access(self, i: int) -> int:
        return self._sequence.access(i)

    def lf(self, row: int) -> int:
        """LF-mapping: the row of the suffix starting one position earlier.

        Must not be called on a row whose BWT symbol is the terminator (the
        terminators are not distinguishable in the BWT string itself; the
        ``Doc`` array is used instead, as in the paper).
        """
        symbol = self._access(row)
        if symbol == TERMINATOR:
            raise ValueError("LF is undefined on terminator rows; use the Doc array instead")
        return int(self._c_array[symbol]) + self._rank(symbol, row)

    def backward_step(self, symbol: int, sp: int, ep: int) -> tuple[int, int]:
        """One backward-search step, over the half-open row range ``[sp, ep)``."""
        base = int(self._c_array[symbol])
        return base + self._rank(symbol, sp), base + self._rank(symbol, ep)

    def backward_step_many(
        self, symbol: int, sps: np.ndarray, eps: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`backward_step`: advance many ``[sp, ep)`` ranges at once.

        All ranges step over the *same* symbol (the common case when many
        backward searches are driven in lockstep); the two boundary arrays are
        answered with one batched rank each.
        """
        sps = np.asarray(sps, dtype=np.int64)
        eps = np.asarray(eps, dtype=np.int64)
        base = int(self._c_array[symbol])
        bounds = self._sequence.rank_many(symbol, np.concatenate((sps, eps)))
        return base + bounds[: sps.size], base + bounds[sps.size :]

    def backward_search(self, pattern: bytes, sp: int | None = None, ep: int | None = None) -> tuple[int, int]:
        """Rows whose suffix starts with ``pattern``, as a half-open range.

        When ``sp``/``ep`` are given they define the starting interval (used by
        ``ends-with`` style searches that begin from the ``$`` rows).  The
        returned range is always a valid insertion range: if the pattern does
        not occur the range is empty but correctly positioned.
        """
        if sp is None:
            sp = 0
        if ep is None:
            ep = self._length
        for byte in reversed(pattern):
            sp, ep = self.backward_step(byte, sp, ep)
            # No early break: even when the range becomes empty, folding the
            # remaining symbols keeps (sp, ep) equal to the lexicographic
            # insertion point of the pattern, which the comparison operators
            # (<, <=, >, >=) of the text collection rely on.
        return sp, ep

    def count(self, pattern: bytes) -> int:
        """Global number of occurrences of ``pattern`` in the whole collection."""
        if not pattern:
            return self._length
        sp, ep = self.backward_search(pattern)
        return max(0, ep - sp)

    # -- locating ----------------------------------------------------------------------

    def locate_row(self, row: int) -> int:
        """Global position (in ``T``) of the suffix at ``row``."""
        steps = 0
        current = row
        while True:
            if self._sample_bitmap[current]:
                rank = self._sample_bitmap.rank1(current)
                return int(self._samples[rank]) + steps
            symbol = self._access(current)
            if symbol == TERMINATOR:
                # The suffix at `current` starts a text: its position is that
                # text's start (the Doc array tells us which text).
                doc = int(self._doc_row_map[self._rank(TERMINATOR, current)])
                return int(self._text_starts[doc]) + steps
            current = int(self._c_array[symbol]) + self._rank(symbol, current)
            steps += 1

    #: Below this many rows the scalar per-row walk wins: each batched round
    #: pays a per-wavelet-node numpy-call overhead that only amortises once
    #: enough rows share the descent (crossover measured on text alphabets).
    _BATCH_LOCATE_CUTOFF = 512

    def locate_rows_many(self, rows: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`locate_row`: resolve many BWT rows in lockstep.

        All rows walk the LF-mapping together; each round answers the sample
        bitmap and one combined access+rank descent
        (:meth:`~repro.sequence.wavelet_tree.WaveletTree.access_rank_many`) for
        the whole surviving batch, so the LF step of every row costs a shared
        constant number of numpy calls instead of a Python loop iteration.
        Small batches fall back to the scalar walk, which is faster there.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size < self._BATCH_LOCATE_CUTOFF:
            return np.array([self.locate_row(int(row)) for row in rows], dtype=np.int64)
        current = rows.copy()
        out = np.full(current.size, -1, dtype=np.int64)
        active = np.arange(current.size)
        steps = 0
        while active.size:
            rows_now = current[active]
            sampled = self._sample_bitmap.get_many(rows_now).astype(bool)
            if sampled.any():
                hit = active[sampled]
                sample_ranks = self._sample_bitmap.rank1_many(current[hit])
                out[hit] = self._samples[sample_ranks] + steps
                active = active[~sampled]
                if not active.size:
                    break
                rows_now = current[active]
            symbols, symbol_ranks = self._sequence.access_rank_many(rows_now)
            terminal = symbols == TERMINATOR
            if terminal.any():
                done = active[terminal]
                docs = self._doc_row_map[symbol_ranks[terminal]]
                out[done] = self._text_starts[docs] + steps
                active = active[~terminal]
                symbols = symbols[~terminal]
                symbol_ranks = symbol_ranks[~terminal]
            current[active] = self._c_array[symbols] + symbol_ranks
            steps += 1
        return out

    def locate_range(self, sp: int, ep: int) -> np.ndarray:
        """Global positions of all suffixes in rows ``[sp, ep)`` (unsorted)."""
        return self.locate_rows_many(np.arange(sp, ep, dtype=np.int64))

    def locate(self, pattern: bytes) -> np.ndarray:
        """Global positions of all occurrences of ``pattern`` (sorted)."""
        sp, ep = self.backward_search(pattern)
        positions = self.locate_range(sp, ep)
        positions.sort()
        return positions

    def position_to_doc(self, position: int) -> tuple[int, int]:
        """Map a global position to ``(text identifier, offset inside the text)``."""
        if not 0 <= position < self._length:
            raise ValueError(f"position {position} out of range")
        doc = int(np.searchsorted(self._text_starts, position, side="right")) - 1
        return doc, position - int(self._text_starts[doc])

    def positions_to_docs(self, positions: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`position_to_doc`, text identifiers only."""
        pos = np.asarray(positions, dtype=np.int64)
        if pos.size == 0:
            return np.zeros(0, dtype=np.int64)
        if int(pos.min()) < 0 or int(pos.max()) >= self._length:
            raise ValueError("position out of range")
        return np.searchsorted(self._text_starts, pos, side="right") - 1

    # -- dollar-row helpers (the Doc structure of the paper) ----------------------------

    def dollar_docs_in_range(self, sp: int, ep: int) -> np.ndarray:
        """Identifiers of texts whose first symbol lies at a row in ``[sp, ep)``.

        This is the ``Doc``-based mapping used by ``starts-with`` and ``=``:
        a row in the range whose BWT symbol is ``$`` marks the start of a text.
        """
        lo = self._rank(TERMINATOR, max(sp, 0))
        hi = self._rank(TERMINATOR, min(ep, self._length))
        return np.sort(self._doc_row_map[lo:hi])

    def dollar_row_range(self, first_doc: int, last_doc: int) -> tuple[int, int]:
        """Row range (half-open) of the terminators of texts ``first_doc..last_doc``.

        Because the end-marker of text ``i`` is forced to row ``i``, this is
        simply ``[first_doc, last_doc + 1)``.
        """
        if not 0 <= first_doc <= last_doc < self._num_texts:
            raise ValueError("document range out of bounds")
        return first_doc, last_doc + 1

    # -- extraction ----------------------------------------------------------------------

    def extract(self, doc_id: int) -> bytes:
        """Reproduce text ``doc_id`` from the index (O(log sigma) per symbol)."""
        if not 0 <= doc_id < self._num_texts:
            raise ValueError(f"text identifier {doc_id} out of range")
        symbols: list[int] = []
        row = doc_id  # row of the terminator of text doc_id
        while True:
            symbol = self._access(row)
            if symbol == TERMINATOR:
                break
            symbols.append(symbol)
            row = int(self._c_array[symbol]) + self._rank(symbol, row)
        symbols.reverse()
        return bytes(symbols)

    def extract_all(self) -> list[bytes]:
        """Reproduce every text of the collection (mainly for testing)."""
        return [self.extract(d) for d in range(self._num_texts)]

    # -- iteration helpers ---------------------------------------------------------------

    def documents(self) -> Iterable[int]:
        """Iterate over all text identifiers."""
        return range(self._num_texts)
