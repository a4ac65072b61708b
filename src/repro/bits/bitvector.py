"""Plain bit vector with rank and select support.

The paper (Section 2 and 4) relies on uncompressed bitmaps with constant-time
binary ``rank`` and ``select`` as the work-horse primitive: the balanced
parentheses sequence ``Par``, the leaf bitmap ``B`` connecting tree nodes to
text identifiers, the sample bitmap ``Bs`` of the FM-index and the wavelet
tree internals are all bitmaps of this kind.

The implementation packs bits into 64-bit words (``numpy.uint64``) and keeps a
cumulative popcount directory per word, so

* ``rank1(i)`` costs one directory lookup plus one masked popcount,
* ``select1(j)`` / ``select0(j)`` cost a binary search over the directory plus
  a scan inside one word.

This mirrors the "uncompressed bitmaps inside" choice the authors make for
their Huffman-shaped wavelet trees: a little extra space buys much better
constants.

Every query also has a *batch* variant (``rank1_many``, ``select1_many``,
``get_many``, ...) taking a numpy array of positions and answering them in a
constant number of vectorised numpy operations (one gather over the rank
directory plus table-driven popcount/select inside the touched words), so the
per-call Python interpreter overhead is paid once per *array* instead of once
per position.  The scalar methods are the reference semantics; the batch
kernels must agree with a scalar loop exactly (property-tested in
``tests/test_batch_kernels.py``).
"""

from __future__ import annotations

from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from repro.core.errors import CorruptedFileError
from repro.storage.codec import ChunkReader, ChunkWriter, Serializable

__all__ = ["BitVector"]

_WORD_BITS = 64

# Byte-wise popcount table used to count bits inside a partially masked word.
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint32)

# _SELECT8[b, k] = position (0-7) of the (k+1)-th set bit of byte b; entries
# past the byte's popcount are never read (callers validate ranks first).
_SELECT8 = np.zeros((256, 8), dtype=np.uint8)
for _byte in range(256):
    for _k, _bit in enumerate(i for i in range(8) if _byte >> i & 1):
        _SELECT8[_byte, _k] = _bit
del _byte, _k, _bit


def _popcount_words(words: np.ndarray) -> np.ndarray:
    """Return the popcount of every 64-bit word in ``words`` as ``uint32``."""
    as_bytes = words.view(np.uint8).reshape(-1, 8)
    return _POPCOUNT8[as_bytes].sum(axis=1, dtype=np.uint32)


def _select_in_words(words: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Bit offset (0-63) of the ``ranks[i]``-th set bit (1-based) of ``words[i]``.

    Each ``ranks[i]`` must lie in ``[1, popcount(words[i])]``; byte-cumulative
    popcounts locate the byte, ``_SELECT8`` finishes inside it.
    """
    as_bytes = words.view(np.uint8).reshape(-1, 8)
    cumulative = np.cumsum(_POPCOUNT8[as_bytes], axis=1, dtype=np.int64)
    byte_idx = (cumulative < ranks[:, None]).sum(axis=1)
    rows = np.arange(words.size)
    before = np.where(byte_idx > 0, cumulative[rows, np.maximum(byte_idx, 1) - 1], 0)
    within = ranks - before
    return byte_idx * 8 + _SELECT8[as_bytes[rows, byte_idx], within - 1]


class BitVector(Serializable):
    """Immutable bit vector with ``rank``/``select`` support.

    Parameters
    ----------
    bits:
        Any iterable of truthy/falsy values, a ``numpy`` boolean/integer array,
        or another :class:`BitVector`.

    Notes
    -----
    Positions are zero-based.  ``rank1(i)`` counts ones in ``bits[0:i]``
    (exclusive of ``i``), matching the conventional succinct-data-structure
    definition; the inclusive variants used in the paper's formulas are easy
    to express as ``rank1(i + 1)``.
    """

    __slots__ = ("_length", "_words", "_rank_blocks", "_ones", "_zero_blocks")

    def __init__(self, bits: Iterable[int] | np.ndarray | "BitVector" = ()):
        if isinstance(bits, BitVector):
            bool_arr = bits.to_numpy()
        else:
            bool_arr = np.asarray(list(bits) if not isinstance(bits, np.ndarray) else bits)
            bool_arr = bool_arr.astype(bool, copy=False)
        self._length = int(bool_arr.size)
        n_words = (self._length + _WORD_BITS - 1) // _WORD_BITS
        padded = np.zeros(n_words * _WORD_BITS, dtype=bool)
        padded[: self._length] = bool_arr
        # Pack bits little-endian inside each word: bit i of word w is
        # position w * 64 + i of the vector.
        packed_bytes = np.packbits(padded.reshape(-1, 8)[:, ::-1], axis=1).reshape(-1)
        self._words = packed_bytes.view(np.uint64) if n_words else np.zeros(0, dtype=np.uint64)
        self._build_directory()

    def _build_directory(self) -> None:
        """(Re)compute the cumulative rank directory from the packed words.

        ``_rank_blocks[w]`` holds the number of ones in ``words[0:w]``; both
        the constructor and :meth:`read` (via :meth:`_from_words`) derive the
        directory through this single helper.
        """
        n_words = self._words.size
        counts = _popcount_words(self._words) if n_words else np.zeros(0, dtype=np.uint32)
        self._rank_blocks = np.zeros(n_words + 1, dtype=np.uint64)
        if n_words:
            np.cumsum(counts, out=self._rank_blocks[1:])
        self._ones: int | None = int(self._rank_blocks[-1]) if n_words else 0
        self._zero_blocks: np.ndarray | None = None  # lazy select0_many directory

    @property
    def _total_ones(self) -> int:
        """Total set bits; resolved from the rank directory on first use.

        Mapped reads leave this unresolved so opening a document touches no
        rank-directory pages; the first rank/select on the vector pays the
        single page fault instead.
        """
        ones = self._ones
        if ones is None:
            ones = int(self._rank_blocks[-1]) if self._words.size else 0
            self._ones = ones
        return ones

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_positions(cls, positions: Sequence[int], length: int) -> "BitVector":
        """Build a bit vector of ``length`` bits with ones at ``positions``."""
        arr = np.zeros(length, dtype=bool)
        if len(positions):
            arr[np.asarray(positions, dtype=np.int64)] = True
        return cls(arr)

    @classmethod
    def _from_words(cls, words: np.ndarray, length: int) -> "BitVector":
        """Rebuild from packed words, recomputing the rank directory."""
        bv = cls.__new__(cls)
        bv._length = int(length)
        bv._words = np.ascontiguousarray(words, dtype=np.uint64)
        bv._build_directory()
        return bv

    # -- persistence -----------------------------------------------------------

    def write(self, fp: BinaryIO) -> None:
        """Serialise the bit vector (packed words + length).

        v2 files also persist the rank directory (``RDIR``), so reading back
        costs no popcount pass -- essential for the O(metadata) mapped load.
        """
        writer = ChunkWriter(fp)
        writer.header("BitVector")
        writer.int("NBIT", self._length)
        writer.array("WORD", self._words)
        if writer.version >= 2:
            writer.array("RDIR", self._rank_blocks)

    @classmethod
    def read(cls, fp: BinaryIO) -> "BitVector":
        """Read a bit vector written by :meth:`write`."""
        reader = ChunkReader(fp)
        reader.header("BitVector")
        length = reader.int("NBIT")
        words = reader.array("WORD")
        if length < 0 or words.size != (length + _WORD_BITS - 1) // _WORD_BITS:
            raise CorruptedFileError(f"bit vector of {length} bits cannot have {words.size} words")
        words = words.astype(np.uint64, copy=False)
        # Padding bits past `length` must be clear, or rank/select silently
        # lie.  The check reads array content, so on mapped reads -- where
        # touching the last word would fault a page per bitmap and corruption
        # is covered by the checksums -- it is deferred with the other
        # content validations.
        tail_bits = length % _WORD_BITS
        if reader.deep_checks and tail_bits and int(words[-1]) >> tail_bits:
            raise CorruptedFileError("bit vector has set bits beyond its length")
        if reader.version == 1:
            return cls._from_words(words, length)
        rank_blocks = reader.array("RDIR").astype(np.uint64, copy=False)
        if rank_blocks.size != words.size + 1:
            raise CorruptedFileError(
                f"rank directory of {rank_blocks.size} entries for {words.size} words"
            )
        if reader.deep_checks and (int(rank_blocks[0]) != 0 or int(rank_blocks[-1]) > length):
            raise CorruptedFileError("rank directory endpoints are inconsistent")
        bv = cls.__new__(cls)
        bv._length = int(length)
        bv._words = words
        bv._rank_blocks = rank_blocks
        # Deferred: resolving the total would fault the rank directory's last
        # page per bitmap on a mapped open (see ``_total_ones``).
        bv._ones = int(rank_blocks[-1]) if reader.deep_checks else None
        bv._zero_blocks = None
        return bv

    # -- basic protocol --------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[int]:
        for i in range(self._length):
            yield self[i]

    def __getitem__(self, i: int) -> int:
        if i < 0:
            i += self._length
        if not 0 <= i < self._length:
            raise IndexError(f"bit index {i} out of range for length {self._length}")
        return (self._words.item(i >> 6) >> (i & 63)) & 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self._length == other._length and bool(np.array_equal(self._words, other._words))

    def __hash__(self) -> int:
        return hash((self._length, self._words.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        prefix = "".join(str(self[i]) for i in range(min(self._length, 32)))
        suffix = "..." if self._length > 32 else ""
        return f"BitVector({prefix}{suffix}, length={self._length})"

    def to_numpy(self) -> np.ndarray:
        """Return the bits as a ``numpy`` boolean array."""
        if self._length == 0:
            return np.zeros(0, dtype=bool)
        as_bytes = self._words.view(np.uint8).reshape(-1, 8)
        bits = np.unpackbits(as_bytes, axis=1, bitorder="little").reshape(-1)
        return bits[: self._length].astype(bool)

    # -- counting ---------------------------------------------------------------

    @property
    def count_ones(self) -> int:
        """Total number of set bits."""
        return self._total_ones

    @property
    def count_zeros(self) -> int:
        """Total number of clear bits."""
        return self._length - self._total_ones

    def size_in_bits(self) -> int:
        """Approximate space usage of the structure, in bits."""
        return int(self._words.size * 64 + self._rank_blocks.size * 64)

    # -- rank -------------------------------------------------------------------

    def rank1(self, i: int) -> int:
        """Number of ones in positions ``[0, i)``."""
        if i <= 0:
            return 0
        if i >= self._length:
            return self._total_ones
        word_idx, bit_idx = divmod(i, _WORD_BITS)
        result = self._rank_blocks.item(word_idx)
        if bit_idx:
            result += (self._words.item(word_idx) & ((1 << bit_idx) - 1)).bit_count()
        return result

    def rank0(self, i: int) -> int:
        """Number of zeros in positions ``[0, i)``."""
        i = max(0, min(i, self._length))
        return i - self.rank1(i)

    def rank(self, bit: int, i: int) -> int:
        """Generic rank: number of occurrences of ``bit`` in ``[0, i)``."""
        return self.rank1(i) if bit else self.rank0(i)

    # -- batch kernels ------------------------------------------------------------

    def get_many(self, positions: Sequence[int] | np.ndarray) -> np.ndarray:
        """Bits at ``positions`` (each in ``[0, len)``), as an ``int64`` array."""
        pos = np.asarray(positions, dtype=np.int64)
        if pos.size == 0:
            return np.zeros(0, dtype=np.int64)
        if int(pos.min()) < 0 or int(pos.max()) >= self._length:
            raise IndexError(f"bit index out of range for length {self._length}")
        words = self._words[pos >> 6]
        return ((words >> (pos & 63).astype(np.uint64)) & np.uint64(1)).astype(np.int64)

    def rank1_many(self, positions: Sequence[int] | np.ndarray) -> np.ndarray:
        """Vectorised :meth:`rank1`: ones in ``[0, i)`` for every ``i`` in ``positions``.

        Out-of-range positions are clamped exactly like the scalar method
        (``i <= 0`` gives 0, ``i >= len`` gives the total number of ones).
        """
        pos = np.asarray(positions, dtype=np.int64)
        if pos.size == 0:
            return np.zeros(0, dtype=np.int64)
        clipped = np.clip(pos, 0, self._length)
        word_idx = clipped >> 6
        bit_idx = clipped & 63
        result = self._rank_blocks[word_idx].astype(np.int64)
        inside = np.flatnonzero(bit_idx)
        if inside.size:
            masks = (np.uint64(1) << bit_idx[inside].astype(np.uint64)) - np.uint64(1)
            masked = self._words[word_idx[inside]] & masks
            as_bytes = masked.view(np.uint8).reshape(-1, 8)
            result[inside] += _POPCOUNT8[as_bytes].sum(axis=1, dtype=np.int64)
        return result

    def rank0_many(self, positions: Sequence[int] | np.ndarray) -> np.ndarray:
        """Vectorised :meth:`rank0` (same clamping as the scalar method)."""
        pos = np.asarray(positions, dtype=np.int64)
        if pos.size == 0:
            return np.zeros(0, dtype=np.int64)
        clipped = np.clip(pos, 0, self._length)
        return clipped - self.rank1_many(clipped)

    def select1_many(self, ranks: Sequence[int] | np.ndarray) -> np.ndarray:
        """Vectorised :meth:`select1`: position of the ``j``-th one for every ``j``."""
        j = np.asarray(ranks, dtype=np.int64)
        if j.size == 0:
            return np.zeros(0, dtype=np.int64)
        if int(j.min()) < 1 or int(j.max()) > self._total_ones:
            raise ValueError(f"select1 rank out of range; vector has {self._total_ones} ones")
        word_idx = np.searchsorted(self._rank_blocks, j.astype(np.uint64), side="left") - 1
        remaining = j - self._rank_blocks[word_idx].astype(np.int64)
        return word_idx * _WORD_BITS + _select_in_words(self._words[word_idx], remaining)

    def select0_many(self, ranks: Sequence[int] | np.ndarray) -> np.ndarray:
        """Vectorised :meth:`select0`: position of the ``j``-th zero for every ``j``."""
        j = np.asarray(ranks, dtype=np.int64)
        if j.size == 0:
            return np.zeros(0, dtype=np.int64)
        total_zeros = self.count_zeros
        if int(j.min()) < 1 or int(j.max()) > total_zeros:
            raise ValueError(f"select0 rank out of range; vector has {total_zeros} zeros")
        if self._zero_blocks is None:
            # zeros in words[0:w] = w * 64 - rank_blocks[w] (non-decreasing)
            self._zero_blocks = (
                np.arange(self._rank_blocks.size, dtype=np.int64) * _WORD_BITS
                - self._rank_blocks.astype(np.int64)
            )
        word_idx = np.searchsorted(self._zero_blocks, j, side="left") - 1
        remaining = j - self._zero_blocks[word_idx]
        return word_idx * _WORD_BITS + _select_in_words(~self._words[word_idx], remaining)

    # -- select -----------------------------------------------------------------

    def select1(self, j: int) -> int:
        """Position of the ``j``-th one (1-based ``j``); raises if out of range."""
        if j < 1 or j > self._total_ones:
            raise ValueError(f"select1({j}) out of range; vector has {self._total_ones} ones")
        word_idx = int(np.searchsorted(self._rank_blocks, j, side="left")) - 1
        remaining = j - int(self._rank_blocks[word_idx])
        word = int(self._words[word_idx])
        pos = word_idx * _WORD_BITS
        while True:
            if word & 1:
                remaining -= 1
                if remaining == 0:
                    return pos
            word >>= 1
            pos += 1

    def select0(self, j: int) -> int:
        """Position of the ``j``-th zero (1-based ``j``); raises if out of range."""
        total_zeros = self.count_zeros
        if j < 1 or j > total_zeros:
            raise ValueError(f"select0({j}) out of range; vector has {total_zeros} zeros")
        # zeros in words[0:w] = w * 64 - rank_blocks[w]
        lo, hi = 0, self._words.size
        while lo < hi:
            mid = (lo + hi) // 2
            zeros_before = mid * _WORD_BITS - int(self._rank_blocks[mid])
            if zeros_before < j:
                lo = mid + 1
            else:
                hi = mid
        word_idx = lo - 1
        remaining = j - (word_idx * _WORD_BITS - int(self._rank_blocks[word_idx]))
        word = int(self._words[word_idx])
        pos = word_idx * _WORD_BITS
        while True:
            if not (word & 1):
                remaining -= 1
                if remaining == 0:
                    return pos
            word >>= 1
            pos += 1

    def select(self, bit: int, j: int) -> int:
        """Generic select: position of the ``j``-th occurrence of ``bit``."""
        return self.select1(j) if bit else self.select0(j)

    # -- searching ----------------------------------------------------------------

    def next_one(self, i: int) -> int:
        """Smallest position ``>= i`` holding a one, or ``-1`` if none exists."""
        if i >= self._length:
            return -1
        i = max(i, 0)
        ones_before = self.rank1(i)
        if ones_before >= self._total_ones:
            return -1
        return self.select1(ones_before + 1)

    def prev_one(self, i: int) -> int:
        """Largest position ``<= i`` holding a one, or ``-1`` if none exists."""
        if i < 0:
            return -1
        i = min(i, self._length - 1)
        ones_upto = self.rank1(i + 1)
        if ones_upto == 0:
            return -1
        return self.select1(ones_upto)
