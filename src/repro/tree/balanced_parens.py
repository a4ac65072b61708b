"""Balanced parentheses sequence with navigation support.

Section 4.1.1 of the paper: the tree structure is the DFS parentheses string
``Par`` (one ``(`` when a node is entered, one ``)`` when it is left), stored
in ``2n + o(n)`` bits with support for

* ``find_close`` / ``find_open`` -- matching parenthesis,
* ``enclose`` -- tightest enclosing open parenthesis (the parent),
* ``rank_open`` / ``select_open`` -- preorder numbering,
* ``excess`` -- nesting depth.

All three navigation queries reduce to one forward or backward search for a
target excess (Sadakane & Navarro, SODA 2010; Arroyuelo, Canovas, Navarro &
Sadakane, "Succinct Trees in Practice", ALENEX 2010):

* Inside a packed 64-bit word the search crosses one byte at a time, with
  256-entry tables of each byte's excess delta, its minimum and maximum
  prefix excess, and the first and last offset at which every relative
  excess in ``[-8, 8]`` is reached.
* Across words it uses the ``o(n)``-bit range-min-max directory: blocks of 64
  positions (one word each) and super-blocks of 64 blocks store the
  minimum/maximum excess reached inside them.  Because the excess changes by
  exactly one per position, the first block in search direction whose
  extreme reaches the target holds the answer; one numpy comparison per
  level finds it.

The search reads the bitmap's packed words and rank directory in place, so a
mapped structure keeps its pages shared, and it builds nothing at query time.
"""

from __future__ import annotations

from itertools import accumulate
from typing import BinaryIO, Iterable, Sequence

import numpy as np

from repro.bits.bitvector import BitVector
from repro.core.errors import CorruptedFileError
from repro.storage.codec import ChunkReader, ChunkWriter, Serializable

__all__ = ["BalancedParentheses"]

_BLOCK = 64  # positions per block: one packed word
_SUPER = 64  # blocks per super-block
_WORD_MASK = (1 << 64) - 1


def _byte_tables() -> tuple[tuple[int, ...], ...]:
    """Excess tables over the 256 bytes, bit ``k`` being the byte's ``k``-th position.

    ``prefix(k)`` is the excess change over offsets ``0..k``.  Returns the
    byte's delta ``prefix(7)``, the min and max of ``prefix``, and the first
    and last ``k`` with ``prefix(k) == d``, indexed ``(d + 8) << 8 | byte``.
    """
    delta, low, high = [], [], []
    first, last = [8] * (17 << 8), [-1] * (17 << 8)
    for byte in range(256):
        prefix = list(accumulate(1 if byte >> k & 1 else -1 for k in range(8)))
        delta.append(prefix[-1])
        low.append(min(prefix))
        high.append(max(prefix))
        for k, d in enumerate(prefix):
            slot = (d + 8) << 8 | byte
            first[slot] = min(first[slot], k)
            last[slot] = k
    return tuple(delta), tuple(low), tuple(high), tuple(first), tuple(last)


_DELTA, _MIN, _MAX, _FIRST, _LAST = _byte_tables()


def _fwd_in_word(bits: int, d: int, nbits: int) -> int:
    """First offset of the 64-bit ``bits`` whose prefix excess is ``d``.

    Only the bytes covering offsets ``[0, nbits)`` are crossed; returns an
    offset of at least ``nbits`` when none of them reaches ``d``.
    """
    for base in range(0, nbits, 8):
        byte = bits >> base & 255
        if _MIN[byte] <= d <= _MAX[byte]:
            return base + _FIRST[(d + 8) << 8 | byte]
        d -= _DELTA[byte]
    return 64


def _bwd_in_word(bits: int, d: int, low: int) -> int:
    """Last offset of the 64-bit ``bits`` whose excess, relative to the excess
    at offset 63, is ``d``.

    Only the bytes covering offsets ``[low, 64)`` are crossed; returns an
    offset below ``low`` when none of them reaches ``d``.
    """
    for base in range(56, (low & ~7) - 1, -8):
        byte = bits >> base & 255
        d += _DELTA[byte]  # now relative to the excess before the byte
        if _MIN[byte] <= d <= _MAX[byte]:
            return base + _LAST[(d + 8) << 8 | byte]
    return -1


def _reaches(extremes: int | np.ndarray, target: int, above: bool) -> bool | np.ndarray:
    """Whether a range whose minimum (coming from ``above``) or maximum
    (coming from below) is ``extremes`` contains ``target``; elementwise on arrays."""
    return extremes <= target if above else extremes >= target


def _nearest_reaching(extremes: np.ndarray, lo: int, hi: int, target: int, above: bool, forward: bool) -> int:
    """First (``forward``) or last index in ``[lo, hi)`` whose extreme reaches
    ``target``, or ``-1``.  The nearest entry is tested on its own first: most
    searches end there."""
    if lo >= hi:
        return -1
    nearest = lo if forward else hi - 1
    if _reaches(extremes.item(nearest), target, above):
        return nearest
    hits = np.flatnonzero(_reaches(extremes[lo:hi], target, above))
    return lo + int(hits[0 if forward else -1]) if hits.size else -1


class BalancedParentheses(Serializable):
    """Balanced parentheses with rank/select and matching queries.

    Parameters
    ----------
    parens:
        The parentheses as an iterable of booleans/ints (truthy = ``(``) or a
        string of ``(`` and ``)`` characters.
    """

    def __init__(self, parens: Iterable[int] | str | np.ndarray | Sequence[int]):
        if isinstance(parens, str):
            bits = np.fromiter((c == "(" for c in parens), dtype=bool, count=len(parens))
        else:
            bits = np.asarray(list(parens) if not isinstance(parens, np.ndarray) else parens).astype(bool)
        self._length = int(bits.size)
        self._bv = BitVector(bits)
        if self._length and self._bv.count_ones * 2 != self._length:
            raise ValueError("parentheses sequence is not balanced (unequal open/close counts)")

        # Per-position excess, then the block/super-block min-max directory.
        excess = np.cumsum(np.where(bits, 1, -1).astype(np.int64))
        if self._length and (excess[-1] != 0 or excess.min() < 0):
            raise ValueError("parentheses sequence is not balanced")
        block_starts = np.arange(0, self._length, _BLOCK)
        super_starts = np.arange(0, block_starts.size, _SUPER)
        self._block_min = np.minimum.reduceat(excess, block_starts)
        self._block_max = np.maximum.reduceat(excess, block_starts)
        self._super_min = np.minimum.reduceat(self._block_min, super_starts)
        self._super_max = np.maximum.reduceat(self._block_max, super_starts)

    # -- persistence --------------------------------------------------------------------

    def write(self, fp: BinaryIO) -> None:
        """Serialise the bitmap and the range min-max directory."""
        writer = ChunkWriter(fp)
        writer.header("BalancedParentheses")
        writer.child("BITV", self._bv)
        writer.array("BMIN", self._block_min)
        writer.array("BMAX", self._block_max)
        writer.array("SMIN", self._super_min)
        writer.array("SMAX", self._super_max)

    @classmethod
    def read(cls, fp: BinaryIO) -> "BalancedParentheses":
        """Read a parentheses structure written by :meth:`write`."""
        reader = ChunkReader(fp)
        reader.header("BalancedParentheses")
        bv = reader.child("BITV", BitVector)
        # The balance check resolves the bitmap's total ones, faulting its
        # rank directory on a mapped open; checksums cover corruption there.
        if reader.deep_checks and len(bv) and bv.count_ones * 2 != len(bv):
            raise CorruptedFileError("parentheses bitmap is not balanced")
        par = cls.__new__(cls)
        par._length = len(bv)
        par._bv = bv
        par._block_min = reader.array("BMIN").astype(np.int64, copy=False)
        par._block_max = reader.array("BMAX").astype(np.int64, copy=False)
        par._super_min = reader.array("SMIN").astype(np.int64, copy=False)
        par._super_max = reader.array("SMAX").astype(np.int64, copy=False)
        n_blocks = (par._length + _BLOCK - 1) // _BLOCK
        n_super = (n_blocks + _SUPER - 1) // _SUPER
        if (
            par._block_min.size != n_blocks
            or par._block_max.size != n_blocks
            or par._super_min.size != n_super
            or par._super_max.size != n_super
        ):
            raise CorruptedFileError("parentheses min-max directory does not match the bitmap length")
        return par

    def to_numpy(self) -> np.ndarray:
        """Return the parentheses as a boolean array (truthy = opening)."""
        return self._bv.to_numpy()

    # -- basic protocol -----------------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, i: int) -> int:
        """1 for an opening parenthesis, 0 for a closing one."""
        return self._bv[i]

    def __str__(self) -> str:
        return "".join("(" if self._bv[i] else ")" for i in range(self._length))

    def size_in_bits(self) -> int:
        """Approximate space usage (bitmap plus min-max directory), in bits."""
        return self._bv.size_in_bits() + 64 * int(
            self._block_min.size + self._block_max.size + self._super_min.size + self._super_max.size
        )

    # -- rank / select ------------------------------------------------------------------------

    def is_open(self, i: int) -> bool:
        """Whether position ``i`` holds an opening parenthesis."""
        return bool(self._bv[i])

    def rank_open(self, i: int) -> int:
        """Number of opening parentheses in positions ``[0, i)``."""
        return self._bv.rank1(i)

    def select_open(self, j: int) -> int:
        """Position of the ``j``-th opening parenthesis (1-based)."""
        return self._bv.select1(j)

    def excess(self, i: int) -> int:
        """Number of opens minus closes in positions ``[0, i]`` (inclusive)."""
        return 2 * self._bv.rank1(i + 1) - (i + 1)

    # -- batch kernels -----------------------------------------------------------------------

    def is_open_many(self, positions: Sequence[int] | np.ndarray) -> np.ndarray:
        """Vectorised :meth:`is_open` (boolean array)."""
        return self._bv.get_many(positions).astype(bool)

    def rank_open_many(self, positions: Sequence[int] | np.ndarray) -> np.ndarray:
        """Vectorised :meth:`rank_open`."""
        return self._bv.rank1_many(positions)

    def select_open_many(self, ranks: Sequence[int] | np.ndarray) -> np.ndarray:
        """Vectorised :meth:`select_open`."""
        return self._bv.select1_many(ranks)

    def excess_many(self, positions: Sequence[int] | np.ndarray) -> np.ndarray:
        """Vectorised :meth:`excess`."""
        pos = np.asarray(positions, dtype=np.int64)
        return 2 * self._bv.rank1_many(pos + 1) - (pos + 1)

    # -- excess searches ---------------------------------------------------------------------------

    def _excess_before_word(self, w: int) -> int:
        """Excess over positions ``[0, 64 w)``."""
        return 2 * self._bv._rank_blocks.item(w) - _BLOCK * w

    def _nearest_block(self, block: int, target: int, above: bool, forward: bool) -> int:
        """The block nearest to ``block`` (itself included) in search direction
        that contains ``target``, or ``-1``.

        The excess moves by one per position, so when the walk comes from
        ``above`` (below) the target, the nearest block whose minimum
        (maximum) reaches it holds the answer: one numpy comparison per level.
        """
        extremes, supers = (self._block_min, self._super_min) if above else (self._block_max, self._super_max)
        s = block // _SUPER
        lo, hi = (block, (s + 1) * _SUPER) if forward else (s * _SUPER, block + 1)
        found = _nearest_reaching(extremes, lo, min(hi, extremes.size), target, above, forward)
        if found < 0:
            lo, hi = (s + 1, supers.size) if forward else (0, s)
            s = _nearest_reaching(supers, lo, hi, target, above, forward)
            if s >= 0:
                hi = min((s + 1) * _SUPER, extremes.size)
                found = _nearest_reaching(extremes, s * _SUPER, hi, target, above, forward)
        return found

    def fwd_search(self, i: int, target: int) -> int:
        """Smallest ``j > i`` with ``excess(j) == target``, or ``-1`` if none."""
        start = i + 1
        if start >= self._length or target < 0:  # no position has negative excess
            return -1
        w, off = start >> 6, start & 63
        word = self._bv._words.item(w)
        before = self._excess_before_word(w) + 2 * (word & ((1 << off) - 1)).bit_count() - off
        k = _fwd_in_word(word >> off, target - before, 64 - off)
        if k < 64 - off:
            return start + k
        b = self._nearest_block(w + 1, target, self._excess_before_word(w + 1) > target, True)
        if b < 0:
            return -1
        before = self._excess_before_word(b)
        return _BLOCK * b + _fwd_in_word(self._bv._words.item(b), target - before, _BLOCK)

    def bwd_search(self, i: int, target: int) -> int:
        """Largest ``j < i`` with ``excess(j) == target``, or ``-1`` if none.

        Position ``-1`` is also the conventional answer when the *virtual*
        position before the sequence (excess 0) is the match; callers such as
        :meth:`enclose` rely on that convention.
        """
        if i <= 0 or target < 0:
            return -1
        last = i - 1
        w, off = last >> 6, last & 63
        word = self._bv._words.item(w)
        after = self._excess_before_word(w) + 2 * (word & ((2 << off) - 1)).bit_count() - off - 1
        # Shift `last` to bit 63; the zeros shifted in below it can only
        # produce a match at an offset under `low`.
        low = 63 - off
        k = _bwd_in_word((word << low) & _WORD_MASK, target - after, low)
        if k >= low:
            return last - 63 + k
        if w == 0:
            return -1
        b = self._nearest_block(w - 1, target, self._excess_before_word(w) >= target, False)
        if b < 0:
            return -1
        after = self._excess_before_word(b + 1)
        return _BLOCK * b + _bwd_in_word(self._bv._words.item(b), target - after, 0)

    # -- matching / enclosing ---------------------------------------------------------------------------

    def find_close(self, i: int) -> int:
        """Position of the closing parenthesis matching the open at ``i``."""
        if not self.is_open(i):
            raise ValueError(f"position {i} does not hold an opening parenthesis")
        return self.fwd_search(i, self.excess(i) - 1)

    def find_open(self, i: int) -> int:
        """Position of the opening parenthesis matching the close at ``i``."""
        if self.is_open(i):
            raise ValueError(f"position {i} does not hold a closing parenthesis")
        return self.bwd_search(i, self.excess(i)) + 1

    def enclose(self, i: int) -> int:
        """Opening parenthesis of the node most tightly enclosing node ``i``.

        Returns ``-1`` when ``i`` is the root (nothing encloses it).
        """
        if not self.is_open(i):
            raise ValueError(f"position {i} does not hold an opening parenthesis")
        target = self.excess(i) - 2
        if target < 0:
            return -1
        return self.bwd_search(i, target) + 1
