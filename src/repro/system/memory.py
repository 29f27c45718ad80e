"""Memory devices: main memory and scratchpad memories.

The gem5-MARVEL communications interface distinguishes several memory
types: large off-accelerator main memory (DRAM, slow) and on-accelerator
scratchpad memories (SPMs, single-cycle); an accelerator's registers are
its MMR block (``repro.system.mmr``).  Both memories implement the same
word-addressed interface so the bus can route accesses uniformly; each
carries its own latency and per-access energy figures for the
system-level speed/energy accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

WORD_BYTES = 4
WORD_MASK = 0xFFFFFFFF


def to_unsigned(value: int) -> int:
    """Wrap a Python integer to an unsigned 32-bit word."""
    return value & WORD_MASK


def to_signed(value: int) -> int:
    """Interpret a 32-bit word as a signed integer."""
    value &= WORD_MASK
    return value - (1 << 32) if value & 0x80000000 else value


def words_to_signed(words) -> np.ndarray:
    """Vectorised :func:`to_signed`: uint32 word array -> int64 values."""
    words = np.asarray(words, dtype=np.uint32)
    return words.view(np.int32).astype(np.int64)


def signed_to_words(values) -> np.ndarray:
    """Vectorised :func:`to_unsigned`: integer array -> uint32 word array."""
    return (np.asarray(values, dtype=np.int64) & WORD_MASK).astype(np.uint32)


def _as_words(values) -> np.ndarray:
    """``values`` as uint32 words; a uint32 ndarray passes through as is."""
    if isinstance(values, np.ndarray) and values.dtype == np.uint32:
        return values
    return signed_to_words(values)


class MemoryAccessError(Exception):
    """Raised on out-of-range or misaligned memory accesses."""


@dataclass
class MemoryStats:
    """Access counters of one memory device."""

    reads: int = 0
    writes: int = 0

    @property
    def accesses(self) -> int:
        """Reads plus writes."""
        return self.reads + self.writes


class MainMemory:
    """Word-addressed main memory (DRAM model).

    Attributes:
        size_bytes: capacity.
        read_latency / write_latency: access latency in cycles.
        energy_per_access: energy per word access [J] (DRAM-ish, tens of pJ).
    """

    def __init__(
        self,
        size_bytes: int,
        read_latency: int = 30,
        write_latency: int = 30,
        energy_per_access: float = 20e-12,
    ):
        if size_bytes <= 0 or size_bytes % WORD_BYTES != 0:
            raise ValueError("size_bytes must be a positive multiple of 4")
        self.size_bytes = size_bytes
        self.read_latency = int(read_latency)
        self.write_latency = int(write_latency)
        self.energy_per_access = float(energy_per_access)
        self._words = np.zeros(size_bytes // WORD_BYTES, dtype=np.uint32)
        self.stats = MemoryStats()

    def _index(self, address: int) -> int:
        if address < 0 or address + WORD_BYTES > self.size_bytes:
            raise MemoryAccessError(f"address {address:#x} out of range")
        if address % WORD_BYTES != 0:
            raise MemoryAccessError(f"misaligned word access at {address:#x}")
        return address // WORD_BYTES

    def read_word(self, address: int) -> int:
        """Read one 32-bit word; returns its unsigned value."""
        index = self._index(address)
        self.stats.reads += 1
        return int(self._words[index])

    def write_word(self, address: int, value: int) -> None:
        """Write one 32-bit word."""
        index = self._index(address)
        self.stats.writes += 1
        self._words[index] = to_unsigned(int(value))

    def _block_index(self, address: int, n_words: int) -> int:
        """Validate a contiguous word range; returns its start index."""
        if n_words < 0:
            raise MemoryAccessError("negative block length")
        if address % WORD_BYTES != 0:
            raise MemoryAccessError(f"misaligned word access at {address:#x}")
        if address < 0 or address + n_words * WORD_BYTES > self.size_bytes:
            raise MemoryAccessError(
                f"block [{address:#x}, +{n_words} words] out of range"
            )
        return address // WORD_BYTES

    def read_block(self, address: int, n_words: int) -> np.ndarray:
        """Bulk read of ``n_words`` consecutive words (counted as reads).

        One call is the accounting equivalent of ``n_words`` calls to
        :meth:`read_word`; the DMA engines use it to stream whole tiles
        without a per-word Python loop.
        """
        index = self._block_index(address, n_words)
        self.stats.reads += n_words
        return self._words[index : index + n_words].copy()

    def write_block(self, address: int, values) -> None:
        """Bulk write of consecutive words (counted as writes)."""
        words = _as_words(values)
        index = self._block_index(address, words.size)
        self.stats.writes += words.size
        self._words[index : index + words.size] = words

    def read_signed(self, address: int, n_words: int) -> np.ndarray:
        """:meth:`read_block` as signed int64 values, made in one copy."""
        index = self._block_index(address, n_words)
        self.stats.reads += n_words
        return self._words[index : index + n_words].view(np.int32).astype(np.int64)

    def write_signed(self, address: int, values) -> None:
        """:meth:`write_block` of signed integers, wrapped to words in one copy."""
        flat = np.asarray(values, dtype=np.int64).reshape(-1)
        index = self._block_index(address, flat.size)
        self.stats.writes += flat.size
        # the unsafe int64 -> uint32 cast keeps the low 32 bits, as the
        # mask of signed_to_words does
        np.copyto(self._words[index : index + flat.size], flat, casting="unsafe")

    def read_strided(
        self, address: int, block_words: int, n_blocks: int, stride_words: int
    ) -> np.ndarray:
        """Bulk read of ``n_blocks`` blocks of ``block_words`` words each,
        consecutive blocks ``stride_words`` words apart (counted as reads).

        This is the memory-side of a strided DMA descriptor: it lets a DMA
        engine stream a row-major matrix column slice ``A[:, k0:k1]``
        straight from its original location, without a host staging copy.
        """
        if n_blocks < 0 or block_words < 0:
            raise MemoryAccessError("negative strided block shape")
        if stride_words < 0:
            raise MemoryAccessError("negative block stride")
        if n_blocks == 0 or block_words == 0:
            return np.zeros(0, dtype=np.uint32)
        base = self._block_index(address, block_words)
        # with a non-negative stride the first block starts lowest and the
        # last block ends highest, so validating both bounds covers the rest
        self._block_index(address + (n_blocks - 1) * stride_words * WORD_BYTES, block_words)
        offsets = (
            base
            + np.arange(n_blocks, dtype=np.int64)[:, None] * stride_words
            + np.arange(block_words, dtype=np.int64)[None, :]
        )
        self.stats.reads += n_blocks * block_words
        return self._words[offsets].reshape(-1)

    def load_words(self, address: int, values) -> None:
        """Bulk-initialise memory starting at ``address`` (no stats impact).

        ``values`` is an integer array or any iterable of integers.
        """
        if not isinstance(values, np.ndarray):
            values = list(values)
        words = _as_words(values)
        index = self._block_index(address, words.size)
        self._words[index : index + words.size] = words

    def dump_words(self, address: int, count: int) -> list:
        """Bulk-read ``count`` words starting at ``address`` (no stats impact)."""
        index = self._block_index(address, count)
        return self._words[index : index + count].tolist()

    def energy_j(self) -> float:
        """Total access energy consumed so far."""
        return self.stats.accesses * self.energy_per_access


class Scratchpad(MainMemory):
    """On-accelerator scratchpad memory: single-cycle, SRAM energy."""

    def __init__(self, size_bytes: int, energy_per_access: float = 0.5e-12):
        super().__init__(
            size_bytes,
            read_latency=1,
            write_latency=1,
            energy_per_access=energy_per_access,
        )

