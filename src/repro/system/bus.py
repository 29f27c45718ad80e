"""System interconnect: address decoding between CPU, memories and devices.

A single shared bus routes word accesses from initiators (CPU, DMA) to
targets (main memory, scratchpads, MMR blocks) based on an address map.
Each target reports its own access latency; the bus adds a fixed traversal
latency, which is how the data-movement cost the paper worries about shows
up in end-to-end cycle counts.  An opt-in round-robin arbitration model
(``arbitration_penalty``) additionally charges every access for concurrent
DMA streams holding the bus; it defaults to off, keeping the historical
contention-free accounting bitwise identical.

Address decode bisects a sorted list of mapping bases, so it costs
O(log n) in the number of mappings.  A host driver programs an
accelerator descriptor with one block access to its contiguous MMR data
registers (:meth:`SystemBus.write_words`), accounted exactly like the
word writes it replaces.  The host CPU inlines its aligned word accesses
to main memory through :meth:`SystemBus.main_memory_window` and counts
for each what :meth:`SystemBus.read_word`/:meth:`SystemBus.write_word`
would.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.system.memory import MainMemory, MemoryAccessError, WORD_BYTES
from repro.system.mmr import MemoryMappedRegisters


@dataclass
class BusMapping:
    """One entry of the address map."""

    base: int
    size: int
    target: object
    name: str

    @property
    def end(self) -> int:
        """First address past the mapping."""
        return self.base + self.size

    def contains(self, address: int) -> bool:
        """True when ``address`` falls inside the mapping."""
        return self.base <= address < self.end


class SystemBus:
    """Shared word-addressed interconnect with a flat address map.

    Attributes:
        traversal_latency: cycles added to every access crossing the bus.
        energy_per_transfer: interconnect energy per word moved [J].
        arbitration_penalty: opt-in round-robin arbitration cost — extra
            cycles charged per access for every *other* DMA stream holding
            the bus at the same simulated time (0 = historical contention-
            free accounting, bitwise identical to the pre-arbitration model).
        contention_cycles: arbitration cycles accumulated per *bus access*
            (a bulk block transfer on the fast path is one access; the
            word-loop fallback is one access per word).  This is a
            contention indicator, not the end-to-end charged cost: DMA
            burst pipelining multiplies the per-word latency — and its
            arbitration component — by the burst count downstream.
        contention_events: number of accesses that paid an arbitration delay.
    """

    def __init__(
        self,
        traversal_latency: int = 2,
        energy_per_transfer: float = 1e-12,
        arbitration_penalty: int = 0,
    ):
        if arbitration_penalty < 0:
            raise ValueError("arbitration_penalty must be >= 0")
        self.traversal_latency = int(traversal_latency)
        self.energy_per_transfer = float(energy_per_transfer)
        self.arbitration_penalty = int(arbitration_penalty)
        self._map: List[BusMapping] = []
        #: ``_map``'s bases, kept sorted alongside it for bisected decode
        self._bases: List[int] = []
        self.transfers = 0
        self._active_streams: Dict[str, int] = {}
        self.contention_cycles = 0
        self.contention_events = 0

    def attach(self, base: int, size: int, target: object, name: str) -> BusMapping:
        """Attach a target device at ``[base, base + size)``.

        Overlapping ranges are rejected — a silent shadowing bug in the
        address map would corrupt every experiment built on top of it.
        """
        if base < 0 or size <= 0:
            raise ValueError("invalid mapping range")
        new = BusMapping(base=base, size=size, target=target, name=name)
        for existing in self._map:
            if new.base < existing.end and existing.base < new.end:
                raise ValueError(
                    f"mapping {name!r} overlaps existing mapping {existing.name!r}"
                )
        index = bisect_right(self._bases, base)
        self._bases.insert(index, base)
        self._map.insert(index, new)
        return new

    def find(self, address: int) -> BusMapping:
        """Return the mapping that contains ``address``.

        Mappings do not overlap, so the only candidate is the one with the
        largest base not above ``address``.
        """
        index = bisect_right(self._bases, address) - 1
        if index >= 0:
            mapping = self._map[index]
            if address < mapping.base + mapping.size:
                return mapping
        raise MemoryAccessError(f"bus decode error: no target at {address:#x}")

    def mappings(self) -> List[BusMapping]:
        """The current address map (sorted by base address)."""
        return list(self._map)

    def main_memory_window(self) -> Optional[tuple]:
        """What a word access to main memory resolves to, for a caller that inlines it.

        Returns ``(base, size, words, stats, read latency, write latency)``
        for the lowest mapping whose target is exactly a :class:`MainMemory`
        (a subclass may override its accesses), or ``None`` when there is
        none or when arbitration is on (every access then pays the
        round-robin delay here).  An aligned word at ``base + offset`` with
        ``0 <= offset < size`` is ``words[offset >> 2]``; reading or
        writing it through :meth:`read_word`/:meth:`write_word` adds one
        to ``stats.reads``/``stats.writes`` and to :attr:`transfers`, and
        costs the latency given here, traversal included.  Every other
        access must still come here.  The window holds until the address
        map, the latencies or the arbitration setting change.
        """
        if self.arbitration_penalty:
            return None
        for mapping in self._map:
            memory = mapping.target
            if type(memory) is MainMemory:
                return (
                    mapping.base,
                    min(mapping.size, memory.size_bytes),
                    memory._words,
                    memory.stats,
                    self.traversal_latency + memory.read_latency,
                    self.traversal_latency + memory.write_latency,
                )
        return None

    # ------------------------------------------------------------------ #
    # arbitration (opt-in)
    # ------------------------------------------------------------------ #
    def begin_stream(self, initiator: str) -> None:
        """Mark a DMA stream as holding the bus (until :meth:`end_stream`).

        Streams are only tracked when arbitration is enabled, so the default
        configuration stays free of bookkeeping side effects.  Windows are
        counted per initiator, so back-to-back transfers of one engine whose
        windows overlap still release correctly.
        """
        if self.arbitration_penalty > 0:
            self._active_streams[initiator] = self._active_streams.get(initiator, 0) + 1

    def end_stream(self, initiator: str) -> None:
        """Release a DMA stream's claim on the bus."""
        count = self._active_streams.get(initiator, 0)
        if count <= 1:
            self._active_streams.pop(initiator, None)
        else:
            self._active_streams[initiator] = count - 1

    @property
    def active_streams(self) -> int:
        """Number of distinct DMA initiators currently holding the bus."""
        return len(self._active_streams)

    def _arbitration_delay(self, initiator: Optional[str] = None) -> int:
        """Round-robin arbitration cost of one access for ``initiator``.

        Each concurrent *other* stream costs ``arbitration_penalty`` cycles:
        a fair round-robin arbiter makes every requester wait out one slot
        per competitor before its grant comes around.
        """
        if self.arbitration_penalty <= 0 or not self._active_streams:
            return 0
        competitors = len(self._active_streams)
        if initiator in self._active_streams:
            competitors -= 1
        if competitors <= 0:
            return 0
        delay = competitors * self.arbitration_penalty
        self.contention_cycles += delay
        self.contention_events += 1
        return delay

    # ------------------------------------------------------------------ #
    # access routing
    # ------------------------------------------------------------------ #
    def read_word(self, address: int, initiator: Optional[str] = None) -> Tuple[int, int]:
        """Read a word; returns ``(value, latency_cycles)``; a rejected read is free."""
        mapping = self.find(address)
        offset = address - mapping.base
        target = mapping.target
        if isinstance(target, MemoryMappedRegisters):
            latency = self.traversal_latency + 1
        elif isinstance(target, MainMemory):
            latency = self.traversal_latency + target.read_latency
        else:
            raise MemoryAccessError(f"target {mapping.name!r} is not readable")
        value = target.read_word(offset)
        self.transfers += 1
        return value, latency + self._arbitration_delay(initiator)

    def write_word(self, address: int, value: int, initiator: Optional[str] = None) -> int:
        """Write a word; returns its latency in cycles; a rejected write is free."""
        mapping = self.find(address)
        offset = address - mapping.base
        target = mapping.target
        if isinstance(target, MemoryMappedRegisters):
            target.check_offset(offset)
            self.transfers += 1
            # arbitrate before the write: a CTRL write may launch a DMA
            # stream, which must not compete with the access that started it
            delay = self._arbitration_delay(initiator)
            target.write_word(offset, value)
            return self.traversal_latency + 1 + delay
        if isinstance(target, MainMemory):
            target.write_word(offset, value)
            self.transfers += 1
            delay = self._arbitration_delay(initiator)
            return self.traversal_latency + target.write_latency + delay
        raise MemoryAccessError(f"target {mapping.name!r} is not writable")

    def write_words(self, address: int, values, initiator: Optional[str] = None) -> int:
        """Write consecutive MMR data registers as one block access.

        Returns the summed latency of the equivalent :meth:`write_word`
        calls, one per value, and charges exactly what they would: the
        same ``transfers`` and, with arbitration on, the same delay per
        word and the same contention counters.  Only data registers take
        block writes, so CTRL/STATUS writes keep their per-write side
        effects.  A block that is not wholly inside one MMR block's data
        registers raises :class:`MemoryAccessError` before any side effect.
        """
        n_words = len(values)
        if n_words == 0:
            return 0
        mapping = self.find(address)
        target = mapping.target
        if not isinstance(target, MemoryMappedRegisters):
            raise MemoryAccessError(f"target {mapping.name!r} takes no register block writes")
        target.write_words(address - mapping.base, values)
        self.transfers += n_words
        delay = self._arbitration_delay(initiator)
        if delay:
            # _arbitration_delay charged the first word; the rest pay alike
            self.contention_cycles += delay * (n_words - 1)
            self.contention_events += n_words - 1
        return n_words * (self.traversal_latency + 1 + delay)

    # ------------------------------------------------------------------ #
    # bulk routing (DMA fast path)
    # ------------------------------------------------------------------ #
    def read_block(self, address: int, n_words: int, initiator: Optional[str] = None):
        """Bulk read of ``n_words`` words; returns ``(values, per_word_latency)``.

        The accounting equivalent of ``n_words`` :meth:`read_word` calls
        (same transfer count, same per-word latency) resolved through a
        single address decode, so DMA streams avoid the per-word Python
        loop.  Blocks that leave the mapping or target register blocks fall
        back to the word-by-word path.  With arbitration enabled, the
        per-word latency carries the round-robin delay against every other
        active stream.
        """
        if n_words == 0:
            return np.zeros(0, dtype=np.uint32), 0
        mapping = self.find(address)
        target = mapping.target
        if isinstance(target, MainMemory) and address + n_words * WORD_BYTES <= mapping.end:
            values = target.read_block(address - mapping.base, n_words)
            self.transfers += n_words
            delay = self._arbitration_delay(initiator)
            return values, self.traversal_latency + target.read_latency + delay
        values = np.zeros(n_words, dtype=np.uint32)
        latency = 0
        for index in range(n_words):
            values[index], word_latency = self.read_word(
                address + index * WORD_BYTES, initiator=initiator
            )
            latency = max(latency, word_latency)
        return values, latency

    def read_strided(
        self,
        address: int,
        block_words: int,
        n_blocks: int,
        stride_words: int,
        initiator: Optional[str] = None,
    ):
        """Bulk read of a strided sequence of blocks; returns
        ``(values, per_word_latency)``.

        Accounting-equivalent to ``n_blocks`` :meth:`read_block` calls of
        ``block_words`` words each, resolved through a single address decode
        when the whole span stays inside one main-memory mapping.  This is
        how a DMA descriptor with ``stride_words > block_words`` streams a
        matrix column slice in place, without host staging copies.
        """
        total = n_blocks * block_words
        if total == 0:
            return np.zeros(0, dtype=np.uint32), 0
        if n_blocks == 1 or stride_words in (0, block_words):
            return self.read_block(address, total, initiator=initiator)
        mapping = self.find(address)
        target = mapping.target
        span_end = address + ((n_blocks - 1) * stride_words + block_words) * WORD_BYTES
        if isinstance(target, MainMemory) and stride_words >= 0 and span_end <= mapping.end:
            values = target.read_strided(
                address - mapping.base, block_words, n_blocks, stride_words
            )
            self.transfers += total
            delay = self._arbitration_delay(initiator)
            return values, self.traversal_latency + target.read_latency + delay
        pieces = []
        latency = 0
        for index in range(n_blocks):
            values, block_latency = self.read_block(
                address + index * stride_words * WORD_BYTES,
                block_words,
                initiator=initiator,
            )
            pieces.append(values)
            latency = max(latency, block_latency)
        return np.concatenate(pieces), latency

    def read_gather(self, addresses, block_words: int, initiator: Optional[str] = None):
        """Bulk read of one block per (arbitrary) address; returns
        ``(values, per_word_latency)`` — the irregular-access sibling of
        :meth:`read_strided`."""
        addresses = [int(address) for address in addresses]
        if not addresses or block_words == 0:
            return np.zeros(0, dtype=np.uint32), 0
        mapping = self.find(min(addresses))
        target = mapping.target
        if isinstance(target, MainMemory) and all(
            mapping.base <= address and address + block_words * WORD_BYTES <= mapping.end
            for address in addresses
        ):
            values = target.read_gather(
                [address - mapping.base for address in addresses], block_words
            )
            self.transfers += len(addresses) * block_words
            delay = self._arbitration_delay(initiator)
            return values, self.traversal_latency + target.read_latency + delay
        pieces = []
        latency = 0
        for address in addresses:
            values, block_latency = self.read_block(
                address, block_words, initiator=initiator
            )
            pieces.append(values)
            latency = max(latency, block_latency)
        return np.concatenate(pieces), latency

    def write_block(self, address: int, values, initiator: Optional[str] = None) -> int:
        """Bulk write of consecutive words; returns the per-word latency."""
        values = np.asarray(values)
        if values.size == 0:
            return 0
        mapping = self.find(address)
        target = mapping.target
        if isinstance(target, MainMemory) and address + values.size * WORD_BYTES <= mapping.end:
            target.write_block(address - mapping.base, values)
            self.transfers += values.size
            delay = self._arbitration_delay(initiator)
            return self.traversal_latency + target.write_latency + delay
        latency = 0
        for index, value in enumerate(values):
            word_latency = self.write_word(
                address + index * WORD_BYTES, int(value), initiator=initiator
            )
            latency = max(latency, word_latency)
        return latency

    def energy_j(self) -> float:
        """Interconnect energy consumed so far."""
        return self.transfers * self.energy_per_transfer
