"""Memory-mapped registers (MMRs): the accelerator's host interface.

Following gem5-MARVEL, the Communications Interface of a domain-specific
accelerator exposes configurable status, control and data registers to the
host.  The host configures a computation by writing data registers (matrix
dimensions, buffer addresses), starts it by writing the control register,
and learns about completion either by polling the status register or
through an interrupt line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.system.memory import MemoryAccessError, WORD_BYTES, to_unsigned

#: Conventional register offsets shared by all accelerators in this repo.
CTRL_OFFSET = 0x00
STATUS_OFFSET = 0x04
#: First data register offset; data registers are contiguous words after it.
DATA_OFFSET = 0x08

#: CTRL register bits.
CTRL_START = 0x1
CTRL_RESET = 0x2
CTRL_IRQ_ENABLE = 0x4
#: Push the descriptor currently held in the data registers onto the
#: device's tile queue without starting it (multi-tile offload streams).
CTRL_ENQUEUE = 0x8
#: Raise the IRQ line on every per-tile write-back completion instead of
#: only when the whole tile stream drains.
CTRL_IRQ_PER_TILE = 0x10

#: STATUS register bits.
STATUS_IDLE = 0x0
STATUS_BUSY = 0x1
STATUS_DONE = 0x2
STATUS_ERROR = 0x4


@dataclass
class MemoryMappedRegisters:
    """The MMR block of one accelerator.

    Attributes:
        n_data_registers: number of general-purpose data registers.
        on_start: callback invoked when the host sets the START bit.
        on_reset: callback invoked when the host sets the RESET bit.
        on_enqueue: callback invoked when the host sets the ENQUEUE bit.
        on_stream: device handler of a host block access that enqueues a
            whole tile stream (:meth:`write_stream`); it performs the
            stream's register writes and returns how many there are.
    """

    n_data_registers: int = 16
    on_start: Optional[Callable[[], None]] = None
    on_reset: Optional[Callable[[], None]] = None
    on_enqueue: Optional[Callable[[], None]] = None
    on_stream: Optional[Callable[[Sequence], int]] = None

    def __post_init__(self):
        if self.n_data_registers < 1:
            raise ValueError("need at least one data register")
        self.control = 0
        self.status = STATUS_IDLE
        self.data: List[int] = [0] * self.n_data_registers
        self.read_count = 0
        self.write_count = 0

    @property
    def size_bytes(self) -> int:
        """Address-space footprint of the register block."""
        return DATA_OFFSET + self.n_data_registers * WORD_BYTES

    @property
    def irq_enabled(self) -> bool:
        """Whether the host asked for a completion interrupt."""
        return bool(self.control & CTRL_IRQ_ENABLE)

    @property
    def irq_per_tile(self) -> bool:
        """Whether the host asked for one interrupt per completed tile."""
        return bool(self.control & CTRL_IRQ_PER_TILE)

    # ------------------------------------------------------------------ #
    # bus-facing interface
    # ------------------------------------------------------------------ #
    def read_word(self, offset: int) -> int:
        """Read a register by byte offset inside the block (uncounted if invalid)."""
        self.check_offset(offset)
        self.read_count += 1
        if offset == CTRL_OFFSET:
            return self.control
        if offset == STATUS_OFFSET:
            return self.status
        return self.data[self._data_index(offset)]

    def write_word(self, offset: int, value: int) -> None:
        """Write a register by byte offset inside the block (no effect if invalid)."""
        self.check_offset(offset)
        self.write_count += 1
        value = to_unsigned(int(value))
        if offset == CTRL_OFFSET:
            self.control = value
            if value & CTRL_RESET:
                self.status = STATUS_IDLE
                if self.on_reset is not None:
                    self.on_reset()
            if value & CTRL_ENQUEUE and self.on_enqueue is not None:
                self.on_enqueue()
            if value & CTRL_START:
                self.status = STATUS_BUSY
                if self.on_start is not None:
                    self.on_start()
            return
        if offset == STATUS_OFFSET:
            # The status register is device-owned; host writes clear DONE.
            self.status = STATUS_IDLE
            return
        self.data[self._data_index(offset)] = value

    def write_stream(self, stream: Sequence) -> int:
        """Enqueue a tile stream as one block access; returns its word writes.

        The device's ``on_stream`` handler performs the writes of the
        ENQUEUE protocol the block stands for and returns their number,
        which counts in :attr:`write_count` as those word writes would.  A
        block without a handler raises before any side effect.
        """
        if self.on_stream is None:
            raise MemoryAccessError("this register block takes no stream writes")
        n_words = self.on_stream(stream)
        self.write_count += n_words
        return n_words

    def check_offset(self, offset: int) -> None:
        """Raise :class:`MemoryAccessError` unless ``offset`` names a register."""
        if offset != CTRL_OFFSET and offset != STATUS_OFFSET:
            self._data_index(offset)

    def _data_index(self, offset: int) -> int:
        if offset < DATA_OFFSET or offset % WORD_BYTES != 0:
            raise MemoryAccessError(f"invalid MMR offset {offset:#x}")
        index = (offset - DATA_OFFSET) // WORD_BYTES
        if index >= self.n_data_registers:
            raise MemoryAccessError(f"MMR data register {index} out of range")
        return index

    # ------------------------------------------------------------------ #
    # device-facing interface
    # ------------------------------------------------------------------ #
    def mark_done(self, error: bool = False) -> None:
        """Called by the accelerator when a computation finishes."""
        self.status = STATUS_ERROR if error else STATUS_DONE

    def mark_busy(self) -> None:
        """Called by the accelerator when it starts working."""
        self.status = STATUS_BUSY

    def data_register(self, index: int) -> int:
        """Device-side read of a data register by index."""
        if not 0 <= index < self.n_data_registers:
            raise MemoryAccessError(f"MMR data register {index} out of range")
        return self.data[index]

    def set_data_register(self, index: int, value: int) -> None:
        """Device-side write of a data register by index."""
        if not 0 <= index < self.n_data_registers:
            raise MemoryAccessError(f"MMR data register {index} out of range")
        self.data[index] = to_unsigned(int(value))
