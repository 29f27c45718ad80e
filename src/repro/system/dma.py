"""Direct memory access (DMA) engine.

Accelerators do not issue word-by-word loads through the host; a DMA engine
streams blocks between main memory and the accelerator scratchpads.  The
model charges per-word bus/memory latency with a configurable burst
overlap factor and accumulates the moved-byte counters the data-movement
energy analysis needs.  Transfers move as single bulk (vectorised) block
copies through ``SystemBus.read_block``/``write_block`` — bitwise equal to
the historical word-at-a-time loop with identical cycle/energy accounting,
just without the Python-level per-word overhead.

Transfers are described either by a plain ``(address, n_words)`` pair or by
a :class:`DMADescriptor` — base / block length / block count / stride —
which lets a single transfer stream a strided view such as the column slice
``A[:, k0:k1]`` of a row-major matrix directly from its original bus
addresses.  A descriptor is charged with the same burst model as a
contiguous transfer of equal word count: the burst engine re-registers at
block boundaries for free, but every word still crosses the bus and is
counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.system.bus import SystemBus
from repro.system.event import EventScheduler
from repro.system.memory import MainMemory, WORD_BYTES


@dataclass(frozen=True)
class DMADescriptor:
    """A strided transfer: ``n_blocks`` blocks of ``block_words`` words,
    consecutive block bases ``stride_words`` apart.

    ``stride_words == 0`` (or ``== block_words``) describes a contiguous
    transfer; ``stride_words > block_words`` skips words between blocks,
    which is exactly the shape of a row-major matrix column slice.
    """

    base: int
    block_words: int
    n_blocks: int = 1
    stride_words: int = 0

    def __post_init__(self):
        if self.base < 0:
            raise ValueError("descriptor base must be >= 0")
        if self.block_words < 0 or self.n_blocks < 0:
            raise ValueError("descriptor block shape must be >= 0")
        if self.stride_words < 0:
            raise ValueError("descriptor stride must be >= 0")
        if self.n_blocks > 1 and 0 < self.stride_words < self.block_words:
            raise ValueError("descriptor blocks overlap: stride < block length")

    @property
    def n_words(self) -> int:
        """Total words the descriptor moves."""
        return self.block_words * self.n_blocks

    @property
    def contiguous(self) -> bool:
        """True when the blocks form one gap-free range."""
        return self.n_blocks <= 1 or self.stride_words in (0, self.block_words)


Source = Union[int, DMADescriptor]


@dataclass
class DMAStats:
    """Transfer statistics of one DMA engine."""

    transfers: int = 0
    words_moved: int = 0
    busy_cycles: int = 0

    @property
    def bytes_moved(self) -> int:
        """Bytes moved so far."""
        return self.words_moved * WORD_BYTES


class DMAEngine:
    """A single-channel DMA engine moving words over the system bus.

    Attributes:
        scheduler: shared event queue (with bus arbitration on, the bus
            release is scheduled at the end of the modelled transfer).
        bus: interconnect used for the main-memory side of transfers.
        words_per_burst: words moved per burst; bursts pipeline so the
            effective per-word cost drops for long transfers.
        energy_per_word: DMA engine energy per word moved [J].

    The engine is busy for the whole modelled transfer window; the caller
    schedules its own completion after the returned latency.  Several
    transfers issued in the *same* cycle chain as one descriptor list — the
    window extends by each transfer's latency, which is how an accelerator
    queues its weights + input fetches back to back.
    Issuing from a strictly later cycle while the window is still open is a
    programming error and raises.
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        bus: SystemBus,
        words_per_burst: int = 8,
        energy_per_word: float = 2e-12,
        name: str = "dma0",
    ):
        if words_per_burst < 1:
            raise ValueError("words_per_burst must be >= 1")
        self.scheduler = scheduler
        self.bus = bus
        self.words_per_burst = int(words_per_burst)
        self.energy_per_word = float(energy_per_word)
        self.name = name
        self.stats = DMAStats()
        self._busy_until = 0
        self._issue_cycle = -1

    @property
    def busy(self) -> bool:
        """True while the modelled transfer window of the last transfer
        (or chain of same-cycle transfers) is still open."""
        return self.scheduler.current_cycle < self._busy_until

    def _check_idle(self) -> None:
        now = self.scheduler.current_cycle
        if now < self._busy_until and now > self._issue_cycle:
            raise RuntimeError(f"{self.name} is already busy")

    def _transfer_latency(self, n_words: int, per_word_latency: int) -> int:
        """Cycle cost of a transfer with burst pipelining.

        The first word of each burst pays the full access latency, the rest
        stream at one word per cycle.
        """
        if n_words == 0:
            return 0
        n_bursts = (n_words + self.words_per_burst - 1) // self.words_per_burst
        return n_bursts * per_word_latency + (n_words - n_bursts)

    def copy_to_scratchpad(
        self,
        source: Source,
        destination: MainMemory,
        destination_offset: int,
        n_words: int,
    ) -> int:
        """Copy ``n_words`` from bus address space into a scratchpad.

        ``source`` is either a plain word-aligned bus address (contiguous
        transfer) or a :class:`DMADescriptor`, whose word count must match
        ``n_words``.  Returns the modelled transfer latency in cycles.  The
        data is moved immediately (functional view); the engine stays busy
        until the latency has elapsed (timing view).
        """
        self._check_idle()
        if isinstance(source, DMADescriptor) and source.n_words != n_words:
            raise ValueError(
                f"descriptor moves {source.n_words} words, transfer asked for {n_words}"
            )
        per_word_latency = 0
        self.bus.begin_stream(self.name)
        try:
            if n_words:
                if isinstance(source, DMADescriptor):
                    values, per_word_latency = self.bus.read_strided(
                        source.base,
                        source.block_words,
                        source.n_blocks,
                        source.stride_words,
                        initiator=self.name,
                    )
                else:
                    values, per_word_latency = self.bus.read_block(
                        source, n_words, initiator=self.name
                    )
                destination.write_block(destination_offset, values)
        except Exception:
            # a faulted transfer must not leave a phantom stream taxing
            # every later access with arbitration cycles
            self.bus.end_stream(self.name)
            raise
        return self._finish(n_words, per_word_latency)

    def copy_from_scratchpad(
        self,
        source: MainMemory,
        source_offset: int,
        destination_address: int,
        n_words: int,
    ) -> int:
        """Copy ``n_words`` from a scratchpad into bus address space."""
        self._check_idle()
        per_word_latency = 0
        self.bus.begin_stream(self.name)
        try:
            if n_words:
                values = source.read_block(source_offset, n_words)
                per_word_latency = self.bus.write_block(
                    destination_address, values, initiator=self.name
                )
        except Exception:
            self.bus.end_stream(self.name)
            raise
        return self._finish(n_words, per_word_latency)

    def _finish(self, n_words: int, per_word_latency: int) -> int:
        latency = self._transfer_latency(n_words, max(per_word_latency, 1))
        self.stats.transfers += 1
        self.stats.words_moved += n_words
        self.stats.busy_cycles += latency
        now = self.scheduler.current_cycle
        window_start = max(now, self._busy_until)
        self._busy_until = window_start + latency
        self._issue_cycle = now
        if self.bus.arbitration_penalty > 0:
            # hold the bus grant for the modelled transfer window so other
            # streams see contention; with arbitration off, begin_stream was
            # a no-op and no release event perturbs the event queue
            self.scheduler.schedule(
                self._busy_until - now,
                lambda: self.bus.end_stream(self.name),
                label=f"{self.name}-bus-release",
            )
        return latency

    def energy_j(self) -> float:
        """DMA engine energy consumed so far."""
        return self.stats.words_moved * self.energy_per_word
