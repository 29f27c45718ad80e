"""System-on-chip composition: CPU + memory + accelerators + interconnect.

``PhotonicSoC`` builds the full-system configuration of the paper's Fig. 3:
a RISC-V host CPU, main memory, a shared bus, an interrupt controller, and
one or more domain-specific accelerators (photonic and/or digital), each
with its own MMR block, scratchpads and DMA engine.  It also provides the
workload runners used by experiments E8-E10 — CPU-only GeMM, single-PE
offload, and multi-PE tiled GeMM — all returning a uniform
:class:`WorkloadReport` with cycles, energy and area.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.system.accelerator import (
    BaseMatrixAccelerator,
    MACArrayAccelerator,
    PhotonicMVMAccelerator,
    TileDescriptor,
)
from repro.system.assembler import assemble
from repro.system.bus import SystemBus
from repro.system.cpu import RiscvCPU
from repro.system.event import EventScheduler
from repro.system.interrupt import InterruptController
from repro.system.memory import MainMemory, WORD_BYTES, signed_to_words, words_to_signed
from repro.system.mmr import CTRL_IRQ_ENABLE, CTRL_IRQ_PER_TILE, CTRL_START, STATUS_ERROR
from repro.system.programs import accelerator_offload_program, gemm_program

#: Default address map.
MAIN_MEMORY_BASE = 0x0000_0000
MAIN_MEMORY_SIZE = 1 << 20          # 1 MiB
MMR_REGION_BASE = 0x4000_0000
MMR_REGION_STRIDE = 0x0000_1000     # one 4 KiB page per accelerator


def _split_ranges(n: int, parts: int) -> List[Tuple[int, int]]:
    """``(start, stop)`` of the ``parts`` contiguous pieces of ``range(n)``.

    The partition of ``np.array_split(np.arange(n), parts)``: the first
    ``n % parts`` pieces are one longer than the rest, and pieces are empty
    when ``parts > n``.
    """
    size, extra = divmod(n, parts)
    ranges = []
    start = 0
    for index in range(parts):
        stop = start + size + (index < extra)
        ranges.append((start, stop))
        start = stop
    return ranges


def plan_shards(
    n_rows: int,
    n_inner: int,
    n_cols: int,
    n_pes: int,
    a_addr: int,
    b_addr: int,
    c_addr: int,
    tile_rows: Optional[int] = None,
    weights_pitch: int = 0,
) -> List[List[TileDescriptor]]:
    """Shard an (M, K, N) GeMM into per-PE tile streams.

    Output rows are partitioned contiguously across the PEs; each PE's
    shard is further split into ``tile_rows``-row tiles (default: half the
    shard, so the double-buffered pipeline always has a second tile to
    prefetch).  The ``(K, N)`` input operand is shared: only the first tile
    of each stream carries ``load_input`` and later tiles reuse the
    resident scratchpad copy (input-stationary dataflow).

    ``weights_pitch`` (words) describes the row pitch of the weight operand
    in memory.  The default ``0`` means densely packed (pitch = ``n_inner``);
    a larger pitch means the operand is a column slice ``A[:, k0:k1]`` of a
    wider row-major matrix, which the tiles then fetch with a strided DMA
    descriptor instead of requiring a contiguous staged copy.

    A plan is decided once per argument tuple: the frozen descriptors are
    shared between calls, the lists holding them are new on every call.
    """
    plans = _planned_shards(
        n_rows, n_inner, n_cols, n_pes, a_addr, b_addr, c_addr, tile_rows, weights_pitch
    )
    return [list(descriptors) for descriptors in plans]


@lru_cache(maxsize=1024)
def _planned_shards(
    n_rows: int,
    n_inner: int,
    n_cols: int,
    n_pes: int,
    a_addr: int,
    b_addr: int,
    c_addr: int,
    tile_rows: Optional[int],
    weights_pitch: int,
) -> Tuple[Tuple[TileDescriptor, ...], ...]:
    """The memoized plan of :func:`plan_shards`, as tuples."""
    if min(n_rows, n_inner, n_cols) < 1:
        raise ValueError(
            f"GeMM dimensions must be positive, got "
            f"(M, K, N) = ({n_rows}, {n_inner}, {n_cols})"
        )
    if n_pes < 1:
        raise ValueError("n_pes must be >= 1")
    if tile_rows is not None and tile_rows < 1:
        raise ValueError("tile_rows must be >= 1")
    if weights_pitch and weights_pitch < n_inner:
        raise ValueError("weights_pitch must be 0 or >= n_inner")
    row_pitch = weights_pitch if weights_pitch else n_inner
    plans = []
    for shard_start, shard_stop in _split_ranges(n_rows, n_pes):
        descriptors = []
        shard_rows = shard_stop - shard_start
        chunk_rows = tile_rows if tile_rows is not None else max(1, -(-shard_rows // 2))
        for first_row in range(shard_start, shard_stop, chunk_rows):
            descriptors.append(
                TileDescriptor(
                    weights_addr=a_addr + first_row * row_pitch * WORD_BYTES,
                    input_addr=b_addr,
                    output_addr=c_addr + first_row * n_cols * WORD_BYTES,
                    rows=min(chunk_rows, shard_stop - first_row),
                    inner=n_inner,
                    cols=n_cols,
                    load_input=first_row == shard_start,
                    weights_pitch=weights_pitch,
                )
            )
        plans.append(tuple(descriptors))
    return tuple(plans)


#: Default staging base for K-sharded operand slices and partial products.
K_STAGING_ADDR = 0x0004_0000


@dataclass(frozen=True)
class KShardSlice:
    """One K-slice of a K-sharded (M, K, N) GeMM.

    The slice's operands are ``A[:, k_start:k_stop]`` at ``a_addr`` and
    ``B[k_start:k_stop, :]`` at ``b_addr``; its (M, N) partial product goes
    to ``partial_addr``.  On the default in-place plan the operand
    addresses point straight into the original matrices (the weight slice
    is a strided view fetched by descriptor); on a staged plan they point
    at contiguous staged copies.  ``descriptors`` is the slice's row-tiled
    stream for one PE's double-buffered pipeline.
    """

    index: int
    k_start: int
    k_stop: int
    a_addr: int
    b_addr: int
    partial_addr: int
    descriptors: tuple

    @property
    def k_size(self) -> int:
        """Width of the K slice."""
        return self.k_stop - self.k_start


def plan_k_shards(
    n_rows: int,
    n_inner: int,
    n_cols: int,
    k_shards: int,
    staging_addr: int = K_STAGING_ADDR,
    tile_rows: Optional[int] = None,
    a_addr: Optional[int] = None,
    b_addr: Optional[int] = None,
) -> List[KShardSlice]:
    """Split the K (inner) dimension of an (M, K, N) GeMM into PE slices.

    Closes the rows-only gap of :func:`plan_shards`: each slice is a full
    (M, K_s, N) sub-GeMM whose (M, N) partial product accumulates into the
    final result.  Two operand layouts are supported:

    * **Staged** (``a_addr``/``b_addr`` omitted — the historical layout):
      operand slices live as contiguous copies laid out back-to-back from
      ``staging_addr`` as ``[A_0 | B_0 | C_0 | A_1 | B_1 | C_1 | ...]``;
      the caller must copy them there before launch.
    * **In place** (``a_addr`` and ``b_addr`` given): operand slices are
      read straight from the original matrices — ``A[:, k_start:k_stop]``
      becomes a strided DMA descriptor (``weights_pitch = n_inner``) and
      ``B[k_start:k_stop, :]`` a contiguous row range — so only the (M, N)
      partial-product buffers are allocated from ``staging_addr``.

    Every slice's stream starts with ``load_input=True`` (each slice has
    its own ``B`` operand) and row-tiles the slice exactly like
    :func:`plan_shards` does, so per-slice streams still double-buffer.
    """
    if k_shards < 1:
        raise ValueError("k_shards must be >= 1")
    if min(n_rows, n_inner, n_cols) < 1:
        raise ValueError(
            f"GeMM dimensions must be positive, got "
            f"(M, K, N) = ({n_rows}, {n_inner}, {n_cols})"
        )
    if k_shards > n_inner:
        raise ValueError(
            f"cannot split K={n_inner} into {k_shards} shards (need k_shards <= K)"
        )
    if (a_addr is None) != (b_addr is None):
        raise ValueError("in-place planning needs both a_addr and b_addr")
    in_place = a_addr is not None
    slices: List[KShardSlice] = []
    cursor = int(staging_addr)
    for index, (k_start, k_stop) in enumerate(_split_ranges(n_inner, k_shards)):
        k_size = k_stop - k_start
        if in_place:
            slice_a = a_addr + k_start * WORD_BYTES
            slice_b = b_addr + k_start * n_cols * WORD_BYTES
            partial_addr = cursor
            cursor = partial_addr + n_rows * n_cols * WORD_BYTES
            weights_pitch = n_inner
        else:
            slice_a = cursor
            slice_b = slice_a + n_rows * k_size * WORD_BYTES
            partial_addr = slice_b + k_size * n_cols * WORD_BYTES
            cursor = partial_addr + n_rows * n_cols * WORD_BYTES
            weights_pitch = 0
        descriptors = _planned_shards(
            n_rows, k_size, n_cols, 1, slice_a, slice_b, partial_addr,
            tile_rows, weights_pitch,
        )[0]
        slices.append(
            KShardSlice(
                index=index,
                k_start=k_start,
                k_stop=k_stop,
                a_addr=slice_a,
                b_addr=slice_b,
                partial_addr=partial_addr,
                descriptors=descriptors,
            )
        )
    return slices


@dataclass
class WorkloadReport:
    """Cycles / energy / area of one full-system workload run.

    Attributes:
        label: human-readable workload name.
        cycles: end-to-end cycle count (at the CPU clock).
        runtime_s: cycles converted to seconds.
        instructions: host instructions executed.
        energy_j: total system energy (CPU + memory + bus + DMA + DSA).
        area_mm2: silicon area of the configuration used.
        energy_breakdown: per-component energy [J].
        result: the numerical result of the workload (for correctness checks).
    """

    label: str
    cycles: int
    runtime_s: float
    instructions: int
    energy_j: float
    area_mm2: float
    energy_breakdown: Dict[str, float] = field(default_factory=dict)
    result: Optional[np.ndarray] = None
    #: pipeline accounting of tiled offloads (empty for other workloads):
    #: n_tiles, dma_cycles, compute_cycles, serial_cycles (all phases of
    #: all PEs run back-to-back), critical_path_serial_cycles (slowest PE
    #: with no intra-PE overlap), pipelined_cycles, overlap_cycles and
    #: intra_pe_overlap_cycles (what double buffering alone saved).
    pipeline: Dict[str, int] = field(default_factory=dict)
    #: per-DMA-channel traffic of this run (delta-based, like the pipeline
    #: phases): ``{engine_name: {transfers, words_moved, bytes_moved,
    #: busy_cycles}}`` — the observable before/after of any data-movement
    #: change, in every report rather than only in the benchmarks.
    dma: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def energy_per_cycle(self) -> float:
        """Mean energy per simulated cycle [J] (0 for an empty run)."""
        return self.energy_j / self.cycles if self.cycles else 0.0


class PhotonicSoC:
    """Configurable full-system model (CPU + accelerators).

    Attributes:
        clock_hz: system clock frequency.
        cpu_area_mm2 / memory_area_mm2: area figures of the host side.
        max_cycles: watchdog bound on the cycles of one host program or one
            tiled offload (hang detection).
    """

    def __init__(
        self,
        clock_hz: float = 1e9,
        main_memory_size: int = MAIN_MEMORY_SIZE,
        cpu_area_mm2: float = 0.2,
        memory_area_mm2: float = 0.5,
        max_cycles: int = 50_000_000,
    ):
        self.clock_hz = float(clock_hz)
        self.max_cycles = int(max_cycles)
        self.cpu_area_mm2 = float(cpu_area_mm2)
        self.memory_area_mm2 = float(memory_area_mm2)
        self.scheduler = EventScheduler()
        self.bus = SystemBus()
        self.main_memory = MainMemory(main_memory_size)
        self.bus.attach(MAIN_MEMORY_BASE, main_memory_size, self.main_memory, "main-memory")
        self.interrupts = InterruptController()
        self.cpu = RiscvCPU(self.scheduler, self.bus, clock_hz=clock_hz)
        self.accelerators: List[BaseMatrixAccelerator] = []

    # ------------------------------------------------------------------ #
    # configuration
    # ------------------------------------------------------------------ #
    def add_photonic_accelerator(self, **kwargs) -> PhotonicMVMAccelerator:
        """Attach a photonic GeMM accelerator; returns the device."""
        accelerator = PhotonicMVMAccelerator(
            self.scheduler,
            self.bus,
            interrupt_controller=self.interrupts,
            clock_hz=self.clock_hz,
            name=f"photonic{len(self.accelerators)}",
            **kwargs,
        )
        self._attach_accelerator(accelerator)
        return accelerator

    def add_mac_array_accelerator(self, **kwargs) -> MACArrayAccelerator:
        """Attach a digital MAC-array accelerator; returns the device."""
        accelerator = MACArrayAccelerator(
            self.scheduler,
            self.bus,
            interrupt_controller=self.interrupts,
            clock_hz=self.clock_hz,
            name=f"macarray{len(self.accelerators)}",
            **kwargs,
        )
        self._attach_accelerator(accelerator)
        return accelerator

    def _attach_accelerator(self, accelerator: BaseMatrixAccelerator) -> None:
        base = MMR_REGION_BASE + len(self.accelerators) * MMR_REGION_STRIDE
        self.bus.attach(base, accelerator.mmr.size_bytes, accelerator.mmr, accelerator.name)
        accelerator.mmr_base = base
        if accelerator.irq_line is not None:
            self.interrupts.subscribe(
                accelerator.irq_line.index, lambda _line: self.cpu.raise_interrupt()
            )
        self.accelerators.append(accelerator)

    # ------------------------------------------------------------------ #
    # memory helpers
    # ------------------------------------------------------------------ #
    def write_matrix(self, address: int, matrix: np.ndarray) -> None:
        """Store an integer matrix row-major into main memory."""
        flat = np.asarray(matrix, dtype=np.int64).reshape(-1)
        self.main_memory.load_words(address, signed_to_words(flat))

    def read_matrix(self, address: int, n_rows: int, n_cols: int) -> np.ndarray:
        """Read a row-major signed integer matrix from main memory."""
        words = self.main_memory.dump_words(address, n_rows * n_cols)
        return words_to_signed(words).reshape(n_rows, n_cols)

    # ------------------------------------------------------------------ #
    # simulation driver
    # ------------------------------------------------------------------ #
    def run_program(self, source: str, max_cycles: Optional[int] = None) -> int:
        """Assemble and run a host program to completion.

        The watchdog ``max_cycles`` (default: the SoC's) bounds the cycles
        *this* program may take, so a reused SoC runs every program under
        the same budget.  Returns the absolute scheduler cycle at the end,
        which is the SoC's lifetime cycle count.
        """
        program = assemble(source)
        self.cpu.load_program(program)
        self.cpu.start()
        limit = max_cycles if max_cycles is not None else self.max_cycles
        return self.scheduler.run(max_cycles=self.scheduler.current_cycle + limit)

    def _energy_breakdown(self) -> Dict[str, float]:
        breakdown = {
            "cpu": self.cpu.stats.energy_j,
            "main_memory": self.main_memory.energy_j(),
            "bus": self.bus.energy_j(),
        }
        for accelerator in self.accelerators:
            breakdown[accelerator.name] = accelerator.stats.energy_j
        return breakdown

    def total_area_mm2(self) -> float:
        """Total silicon area of the current configuration."""
        return (
            self.cpu_area_mm2
            + self.memory_area_mm2
            + sum(accelerator.area_mm2() for accelerator in self.accelerators)
        )

    def _report(self, label: str, cycles: int, result: Optional[np.ndarray]) -> WorkloadReport:
        breakdown = self._energy_breakdown()
        return WorkloadReport(
            label=label,
            cycles=int(cycles),
            runtime_s=cycles / self.clock_hz,
            instructions=self.cpu.stats.instructions,
            energy_j=float(sum(breakdown.values())),
            area_mm2=self.total_area_mm2(),
            energy_breakdown=breakdown,
            result=result,
        )

    def _delta_report(
        self,
        label: str,
        cycles: int,
        result: Optional[np.ndarray],
        energy_before: Dict[str, float],
        instructions_before: int,
    ) -> WorkloadReport:
        """A report charging only what *this* run consumed.

        Energy counters and instruction counts are cumulative over the
        SoC's lifetime; like the per-run cycle delta, repeated offloads
        (compiled plans, serving engines) must report their own
        consumption, not the running total.  Identical to :meth:`_report`
        on a fresh SoC.
        """
        report = self._report(label, cycles, result)
        report.energy_breakdown = {
            name: energy - energy_before.get(name, 0.0)
            for name, energy in report.energy_breakdown.items()
        }
        report.energy_j = float(sum(report.energy_breakdown.values()))
        report.instructions -= instructions_before
        return report

    # ------------------------------------------------------------------ #
    # workloads (experiments E8-E10)
    # ------------------------------------------------------------------ #
    def run_cpu_gemm(
        self,
        weights: np.ndarray,
        inputs: np.ndarray,
        a_addr: int = 0x1000,
        b_addr: int = 0x4000,
        c_addr: int = 0x8000,
    ) -> WorkloadReport:
        """CPU-only baseline: software GeMM on the RISC-V host."""
        weights = np.asarray(weights, dtype=np.int64)
        inputs = np.asarray(inputs, dtype=np.int64)
        n_rows, n_inner = weights.shape
        n_cols = inputs.shape[1]
        self.write_matrix(a_addr, weights)
        self.write_matrix(b_addr, inputs)
        source = gemm_program(a_addr, b_addr, c_addr, n_rows, n_inner, n_cols)
        cycles = self.run_program(source)
        result = self.read_matrix(c_addr, n_rows, n_cols)
        return self._report("cpu-gemm", cycles, result)

    def run_offloaded_gemm(
        self,
        weights: np.ndarray,
        inputs: np.ndarray,
        accelerator_index: int = 0,
        use_interrupt: bool = False,
        a_addr: int = 0x1000,
        b_addr: int = 0x4000,
        c_addr: int = 0x8000,
    ) -> WorkloadReport:
        """Offload the GeMM to one accelerator through its MMR interface."""
        if not self.accelerators:
            raise RuntimeError("no accelerator attached")
        accelerator = self.accelerators[accelerator_index]
        weights = np.asarray(weights, dtype=np.int64)
        inputs = np.asarray(inputs, dtype=np.int64)
        n_rows, n_inner = weights.shape
        n_cols = inputs.shape[1]
        self.write_matrix(a_addr, weights)
        self.write_matrix(b_addr, inputs)
        source = accelerator_offload_program(
            accelerator.mmr_base,
            a_addr,
            b_addr,
            c_addr,
            n_rows,
            n_inner,
            n_cols,
            use_interrupt=use_interrupt,
        )
        dma_snapshot = self._dma_snapshot()
        cycles = self.run_program(source)
        result = self.read_matrix(c_addr, n_rows, n_cols)
        label = f"offload-{accelerator.device_type}" + ("-irq" if use_interrupt else "")
        report = self._report(label, cycles, result)
        self._dma_accounting(report, dma_snapshot)
        return report

    def _enqueue_streams(self, plans: List[List[TileDescriptor]], irq_per_tile: bool):
        """Program every PE's tile stream through its MMR block.

        Each stream is one block access (:meth:`SystemBus.write_stream`),
        charged as the word writes of the ENQUEUE protocol it stands for:
        per tile the descriptor registers, the pitch register on a strided
        stream, and ``CTRL_ENQUEUE``, then the restore of the flags (and
        pitch) defaults so a later single-shot offload latches no stale
        state.  The START that launches the stream stays a word write.
        Returns ``(host_cycles, n_tiles)`` — the bus cycles the host driver
        spent on MMR writes and the total tiles enqueued.
        """
        start_bits = CTRL_START | CTRL_IRQ_ENABLE | (
            CTRL_IRQ_PER_TILE if irq_per_tile else 0
        )
        host_cycles = 0
        n_tiles = 0
        bus = self.bus
        for accelerator, descriptors in zip(self.accelerators, plans):
            if descriptors:
                host_cycles += bus.write_stream(accelerator.mmr_base, descriptors)
                host_cycles += bus.write_word(accelerator.mmr_base, start_bits)
                n_tiles += len(descriptors)
        return host_cycles, n_tiles

    def _run_streams(self, plans: List[List[TileDescriptor]]) -> int:
        """Drive the event loop until every stream drains.

        Returns the cycles *this* offload took (the scheduler clock is
        absolute over the SoC's lifetime; repeated offloads — a compiled
        multi-layer plan, a long-lived serving engine — must not fold the
        previous runs' time into their own report).  The run stops at the
        cycle the last stream completes, leaving later events queued.
        """
        scheduler = self.scheduler
        start_cycle = scheduler.current_cycle
        limit = start_cycle + self.max_cycles
        streams = [pe for pe, descriptors in zip(self.accelerators, plans) if descriptors]
        # one cycle's events at a time, until no stream is busy
        while any(pe.busy for pe in streams) and scheduler.horizon() <= limit:
            scheduler.run(max_cycles=scheduler.horizon())
        final_cycle = scheduler.current_cycle
        stuck = [pe.name for pe in streams if pe.busy]
        if stuck:
            raise RuntimeError(
                f"tiled GeMM stream of {', '.join(stuck)} still busy after the "
                f"{self.max_cycles}-cycle watchdog (result incomplete)"
            )
        failed = [
            accelerator.name
            for accelerator, descriptors in zip(self.accelerators, plans)
            if descriptors and accelerator.mmr.status == STATUS_ERROR
        ]
        if failed:
            raise RuntimeError(
                f"tiled GeMM stream rejected by {', '.join(failed)} "
                f"(STATUS_ERROR: tile invalid or larger than the scratchpad)"
            )
        return final_cycle - start_cycle

    def _dma_snapshot(self) -> Dict[str, tuple]:
        """Per-engine DMA counter snapshot (for delta-based reporting)."""
        snapshot: Dict[str, tuple] = {}
        for accelerator in self.accelerators:
            for engine in (accelerator.dma, accelerator.dma_wb):
                snapshot[engine.name] = (
                    engine.stats.transfers,
                    engine.stats.words_moved,
                    engine.stats.busy_cycles,
                )
        return snapshot

    def _dma_accounting(self, report: WorkloadReport, snapshot: Dict[str, tuple]) -> None:
        """Fill ``report.dma`` with per-channel traffic deltas of this run."""
        traffic: Dict[str, Dict[str, int]] = {}
        for accelerator in self.accelerators:
            for engine in (accelerator.dma, accelerator.dma_wb):
                before = snapshot.get(engine.name, (0, 0, 0))
                words = engine.stats.words_moved - before[1]
                traffic[engine.name] = {
                    "transfers": engine.stats.transfers - before[0],
                    "words_moved": words,
                    "bytes_moved": words * WORD_BYTES,
                    "busy_cycles": engine.stats.busy_cycles - before[2],
                }
        report.dma = traffic

    def _pipeline_accounting(
        self,
        report: WorkloadReport,
        phase_snapshot,
        host_cycles: int,
        n_tiles: int,
        extra_serial_cycles: int = 0,
    ) -> None:
        """Fill ``report.pipeline`` from the PEs' phase-cycle deltas."""
        per_pe_phases = [
            (pe.stats.dma_cycles - before[0]) + (pe.stats.compute_cycles - before[1])
            for pe, before in zip(self.accelerators, phase_snapshot)
        ]
        dma_cycles = sum(
            pe.stats.dma_cycles - before[0]
            for pe, before in zip(self.accelerators, phase_snapshot)
        )
        compute_cycles = sum(
            pe.stats.compute_cycles - before[1]
            for pe, before in zip(self.accelerators, phase_snapshot)
        )
        # serial_cycles sums every phase of every PE (one-PE-at-a-time
        # execution); critical_path_serial_cycles is the slowest PE run
        # serially with no intra-PE overlap, so intra_pe_overlap_cycles
        # isolates what double buffering (not PE parallelism) saved.
        # extra_serial_cycles carries phase costs charged on both sides
        # (e.g. the K-shard partial-product reduction).
        serial_cycles = dma_cycles + compute_cycles + host_cycles + extra_serial_cycles
        critical_path = max(per_pe_phases, default=0) + host_cycles + extra_serial_cycles
        report.pipeline = {
            "n_tiles": n_tiles,
            "dma_cycles": dma_cycles,
            "compute_cycles": compute_cycles,
            "serial_cycles": serial_cycles,
            "critical_path_serial_cycles": critical_path,
            "pipelined_cycles": report.cycles,
            "overlap_cycles": serial_cycles - report.cycles,
            "intra_pe_overlap_cycles": critical_path - report.cycles,
        }

    def run_tiled_gemm(
        self,
        weights: np.ndarray,
        inputs: np.ndarray,
        a_addr: int = 0x1000,
        b_addr: int = 0x4000,
        c_addr: int = 0x8000,
        tile_rows: Optional[int] = None,
        irq_per_tile: bool = False,
        k_shards: Optional[int] = None,
        k_staging: str = "in-place",
    ) -> WorkloadReport:
        """Shard the GeMM across every attached accelerator (PE cluster).

        :func:`plan_shards` partitions the output rows across the PEs and
        splits each shard into multiple tiles; the host-side driver
        (modelled directly as MMR writes through the bus, so arbitrarily
        many PEs can be coordinated) enqueues each PE's tile stream with
        the ENQUEUE control bit and launches them together.  Inside every
        PE the double-buffered pipeline overlaps the DMA-in of tile ``t+1``
        with the compute/write-back of tile ``t``; the report's
        ``pipeline`` dict records the measured overlap against the serial
        DMA + compute phase sum.

        Args:
            tile_rows: rows per tile (default: half of each PE's shard).
            irq_per_tile: raise the completion interrupt per tile write-back
                instead of once per drained stream.
            k_shards: split the inner (K) dimension into this many slices
                instead of sharding rows — each slice computes an (M, N)
                partial product on its PE (round-robin when there are more
                slices than PEs) and the host accumulates the partials into
                the final result over the bus.  Bitwise identical to the
                unsharded product for deterministic backends (integer
                partial sums are exact; results must fit 32-bit words, the
                same constraint the row-sharded path has).  ``None`` or 1
                shards rows.
            k_staging: K-shard operand layout.  ``"in-place"`` (default)
                streams each slice's operands straight from the original
                matrices — the weight slice via a strided DMA descriptor —
                with zero host staging copies; ``"staged"`` keeps the
                historical contiguous staging copies, now charged as real
                bus traffic so the two layouts compare apples to apples.

        Raises:
            ValueError: on an unknown ``k_staging``, or a ``k_shards`` that
                is neither ``None`` nor an integer >= 1, before any write.
        """
        if not self.accelerators:
            raise RuntimeError("no accelerator attached")
        if k_staging not in ("in-place", "staged"):
            raise ValueError(f"unknown k_staging mode {k_staging!r}")
        if k_shards is not None and (
            not isinstance(k_shards, (int, np.integer)) or k_shards < 1
        ):
            raise ValueError(f"k_shards must be None or an integer >= 1, got {k_shards!r}")
        busy = [accelerator.name for accelerator in self.accelerators if accelerator.busy]
        if busy:
            # a stream enqueued onto a running PE would never start, and the
            # running one would still write its results during this offload
            raise RuntimeError(
                f"cannot offload onto busy {', '.join(busy)} "
                f"(a previous stream has not drained)"
            )
        weights = np.asarray(weights, dtype=np.int64)
        inputs = np.asarray(inputs, dtype=np.int64)
        n_rows, n_inner = weights.shape
        n_cols = inputs.shape[1]
        n_pes = len(self.accelerators)
        if k_shards is not None and k_shards > 1:
            return self._run_k_sharded_gemm(
                weights, inputs, c_addr, tile_rows, irq_per_tile, int(k_shards),
                a_addr=a_addr, b_addr=b_addr, staged=k_staging == "staged",
            )
        plans = plan_shards(
            n_rows, n_inner, n_cols, n_pes, a_addr, b_addr, c_addr, tile_rows=tile_rows
        )

        self.write_matrix(a_addr, weights)
        self.write_matrix(b_addr, inputs)
        phase_snapshot = [
            (pe.stats.dma_cycles, pe.stats.compute_cycles) for pe in self.accelerators
        ]
        dma_snapshot = self._dma_snapshot()
        energy_before = self._energy_breakdown()
        instructions_before = self.cpu.stats.instructions
        host_cycles, n_tiles = self._enqueue_streams(plans, irq_per_tile)
        final_cycle = self._run_streams(plans)
        result = self.read_matrix(c_addr, n_rows, n_cols)
        report = self._delta_report(
            f"tiled-gemm-{n_pes}pe",
            final_cycle + host_cycles,
            result,
            energy_before,
            instructions_before,
        )
        self._pipeline_accounting(report, phase_snapshot, host_cycles, n_tiles)
        self._dma_accounting(report, dma_snapshot)
        return report

    def _run_k_sharded_gemm(
        self,
        weights: np.ndarray,
        inputs: np.ndarray,
        c_addr: int,
        tile_rows: Optional[int],
        irq_per_tile: bool,
        k_shards: int,
        staging_addr: int = K_STAGING_ADDR,
        a_addr: int = 0x1000,
        b_addr: int = 0x4000,
        staged: bool = False,
    ) -> WorkloadReport:
        """K-dimension sharding: per-slice partial products + accumulation.

        Each K-slice runs as its own row-tiled stream (so double buffering
        still overlaps DMA and compute inside every PE); slices are dealt
        round-robin to the PEs.  After the streams drain, the host reduces
        the (M, N) partials into ``c_addr`` with charged bulk bus reads and
        one bulk write — the accumulation cost appears on both sides of the
        pipelined-vs-serial comparison so the reported overlap is still the
        pipeline's own win.

        By default the operand slices are read **in place**: the weight
        slice ``A[:, k_start:k_stop]`` is a strided view of the row-major
        matrix at ``a_addr``, so each tile programs ``REG_WEIGHTS_PITCH``
        and its DMA fetch becomes one strided descriptor
        (``system/dma.py:DMADescriptor``) streaming the slice straight from
        its original bus addresses; ``B[k_start:k_stop, :]`` is a
        contiguous row range of the matrix at ``b_addr`` and needs no
        descriptor at all.  Only the (M, N) partial-product buffers are
        allocated from ``staging_addr``, and the host copies nothing.

        ``staged=True`` keeps the historical layout — contiguous operand
        copies per slice — as a measurable comparison point: the staging
        copies are charged as real bus traffic (strided read of each weight
        slice, bulk read of each input range, bulk writes into the staging
        region, plus the partial-buffer zeroing the in-place path does not
        need), using the same first-word-per-block burst accounting as the
        accumulation phase.  Both modes are bitwise identical.
        """
        n_rows, n_inner = weights.shape
        n_cols = inputs.shape[1]
        n_pes = len(self.accelerators)
        n_words = n_rows * n_cols
        slices = plan_k_shards(
            n_rows, n_inner, n_cols, k_shards, staging_addr=staging_addr,
            tile_rows=tile_rows,
            a_addr=None if staged else a_addr,
            b_addr=None if staged else b_addr,
        )
        needed = slices[-1].partial_addr + n_words * WORD_BYTES
        if needed > self.main_memory.size_bytes:
            raise ValueError(
                f"K-shard staging region [{staging_addr:#x}, {needed:#x}) exceeds "
                f"main memory ({self.main_memory.size_bytes:#x} bytes)"
            )
        # Operand load: host setup, unaccounted — the same convention as
        # the row path's write_matrix operand loads.
        self.write_matrix(a_addr, weights)
        self.write_matrix(b_addr, inputs)
        plans: List[List[TileDescriptor]] = [[] for _ in range(n_pes)]
        for piece in slices:
            plans[piece.index % n_pes].extend(piece.descriptors)

        phase_snapshot = [
            (pe.stats.dma_cycles, pe.stats.compute_cycles) for pe in self.accelerators
        ]
        dma_snapshot = self._dma_snapshot()
        energy_before = self._energy_breakdown()
        instructions_before = self.cpu.stats.instructions

        staging_cycles = 0
        staging_words = 0
        if staged:
            # Host-side staging copies, charged with the same burst model
            # as the accumulation phase: the first word of each block pays
            # the access latency, the rest stream one word per cycle.  Each
            # word crosses the bus twice (read from the original matrix,
            # write into the staging region), and both crossings count.
            for piece in slices:
                n_a = n_rows * piece.k_size
                values, per_word = self.bus.read_strided(
                    a_addr + piece.k_start * WORD_BYTES,
                    piece.k_size, n_rows, n_inner,
                )
                staging_cycles += per_word + (n_a - 1)
                per_word = self.bus.write_block(piece.a_addr, values)
                staging_cycles += per_word + (n_a - 1)
                n_b = piece.k_size * n_cols
                values, per_word = self.bus.read_block(
                    b_addr + piece.k_start * n_cols * WORD_BYTES, n_b
                )
                staging_cycles += per_word + (n_b - 1)
                per_word = self.bus.write_block(piece.b_addr, values)
                staging_cycles += per_word + (n_b - 1)
                # zero the partial region so a stale buffer can never alias
                per_word = self.bus.write_block(
                    piece.partial_addr, np.zeros(n_words, dtype=np.int64)
                )
                staging_cycles += per_word + (n_words - 1)
                staging_words += 2 * (n_a + n_b) + n_words
        # In-place mode writes no partial zeros either: every partial word
        # is overwritten by a tile's DMA write-back before the accumulation
        # reads it (the slice streams cover all M rows, and stream errors
        # raise before any partial is read).

        host_cycles, n_tiles = self._enqueue_streams(plans, irq_per_tile)
        final_cycle = self._run_streams(plans)

        # partial-product accumulation: bulk bus reads of every partial,
        # one bulk write of the reduced result (burst model: first word of
        # each block pays the access latency, the rest stream 1 word/cycle)
        accumulated = np.zeros((n_rows, n_cols), dtype=np.int64)
        accumulate_cycles = 0
        for piece in slices:
            values, per_word = self.bus.read_block(piece.partial_addr, n_words)
            accumulate_cycles += per_word + (n_words - 1)
            accumulated += words_to_signed(values).reshape(n_rows, n_cols)
        per_word = self.bus.write_block(c_addr, signed_to_words(accumulated.reshape(-1)))
        accumulate_cycles += per_word + (n_words - 1)

        result = self.read_matrix(c_addr, n_rows, n_cols)
        label = f"tiled-gemm-{n_pes}pe-k{k_shards}" + ("-staged" if staged else "")
        report = self._delta_report(
            label,
            final_cycle + host_cycles + staging_cycles + accumulate_cycles,
            result,
            energy_before,
            instructions_before,
        )
        self._pipeline_accounting(
            report, phase_snapshot, host_cycles, n_tiles,
            extra_serial_cycles=staging_cycles + accumulate_cycles,
        )
        report.pipeline["k_shards"] = k_shards
        report.pipeline["accumulate_cycles"] = accumulate_cycles
        report.pipeline["staging_cycles"] = staging_cycles
        report.pipeline["staging_words"] = staging_words
        self._dma_accounting(report, dma_snapshot)
        return report

    def all_accelerators_done(self) -> bool:
        """True when every attached accelerator reports DONE or idle."""
        return all(not accelerator.busy for accelerator in self.accelerators)
