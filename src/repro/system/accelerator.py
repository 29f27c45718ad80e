"""Domain-specific accelerator (DSA) devices for the full-system simulator.

Each accelerator follows the gem5-MARVEL structure: a Compute Unit (the
datapath model) plus a Communications Interface (MMRs, scratchpad
memories, DMA engines and an interrupt line).  The host sees only the MMR
block; it configures buffer addresses and matrix dimensions, sets the START
bit, and waits for DONE (polling or interrupt).

The Communications Interface is a pipelined, double-buffered offload
engine.  Work arrives as :class:`TileDescriptor` streams: descriptors
pushed with the ENQUEUE control bit and launched together by START.  A
START on an empty queue first latches the descriptor in the MMR data
registers as ENQUEUE does, so the classic single-shot protocol is the
one-tile stream.  Three stages run concurrently on the shared event
scheduler:

``DMA-in  ──►  compute  ──►  DMA-out``

with ping-pong weight/output scratchpad buffers, so the DMA-in of tile
``t+1`` overlaps the compute/write-back of tile ``t``.  The input matrix is
input-stationary: it is loaded once per stream (descriptors with
``load_input=False`` reuse the resident operand), which is what makes the
sharded multi-tile GeMM of :meth:`repro.system.soc.PhotonicSoC.run_tiled_gemm`
cheaper than replaying the single-shot protocol per tile.

A host driver enqueues a whole stream with one block access
(:meth:`repro.system.bus.SystemBus.write_stream`), which the device takes as
the word writes of the ENQUEUE protocol it stands for.  What a tile derives
from its shape is decided once: its scratchpad fit when it is enqueued, and
on the photonic PE the default model's cycles and energy once per shape
(:func:`default_tile_cost`).

The functional datapath is a pluggable execution backend
(``repro.core.backends``): ``ideal-digital`` reproduces the exact integer
product, ``quantized-digital`` models a saturating fixed-point datapath and
``analog-photonic`` routes through :meth:`repro.core.mvm.PhotonicMVM.apply_batch`
so analog error propagates into the application.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Deque, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.backends import BackendSpec, ExecutionBackend, resolve_backend
from repro.core.energy import PhotonicCoreEnergyModel
from repro.system.bus import SystemBus
from repro.system.dfg import build_gemm_dfg
from repro.system.dma import DMADescriptor, DMAEngine
from repro.system.event import EventScheduler
from repro.system.interrupt import InterruptController
from repro.system.memory import Scratchpad, WORD_BYTES, WORD_MASK
from repro.system.mmr import CTRL_ENQUEUE, MemoryMappedRegisters

#: MMR data-register assignments shared by both accelerator types.
REG_WEIGHTS_ADDR = 0
REG_INPUT_ADDR = 1
REG_OUTPUT_ADDR = 2
REG_ROWS = 3        # M: output rows
REG_INNER = 4       # K: inner (shared) dimension
REG_COLS = 5        # N: input-matrix columns
REG_SCALE_SHIFT = 6  # fixed-point scaling shift applied to results
REG_FLAGS = 7       # per-tile flags (see FLAG_*)
REG_TILES_DONE = 8  # device-written: completed-tile count of the stream
REG_WEIGHTS_PITCH = 9  # row pitch (words) of the weight operand; 0 = dense

#: REG_FLAGS bits.  The default (0) loads the input operand, which keeps
#: the classic single-shot START protocol unchanged.
FLAG_SKIP_INPUT_LOAD = 0x1

#: Scratchpad buffers per operand: weights and outputs are double-buffered.
#: A tile too large for one buffer runs exclusive, as the one-buffer case.
N_BUFFERS = 2


@dataclass(frozen=True)
class TileDescriptor:
    """One ``(rows x inner) @ (inner x cols)`` sub-problem routed to a PE.

    Attributes:
        weights_addr / input_addr / output_addr: main-memory buffers.
        rows / inner / cols: tile dimensions (M, K, N).
        scale_shift: fixed-point right-shift applied to the results.
        load_input: DMA the input operand in; ``False`` reuses the operand
            already resident in the input scratchpad (input-stationary
            streams where only the weight tile changes).
        weights_pitch: row pitch of the weight operand in main memory, in
            words.  ``0`` (or ``== inner``) means the tile is densely
            packed; a larger pitch makes the fetch a strided DMA descriptor
            that streams the ``rows x inner`` slice of a wider row-major
            matrix in place, without a host staging copy.
    """

    weights_addr: int
    input_addr: int
    output_addr: int
    rows: int
    inner: int
    cols: int
    scale_shift: int = 0
    load_input: bool = True
    weights_pitch: int = 0

    @property
    def weight_words(self) -> int:
        """Words of the tile's weight block (rows x inner)."""
        return self.rows * self.inner

    @property
    def input_words(self) -> int:
        """Words of the tile's input block (inner x cols)."""
        return self.inner * self.cols

    @property
    def output_words(self) -> int:
        """Words of the tile's output block (rows x cols)."""
        return self.rows * self.cols

    @property
    def macs(self) -> int:
        """Multiply-accumulates the tile performs."""
        return self.rows * self.inner * self.cols

    @property
    def valid(self) -> bool:
        """True when every dimension is positive and the pitch covers a row."""
        if self.weights_pitch and self.weights_pitch < self.inner:
            return False
        return min(self.rows, self.inner, self.cols) >= 1


@dataclass
class _TileJob:
    """In-flight pipeline state of one tile."""

    descriptor: TileDescriptor
    buffer: int
    exclusive: bool = False
    outputs: Optional[np.ndarray] = None
    dma_in_cycles: int = 0
    compute_cycles: int = 0
    dma_out_cycles: int = 0


@dataclass
class AcceleratorStats:
    """Execution statistics of one accelerator device."""

    invocations: int = 0
    tiles_completed: int = 0
    compute_cycles: int = 0
    dma_cycles: int = 0
    macs: int = 0
    energy_j: float = 0.0

    @property
    def total_cycles(self) -> int:
        """Compute plus DMA cycles."""
        return self.compute_cycles + self.dma_cycles


class BaseMatrixAccelerator:
    """Shared Communications Interface logic of the matrix accelerators.

    Attributes:
        backend: the :class:`~repro.core.backends.ExecutionBackend`
            producing the functional result of every tile.
    """

    #: human-readable device type, overridden by subclasses
    device_type = "base"
    #: registry name of the backend used when none is given
    default_backend = "ideal-digital"

    def __init__(
        self,
        scheduler: EventScheduler,
        bus: SystemBus,
        interrupt_controller: Optional[InterruptController] = None,
        scratchpad_bytes: int = 64 * 1024,
        clock_hz: float = 1e9,
        name: str = "dsa0",
        backend: BackendSpec = None,
    ):
        self.scheduler = scheduler
        self.bus = bus
        self.clock_hz = float(clock_hz)
        self.name = name
        self.backend: ExecutionBackend = resolve_backend(
            backend if backend is not None else self.default_backend
        )
        self.mmr = MemoryMappedRegisters(
            n_data_registers=16,
            on_start=self._on_start,
            on_enqueue=self._on_enqueue,
            on_reset=self._on_reset,
            on_stream=self._on_stream,
        )
        self.input_spm = Scratchpad(scratchpad_bytes)
        self.weight_spm = Scratchpad(scratchpad_bytes)
        self.output_spm = Scratchpad(scratchpad_bytes)
        self.dma = DMAEngine(scheduler, bus, name=f"{name}-dma")
        self.dma_wb = DMAEngine(scheduler, bus, name=f"{name}-dma-wb")
        self.stats = AcceleratorStats()
        self.interrupt_controller = interrupt_controller
        self.irq_line = None
        if interrupt_controller is not None:
            self.irq_line = interrupt_controller.allocate_line(name)
        self.busy = False
        # pipeline state; a pending tile carries whether it runs exclusive
        self._pending: Deque[Tuple[TileDescriptor, bool]] = deque()
        self._ready: Deque[_TileJob] = deque()
        self._writeback: Deque[_TileJob] = deque()
        self._dma_in_job: Optional[_TileJob] = None
        self._compute_job: Optional[_TileJob] = None
        self._dma_out_job: Optional[_TileJob] = None
        self._next_buffer = 0
        self._accounted_device_energy = 0.0
        self._tiles_done_this_stream = 0
        self._stream_error = False
        self._exclusive_active = False

    # ------------------------------------------------------------------ #
    # host protocol
    # ------------------------------------------------------------------ #
    def _descriptor_from_registers(self) -> TileDescriptor:
        # every REG_* index lies inside the 16 data registers of self.mmr
        data = self.mmr.data
        return TileDescriptor(
            weights_addr=data[REG_WEIGHTS_ADDR],
            input_addr=data[REG_INPUT_ADDR],
            output_addr=data[REG_OUTPUT_ADDR],
            rows=data[REG_ROWS],
            inner=data[REG_INNER],
            cols=data[REG_COLS],
            scale_shift=data[REG_SCALE_SHIFT],
            load_input=not data[REG_FLAGS] & FLAG_SKIP_INPUT_LOAD,
            weights_pitch=data[REG_WEIGHTS_PITCH],
        )

    def _tile_fit(self, descriptor: TileDescriptor) -> Optional[str]:
        """How a tile fits the scratchpads.

        ``"pipelined"`` — fits one ping-pong buffer region and can be
        double-buffered; ``"exclusive"`` — too large for a region but fits
        the whole scratchpad, so it runs with the pipeline flushed as the
        one-buffer case; ``None`` — does not fit.
        """
        weight_region = (self.weight_spm.size_bytes // N_BUFFERS) // WORD_BYTES
        output_region = (self.output_spm.size_bytes // N_BUFFERS) // WORD_BYTES
        input_words = self.input_spm.size_bytes // WORD_BYTES
        if descriptor.input_words > input_words:
            return None
        if descriptor.weight_words <= weight_region and descriptor.output_words <= output_region:
            return "pipelined"
        if (
            descriptor.weight_words <= self.weight_spm.size_bytes // WORD_BYTES
            and descriptor.output_words <= self.output_spm.size_bytes // WORD_BYTES
        ):
            return "exclusive"
        return None

    def enqueue_tile(self, descriptor: TileDescriptor) -> None:
        """Device-side enqueue (the MMR ENQUEUE bit routes here).

        Invalid or scratchpad-oversized descriptors latch a stream error:
        the stream refuses to start (or completes with STATUS_ERROR) rather
        than silently producing a partial result.  The tile's scratchpad
        fit is decided here, once.
        """
        fit = self._tile_fit(descriptor) if descriptor.valid else None
        if fit is None:
            self._stream_error = True
            if not self.busy:
                self.mmr.mark_done(error=True)
            return
        self._pending.append((descriptor, fit == "exclusive"))

    def _on_enqueue(self) -> None:
        """Host set the ENQUEUE bit: queue the latched descriptor."""
        self.enqueue_tile(self._descriptor_from_registers())

    def _on_stream(self, descriptors: Sequence[TileDescriptor]) -> int:
        """Host block access enqueuing a tile stream; returns its word writes.

        The block performs the word writes of the ENQUEUE protocol: for
        each descriptor the data registers ``REG_WEIGHTS_ADDR..REG_FLAGS``,
        ``REG_WEIGHTS_PITCH`` when any descriptor of the stream has a pitch,
        and ``CTRL_ENQUEUE``, which latches the descriptor through
        :meth:`_on_enqueue`; then ``REG_FLAGS`` and, for a pitched stream,
        ``REG_WEIGHTS_PITCH`` back to 0.
        """
        if not descriptors:
            return 0
        mmr = self.mmr
        data = mmr.data
        program_pitch = any(d.weights_pitch for d in descriptors)
        mmr.control = CTRL_ENQUEUE
        for d in descriptors:
            data[REG_WEIGHTS_ADDR:REG_FLAGS + 1] = [
                int(d.weights_addr) & WORD_MASK,
                int(d.input_addr) & WORD_MASK,
                int(d.output_addr) & WORD_MASK,
                int(d.rows) & WORD_MASK,
                int(d.inner) & WORD_MASK,
                int(d.cols) & WORD_MASK,
                int(d.scale_shift) & WORD_MASK,
                0 if d.load_input else FLAG_SKIP_INPUT_LOAD,
            ]
            if program_pitch:
                data[REG_WEIGHTS_PITCH] = int(d.weights_pitch) & WORD_MASK
            self._on_enqueue()
        data[REG_FLAGS] = 0
        if program_pitch:
            data[REG_WEIGHTS_PITCH] = 0
        per_tile = REG_FLAGS - REG_WEIGHTS_ADDR + 2 + program_pitch
        return len(descriptors) * per_tile + 1 + program_pitch

    def _on_reset(self) -> None:
        """Host set the RESET bit: abort queued work and clear error state.

        Tiles already in flight drain normally (their completion events are
        committed); everything still waiting is dropped.
        """
        self._pending.clear()
        self._stream_error = False
        if not self.busy:
            self._next_buffer = 0

    def _on_start(self) -> None:
        """Host set the START bit: launch the pipeline over the tile queue.

        With an empty queue this first latches the descriptor held in the
        data registers as ENQUEUE does: the classic one-shot offload
        protocol is a one-tile stream.
        """
        if self.busy:
            return
        if not self._pending:
            self._on_enqueue()
        if self._stream_error:
            self._pending.clear()
            self._stream_error = False
            self.mmr.mark_done(error=True)
            return
        self.busy = True
        self.stats.invocations += 1
        self.mmr.mark_busy()
        self.mmr.set_data_register(REG_TILES_DONE, 0)
        self._tiles_done_this_stream = 0
        self._advance()

    # ------------------------------------------------------------------ #
    # pipeline stages
    # ------------------------------------------------------------------ #
    def _advance(self) -> None:
        self._try_start_dma_in()
        self._try_start_compute()
        self._try_start_dma_out()

    def _input_buffers_in_flight(self) -> int:
        return (
            (1 if self._dma_in_job is not None else 0)
            + len(self._ready)
            + (1 if self._compute_job is not None else 0)
        )

    def _buffer_offset(self, spm: Scratchpad, buffer: int) -> int:
        region = (spm.size_bytes // N_BUFFERS) // WORD_BYTES * WORD_BYTES
        return buffer * region

    def _pipeline_idle(self) -> bool:
        """No job in flight anywhere past the pending queue."""
        return not (
            self._ready
            or self._writeback
            or self._compute_job is not None
            or self._dma_out_job is not None
        )

    def _try_start_dma_in(self) -> None:
        if self._dma_in_job is not None or not self._pending:
            return
        if self._exclusive_active:
            # an oversized tile owns the whole scratchpad until it drains
            return
        descriptor, exclusive = self._pending[0]
        if exclusive:
            # too large for a ping-pong region: run it unpipelined with
            # exclusive use of the full scratchpads (old serial capacity)
            if not self._pipeline_idle():
                return
        elif self._input_buffers_in_flight() >= N_BUFFERS:
            return
        if descriptor.load_input and (self._ready or self._compute_job is not None):
            # Reloading the shared input operand would corrupt tiles that
            # have been fetched but not yet computed: flush first.
            return
        self._pending.popleft()
        job = _TileJob(descriptor, buffer=0 if exclusive else self._next_buffer,
                       exclusive=exclusive)
        if exclusive:
            self._exclusive_active = True
        else:
            self._next_buffer = (self._next_buffer + 1) % N_BUFFERS
        weight_source = descriptor.weights_addr
        if descriptor.weights_pitch and descriptor.weights_pitch != descriptor.inner:
            # the tile is a column slice of a wider row-major matrix: one
            # strided descriptor streams it in place over the bus
            weight_source = DMADescriptor(
                base=descriptor.weights_addr,
                block_words=descriptor.inner,
                n_blocks=descriptor.rows,
                stride_words=descriptor.weights_pitch,
            )
        latency = self.dma.copy_to_scratchpad(
            weight_source,
            self.weight_spm,
            self._buffer_offset(self.weight_spm, job.buffer),
            descriptor.weight_words,
        )
        if descriptor.load_input:
            latency += self.dma.copy_to_scratchpad(
                descriptor.input_addr, self.input_spm, 0, descriptor.input_words
            )
        job.dma_in_cycles = latency
        self.stats.dma_cycles += latency
        self._dma_in_job = job
        self.scheduler.schedule(
            latency, lambda: self._finish_dma_in(job), label=f"{self.name}-dma-in"
        )

    def _finish_dma_in(self, job: _TileJob) -> None:
        self._dma_in_job = None
        self._ready.append(job)
        self._advance()

    def _try_start_compute(self) -> None:
        if self._compute_job is not None or not self._ready:
            return
        output_backlog = len(self._writeback) + (1 if self._dma_out_job is not None else 0)
        if output_backlog >= N_BUFFERS:
            return
        job = self._ready.popleft()
        self._compute_job = job
        descriptor = job.descriptor
        weights = self._read_matrix(
            self.weight_spm,
            self._buffer_offset(self.weight_spm, job.buffer),
            descriptor.rows,
            descriptor.inner,
        )
        inputs = self._read_matrix(self.input_spm, 0, descriptor.inner, descriptor.cols)
        config = {
            "rows": descriptor.rows,
            "inner": descriptor.inner,
            "cols": descriptor.cols,
            "scale_shift": descriptor.scale_shift,
        }
        cycles, energy, outputs = self._compute(weights, inputs, config)
        job.compute_cycles = cycles
        job.outputs = outputs
        self.stats.compute_cycles += cycles
        self.stats.macs += descriptor.macs
        self.stats.energy_j += energy
        self.scheduler.schedule(
            cycles, lambda: self._finish_compute(job), label=f"{self.name}-compute"
        )

    def _finish_compute(self, job: _TileJob) -> None:
        self._compute_job = None
        outputs = job.outputs
        if getattr(outputs, "dtype", None) != np.int64:
            outputs = np.asarray(np.round(outputs), dtype=np.int64)
        self._write_matrix(
            self.output_spm, self._buffer_offset(self.output_spm, job.buffer), outputs
        )
        self._writeback.append(job)
        self._advance()

    def _try_start_dma_out(self) -> None:
        if self._dma_out_job is not None or not self._writeback:
            return
        job = self._writeback.popleft()
        self._dma_out_job = job
        descriptor = job.descriptor
        latency = self.dma_wb.copy_from_scratchpad(
            self.output_spm,
            self._buffer_offset(self.output_spm, job.buffer),
            descriptor.output_addr,
            descriptor.output_words,
        )
        job.dma_out_cycles = latency
        self.stats.dma_cycles += latency
        self.scheduler.schedule(
            latency, lambda: self._finish_dma_out(job), label=f"{self.name}-dma-out"
        )

    def _finish_dma_out(self, job: _TileJob) -> None:
        self._dma_out_job = None
        if job.exclusive:
            self._exclusive_active = False
        self.stats.tiles_completed += 1
        self._tiles_done_this_stream += 1
        self.mmr.set_data_register(REG_TILES_DONE, self._tiles_done_this_stream)
        if (
            self.irq_line is not None
            and self.mmr.irq_enabled
            and self.mmr.irq_per_tile
        ):
            self.interrupt_controller.raise_interrupt(self.irq_line.index)
        if self._drained():
            self._complete()
        else:
            self._advance()

    def _drained(self) -> bool:
        return not (
            self._pending
            or self._ready
            or self._writeback
            or self._dma_in_job is not None
            or self._compute_job is not None
            or self._dma_out_job is not None
        )

    def _complete(self) -> None:
        device_energy = (
            self.dma.energy_j()
            + self.dma_wb.energy_j()
            + self.input_spm.energy_j()
            + self.weight_spm.energy_j()
            + self.output_spm.energy_j()
        )
        self.stats.energy_j += device_energy - self._accounted_device_energy
        self._accounted_device_energy = device_energy
        self.busy = False
        # A bad descriptor enqueued mid-stream must surface as an error even
        # though the remaining tiles drained normally.
        self.mmr.mark_done(error=self._stream_error)
        self._stream_error = False
        if self.irq_line is not None and self.mmr.irq_enabled and not self.mmr.irq_per_tile:
            self.interrupt_controller.raise_interrupt(self.irq_line.index)

    # ------------------------------------------------------------------ #
    # scratchpad (de)serialisation: row-major signed 32-bit words, one
    # copy each way
    # ------------------------------------------------------------------ #
    @staticmethod
    def _read_matrix(
        spm: Scratchpad, offset_bytes: int, n_rows: int, n_cols: int
    ) -> np.ndarray:
        return spm.read_signed(offset_bytes, n_rows * n_cols).reshape(n_rows, n_cols)

    @staticmethod
    def _write_matrix(spm: Scratchpad, offset_bytes: int, matrix: np.ndarray) -> None:
        spm.write_signed(offset_bytes, matrix)

    # ------------------------------------------------------------------ #
    # compute unit (subclass responsibility)
    # ------------------------------------------------------------------ #
    def _compute(self, weights: np.ndarray, inputs: np.ndarray, config: dict):
        """Run the datapath; returns (cycles, energy_j, output matrix)."""
        raise NotImplementedError

    def area_mm2(self) -> float:
        """Die area of the accelerator [mm^2]."""
        raise NotImplementedError

    def _functional_product(self, weights: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """Backend product reduced to the integer output domain."""
        raw = self.backend.matmul(weights, inputs)
        raw = np.asarray(raw)
        if np.iscomplexobj(raw):
            raw = np.real(raw)
        return np.asarray(raw, dtype=np.int64)


class MACArrayAccelerator(BaseMatrixAccelerator):
    """Digital MAC-array GeMM accelerator (electronic DSA baseline).

    Attributes:
        n_mac_units: parallel multiply-accumulate units.
        mac_energy: energy per MAC [J] (digital 32-bit fixed point).
    """

    device_type = "mac-array"

    def __init__(self, *args, n_mac_units: int = 16, mac_energy: float = 1e-12, **kwargs):
        super().__init__(*args, **kwargs)
        if n_mac_units < 1:
            raise ValueError("n_mac_units must be >= 1")
        self.n_mac_units = int(n_mac_units)
        self.mac_energy = float(mac_energy)

    def _compute(self, weights: np.ndarray, inputs: np.ndarray, config: dict):
        rows, inner = weights.shape
        cols = inputs.shape[1]
        outputs = self._functional_product(weights, inputs)
        if config["scale_shift"]:
            outputs = outputs >> config["scale_shift"]
        # Timing: schedule the GeMM dataflow graph on the MAC array.  For
        # large products the graph is sampled (one representative output
        # block) and scaled, to keep simulation cost bounded.
        sample_rows = min(rows, 4)
        sample_cols = min(cols, 4)
        dfg = build_gemm_dfg(sample_rows, inner, sample_cols)
        schedule = dfg.schedule(resources={"mac": self.n_mac_units})
        scale = (rows * cols) / (sample_rows * sample_cols)
        cycles = int(np.ceil(schedule.total_cycles * scale))
        energy = rows * inner * cols * self.mac_energy
        return cycles, energy, outputs

    def area_mm2(self) -> float:
        """MAC array + SPM area (digital 16 nm-ish figures)."""
        mac_area = self.n_mac_units * 0.002
        spm_area = 3 * (self.input_spm.size_bytes / 1024) * 0.001
        return mac_area + spm_area


@lru_cache(maxsize=256)
def default_energy_model(rows: int, inner: int) -> PhotonicCoreEnergyModel:
    """Energy model of a ``rows x inner`` photonic core with default devices.

    A pure function of the tile shape: it reads no clock, no accelerator and
    no programmed state, so one model per shape serves every accelerator in
    the process.  Building one evaluates the PCM phase levels, which costs
    far more than the tile it times.  The cached object is shared; callers
    must treat it as read-only.
    """
    component_count = {
        "mzis": rows * (rows - 1) // 2 + inner * (inner - 1) // 2,
        "phase_shifters": rows * (rows - 1) + inner * (inner - 1) + rows + inner,
        "couplers": rows * (rows - 1) + inner * (inner - 1),
        "modes": max(rows, inner),
        "depth": rows + inner,
    }
    return PhotonicCoreEnergyModel(
        n_inputs=inner, n_outputs=rows, component_count=component_count
    )


def _tile_cost(
    model: PhotonicCoreEnergyModel, cols: int, include_programming: bool, clock_hz: float
) -> Tuple[int, float]:
    """``(cycles, energy_j)`` of one photonic tile of ``cols`` input columns."""
    # One optical pass per input column, pipelined at the modulator rate.
    latency_s = model.mvm_latency_s + (cols - 1) / model.mvm_rate_hz
    cycles = max(1, int(np.ceil(latency_s * clock_hz)))
    energy = model.inference_energy_j(cols, include_programming=include_programming)
    return cycles, energy


#: (rows, inner, cols, include_programming, clock_hz) -> (model, cycles, energy_j),
#: oldest first; bounded like the model cache, so a sweep over many shapes
#: or batch widths cannot grow it, or the models it holds, without limit
_DEFAULT_TILE_COSTS: Dict[tuple, tuple] = {}
_DEFAULT_TILE_COSTS_MAX = 1024


def default_tile_cost(
    rows: int, inner: int, cols: int, include_programming: bool, clock_hz: float
) -> Tuple[int, float]:
    """``(cycles, energy_j)`` of a tile on the default model of its shape.

    Decided once per ``(rows, inner, cols, include_programming, clock_hz)``
    and tied to :func:`default_energy_model`: an entry holds only while
    that function returns the model it was computed from, so after its
    ``cache_clear()``, or with it replaced by an uncached builder, the
    figures are computed again from the model it now returns.  At most
    ``_DEFAULT_TILE_COSTS_MAX`` entries are kept; a new one evicts the oldest.
    """
    model = default_energy_model(rows, inner)
    key = (rows, inner, cols, include_programming, clock_hz)
    entry = _DEFAULT_TILE_COSTS.get(key)
    if entry is None or entry[0] is not model:
        entry = (model, *_tile_cost(model, cols, include_programming, clock_hz))
        _DEFAULT_TILE_COSTS.pop(key, None)
        if len(_DEFAULT_TILE_COSTS) >= _DEFAULT_TILE_COSTS_MAX:
            del _DEFAULT_TILE_COSTS[next(iter(_DEFAULT_TILE_COSTS))]
        _DEFAULT_TILE_COSTS[key] = entry
    return entry[1], entry[2]


class PhotonicMVMAccelerator(BaseMatrixAccelerator):
    """Photonic in-memory GeMM accelerator (the paper's DSA).

    Attributes:
        energy_model: photonic core speed/energy/footprint model (its MVM
            dimensions must cover the offloaded tiles).
        backend: execution backend producing the functional result; pass
            ``backend="analog-photonic"``, or
            ``backend=AnalogPhotonicBackend(engine=...)`` to run a given
            :class:`~repro.core.mvm.PhotonicMVM`, so analog noise reaches
            the application, or keep the default ``ideal-digital`` for
            exact results with photonic timing/energy.
        reprogram_every_call: if True the weight-programming energy is paid
            on every offload (weights change per call); if False weights
            are considered resident (in-memory computing) after the first
            call.
    """

    device_type = "photonic"

    def __init__(
        self,
        *args,
        energy_model: Optional[PhotonicCoreEnergyModel] = None,
        reprogram_every_call: bool = False,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.energy_model = energy_model
        self.reprogram_every_call = reprogram_every_call
        self._programmed = False

    def _compute(self, weights: np.ndarray, inputs: np.ndarray, config: dict):
        rows, inner = weights.shape
        cols = inputs.shape[1]
        outputs = self._functional_product(weights, inputs)
        if config["scale_shift"]:
            outputs = outputs >> config["scale_shift"]

        include_programming = self.reprogram_every_call or not self._programmed
        if self.energy_model is not None:
            # an explicit model may change between tiles: read it every time
            cycles, energy = _tile_cost(
                self.energy_model, cols, include_programming, self.clock_hz
            )
        else:
            cycles, energy = default_tile_cost(
                rows, inner, cols, include_programming, self.clock_hz
            )
        self._programmed = True
        return cycles, energy, outputs

    def area_mm2(self) -> float:
        """Photonic core + SPM area."""
        spm_area = 3 * (self.input_spm.size_bytes / 1024) * 0.001
        if self.energy_model is not None:
            return self.energy_model.area_mm2() + spm_area
        return 1.0 + spm_area
