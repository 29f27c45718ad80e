"""Oracles for the host driver's tile-stream enqueue.

``PhotonicSoC._enqueue_streams`` programs every PE's tile stream through
its MMR block before the START writes.  These figures were taken from the
word-by-word driver (one bus write per descriptor register block, pitch
write, ``CTRL_ENQUEUE`` and flags/pitch restore) and pin what any driver
must leave behind: per-PE ``mmr.write_count``, ``data``, ``control`` and
``status``, the bus transfers, energy and contention counters, the report's
cycles and pipeline phases, and the descriptors the device latches.

Offloads run on three photonic PEs (a 12x8x5 GeMM; K-sharded runs split K
four ways, so one PE takes two slices) with the bus arbitration penalty at
0 and 3 and with ``irq_per_tile`` off and on.  Hand-built streams cover an
invalid descriptor mid-stream (the STATUS_ERROR path), descriptor fields
that 32-bit register masking changes, and a stale pitch register that a
dense stream latches.
"""

import dataclasses

import numpy as np
import pytest

from repro.eval.workloads import make_gemm_workload
from repro.system.accelerator import MACArrayAccelerator, REG_WEIGHTS_PITCH, TileDescriptor
from repro.system.memory import (
    MemoryAccessError,
    Scratchpad,
    WORD_BYTES,
    signed_to_words,
    words_to_signed,
)
from repro.system.mmr import DATA_OFFSET, STATUS_BUSY, STATUS_DONE, STATUS_ERROR
from repro.system.soc import PhotonicSoC, plan_k_shards, plan_shards


def _cluster(n_pes, arbitration_penalty=0):
    soc = PhotonicSoC()
    for _ in range(n_pes):
        soc.add_photonic_accelerator()
    soc.bus.arbitration_penalty = arbitration_penalty
    return soc


def _registers(soc):
    """Per PE: ``(write_count, control, status, data)``."""
    return [
        (pe.mmr.write_count, pe.mmr.control, pe.mmr.status, list(pe.mmr.data))
        for pe in soc.accelerators
    ]


def _latched(soc):
    """Record every ``(pe name, descriptor)`` the PEs' ``enqueue_tile`` receives."""
    seen = []
    for pe in soc.accelerators:
        def record(descriptor, name=pe.name, enqueue=pe.enqueue_tile):
            seen.append((name, descriptor))
            enqueue(descriptor)

        pe.enqueue_tile = record
    return seen


OFFLOADS = {
    "rows": dict(),
    "k-in-place": dict(k_shards=4),
    "k-staged": dict(k_shards=4, k_staging="staged"),
}

# (offload, arbitration penalty, irq_per_tile): (report.cycles, bus.transfers,
# bus.energy_j(), contention_cycles, contention_events, report.pipeline,
# per-PE (mmr.write_count, mmr.control, mmr.status, mmr.data))
OFFLOAD_FIGURES = {
    ("rows", 0, False): (
        604, 336, 3.36e-10, 0, 0,
        {"n_tiles": 6, "dma_cycles": 1485, "compute_cycles": 6, "serial_cycles": 1671,
         "critical_path_serial_cycles": 677, "pipelined_cycles": 604, "overlap_cycles": 1067,
         "intra_pe_overlap_cycles": 73},
        [
            (20, 5, 2, [4160, 16384, 32808, 2, 8, 5, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]),
            (20, 5, 2, [4288, 16384, 32888, 2, 8, 5, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]),
            (20, 5, 2, [4416, 16384, 32968, 2, 8, 5, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]),
        ],
    ),
    ("rows", 0, True): (
        604, 336, 3.36e-10, 0, 0,
        {"n_tiles": 6, "dma_cycles": 1485, "compute_cycles": 6, "serial_cycles": 1671,
         "critical_path_serial_cycles": 677, "pipelined_cycles": 604, "overlap_cycles": 1067,
         "intra_pe_overlap_cycles": 73},
        [
            (20, 21, 2, [4160, 16384, 32808, 2, 8, 5, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]),
            (20, 21, 2, [4288, 16384, 32888, 2, 8, 5, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]),
            (20, 21, 2, [4416, 16384, 32968, 2, 8, 5, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]),
        ],
    ),
    ("rows", 3, False): (
        862, 336, 3.36e-10, 288, 53,
        {"n_tiles": 6, "dma_cycles": 1728, "compute_cycles": 6, "serial_cycles": 2094,
         "critical_path_serial_cycles": 965, "pipelined_cycles": 862, "overlap_cycles": 1232,
         "intra_pe_overlap_cycles": 103},
        [
            (20, 5, 2, [4160, 16384, 32808, 2, 8, 5, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]),
            (20, 5, 2, [4288, 16384, 32888, 2, 8, 5, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]),
            (20, 5, 2, [4416, 16384, 32968, 2, 8, 5, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]),
        ],
    ),
    ("rows", 3, True): (
        862, 336, 3.36e-10, 288, 53,
        {"n_tiles": 6, "dma_cycles": 1728, "compute_cycles": 6, "serial_cycles": 2094,
         "critical_path_serial_cycles": 965, "pipelined_cycles": 862, "overlap_cycles": 1232,
         "intra_pe_overlap_cycles": 103},
        [
            (20, 21, 2, [4160, 16384, 32808, 2, 8, 5, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]),
            (20, 21, 2, [4288, 16384, 32888, 2, 8, 5, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]),
            (20, 21, 2, [4416, 16384, 32968, 2, 8, 5, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]),
        ],
    ),
    ("k-in-place", 0, False): (
        1485, 765, 7.649999999999999e-10, 0, 0,
        {"n_tiles": 8, "dma_cycles": 2112, "compute_cycles": 8, "serial_cycles": 2842,
         "critical_path_serial_cycles": 1782, "pipelined_cycles": 1485, "overlap_cycles":
        1357, "intra_pe_overlap_cycles": 297, "k_shards": 4, "accumulate_cycles": 455,
         "staging_cycles": 0, "staging_words": 0},
        [
            (43, 5, 2, [4312, 16504, 262984, 6, 2, 5, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0]),
            (23, 5, 2, [4296, 16424, 262504, 6, 2, 5, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]),
            (23, 5, 2, [4304, 16464, 262744, 6, 2, 5, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]),
        ],
    ),
    ("k-in-place", 0, True): (
        1485, 765, 7.649999999999999e-10, 0, 0,
        {"n_tiles": 8, "dma_cycles": 2112, "compute_cycles": 8, "serial_cycles": 2842,
         "critical_path_serial_cycles": 1782, "pipelined_cycles": 1485, "overlap_cycles":
        1357, "intra_pe_overlap_cycles": 297, "k_shards": 4, "accumulate_cycles": 455,
         "staging_cycles": 0, "staging_words": 0},
        [
            (43, 21, 2, [4312, 16504, 262984, 6, 2, 5, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0]),
            (23, 21, 2, [4296, 16424, 262504, 6, 2, 5, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]),
            (23, 21, 2, [4304, 16464, 262744, 6, 2, 5, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]),
        ],
    ),
    ("k-in-place", 3, False): (
        1800, 765, 7.649999999999999e-10, 363, 63,
        {"n_tiles": 8, "dma_cycles": 2568, "compute_cycles": 8, "serial_cycles": 3505,
         "critical_path_serial_cycles": 2187, "pipelined_cycles": 1800, "overlap_cycles":
        1705, "intra_pe_overlap_cycles": 387, "k_shards": 4, "accumulate_cycles": 455,
         "staging_cycles": 0, "staging_words": 0},
        [
            (43, 5, 2, [4312, 16504, 262984, 6, 2, 5, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0]),
            (23, 5, 2, [4296, 16424, 262504, 6, 2, 5, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]),
            (23, 5, 2, [4304, 16464, 262744, 6, 2, 5, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]),
        ],
    ),
    ("k-in-place", 3, True): (
        1800, 765, 7.649999999999999e-10, 363, 63,
        {"n_tiles": 8, "dma_cycles": 2568, "compute_cycles": 8, "serial_cycles": 3505,
         "critical_path_serial_cycles": 2187, "pipelined_cycles": 1800, "overlap_cycles":
        1705, "intra_pe_overlap_cycles": 387, "k_shards": 4, "accumulate_cycles": 455,
         "staging_cycles": 0, "staging_words": 0},
        [
            (43, 21, 2, [4312, 16504, 262984, 6, 2, 5, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0]),
            (23, 21, 2, [4296, 16424, 262504, 6, 2, 5, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]),
            (23, 21, 2, [4304, 16464, 262744, 6, 2, 5, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]),
        ],
    ),
    ("k-staged", 0, False): (
        2584, 1266, 1.266e-09, 0, 0,
        {"n_tiles": 8, "dma_cycles": 2112, "compute_cycles": 8, "serial_cycles": 3941,
         "critical_path_serial_cycles": 2881, "pipelined_cycles": 2584, "overlap_cycles":
        1357, "intra_pe_overlap_cycles": 297, "k_shards": 4, "accumulate_cycles": 455,
         "staging_cycles": 1132, "staging_words": 512},
        [
            (38, 5, 2, [263320, 263368, 263528, 6, 2, 5, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0]),
            (20, 5, 2, [262568, 262616, 262776, 6, 2, 5, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]),
            (20, 5, 2, [262944, 262992, 263152, 6, 2, 5, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]),
        ],
    ),
    ("k-staged", 0, True): (
        2584, 1266, 1.266e-09, 0, 0,
        {"n_tiles": 8, "dma_cycles": 2112, "compute_cycles": 8, "serial_cycles": 3941,
         "critical_path_serial_cycles": 2881, "pipelined_cycles": 2584, "overlap_cycles":
        1357, "intra_pe_overlap_cycles": 297, "k_shards": 4, "accumulate_cycles": 455,
         "staging_cycles": 1132, "staging_words": 512},
        [
            (38, 21, 2, [263320, 263368, 263528, 6, 2, 5, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0]),
            (20, 21, 2, [262568, 262616, 262776, 6, 2, 5, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]),
            (20, 21, 2, [262944, 262992, 263152, 6, 2, 5, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]),
        ],
    ),
    ("k-staged", 3, False): (
        2872, 1266, 1.266e-09, 336, 57,
        {"n_tiles": 8, "dma_cycles": 2568, "compute_cycles": 8, "serial_cycles": 4577,
         "critical_path_serial_cycles": 3259, "pipelined_cycles": 2872, "overlap_cycles":
        1705, "intra_pe_overlap_cycles": 387, "k_shards": 4, "accumulate_cycles": 455,
         "staging_cycles": 1132, "staging_words": 512},
        [
            (38, 5, 2, [263320, 263368, 263528, 6, 2, 5, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0]),
            (20, 5, 2, [262568, 262616, 262776, 6, 2, 5, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]),
            (20, 5, 2, [262944, 262992, 263152, 6, 2, 5, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]),
        ],
    ),
    ("k-staged", 3, True): (
        2872, 1266, 1.266e-09, 336, 57,
        {"n_tiles": 8, "dma_cycles": 2568, "compute_cycles": 8, "serial_cycles": 4577,
         "critical_path_serial_cycles": 3259, "pipelined_cycles": 2872, "overlap_cycles":
        1705, "intra_pe_overlap_cycles": 387, "k_shards": 4, "accumulate_cycles": 455,
         "staging_cycles": 1132, "staging_words": 512},
        [
            (38, 21, 2, [263320, 263368, 263528, 6, 2, 5, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0]),
            (20, 21, 2, [262568, 262616, 262776, 6, 2, 5, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]),
            (20, 21, 2, [262944, 262992, 263152, 6, 2, 5, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]),
        ],
    ),
}


class TestTiledOffloadRegisters:
    @pytest.mark.parametrize("case", sorted(OFFLOAD_FIGURES), ids=str)
    def test_offload_matches_word_driver_figures(self, case):
        offload, penalty, irq_per_tile = case
        cycles, transfers, energy_j, contention_cycles, contention_events, pipeline, pes = (
            OFFLOAD_FIGURES[case]
        )
        soc = _cluster(3, arbitration_penalty=penalty)
        weights, inputs = make_gemm_workload(12, 8, 5, rng=5)
        report = soc.run_tiled_gemm(weights, inputs, irq_per_tile=irq_per_tile,
                                    **OFFLOADS[offload])
        assert np.array_equal(report.result, weights @ inputs)
        assert report.cycles == cycles
        assert report.pipeline == pipeline
        assert soc.bus.transfers == transfers
        assert soc.bus.energy_j() == energy_j
        assert (soc.bus.contention_cycles, soc.bus.contention_events) == (
            contention_cycles, contention_events,
        )
        assert _registers(soc) == pes


# ---------------------------------------------------------------------- #
# hand-built streams
# ---------------------------------------------------------------------- #
A_ADDR, B_ADDR, C_ADDR = 0x1000, 0x4000, 0x8000
HIGH = 1 << 32  # a bit the 32-bit data registers drop


def _tile(first_row, rows, load_input, **fields):
    """A tile of the 6x4x3 GeMM at A_ADDR/B_ADDR/C_ADDR starting at ``first_row``."""
    return TileDescriptor(
        weights_addr=A_ADDR + first_row * 4 * WORD_BYTES,
        input_addr=B_ADDR,
        output_addr=C_ADDR + first_row * 3 * WORD_BYTES,
        rows=rows, inner=4, cols=3, load_input=load_input, **fields,
    )


def _loaded(soc):
    weights, inputs = make_gemm_workload(6, 4, 3, rng=7)
    soc.write_matrix(A_ADDR, weights)
    soc.write_matrix(B_ADDR, inputs)
    return weights, inputs


class TestHandBuiltStreams:
    def test_invalid_descriptor_mid_stream_errors_that_pe_only(self):
        soc = _cluster(2, arbitration_penalty=3)
        weights, inputs = _loaded(soc)
        invalid = TileDescriptor(A_ADDR, B_ADDR, C_ADDR, 0, 4, 3, load_input=False)
        plans = [[_tile(4, 2, True)], [_tile(0, 2, True), invalid, _tile(2, 2, False)]]
        seen = _latched(soc)
        # PE 0 starts first and holds the bus while PE 1 is programmed
        assert soc._enqueue_streams(plans, False) == (207, 4)
        assert seen == [
            ("photonic0", plans[0][0]),
            ("photonic1", plans[1][0]),
            ("photonic1", invalid),
            ("photonic1", plans[1][2]),
        ]
        assert (soc.bus.transfers, soc.bus.contention_cycles, soc.bus.contention_events) == (
            60, 87, 29,
        )
        with pytest.raises(RuntimeError, match="rejected by photonic1 "):
            soc._run_streams(plans)
        assert _registers(soc) == [
            (11, 5, STATUS_DONE, [4160, 16384, 32816, 2, 4, 3, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0]),
            (29, 5, STATUS_ERROR, [4128, 16384, 32792, 2, 4, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
        ]
        assert [pe.stats.tiles_completed for pe in soc.accelerators] == [1, 0]
        assert not any(pe.busy for pe in soc.accelerators)
        result = soc.read_matrix(C_ADDR, 6, 3)
        assert np.array_equal(result[4:], (weights @ inputs)[4:])
        assert not result[:4].any()

    def test_fields_are_latched_masked_to_32_bits(self):
        soc = _cluster(1)
        weights, inputs = _loaded(soc)
        plans = [[
            TileDescriptor(A_ADDR + HIGH, B_ADDR + 5 * HIGH, C_ADDR + (1 << 40), 3, 4, 3,
                           scale_shift=2 * HIGH, load_input=True, weights_pitch=4 + HIGH),
            TileDescriptor(A_ADDR + 12 * WORD_BYTES + HIGH, B_ADDR, C_ADDR + 9 * WORD_BYTES,
                           3, 4, 3, load_input=False, weights_pitch=4),
        ]]
        seen = _latched(soc)
        assert soc._enqueue_streams(plans, True) == (69, 2)
        assert seen == [
            ("photonic0", TileDescriptor(4096, 16384, 32768, 3, 4, 3, scale_shift=0,
                                         load_input=True, weights_pitch=4)),
            ("photonic0", TileDescriptor(4144, 16384, 32804, 3, 4, 3, scale_shift=0,
                                         load_input=False, weights_pitch=4)),
        ]
        assert soc.bus.transfers == 47
        assert soc._run_streams(plans) == 294
        assert _registers(soc) == [
            (23, 21, STATUS_DONE, [4144, 16384, 32804, 3, 4, 3, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]),
        ]
        assert np.array_equal(soc.read_matrix(C_ADDR, 6, 3), weights @ inputs)

    def test_dense_stream_latches_a_stale_pitch_register(self):
        soc = _cluster(1)
        _loaded(soc)
        pe = soc.accelerators[0]
        soc.bus.write_word(pe.mmr_base + DATA_OFFSET + REG_WEIGHTS_PITCH * WORD_BYTES, 11)
        plans = [[_tile(0, 3, True), _tile(3, 3, False)]]
        seen = _latched(soc)
        assert soc._enqueue_streams(plans, False) == (60, 2)
        assert seen == [
            ("photonic0", TileDescriptor(4096, 16384, 32768, 3, 4, 3, load_input=True,
                                         weights_pitch=11)),
            ("photonic0", TileDescriptor(4144, 16384, 32804, 3, 4, 3, load_input=False,
                                         weights_pitch=11)),
        ]
        assert _registers(soc) == [
            (21, 5, STATUS_BUSY, [4144, 16384, 32804, 3, 4, 3, 0, 0, 0, 11, 0, 0, 0, 0, 0, 0]),
        ]


# ---------------------------------------------------------------------- #
# the stream block access
# ---------------------------------------------------------------------- #
def _block_state(soc):
    return (
        soc.bus.transfers, soc.bus.contention_cycles, soc.bus.contention_events,
        _registers(soc), [list(pe._pending) for pe in soc.accelerators],
    )


class TestStreamBlockAccess:
    def test_empty_stream_charges_nothing(self):
        soc = _cluster(1, arbitration_penalty=3)
        soc.bus.begin_stream("other-dma")
        before = _block_state(soc)
        assert soc.bus.write_stream(soc.accelerators[0].mmr_base, []) == 0
        assert _block_state(soc) == before

    def test_each_tile_fit_is_decided_once(self):
        soc = _cluster(2)
        fits = []
        for pe in soc.accelerators:
            def counted(descriptor, fit=pe._tile_fit):
                fits.append(descriptor)
                return fit(descriptor)

            pe._tile_fit = counted
        weights, inputs = make_gemm_workload(12, 8, 5, rng=5)
        report = soc.run_tiled_gemm(weights, inputs, tile_rows=2)
        assert np.array_equal(report.result, weights @ inputs)
        assert len(fits) == report.pipeline["n_tiles"] == 6


class TestPlanMemo:
    def test_calls_share_descriptors_but_never_lists(self):
        first = plan_shards(13, 6, 5, 3, 0x1000, 0x4000, 0x8000, tile_rows=2)
        first[0].append("junk")
        first.append([])
        second = plan_shards(13, 6, 5, 3, 0x1000, 0x4000, 0x8000, tile_rows=2)
        assert len(second) == 3 and "junk" not in second[0]
        assert second is not first and second[1] is not first[1]
        assert second[1][0] is first[1][0]

    def test_k_slices_are_frozen_and_fresh_per_call(self):
        first = plan_k_shards(8, 12, 5, 3, a_addr=0x1000, b_addr=0x4000)
        second = plan_k_shards(8, 12, 5, 3, a_addr=0x1000, b_addr=0x4000)
        assert first == second and first is not second
        assert all(isinstance(piece.descriptors, tuple) for piece in first)
        with pytest.raises(dataclasses.FrozenInstanceError):
            first[0].k_start = 1

    def test_invalid_arguments_still_raise_every_time(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="dimensions must be positive"):
                plan_shards(0, 4, 4, 2, 0, 0, 0)


class TestScratchpadMatrices:
    VALUES = np.array([0, 1, -1, 2**31 - 1, -2**31, 2**31, -2**31 - 1, 2**40 + 5, -7],
                      dtype=np.int64)

    def test_signed_block_io_equals_word_conversion(self):
        one_copy, reference = Scratchpad(256), Scratchpad(256)
        one_copy.write_signed(8, self.VALUES.reshape(3, 3))
        reference.write_block(8, signed_to_words(self.VALUES))
        assert np.array_equal(one_copy._words, reference._words)
        values = one_copy.read_signed(8, self.VALUES.size)
        expected = words_to_signed(reference.read_block(8, self.VALUES.size))
        assert values.dtype == np.int64 and np.array_equal(values, expected)
        assert one_copy.stats == reference.stats

    def test_signed_block_io_checks_its_range(self):
        spm = Scratchpad(16)
        with pytest.raises(MemoryAccessError):
            spm.write_signed(8, [1, 2, 3])
        with pytest.raises(MemoryAccessError):
            spm.read_signed(4, 4)
        assert spm.stats.accesses == 0

    def test_non_integer_outputs_are_still_rounded(self):
        class HalfwayMAC(MACArrayAccelerator):
            def _compute(self, weights, inputs, config):
                cycles, energy, outputs = super()._compute(weights, inputs, config)
                return cycles, energy, outputs + 0.4

        soc = PhotonicSoC()
        soc._attach_accelerator(HalfwayMAC(soc.scheduler, soc.bus, name="mac0"))
        weights, inputs = make_gemm_workload(4, 3, 2, rng=1)
        report = soc.run_tiled_gemm(weights, inputs)
        assert np.array_equal(report.result, weights @ inputs)
